"""Independent checks of boolekit CLI documents.

Nothing here imports boolekit.  Expected values come from the closed forms,
computed with ``math.comb``, ``math.factorial`` and ``fractions.Fraction``:

* verify: case (n, m) at step b has rhs (-1)^n b^n n! when m = n and 0 when
  m < n, lhs equal to rhs, and pass true; the cases are exactly the sweep
  over the fixed pair plus the seeded pairs, in order;
* det: every determinant route equals 1!*2!*...*n! * b^(n(n+1)/2), and
  every column numerator equals (-1)^(n-k) C(n,k) times that;
* solve: both solution columns equal the signed binomials (-1)^(n-k) C(n,k).

``check`` returns None for an accepted document and a reason otherwise.
``tamper`` changes one expected value, so a run can prove that the check
rejects a wrong document.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from fractions import Fraction

_CANONICAL = re.compile(r"(-?\d+)/(\d+)")

# The CLI draws trial pairs with components uniform in [-9, 9]; the
# reimplementation below must reproduce its documents byte for byte.
_COMPONENT_BOUND = 9

# Per command: the list holding the checked records (None for a csv body)
# and the field tamper() alters.
_TAMPER_FIELD = {
    "verify": ("cases", "rhs"),
    "det": ("columns", "closed"),
    "solve": (None, "signed_binomial"),
}


class Rejected(Exception):
    """A document that does not match the expected values."""


def flags(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The command and its ``--flag value`` / ``--flag=value`` pairs."""
    command, rest = argv[0], argv[1:]
    values: dict[str, str] = {}
    index = 0
    while index < len(rest):
        token = rest[index]
        if "=" in token:
            key, value = token.split("=", 1)
            index += 1
        else:
            key, value = token, rest[index + 1]
            index += 2
        values[key.lstrip("-")] = value
    return command, values


def rational(text: str) -> Fraction:
    """A flag value such as ``-3``, ``9/4``."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def canonical(text: str) -> Fraction:
    """Parse a document rational, which must be a reduced ``p/q`` with q > 0."""
    match = _CANONICAL.fullmatch(text)
    if match is None:
        raise Rejected(f"not a p/q rational: {text!r}")
    num, den = int(match.group(1)), int(match.group(2))
    if den == 0 or math.gcd(num, den) != 1:
        raise Rejected(f"not in lowest terms: {text!r}")
    return Fraction(num, den)


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _expect(label: str, got, want) -> None:
    if got != want:
        raise Rejected(f"{label}: got {got!r}, expected {want!r}")


def cli_pairs(a: Fraction, b: Fraction, seed: int, trials: int) -> list[tuple[Fraction, Fraction]]:
    """The fixed pair followed by the CLI's seeded trial pairs."""
    rng = random.Random(seed)

    def component() -> Fraction:
        num = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
        den = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
        while den == 0:
            den = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
        return Fraction(num, den)

    pairs = [(a, b)]
    for _ in range(trials):
        pairs.append((component(), component()))
    return pairs


def superfactorial(n: int) -> int:
    product = 1
    for i in range(1, n + 1):
        product *= math.factorial(i)
    return product


def signed_binomial(n: int, k: int) -> int:
    return (-1) ** (n - k) * math.comb(n, k)


def _records(command: str, fmt: str, document: str) -> tuple[dict, list[dict]]:
    """Top-level object (empty for csv) and the list of per-row records."""
    if fmt == "json":
        top = json.loads(document)
        _expect("command", top.get("command"), command)
        key = _TAMPER_FIELD[command][0]
        return top, top.get(key, [])
    return {}, list(csv.DictReader(io.StringIO(document)))


def _check_verify(values: dict[str, str], fmt: str, document: str) -> None:
    a = rational(values.get("a", "0"))
    b = rational(values.get("b", "1"))
    n_max = int(values.get("n-max", "10"))
    seed = int(values.get("seed", "0"))
    trials = int(values.get("trials", "0"))
    top, cases = _records("verify", fmt, document)
    pairs = cli_pairs(a, b, seed, trials)
    per_pair = (n_max + 1) * (n_max + 2) // 2
    _expect("case count", len(cases), len(pairs) * per_pair)
    if fmt == "json":
        _expect("params", top["params"], {"a": _frac(a), "b": _frac(b), "n_max": n_max, "seed": seed})
        _expect("summary", top["summary"], {"total": len(cases), "failures": 0})
    pass_value = True if fmt == "json" else "true"
    index = 0
    for pa, pb in pairs:
        for n in range(n_max + 1):
            closed = (-1) ** n * pb**n * math.factorial(n)
            for m in range(n + 1):
                case = cases[index]
                index += 1
                where = f"case {index - 1}"
                _expect(f"{where} n,m", (int(case["n"]), int(case["m"])), (n, m))
                _expect(f"{where} a,b", (canonical(case["a"]), canonical(case["b"])), (pa, pb))
                rhs = canonical(case["rhs"])
                _expect(f"{where} rhs", rhs, closed if m == n else Fraction(0))
                _expect(f"{where} lhs", canonical(case["lhs"]), rhs)
                _expect(f"{where} pass", case["pass"], pass_value)


def _check_det(values: dict[str, str], document: str) -> None:
    a, b, n = rational(values["a"]), rational(values["b"]), int(values["n"])
    top, columns = _records("det", "json", document)
    _expect("params", top["params"], {"a": _frac(a), "b": _frac(b), "n": n})
    det = superfactorial(n) * b ** (n * (n + 1) // 2)
    for route in ("closed", "pairwise", "elimination"):
        _expect(route, canonical(top[route]), det)
    _expect("column count", len(columns), n + 1)
    for k, column in enumerate(columns):
        numerator = signed_binomial(n, k) * det
        _expect(f"column {k} k", column["k"], k)
        _expect(f"column {k} closed", canonical(column["closed"]), numerator)
        _expect(f"column {k} elimination", canonical(column["elimination"]), numerator)
        _expect(f"column {k} agree", column["agree"], True)
    _expect("agree", top["agree"], True)


def _check_solve(values: dict[str, str], document: str) -> None:
    n = int(values["n"])
    _, rows = _records("solve", "csv", document)
    _expect("row count", len(rows), n + 1)
    for k, row in enumerate(rows):
        expected = Fraction(signed_binomial(n, k))
        _expect(f"row {k} k", int(row["k"]), k)
        _expect(f"row {k} eliminated", canonical(row["eliminated"]), expected)
        _expect(f"row {k} signed_binomial", canonical(row["signed_binomial"]), expected)
        _expect(f"row {k} agree", row["agree"], "true")


def check(argv: list[str], document: str) -> str | None:
    """None when the document of ``boolekit <argv>`` is right, else the first mismatch."""
    command, values = flags(argv)
    fmt = values.get("format", "text")
    try:
        if command == "verify":
            _check_verify(values, fmt, document)
        elif command == "det" and fmt == "json":
            _check_det(values, document)
        elif command == "solve" and fmt == "csv":
            _check_solve(values, document)
        else:
            return f"no oracle for {command} --format {fmt}"
    except Rejected as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed document: {type(exc).__name__}: {exc}"
    return None


def tamper(argv: list[str], document: str) -> str:
    """The document with one expected value raised by 1, in the middle row."""
    command, values = flags(argv)
    key, field = _TAMPER_FIELD[command]
    if values.get("format") == "json":
        top = json.loads(document)
        record = top[key][len(top[key]) // 2]
        record[field] = _frac(canonical(record[field]) + 1)
        return json.dumps(top, indent=2)
    rows = list(csv.reader(io.StringIO(document)))
    column = rows[0].index(field)
    row = rows[1 + (len(rows) - 1) // 2]
    row[column] = _frac(canonical(row[column]) + 1)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()
