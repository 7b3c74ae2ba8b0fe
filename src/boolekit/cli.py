"""Command-line front end.

Subcommands: verify (identity sweeps), solve (power-sum system solution two
ways), det (determinant routes side by side), stirling (partition-number
table with verification column), bench (closed form vs elimination timing).

Each command computes once and returns a record, its csv rows and lazy text
lines; main renders the chosen format in one place (the json encoder and
the csv path format every Fraction, the text lines arrive formatted).
Documents go to --output when given, stdout otherwise; every rational
inside json or csv output uses the canonical "p/q" form so it parses back
with parse_rational.

Exit codes:
  0  all checks passed;
  1  at least one identity or agreement failure, or a singular system
     where a solution was required;
  2  usage error (argparse raises SystemExit(2) itself), or an --output
     path that cannot be written (one line on stderr).
A reader that closes stdout early (``| head``) ends the run quietly with the
command's own exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import re
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .boole_identity import (
    CaseResult,
    boole_sum,
    closed_form_solution,
    stirling2,
    verify_cramer,
    verify_generalized_boole,
    verify_stirling,
)
from .rational_core import Rational, factorial, format_rational, parse_rational
from .vandermonde import (
    ArithmeticNodes,
    SingularMatrixError,
    build_system,
    det_bareiss,
    det_cramer_numerator,
    det_vandermonde_closed,
    det_vandermonde_general,
    solve_exact,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_TIMING_REPS = 5
_COMPONENT_BOUND = 9

_NEGATIVE_RATIONAL = re.compile(r"-\d+(?:/\d+)?$")

# What every command returns: (exit code, json record, csv rows, text lines).
Outcome = tuple[int, dict, list[dict] | None, Iterable[str]]


def random_rational(rng: random.Random) -> Rational:
    """One rational with numerator and denominator uniform in [-9, 9], denominator nonzero."""
    numerator = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
    denominator = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
    while denominator == 0:
        denominator = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
    return Fraction(numerator, denominator)


def seeded_parameter_pairs(seed: int, count: int) -> list[tuple[Rational, Rational]]:
    """Deterministic (a, b) draws; b = 0 occurs whenever its numerator draw is 0."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = random_rational(rng)
        b = random_rational(rng)
        pairs.append((a, b))
    return pairs


def _rational_arg(text: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _natural_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a value >= 0, got {value}")
    return value


def _positive_arg(text: str) -> int:
    value = _natural_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a value >= 1, got {value}")
    return value


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    """Fold "--a -3/4" into "--a=-3/4" so negative rationals survive argparse.

    A bare token like "-3/4" looks like an option cluster to argparse; gluing
    it to its flag with "=" sidesteps that without touching any other token.
    """
    merged: list[str] = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if (
            token in ("--a", "--b")
            and index + 1 < len(argv)
            and _NEGATIVE_RATIONAL.fullmatch(argv[index + 1])
        ):
            merged.append(f"{token}={argv[index + 1]}")
            index += 2
        else:
            merged.append(token)
            index += 1
    return merged


def _add_node_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--a", type=_rational_arg, default=Fraction(0), metavar="P/Q",
        help="node offset, a rational like 3, -2, or 9/4 (default 0)",
    )
    parser.add_argument(
        "--b", type=_rational_arg, default=Fraction(1), metavar="P/Q",
        help="node step, a rational like 1, -1/3 (default 1)",
    )


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str = "text") -> None:
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default=default_format,
        help=f"document format (default {default_format})",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the document to PATH instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolekit",
        description="Exact verification of alternating binomial power sums "
        "via Vandermonde systems on arithmetic-progression nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="sweep the generalized identity, with Cramer and Stirling cross-checks",
    )
    _add_node_flags(verify)
    verify.add_argument("--n-max", type=_natural_arg, default=10, metavar="N",
                        help="largest order n in the sweep (default 10)")
    verify.add_argument("--m-max", type=_natural_arg, default=12, metavar="N",
                        help="largest exponent in the Stirling cross-check grid (default 12)")
    verify.add_argument("--trials", type=_natural_arg, default=0, metavar="N",
                        help="extra random (a, b) pairs to sweep (default 0)")
    verify.add_argument("--seed", type=_natural_arg, default=0, metavar="N",
                        help="seed for the random pairs (default 0)")
    _add_output_flags(verify)

    solve = sub.add_parser("solve", help="solve the power-sum system two independent ways")
    _add_node_flags(solve)
    solve.add_argument("--n", type=_natural_arg, default=2, metavar="N",
                       help="system order; the matrix has side n+1 (default 2)")
    _add_output_flags(solve)

    det = sub.add_parser("det", help="compare determinant routes and Cramer numerators")
    _add_node_flags(det)
    det.add_argument("--n", type=_natural_arg, default=2, metavar="N",
                     help="system order (default 2)")
    _add_output_flags(det)

    stirling = sub.add_parser("stirling", help="partition-number table with verification column")
    stirling.add_argument("--m-max", type=_natural_arg, default=8, metavar="N",
                          help="largest set size m (default 8)")
    stirling.add_argument("--n-max", type=_natural_arg, default=8, metavar="N",
                          help="largest block count n (default 8)")
    _add_output_flags(stirling)

    bench = sub.add_parser("bench", help="time the closed-form determinant against elimination")
    bench.add_argument("--n-max", type=_positive_arg, default=8, metavar="N",
                       help="top of the order ladder 1..N (default 8)")
    bench.add_argument("--seed", type=_natural_arg, default=0, metavar="N",
                       help="seed for the node parameters (default 0)")
    _add_output_flags(bench, default_format="csv")

    return parser




def _frac(value: Rational) -> str:
    return format_rational(value, always_fraction=True)


def _plain(value: Rational) -> str:
    return format_rational(value)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _ok(value: bool) -> str:
    return "ok" if value else "FAIL"


def _agreement(value: bool) -> str:
    return "agreement: " + ("yes" if value else "NO")


def _csv_cell(value: object) -> object:
    if isinstance(value, bool):
        return _flag(value)
    return _frac(value) if isinstance(value, Fraction) else value


def _csv_document(rows: Sequence[dict]) -> str:
    """Header from the first row's keys, then one line per row (no command has zero rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([_csv_cell(value) for value in row.values()] for row in rows)
    return buffer.getvalue().rstrip("\n")


def cmd_verify(args: argparse.Namespace) -> Outcome:
    """Sweep the generalized identity for the fixed pair plus seeded trials.

    Cramer component checks (per pair with nonzero b, at order n_max) and the
    Stirling grid run as gates: when they pass they only add summary notes,
    when they fail their failing cases join the report and force exit 1.
    """
    pairs = [(args.a, args.b)] + seeded_parameter_pairs(args.seed, args.trials)
    cases: list[CaseResult] = []
    for a, b in pairs:
        cases.extend(verify_generalized_boole(a, b, args.n_max).results)
    rows_skipped = sum(1 for _, b in pairs if b == 0)
    rows_checked = len(pairs) - rows_skipped
    cramer_passed = 0
    for a, b in pairs:
        if b != 0:
            component_report = verify_cramer(a, b, args.n_max)
            cramer_passed += component_report.ok
            cases.extend(r for r in component_report.results if not r.passed)
    stirling_report = verify_stirling(args.m_max, args.n_max)
    cases.extend(r for r in stirling_report.results if not r.passed)
    notes = (
        f"system rows substituted for {rows_checked} pair(s), "
        f"skipped for {rows_skipped} pair(s) with b = 0",
        f"cramer component checks passed for {cramer_passed} of {rows_checked} "
        f"pair(s) at n = {args.n_max}",
        f"stirling grid m <= {args.m_max}, n <= {args.n_max}: "
        + ("ok" if stirling_report.ok else "FAILED"),
    )
    failures = sum(1 for result in cases if not result.passed)
    rows = [
        {"n": r.case.n, "m": r.case.m, "a": r.case.a, "b": r.case.b,
         "lhs": r.lhs, "rhs": r.rhs, "pass": r.passed}
        for r in cases
    ]
    record = {
        "command": "verify",
        "params": {"a": args.a, "b": args.b, "n_max": args.n_max, "seed": args.seed},
        "cases": rows,
        "summary": {"total": len(cases), "failures": failures},
    }

    def text() -> Iterator[str]:
        yield (f"verify sweep: a={_plain(args.a)} b={_plain(args.b)} "
               f"n_max={args.n_max} trials={args.trials} seed={args.seed}")
        for row in rows:
            yield (f"n={row['n']} m={row['m']} a={_plain(row['a'])} b={_plain(row['b'])} "
                   f"lhs={_plain(row['lhs'])} rhs={_plain(row['rhs'])} {_ok(row['pass'])}")
        yield from (f"note: {note}" for note in notes)
        yield f"total={len(cases)} failures={failures}"

    return (EXIT_OK if failures == 0 else EXIT_FAILURE), record, rows, text()


def cmd_solve(args: argparse.Namespace) -> Outcome:
    """Solve by elimination, compare against the signed binomials, flag mismatch."""
    system = build_system(ArithmeticNodes(args.a, args.b, args.n))
    params = {"a": args.a, "b": args.b, "n": args.n}
    try:
        eliminated = solve_exact(system)
    except SingularMatrixError as exc:
        message = f"singular system: {exc}"
        record = {"command": "solve", "params": params, "error": message}
        return EXIT_FAILURE, record, None, (message,)
    binomial_vector = [Fraction(c) for c in closed_form_solution(args.n)]
    agree = eliminated == binomial_vector
    record = {
        "command": "solve",
        "params": params,
        "eliminated": eliminated,
        "signed_binomials": binomial_vector,
        "agree": agree,
    }
    rows = [
        {"k": k, "eliminated": x, "signed_binomial": y, "agree": x == y}
        for k, (x, y) in enumerate(zip(eliminated, binomial_vector))
    ]

    def text() -> Iterator[str]:
        yield f"power-sum system: a={_plain(args.a)} b={_plain(args.b)} n={args.n}"
        yield "matrix:"
        yield from ("  " + row for row in system.matrix.render().splitlines())
        yield "rhs: " + " ".join(_frac(v) for v in system.rhs)
        yield "eliminated:       " + " ".join(_plain(x) for x in eliminated)
        yield "signed binomials: " + " ".join(_plain(x) for x in binomial_vector)
        yield _agreement(agree)

    return (EXIT_OK if agree else EXIT_FAILURE), record, rows, text()


def cmd_det(args: argparse.Namespace) -> Outcome:
    """Compare the three determinant routes and every Cramer numerator."""
    nodes = ArithmeticNodes(args.a, args.b, args.n)
    system = build_system(nodes)
    closed = det_vandermonde_closed(args.n, args.b)
    pairwise = det_vandermonde_general(nodes.values())
    eliminated = det_bareiss(system.matrix)
    agree = closed == pairwise and closed == eliminated
    signed = closed_form_solution(args.n)
    columns = []
    for k in range(args.n + 1):
        numerator = det_cramer_numerator(args.n, k, args.b)
        substituted = det_bareiss(system.matrix.with_column(k, system.rhs))
        column_agree = numerator == substituted
        if args.b != 0:
            column_agree = column_agree and numerator / closed == signed[k]
        columns.append(
            {"k": k, "closed": numerator, "elimination": substituted, "agree": column_agree}
        )
        agree = agree and column_agree
    record = {
        "command": "det",
        "params": {"a": args.a, "b": args.b, "n": args.n},
        "closed": closed,
        "pairwise": pairwise,
        "elimination": eliminated,
        "columns": columns,
        "agree": agree,
    }
    rows = [
        {"item": "closed", "value": closed},
        {"item": "pairwise", "value": pairwise},
        {"item": "elimination", "value": eliminated},
        *({"item": f"column_{c['k']}", "value": c["closed"]} for c in columns),
        {"item": "agree", "value": agree},
    ]

    def text() -> Iterator[str]:
        yield f"determinants: a={_plain(args.a)} b={_plain(args.b)} n={args.n}"
        yield f"closed form:          {_plain(closed)}"
        yield f"pairwise product:     {_plain(pairwise)}"
        yield f"elimination:          {_plain(eliminated)}"
        for c in columns:
            yield (f"column k={c['k']}: closed={_plain(c['closed'])} "
                   f"elimination={_plain(c['elimination'])} {_ok(c['agree'])}")
        yield _agreement(agree)

    return (EXIT_OK if agree else EXIT_FAILURE), record, rows, text()


def cmd_stirling(args: argparse.Namespace) -> Outcome:
    """Partition-number table with the n! * S(m,n) = alternating-sum column."""
    rows = []
    for m in range(args.m_max + 1):
        for n in range(args.n_max + 1):
            partitions = stirling2(m, n)
            scaled = factorial(n) * partitions
            direct = boole_sum(n, m)
            rows.append({"m": m, "n": n, "stirling2": partitions, "scaled": scaled,
                         "boole_sum": direct, "agree": scaled == direct})
    agree = all(row["agree"] for row in rows)
    record = {
        "command": "stirling",
        "params": {"m_max": args.m_max, "n_max": args.n_max},
        "rows": rows,
        "agree": agree,
    }

    def text() -> Iterator[str]:
        yield f"stirling table: m_max={args.m_max} n_max={args.n_max}"
        yield "m n S(m,n) n!*S(m,n) alternating_sum ok"
        for r in rows:
            yield (f"{r['m']} {r['n']} {r['stirling2']} {r['scaled']} {r['boole_sum']} "
                   f"{_ok(r['agree'])}")
        yield _agreement(agree)

    return (EXIT_OK if agree else EXIT_FAILURE), record, rows, text()


def _median_time_ns(fn: Callable[[], object]) -> int:
    samples = []
    for _ in range(_TIMING_REPS):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return int(statistics.median(samples))


def cmd_bench(args: argparse.Namespace) -> Outcome:
    """Time closed-form vs elimination determinants on the ladder n = 1..n_max.

    Values are compared for exact agreement before any timing is recorded;
    the timings themselves are the only nondeterministic output fields.
    """
    rng = random.Random(args.seed)
    rows = []
    for n in range(1, args.n_max + 1):
        a = random_rational(rng)
        b = random_rational(rng)
        while b == 0:
            b = random_rational(rng)
        matrix = build_system(ArithmeticNodes(a, b, n)).matrix
        agree = det_vandermonde_closed(n, b) == det_bareiss(matrix)
        closed_ns = _median_time_ns(lambda n=n, b=b: det_vandermonde_closed(n, b))
        bareiss_ns = _median_time_ns(lambda matrix=matrix: det_bareiss(matrix))
        rows.append({"n": n, "closed_ns": closed_ns, "bareiss_ns": bareiss_ns, "agree": agree})
    agree = all(row["agree"] for row in rows)
    record = {
        "command": "bench",
        "params": {"n_max": args.n_max, "seed": args.seed},
        "rows": rows,
        "agree": agree,
    }

    def text() -> Iterator[str]:
        yield f"bench: n_max={args.n_max} seed={args.seed}"
        yield "n closed_ns bareiss_ns agree"
        for r in rows:
            yield f"{r['n']} {r['closed_ns']} {r['bareiss_ns']} {_flag(r['agree'])}"

    return (EXIT_OK if agree else EXIT_FAILURE), record, rows, text()


_HANDLERS: dict[str, Callable[[argparse.Namespace], Outcome]] = {
    "verify": cmd_verify,
    "solve": cmd_solve,
    "det": cmd_det,
    "stirling": cmd_stirling,
    "bench": cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Parse flags, run the command, write its document; returns the exit code.

    Usage errors do not return: argparse raises SystemExit(2).  An --output
    path that cannot be written returns EXIT_USAGE with one line on stderr;
    a reader that closes stdout early ends the run quietly with the
    command's own exit code.
    """
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_merge_negative_values(raw))
    code, record, csv_rows, text_lines = _HANDLERS[args.command](args)
    if args.format == "json":
        document = json.dumps(record, indent=2, default=_frac)
    elif args.format == "csv" and csv_rows is not None:
        document = _csv_document(csv_rows)
    else:
        document = "\n".join(text_lines)
    if args.output is not None:
        try:
            Path(args.output).write_text(document + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"boolekit: cannot write --output {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        return code
    try:
        print(document, flush=True)
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so the flush at exit is silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def run() -> None:
    raise SystemExit(main())
