"""Command-line front end.

Subcommands: verify (identity sweeps), solve (power-sum system solution two
ways), det (determinant routes side by side), stirling (partition-number
table with verification column), bench (closed form vs elimination timing).

Each command computes once and returns a record, its csv Table and lazy text
lines.  A Table declares the keys of a list of rows once; each row is a tuple of
values in the order of the keys, so the sweeps' CaseResults and the Stirling
grid's points are rows as they are.  One table gives the json and csv forms of
each scalar type.  Both writers render each distinct scalar once per document;
json sends every row of a Table through one template built from its keys, and
csv is the Table's keys, then its rows; text is as given.  main opens the
destination (--output, else stdout) before the command runs and writes the
chosen format to it once.  Every rational inside json or csv output uses the
canonical "p/q" form so it parses back with parse_rational.

A command line that starts with a command name is parsed by that command's
parser alone.  Only any other command line (no arguments, -h, an unknown
name, or arguments the command does not take) builds the full parser tree,
so usage, help and error text read the same either way.

Exit codes:
  0  all checks passed;
  1  at least one identity or agreement failure, or a singular system
     where a solution was required;
  2  usage error (argparse raises SystemExit(2) itself), an --output path
     or a stdout that cannot be written, or a run out of memory (one line on
     stderr).
A reader that closes stdout early (``| head``) ends the run quietly with the
command's own exit code.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import random
import re
import sys
import time
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction

from .boole_identity import (
    CaseResult,
    closed_form_solution,
    stirling_case,
    stirling_grid,
    verify_cramer,
    verify_generalized_boole,
)
from .rational_core import format_rational, parse_rational
from .vandermonde import (
    ArithmeticNodes,
    SingularMatrixError,
    build_system,
    cramer_numerators,
    det_bareiss,
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


class Table(namedtuple("Table", "keys rows")):
    """Rows of one shape: each row is a tuple of values in the order of keys."""

    __slots__ = ()


# What every command returns: (exit code, json record, csv table, text lines).
Outcome = tuple[int, dict, Table | None, Iterable[str]]


def random_rational(rng: random.Random) -> Fraction:
    """One rational with numerator and denominator uniform in [-9, 9], denominator nonzero."""
    numerator = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
    denominator = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
    while denominator == 0:
        denominator = rng.randint(-_COMPONENT_BOUND, _COMPONENT_BOUND)
    return Fraction(numerator, denominator)


def seeded_parameter_pairs(seed: int, count: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic (a, b) draws; b = 0 occurs whenever its numerator draw is 0."""
    rng = random.Random(seed)
    return [(random_rational(rng), random_rational(rng)) for _ in range(count)]


def _rational_arg(text: str) -> Fraction:
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
    for token in argv:
        if merged and merged[-1] in ("--a", "--b") and _NEGATIVE_RATIONAL.fullmatch(token):
            merged[-1] += "=" + token
        else:
            merged.append(token)
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


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    _add_node_flags(parser)
    parser.add_argument("--n-max", type=_natural_arg, default=10, metavar="N",
                        help="largest order n in the sweep (default 10)")
    parser.add_argument("--m-max", type=_natural_arg, default=12, metavar="N",
                        help="largest exponent in the Stirling cross-check grid (default 12)")
    parser.add_argument("--trials", type=_natural_arg, default=0, metavar="N",
                        help="extra random (a, b) pairs to sweep (default 0)")
    parser.add_argument("--seed", type=_natural_arg, default=0, metavar="N",
                        help="seed for the random pairs (default 0)")
    _add_output_flags(parser)


def _order_flags(parser: argparse.ArgumentParser) -> None:
    _add_node_flags(parser)
    parser.add_argument("--n", type=_natural_arg, default=2, metavar="N",
                        help="system order; the matrix has side n+1 (default 2)")
    _add_output_flags(parser)


def _stirling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m-max", type=_natural_arg, default=8, metavar="N",
                        help="largest set size m (default 8)")
    parser.add_argument("--n-max", type=_natural_arg, default=8, metavar="N",
                        help="largest block count n (default 8)")
    _add_output_flags(parser)


def _bench_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-max", type=_positive_arg, default=8, metavar="N",
                        help="top of the order ladder 1..N (default 8)")
    parser.add_argument("--seed", type=_natural_arg, default=0, metavar="N",
                        help="seed for the node parameters (default 0)")
    _add_output_flags(parser, default_format="csv")


# Each command's one-line help and the function that adds its flags, in help order;
# build_parser and _parse both read this table, so both parse the same flags.
_FLAGS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "verify": ("sweep the generalized identity, with Cramer and Stirling cross-checks",
               _verify_flags),
    "solve": ("solve the power-sum system two independent ways", _order_flags),
    "det": ("compare determinant routes and Cramer numerators", _order_flags),
    "stirling": ("partition-number table with verification column", _stirling_flags),
    "bench": ("time the closed-form determinant against elimination", _bench_flags),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="boolekit",
        description="Exact verification of alternating binomial power sums "
        "via Vandermonde systems on arithmetic-progression nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_flags) in _FLAGS.items():
        add_flags(sub.add_parser(name, help=summary))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) gives; a well-formed argv builds one parser.

    That parser has only the named command's flags and the subparser's prog, so
    its help and errors read the same.  Anything else (no command, -h, an unknown
    name, or arguments left over) goes through the full tree.
    """
    if argv and argv[0] in _FLAGS:
        parser = argparse.ArgumentParser(prog=f"boolekit {argv[0]}")
        _FLAGS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return build_parser().parse_args(argv)


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _ok(value: bool) -> str:
    return "ok" if value else "FAIL"


def _agreement(value: bool) -> str:
    return "agreement: " + ("yes" if value else "NO")


# The json and csv forms of each scalar type a record holds; both writers read this
# table, and _json_document rejects any other type.
_SCALAR_FORMS: dict[type, tuple[Callable[[object], str], Callable[[object], str]]] = {
    Fraction: (lambda value: f'"{_frac(value)}"', _frac),
    bool: (_flag, _flag),
    int: (int.__repr__, int.__repr__),
    str: (json.encoder.encode_basestring_ascii, str),
    type(None): (lambda value: "null", lambda value: ""),
}
_json_str = _SCALAR_FORMS[str][0]


def _json_document(value: object, indent: str = "\n", texts: dict | None = None) -> str:
    """The text of json.dumps(value, indent=2, default=_frac), for records with str keys.

    A Table renders as the list of dicts that pair its keys with each row.  Each
    distinct scalar object is rendered once per document: texts maps its id to its
    text, which is sound because the record keeps every scalar alive while it
    renders.  Every row of a Table goes through one % template built from its keys;
    a cell that is not a scalar recurses at the row's field indent.
    """
    if texts is None:
        texts = {}
    kind = type(value)
    if kind in _SCALAR_FORMS:
        if id(value) not in texts:
            texts[id(value)] = _SCALAR_FORMS[kind][0](value)
        return texts[id(value)]
    inner = indent + "  "
    if kind is dict:
        items = [f"{_json_str(key)}: {_json_document(item, inner, texts)}"
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if kind is Table:
        field = inner + "  "
        template = "{" + field + ("," + field).join(
            _json_str(key).replace("%", "%%") + ": %s" for key in value.keys
        ) + inner + "}" if value.keys else "{}"
        items = [template % tuple([texts.get(id(cell)) or _json_document(cell, field, texts)
                                   for cell in row]) for row in value.rows]
    elif kind is list or kind is tuple:
        items = [_json_document(item, inner, texts) for item in value]
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _csv_document(table: Table) -> str:
    """The table's keys as the header, then one line per row of the cells' csv forms.

    Each distinct cell object is rendered once: texts maps its id to its csv
    form, which is sound because the table keeps every cell alive while it renders.
    """
    forms = {kind: csv_form for kind, (_, csv_form) in _SCALAR_FORMS.items()}
    texts: dict[int, str] = {}
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.keys)
    writer.writerows([texts.get(id(cell)) or texts.setdefault(id(cell), forms[type(cell)](cell))
                      for cell in row] for row in table.rows)
    return buffer.getvalue().rstrip("\n")


def cmd_verify(args: argparse.Namespace) -> Outcome:
    """Sweep the generalized identity for the fixed pair plus seeded trials.

    Cramer component checks (per pair with nonzero b, at order n_max) and the
    Stirling grid run as gates: when they pass they only add summary notes,
    when they fail their failing cases join the report and force exit 1.  The
    Stirling gate reads stirling_grid's int points and builds a record only
    for a point that failed.
    """
    pairs = [(args.a, args.b)] + seeded_parameter_pairs(args.seed, args.trials)
    cases: list[CaseResult] = []
    for a, b in pairs:
        cases.extend(verify_generalized_boole(a, b, args.n_max).results)
    cramer = [verify_cramer(a, b, args.n_max) for a, b in pairs if b != 0]
    cases.extend(r for report in cramer for r in report.results if not r.passed)
    stirling_failed = [stirling_case(point) for point in stirling_grid(args.m_max, args.n_max)
                       if not point[5]]
    cases.extend(stirling_failed)
    notes = (
        f"cramer component checks passed for {sum(r.ok for r in cramer)} of {len(cramer)} "
        f"pair(s) at n = {args.n_max}, skipped for {len(pairs) - len(cramer)} pair(s) with b = 0",
        f"stirling grid m <= {args.m_max}, n <= {args.n_max}: "
        + ("FAILED" if stirling_failed else "ok"),
    )
    failures = sum(1 for result in cases if not result.passed)
    table = Table(("n", "m", "a", "b", "lhs", "rhs", "pass"), cases)
    record = {
        "command": "verify",
        "params": {"a": args.a, "b": args.b, "n_max": args.n_max, "seed": args.seed},
        "cases": table,
        "summary": {"total": len(cases), "failures": failures},
    }

    def text() -> Iterator[str]:
        yield (f"verify sweep: a={format_rational(args.a)} b={format_rational(args.b)} "
               f"n_max={args.n_max} trials={args.trials} seed={args.seed}")
        for n, m, a, b, lhs, rhs, passed in cases:
            yield (f"n={n} m={m} a={format_rational(a)} b={format_rational(b)} "
                   f"lhs={format_rational(lhs)} rhs={format_rational(rhs)} {_ok(passed)}")
        yield from (f"note: {note}" for note in notes)
        yield f"total={len(cases)} failures={failures}"

    return (EXIT_OK if failures == 0 else EXIT_FAILURE), record, table, text()


def cmd_solve(args: argparse.Namespace) -> Outcome:
    """Solve from the nodes, compare with the signed binomials; only text builds the matrix."""
    nodes = ArithmeticNodes(args.a, args.b, args.n)
    params = {"a": args.a, "b": args.b, "n": args.n}
    try:
        eliminated = solve_exact(nodes)
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
    table = Table(("k", "eliminated", "signed_binomial", "agree"), [
        (k, x, y, x == y) for k, (x, y) in enumerate(zip(eliminated, binomial_vector))
    ])

    def text() -> Iterator[str]:
        yield (f"power-sum system: a={format_rational(args.a)} b={format_rational(args.b)} "
               f"n={args.n}")
        system = build_system(nodes)
        yield "matrix:"
        yield from ("  " + " ".join(map(_frac, row)) for row in system.matrix.to_rows())
        yield "rhs: " + " ".join(_frac(v) for v in system.rhs)
        yield "eliminated:       " + " ".join(format_rational(x) for x in eliminated)
        yield "signed binomials: " + " ".join(format_rational(x) for x in binomial_vector)
        yield _agreement(agree)

    return (EXIT_OK if agree else EXIT_FAILURE), record, table, text()


def cmd_det(args: argparse.Namespace) -> Outcome:
    """Compare the three determinant routes and every Cramer numerator, from the nodes.

    Each closed numerator is Cramer's rule on the closed forms, the closed
    determinant times its signed binomial, and its column checks it against
    the numerator from elimination.
    """
    nodes = ArithmeticNodes(args.a, args.b, args.n)
    closed = det_vandermonde_closed(args.n, args.b)
    pairwise = det_vandermonde_general(nodes.values())
    eliminated, substituted_columns = cramer_numerators(nodes)
    numerators = [closed * signed for signed in closed_form_solution(args.n)]
    columns = Table(("k", "closed", "elimination", "agree"), [
        (k, numerator, substituted, numerator == substituted)
        for k, (numerator, substituted) in enumerate(zip(numerators, substituted_columns))
    ])
    # zip stops at the shorter list, so a column either route drops fails here.
    agree = (closed == pairwise == eliminated and len(numerators) == len(substituted_columns)
             and all(row[3] for row in columns.rows))
    record = {
        "command": "det",
        "params": {"a": args.a, "b": args.b, "n": args.n},
        "closed": closed,
        "pairwise": pairwise,
        "elimination": eliminated,
        "columns": columns,
        "agree": agree,
    }
    table = Table(("item", "value"), [
        ("closed", closed),
        ("pairwise", pairwise),
        ("elimination", eliminated),
        *((f"column_{k}", numerator) for k, numerator, _, _ in columns.rows),
        ("agree", agree),
    ])

    def text() -> Iterator[str]:
        yield f"determinants: a={format_rational(args.a)} b={format_rational(args.b)} n={args.n}"
        yield f"closed form:          {format_rational(closed)}"
        yield f"pairwise product:     {format_rational(pairwise)}"
        yield f"elimination:          {format_rational(eliminated)}"
        for k, numerator, substituted, column_agree in columns.rows:
            yield (f"column k={k}: closed={format_rational(numerator)} "
                   f"elimination={format_rational(substituted)} {_ok(column_agree)}")
        yield _agreement(agree)

    return (EXIT_OK if agree else EXIT_FAILURE), record, table, text()


def cmd_stirling(args: argparse.Namespace) -> Outcome:
    """stirling_grid's three-route points as the table's rows, each as it is, by m, then n."""
    grid = stirling_grid(args.m_max, args.n_max)
    # stirling_grid orders its points by n, then m, so row m is every
    # (m_max + 1)-th point from m on.
    step = args.m_max + 1
    table = Table(("m", "n", "stirling2", "scaled", "boole_sum", "agree"),
                  [point for m in range(step) for point in grid[m::step]])
    agree = all(point[5] for point in grid)
    record = {
        "command": "stirling",
        "params": {"m_max": args.m_max, "n_max": args.n_max},
        "rows": table,
        "agree": agree,
    }

    def text() -> Iterator[str]:
        yield f"stirling table: m_max={args.m_max} n_max={args.n_max}"
        yield "m n S(m,n) n!*S(m,n) alternating_sum ok"
        for m, n, stirling2, scaled, boole_sum, row_agree in table.rows:
            yield f"{m} {n} {stirling2} {scaled} {boole_sum} {_ok(row_agree)}"
        yield _agreement(agree)

    return (EXIT_OK if agree else EXIT_FAILURE), record, table, text()


def _median_time_ns(fn: Callable[[], object]) -> int:
    samples = []
    for _ in range(_TIMING_REPS):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return sorted(samples)[_TIMING_REPS // 2]


def cmd_bench(args: argparse.Namespace) -> Outcome:
    """Time closed-form vs elimination determinants on the ladder n = 1..n_max.

    Values are compared for exact agreement before any timing is recorded;
    the timings themselves are the only nondeterministic output fields.
    """
    rng = random.Random(args.seed)
    table = Table(("n", "closed_ns", "bareiss_ns", "agree"), [])
    for n in range(1, args.n_max + 1):
        a = random_rational(rng)
        b = random_rational(rng)
        while b == 0:
            b = random_rational(rng)
        matrix = build_system(ArithmeticNodes(a, b, n)).matrix
        row_agree = det_vandermonde_closed(n, b) == det_bareiss(matrix)
        closed_ns = _median_time_ns(lambda n=n, b=b: det_vandermonde_closed(n, b))
        bareiss_ns = _median_time_ns(lambda matrix=matrix: det_bareiss(matrix))
        table.rows.append((n, closed_ns, bareiss_ns, row_agree))
    agree = all(row_agree for *_, row_agree in table.rows)
    record = {
        "command": "bench",
        "params": {"n_max": args.n_max, "seed": args.seed},
        "rows": table,
        "agree": agree,
    }

    def text() -> Iterator[str]:
        yield f"bench: n_max={args.n_max} seed={args.seed}"
        yield "n closed_ns bareiss_ns agree"
        for n, closed_ns, bareiss_ns, row_agree in table.rows:
            yield f"{n} {closed_ns} {bareiss_ns} {_flag(row_agree)}"

    return (EXIT_OK if agree else EXIT_FAILURE), record, table, text()


_HANDLERS: dict[str, Callable[[argparse.Namespace], Outcome]] = {
    "verify": cmd_verify,
    "solve": cmd_solve,
    "det": cmd_det,
    "stirling": cmd_stirling,
    "bench": cmd_bench,
}


def _cannot_write(target: str, reason: str) -> int:
    print(f"boolekit: cannot write {target}: {reason}", file=sys.stderr)
    return EXIT_USAGE


def main(argv: Sequence[str] | None = None) -> int:
    """Parse flags, open the destination, run the command, write its document once.

    A well-formed command line is parsed with one parser, the named command's;
    the full tree is built only when the first argument is not a command or to
    report what that parser leaves over.  Usage errors do not return: argparse
    raises SystemExit(2).  The --output file is opened, and so created or
    truncated, before the command runs, and closed on every path out.  A
    destination that cannot be opened or written, or a closed stdout, returns
    EXIT_USAGE with one line on stderr giving the system's reason; a reader that
    goes early (EPIPE) ends the run quietly with the command's own exit code.  A
    command or rendering out of memory returns EXIT_USAGE with one line on
    stderr.
    """
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parse(_merge_negative_values(raw))
    destination = "stdout" if args.output is None else f"--output {args.output}"
    try:
        stream = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        return _cannot_write(destination, exc.strerror)
    if stream is None:
        return _cannot_write(destination, os.strerror(errno.EBADF))
    # Exact values can pass the interpreter's limit on int -> str digits (4300 by default);
    # lift it, where it exists, once the flags are parsed, while the command runs and writes.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code, record, table, text_lines = _HANDLERS[args.command](args)
        if args.format == "json":
            document = _json_document(record)
        elif args.format == "csv" and table is not None:
            document = _csv_document(table)
        else:
            document = "\n".join(text_lines)
        try:
            stream.write(document)
            stream.write("\n")
            # A failed flush keeps its data, so a second close would fail again: the
            # file is closed here, once, and the close in finally is a no-op.
            stream.flush() if args.output is None else stream.close()
        except OSError as exc:
            if args.output is None:
                # Point stdout at devnull so the flush at exit is silent too.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
            # A reader that has gone (EPIPE) is a quiet end; any other failure is reported.
            if exc.errno != errno.EPIPE:
                return _cannot_write(destination, exc.strerror or str(exc))
        return code
    except MemoryError:
        pass  # Report below, once leaving the handler has freed the partial tables.
    finally:
        if args.output is not None:
            stream.close()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print(f"boolekit: out of memory in {args.command}; choose a smaller order", file=sys.stderr)
    return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
