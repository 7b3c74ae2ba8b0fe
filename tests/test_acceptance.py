"""Acceptance gate: one test per acceptance criterion, zero tolerance everywhere.

Every check is exact rational or integer equality; runtime budgets are
asserted where stated.  Each test prints a single PASS/FAIL line (bypassing
capture) so a test run doubles as a checklist.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from boolekit.boole_identity import (
    boole_sum,
    closed_form_solution,
    expected_value,
    forward_difference_at_zero,
    generalized_sum,
    stirling2,
    verify_generalized_boole,
)
from boolekit.cli import random_rational, seeded_parameter_pairs
from boolekit.rational_core import factorial, parse_rational
from boolekit.vandermonde import (
    ArithmeticNodes,
    SingularMatrixError,
    build_system,
    det_bareiss,
    det_cramer_numerator,
    det_vandermonde_closed,
    det_vandermonde_general,
    solve_exact,
)


def report(capsys, label, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    with capsys.disabled():
        timing = f" [{elapsed:.2f}s < {budget:.0f}s]" if budget is not None else ""
        print(f"{'PASS' if ok else 'FAIL'} {label}{timing}", flush=True)
    assert not failures, failures[:10]
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded {budget}s budget"


def drawn_pairs(seed, count, nonzero_step=False):
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = random_rational(rng)
        b = random_rational(rng)
        while nonzero_step and b == 0:
            b = random_rational(rng)
        pairs.append((a, b))
    return pairs


def enumerate_partitions(elements):
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for partial in enumerate_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] | {head}] + partial[i + 1 :]
        yield partial + [frozenset({head})]


def test_criterion_1_classical_alternating_sum(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(1, 31):
        for m in range(1, n + 1):
            value = boole_sum(n, m)
            expected = factorial(n) if m == n else 0
            if value != expected:
                failures.append(f"boole_sum({n},{m}) = {value}, expected {expected}")
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "criterion 1: alternating sum equals n! at m = n and 0 for m < n, "
        "1 <= m <= n <= 30 (465 cases, exact)",
        failures,
        elapsed,
        5.0,
    )


def test_criterion_2_generalized_identity_random_sweep(capsys):
    start = time.perf_counter()
    pairs = seeded_parameter_pairs(0, 200)
    failures = []
    if not any(b == 0 for _, b in pairs):
        failures.append("draw contains no b = 0 pair; the degenerate step went unexercised")
    for a, b in pairs:
        for n in range(13):
            for m in range(n + 1):
                lhs = generalized_sum(a, b, n, m)
                rhs = expected_value(a, b, n, m)
                if lhs != rhs:
                    failures.append(f"a={a} b={b} n={n} m={m}: {lhs} != {rhs}")
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "criterion 2: generalized alternating sum matches its closed form for "
        "200 seeded (a, b) pairs, 0 <= m <= n <= 12 (exact)",
        failures,
        elapsed,
        30.0,
    )


def test_criterion_3_cramer_consistency(capsys):
    start = time.perf_counter()
    failures = []
    for a, b in drawn_pairs(7, 20, nonzero_step=True):
        for n in range(11):
            system = build_system(ArithmeticNodes(a, b, n))
            solved = solve_exact(system)
            signed = [Fraction(c) for c in closed_form_solution(n)]
            if solved != signed:
                failures.append(f"solver mismatch at a={a} b={b} n={n}")
            det = det_vandermonde_closed(n, b)
            for k in range(n + 1):
                if det_cramer_numerator(n, k, b) / det != signed[k]:
                    failures.append(f"determinant ratio mismatch at n={n} k={k} b={b}")
            for i in range(n + 1):
                achieved = sum(
                    (system.matrix.at(i, j) * signed[j] for j in range(n + 1)),
                    Fraction(0),
                )
                if achieved != system.rhs[i]:
                    failures.append(f"row {i} unsatisfied at a={a} b={b} n={n}")
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "criterion 3: eliminated solution = signed binomials = determinant "
        "ratios, and the vector satisfies every equation, n <= 10 over 20 "
        "seeded pairs (exact)",
        failures,
        elapsed,
        30.0,
    )


def test_criterion_4_determinant_triple_agreement(capsys):
    start = time.perf_counter()
    failures = []
    for a, b in drawn_pairs(11, 20):
        for n in range(9):
            nodes = ArithmeticNodes(a, b, n)
            closed = det_vandermonde_closed(n, b)
            pairwise = det_vandermonde_general(nodes.values())
            eliminated = det_bareiss(build_system(nodes).matrix)
            if not (closed == pairwise == eliminated):
                failures.append(
                    f"a={a} b={b} n={n}: closed={closed} pairwise={pairwise} "
                    f"elimination={eliminated}"
                )
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "criterion 4: closed form, pairwise product, and fraction-free "
        "elimination determinants agree, n <= 8 over 20 seeded pairs (exact)",
        failures,
        elapsed,
        10.0,
    )


def test_criterion_5_stirling_relation(capsys):
    start = time.perf_counter()
    failures = []
    for m in range(13):
        for n in range(13):
            if boole_sum(n, m) != factorial(n) * stirling2(m, n):
                failures.append(f"relation fails at m={m} n={n}")
    for m in range(9):
        block_counts = [0] * (m + 2)
        for partition in enumerate_partitions(list(range(m))):
            block_counts[len(partition)] += 1
        for n in range(13):
            enumerated = block_counts[n] if n < len(block_counts) else 0
            if stirling2(m, n) != enumerated:
                failures.append(
                    f"S({m},{n}) = {stirling2(m, n)}, enumeration found {enumerated}"
                )
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "criterion 5: alternating sum = n! * S(m,n) on the 13x13 grid, and "
        "S(m,n) matches set-partition enumeration for m <= 8 (exact)",
        failures,
        elapsed,
        10.0,
    )


def test_criterion_6_finite_difference_oracle(capsys):
    start = time.perf_counter()
    failures = []
    for m in range(13):
        for n in range(13):
            if forward_difference_at_zero(m, n) != boole_sum(n, m):
                failures.append(f"difference table disagrees at m={m} n={n}")
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "criterion 6: n-fold forward difference of j^m at 0 equals the "
        "alternating sum on the 13x13 grid (exact)",
        failures,
        elapsed,
        5.0,
    )


def test_criterion_7_degenerate_step(capsys):
    failures = []
    for n in range(1, 5):
        try:
            solve_exact(build_system(ArithmeticNodes(Fraction(3), Fraction(0), n)))
            failures.append(f"b=0 n={n} solved without a singularity error")
        except SingularMatrixError:
            pass
    sweep = verify_generalized_boole(Fraction(7), Fraction(0), 6)
    if not sweep.ok:
        failures.append(f"b=0 identity sweep has {sweep.failures} failures")
    if sweep.total != 28:
        failures.append(f"b=0 identity sweep ran {sweep.total} cases, expected 28")
    point = generalized_sum(Fraction(5), Fraction(0), 0, 0)
    if point != 1 or point != expected_value(Fraction(5), Fraction(0), 0, 0):
        failures.append(f"b=0 n=0 m=0 gave {point}, expected 1")
    report(
        capsys,
        "criterion 7: b = 0 makes the solver raise for n >= 1 while the "
        "identity sweep still passes all 28 cases, and the n = m = 0 case equals 1 (exact)",
        failures,
    )


def _invoke(*args):
    return subprocess.run(
        [sys.executable, "-m", "boolekit", *args], capture_output=True, text=True
    )


def test_criterion_8_cli_contract(capsys):
    start = time.perf_counter()
    failures = []

    passing = _invoke("verify", "--n-max", "3")
    if passing.returncode != 0:
        failures.append(f"passing sweep exited {passing.returncode}")
    failing = _invoke("solve", "--b", "0", "--n", "1")
    if failing.returncode != 1:
        failures.append(f"singular solve exited {failing.returncode}, expected 1")
    usage = _invoke("verify", "--definitely-not-a-flag")
    if usage.returncode != 2:
        failures.append(f"unknown flag exited {usage.returncode}, expected 2")

    json_args = ("verify", "--a", "2/6", "--b", "-4/10", "--n-max", "4",
                 "--trials", "3", "--seed", "5", "--format", "json")
    first = _invoke(*json_args)
    second = _invoke(*json_args)
    if first.stdout != second.stdout or first.returncode != second.returncode:
        failures.append("two identical seeded runs differ")
    try:
        document = json.loads(first.stdout)
        fields = [document["params"]["a"], document["params"]["b"]]
        for case in document["cases"]:
            fields.extend([case["a"], case["b"], case["lhs"], case["rhs"]])
        for text in fields:
            x = parse_rational(text)
            if text != f"{x.numerator}/{x.denominator}":
                failures.append(f"rational field {text!r} does not round-trip")
    except (json.JSONDecodeError, KeyError) as exc:
        failures.append(f"json document malformed: {exc}")

    elapsed = time.perf_counter() - start
    report(
        capsys,
        "criterion 8: exit codes 0/1/2 each demonstrated, json rationals "
        "round-trip, seeded runs byte-identical",
        failures,
        elapsed,
        5.0,
    )


def test_criterion_9_benchmark_sanity(capsys):
    failures = []
    bench = _invoke("bench", "--n-max", "20", "--seed", "3")
    if bench.returncode != 0:
        failures.append(f"bench exited {bench.returncode}")
    lines = bench.stdout.strip().splitlines()
    if lines[:1] != ["n,closed_ns,bareiss_ns,agree"]:
        failures.append(f"unexpected header {lines[:1]}")
    rows = lines[1:]
    if len(rows) != 20:
        failures.append(f"expected 20 ladder rows, got {len(rows)}")
    disagreeing = [row for row in rows if not row.endswith(",true")]
    if disagreeing:
        failures.append(f"rows without agreement: {disagreeing}")

    start = time.perf_counter()
    det_vandermonde_closed(200, Fraction(3, 7))
    closed_elapsed = time.perf_counter() - start
    if closed_elapsed >= 1.0:
        failures.append(f"closed-form determinant at n=200 took {closed_elapsed:.2f}s")
    report(
        capsys,
        "criterion 9: benchmark ladder to n = 20 agrees on every row and the "
        "closed-form determinant at n = 200 runs in under 1 s",
        failures,
    )
