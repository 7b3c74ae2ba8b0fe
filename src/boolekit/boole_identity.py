"""Alternating binomial power sums and their verification sweeps.

Three families of exact identities live here, each evaluated by at least two
independent routes so that a bug in one route cannot silently confirm itself:

* the classical alternating sum  sum_k (-1)^(n-k) C(n,k) k^m, which equals
  n! when m = n and 0 when m < n, and more generally n! * S(m,n) with S the
  Stirling partition numbers, checked on three int tables;
* its generalization over arithmetic-progression nodes,
  sum_k (-1)^k C(n,k) (a+bk)^m, equal to (-1)^n b^n n! at m = n and 0 for
  m < n;
* the Cramer-rule reading of both: the signed binomials (-1)^(n-k) C(n,k)
  form the unique solution of the power-sum linear system.  Row i of the
  order-n system dotted with them is (-1)^n * generalized_sum(a, b, n, i),
  so the generalized sweep already checks every equation; the generic
  solver and the closed-form determinant ratios must reproduce every
  component.

The verify_* sweeps return in-memory reports of flat CaseResult records, one
per checked case; serialization is the cli module's concern.  stirling_grid
gives the Stirling checks as int tuples, so a caller builds records
(stirling_case) only for the points it shows.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, repeat

from .rational_core import binomial, factorial, rat_pow
from .vandermonde import (
    ArithmeticNodes,
    build_system,
    det_cramer_numerator,
    det_vandermonde_closed,
    solve_exact,
)

# The one zero every vanishing sum and closed form shares, and the Stirling grid's
# unit step; Fractions are immutable.
_ZERO = Fraction(0)
_ONE = Fraction(1)


class CaseResult(namedtuple("CaseResult", "n m a b lhs rhs passed")):
    """Both sides of one checked (n, m) case of an identity at parameters (a, b).

    For generalized-sum cases m <= n holds (the closed form is only stated
    there); Stirling-relation cases use the full grid, and Cramer component
    checks carry the component index k in m.  ``passed`` is not always just
    ``lhs == rhs``: sweeps that consult a third route (the difference table
    in the Stirling sweep, the Cramer ratio in the component sweep) fold that
    route's agreement into ``passed`` as well.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, m: int, a: Fraction, b: Fraction, lhs: Fraction, rhs: Fraction, passed: bool
    ) -> "CaseResult":
        if n < 0 or m < 0:
            raise ValueError(f"n and m must be >= 0, got n={n} m={m}")
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        lhs = lhs if isinstance(lhs, Fraction) else Fraction(lhs)
        rhs = rhs if isinstance(rhs, Fraction) else Fraction(rhs)
        return tuple.__new__(cls, (n, m, a, b, lhs, rhs, passed))


class VerificationReport(namedtuple("VerificationReport", "results")):
    """Ordered case results of one sweep."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def closed_form_solution(n: int) -> list[int]:
    """The signed binomial vector ((-1)^(n-k) * C(n,k) for k = 0..n).

    This is the solution of the power-sum system read off from the
    determinant ratios, so it doubles as the expected output of the generic
    solver.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [(-1) ** (n - k) * binomial(n, k) for k in range(n + 1)]


def boole_sum(n: int, m: int) -> int:
    """sum_{k=0..n} (-1)^(n-k) * C(n,k) * k^m, exactly.

    The k = 0 term uses 0^0 = 1 when m = 0.  Equals n! at m = n, vanishes
    for m < n, and equals n! * S(m,n) in general.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be >= 0, got n={n} m={m}")
    return sum((-1) ** (n - k) * binomial(n, k) * k**m for k in range(n + 1))


def boole_sums(n_max: int, m_max: int) -> list[list[int]]:
    """Int rows [n][m] = boole_sum(n, m) for m = 0..m_max; every row is a fresh list.

    _signed_power_sums of the powers k^m of the nodes k = 0..n_max, odd rows negated.
    """
    _, _, powers = ArithmeticNodes(0, 1, n_max).integer_powers(m_max)
    rows = _signed_power_sums(powers, n_max, m_max)
    return [list(map(operator.neg, row)) if n % 2 else row for n, row in enumerate(rows)]


def stirling_rows(m_max: int, n_max: int) -> list[list[int]]:
    """Stirling partition numbers S(m, 0..n_max) for m = 0..m_max, one row per m.

    S(m, n) counts the ways to split an m-element set into n nonempty
    blocks.  Each row comes from the previous one by the recurrence
    S(m,n) = n*S(m-1,n) + S(m-1,n-1), with S(0,0) = 1 and zero on the rest
    of the boundary.  Every row is a fresh list.
    """
    if m_max < 0 or n_max < 0:
        raise ValueError(f"m_max and n_max must be >= 0, got m_max={m_max} n_max={n_max}")
    rows = [[1] + [0] * n_max]
    for _ in range(m_max):
        previous = rows[-1]
        rows.append([0] + [n * previous[n] + previous[n - 1] for n in range(1, n_max + 1)])
    return rows


def stirling2(m: int, n: int) -> int:
    """Stirling partition number S(m, n), read from stirling_rows."""
    return stirling_rows(m, n)[m][n]


def difference_rows(m_max: int, n_max: int) -> list[list[int]]:
    """Rows [m][n] = n-fold forward difference of j^m at 0, for m = 0..m_max, n = 0..n_max.

    Column j of the table holds j^m for every m; each round replaces the
    columns by the differences of adjacent ones, and the head column after
    round n gives entry n of every row, so n_max rounds collapse all m_max+1
    tables at once.  A classical identity makes entry [m][n] equal to
    boole_sum(n, m), which is exactly why it serves as an oracle here.
    Every row is a fresh list.
    """
    if m_max < 0 or n_max < 0:
        raise ValueError(f"m_max and n_max must be >= 0, got m_max={m_max} n_max={n_max}")
    columns = [list(accumulate(repeat(j, m_max), operator.mul, initial=1))
               for j in range(n_max + 1)]
    heads = [columns[0]]
    for _ in range(n_max):
        columns = [list(map(operator.sub, after, before))
                   for before, after in zip(columns, columns[1:])]
        heads.append(columns[0])
    return [list(row) for row in zip(*heads)]


def forward_difference_at_zero(m: int, n: int) -> int:
    """n-fold forward difference of j^m at 0, read from difference_rows."""
    return difference_rows(m, n)[m][n]


def generalized_sum(a: Fraction, b: Fraction, n: int, m: int) -> Fraction:
    """sum_{k=0..n} (-1)^k * C(n,k) * (a + b*k)^m, exactly.

    Mind the sign convention: the alternation is (-1)^k here, not
    (-1)^(n-k) as in boole_sum; the two differ by a global factor (-1)^n.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be >= 0, got n={n} m={m}")
    a = Fraction(a)
    b = Fraction(b)
    total = Fraction(0)
    for k in range(n + 1):
        total += (-1) ** k * binomial(n, k) * rat_pow(a + b * k, m)
    return total


def generalized_sums(
    a: Fraction, b: Fraction, n_max: int, m_max: int | None = None
) -> list[list[Fraction]]:
    """Rows [n][m] = generalized_sum(a, b, n, m) for m = 0..n, or m = 0..m_max if given.

    Every node is a + b*k = (A + B*k)/D, so the one integer table
    (A + B*k)^m of ArithmeticNodes.integer_powers serves every (n, m): each
    entry is one integer dot product with the signed binomials
    (-1)^k C(n,k) from _signed_power_sums, and a single Fraction(total, D^m)
    over the one power D^m of its column m.  Every zero entry is the one
    shared Fraction(0).  Every row is a fresh list.
    """
    width = n_max if m_max is None else m_max
    scale, _, powers = ArithmeticNodes(a, b, n_max).integer_powers(width)
    scales = list(accumulate(repeat(scale, width), operator.mul, initial=1))
    rows = _signed_power_sums(powers, n_max, m_max)
    return [[Fraction(total, power) if total else _ZERO for total, power in zip(row, scales)]
            for row in rows]


def _signed_power_sums(powers: list[list[int]], n_max: int, m_max: int | None) -> list[list[int]]:
    """Fresh int rows [n][m] = sum_k (-1)^k C(n,k) powers[m][k], m = 0..n or m = 0..m_max."""
    rows = []
    signed = [1]
    for n in range(n_max + 1):
        if n:
            signed = list(map(operator.sub, signed + [0], [0] + signed))
        width = n + 1 if m_max is None else m_max + 1
        rows.append([sum(map(operator.mul, signed, powers[m])) for m in range(width)])
    return rows


def expected_value(a: Fraction, b: Fraction, n: int, m: int) -> Fraction:
    """Closed form of generalized_sum for m <= n: (-1)^n * b^n * n! at m = n, else 0.

    The value does not depend on a; the parameter is accepted so call sites
    mirror generalized_sum.  m > n has no closed form here and is rejected.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be >= 0, got n={n} m={m}")
    if m > n:
        raise ValueError(f"closed form only covers m <= n, got m={m} n={n}")
    del a
    if m < n:
        return _ZERO
    return (-1) ** n * rat_pow(b, n) * factorial(n)


def verify_generalized_boole(a: Fraction, b: Fraction, n_max: int) -> VerificationReport:
    """Sweep the generalized identity over 0 <= m <= n <= n_max at fixed (a, b).

    Each case compares the generalized_sums entry, the value of
    generalized_sum, against expected_value with exact equality, for every
    b including 0.  Case (n, m) is also row m of the order-n power-sum
    system with the signed binomials substituted, up to the factor (-1)^n
    on both sides, so the sweep checks every equation of that substitution
    as well.  A passing case carries its lhs again as rhs.  Both routes give
    canonical Fractions, so each record is built by CaseResult._make, and the
    shared zero of both routes passes on identity before any comparison.
    """
    a = Fraction(a)
    b = Fraction(b)
    make = CaseResult._make
    results = []
    for n, sums in enumerate(generalized_sums(a, b, n_max)):
        for m, lhs in enumerate(sums):
            rhs = expected_value(a, b, n, m)
            passed = lhs is rhs or lhs == rhs
            results.append(make((n, m, a, b, lhs, lhs if passed else rhs, passed)))
    return VerificationReport(tuple(results))


def stirling_grid(m_max: int, n_max: int) -> list[tuple[int, int, int, int, int, bool]]:
    """Points (m, n, S(m,n), n! * S(m,n), boole_sum(n, m), passed) of the full grid, by n, then m.

    Three separate int tables give every value: boole_sums, stirling_rows
    (scaled by n! once per n) and difference_rows; passed is the three-way
    agreement sum == n! * S(m,n) == difference at every point.  A table of
    another shape than the grid raises ValueError.
    """
    partitions = zip(*stirling_rows(m_max, n_max), strict=True)
    differences = zip(*difference_rows(m_max, n_max), strict=True)
    ms = range(m_max + 1)
    grid = []
    for n, (sums, column, steps) in enumerate(
        zip(boole_sums(n_max, m_max), partitions, differences, strict=True)
    ):
        n_factorial = factorial(n)
        scaled = [n_factorial * s for s in column]
        agree = map(operator.and_, map(operator.eq, sums, scaled), map(operator.eq, sums, steps))
        grid.extend(zip(ms, repeat(n, m_max + 1), column, scaled, sums, agree, strict=True))
    return grid


def stirling_case(point: tuple[int, int, int, int, int, bool]) -> CaseResult:
    """The record of one stirling_grid point at the nodes (a, b) = (0, 1), built by _make.

    lhs is the sum (the shared zero when it vanishes); rhs is lhs again when
    the point passes, else n! * S(m,n).
    """
    m, n, _, scaled, direct, passed = point
    lhs = Fraction(direct) if direct else _ZERO
    return CaseResult._make((n, m, _ZERO, _ONE, lhs, lhs if passed else Fraction(scaled), passed))


def verify_stirling(m_max: int, n_max: int) -> VerificationReport:
    """Check boole_sum(n,m) = n! * S(m,n) over the full (m, n) grid, ordered by n, then m.

    A case passes only if the forward-difference table produces the same
    value as well, so each grid point is a three-way agreement between
    direct summation, the Stirling recurrence, and repeated differencing.
    The report holds one stirling_case record per stirling_grid point.
    """
    return VerificationReport(tuple(map(stirling_case, stirling_grid(m_max, n_max))))


def verify_cramer(a: Fraction, b: Fraction, n: int) -> VerificationReport:
    """Check all n+1 solution components of the power-sum system three ways.

    For each k the generic solver's solution (recorded as lhs), the
    signed binomial (-1)^(n-k) * C(n,k) (recorded as rhs), and the ratio of
    closed-form determinants must coincide; the m field of each case carries
    the component index k.  The ratio is checked without dividing: the
    closed numerator must equal the closed determinant times the signed
    binomial, which is the same test since that determinant is nonzero
    whenever the system is solved.  The generic solver is solve_exact: a p-adic
    solution certified by an exact integer check, with fraction-free
    elimination as the decider of singularity, and no closed form or
    Vandermonde structure.  Raises ValueError for n < 0, and for b = 0 with
    n >= 1, where the nodes coincide, solve_exact's SingularMatrixError; at
    n = 0 the system is [1] x = [1].  The solver and the signed binomials
    give canonical Fractions, so each record is built by CaseResult._make.
    """
    nodes = ArithmeticNodes(a, b, n)
    a, b = nodes.a, nodes.b
    solved = solve_exact(build_system(nodes))
    signed_binomials = closed_form_solution(n)
    denominator = det_vandermonde_closed(n, b)
    results = []
    for k, signed in enumerate(signed_binomials):
        numerator = det_cramer_numerator(n, k, b)
        expected = Fraction(signed)
        passed = solved[k] == expected and numerator == denominator * signed
        results.append(CaseResult._make((n, k, a, b, solved[k], expected, passed)))
    return VerificationReport(tuple(results))
