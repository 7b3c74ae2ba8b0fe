"""Power-sum systems on arithmetic-progression nodes, with exact determinants.

The central object is the (n+1) x (n+1) linear system whose coefficient
matrix stacks the powers 0..n of the nodes a, a+b, ..., a+nb and whose
right-hand side is (0, ..., 0, b^n * n!).  The coefficient matrix is a
Vandermonde matrix, so its determinant has a closed form; the same goes for
the column-substituted determinants that appear as Cramer-rule numerators.
Generic exact routes (pairwise-difference product, fraction-free integer
elimination) serve as independent cross-checks; det_bareiss takes the nodes
themselves, as solve_exact does, so Cramer's rule det_k = det * x_k on those
two gives every numerator by elimination.

solve_exact, a certified p-adic solver with elimination behind it, gives
its design in its own docstring.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .rational_core import factorial, rat_pow, superfactorial

# The one prime of the p-adic solver, the largest below 2^30, so a residue
# is one 30-bit CPython digit: packed slots stay short, the residual's exact
# division by the prime takes the one-digit path, and each lifting step
# gains 30 bits of the solution.
_PRIME = 2**30 - 35

# (order, lower, upper, inverse_pivots), as returned by _factor_mod_prime.
_Factors = tuple[list[int], list[list[int]], list[list[int]], list[int]]


class SingularMatrixError(ArithmeticError):
    """Raised when an exact solve meets a singular coefficient matrix."""


class ArithmeticNodes(namedtuple("ArithmeticNodes", "a b n")):
    """The node family a, a + b, ..., a + n*b (pairwise distinct iff b != 0)."""

    __slots__ = ()

    def __new__(cls, a: Fraction, b: Fraction, n: int) -> "ArithmeticNodes":
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        return tuple.__new__(cls, (a, b, n))

    def values(self) -> list[Fraction]:
        return [self.a + i * self.b for i in range(self.n + 1)]

    def integer_powers(self, m_max: int) -> tuple[int, int, list[list[int]]]:
        """(D, B, powers) with powers[m][k] = (A + B*k)^m for m = 0..m_max, k = 0..n.

        D = lcm(den a, den b), A = a*D and B = b*D, so node k is (A + B*k)/D.
        Row 0 is all ones (0**0 = 1, as in rat_pow); every row is a fresh list.
        """
        if m_max < 0:
            raise ValueError(f"m_max must be >= 0, got {m_max}")
        a, b = self.a, self.b
        scale = math.lcm(a.denominator, b.denominator)
        step = b.numerator * (scale // b.denominator)
        bases = [a.numerator * (scale // a.denominator) + step * k for k in range(self.n + 1)]
        powers = [[1] * (self.n + 1)]
        for _ in range(m_max):
            powers.append(list(map(operator.mul, powers[-1], bases)))
        return scale, step, powers


class ExactMatrix(namedtuple("ExactMatrix", "rows cols entries")):
    """Dense rational matrix, row-major and immutable."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[Fraction, ...]) -> "ExactMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        entries = tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)
        return tuple.__new__(cls, (rows, cols, entries))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def with_column(self, j: int, column: Sequence[Fraction]) -> "ExactMatrix":
        """Copy of the matrix with column j replaced by the given values."""
        if not 0 <= j < self.cols:
            raise ValueError(f"column index {j} out of range for {self.cols} columns")
        if len(column) != self.rows:
            raise ValueError("replacement column length must equal the row count")
        entries = list(self.entries)
        entries[j :: self.cols] = column
        return ExactMatrix(self.rows, self.cols, tuple(entries))


class LinearSystem(namedtuple("LinearSystem", "matrix rhs")):
    """Square exact system matrix * x = rhs."""

    __slots__ = ()

    def __new__(cls, matrix: ExactMatrix, rhs: tuple[Fraction, ...]) -> "LinearSystem":
        if matrix.rows != matrix.cols:
            raise ValueError("coefficient matrix must be square")
        if len(rhs) != matrix.rows:
            raise ValueError("right-hand side length must match the matrix side")
        rhs = tuple(e if isinstance(e, Fraction) else Fraction(e) for e in rhs)
        return tuple.__new__(cls, (matrix, rhs))


def build_system(nodes: ArithmeticNodes) -> LinearSystem:
    """The power-sum system for the given nodes.

    Matrix entry (i, j) is node_j ** i and the right-hand side is
    (0, ..., 0, b^n * n!).  Constructible for any b; with b = 0 and n >= 1
    the nodes coincide and the system is singular.
    """
    values = nodes.values()
    entries = tuple(rat_pow(value, i) for i in range(nodes.n + 1) for value in values)
    matrix = ExactMatrix(nodes.n + 1, nodes.n + 1, entries)
    rhs = tuple([Fraction(0)] * nodes.n + [rat_pow(nodes.b, nodes.n) * factorial(nodes.n)])
    return LinearSystem(matrix, rhs)


def det_vandermonde_general(nodes: Sequence[Fraction]) -> Fraction:
    """Vandermonde determinant of an arbitrary node list.

    Product of node_i - node_j over all pairs j < i; the empty product (one
    node or none) is 1.  The nodes are scaled by their common denominator D,
    so the product runs over integers and is divided once, by D to the number
    of pairs.
    """
    (scaled,), scale = _clear_rows([[Fraction(v) for v in nodes]])
    pairs = len(scaled) * (len(scaled) - 1) // 2
    return Fraction(math.prod(x - y for i, x in enumerate(scaled) for y in scaled[:i]),
                    scale**pairs)


def det_vandermonde_closed(n: int, b: Fraction) -> Fraction:
    """Closed form of the power-sum system determinant: 1! * 2! * ... * n! * b^(n(n+1)/2).

    The node offset a cancels out of every pairwise difference, so the value
    depends on b alone.
    """
    return superfactorial(n) * rat_pow(b, n * (n + 1) // 2)


def det_cramer_numerator(n: int, k: int, b: Fraction) -> Fraction:
    """Closed form for the determinant of the system matrix with column k
    replaced by the right-hand side (the Cramer-rule numerator of component k).

    Expanding along the substituted column leaves a smaller Vandermonde
    determinant, which collapses to

        (-1)^(n-k) * b^(n(n+1)/2) * n! * (1! * 2! * ... * n!) / (k! * (n-k)!)

    The division is always exact, so it is an integer division.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k} n={n}")
    quotient = factorial(n) * superfactorial(n) // (factorial(k) * factorial(n - k))
    return (-quotient if (n - k) % 2 else quotient) * rat_pow(b, n * (n + 1) // 2)


def det_bareiss(matrix: ExactMatrix | ArithmeticNodes) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Nodes stand for their power-sum matrix, whose integer rows come from
    the scaled nodes (_integer_rows; the right-hand side rides along
    unread).  A matrix has each row scaled to integers by the least common
    multiple of its denominators.  _eliminate then eliminates over
    integers, and the accumulated row scales are divided back out of the
    determinant it returns, 0 for a singular matrix.
    """
    if isinstance(matrix, ArithmeticNodes):
        rows, cleared = _integer_rows(matrix)
    elif matrix.rows != matrix.cols:
        raise ValueError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    else:
        rows, cleared = _clear_rows(matrix.row(i) for i in range(matrix.rows))
    return Fraction(_eliminate(rows, len(rows)), cleared)


def solve_exact(system: LinearSystem | ArithmeticNodes) -> list[Fraction]:
    """Unique exact solution of a nonsingular square system.

    Nodes stand for their power-sum system, whose integer rows come from the
    scaled nodes; a system has its augmented rows cleared of denominators,
    which only rescales equations.  The integer matrix is factored modulo
    the prime _PRIME = 2^30 - 35, so each residue is one interpreter digit,
    with each row's residues packed into one integer.  Dixon lifting
    (Numer. Math. 40, 1982) then builds the p-adic expansion of the
    solution one digit vector, 30 bits, per step, and the balanced residues
    of the expansion are returned only after the exact integer check
    A x = rhs, so a wrong candidate can cost time but never an answer, and
    an integer solution such as the signed binomials needs only the steps
    that cover its largest entry.  A matrix nonsingular modulo the prime is
    nonsingular over the rationals, so the certified solution is the unique
    one.  Lifting stops once the modulus passes 2 H, twice Hadamard's bound
    on the augmented rows: a nonsingular integer matrix has |det A| >= 1, so
    by Cramer's rule no entry of an integer solution exceeds H.

    Every system the lifting does not certify (singular modulo the prime,
    or without an integer solution) goes to fraction-free (Bareiss)
    elimination, which decides singularity, and rational back-substitution.
    SingularMatrixError is raised when elimination returns 0, naming the
    first column without a pivot; for power-sum systems that happens
    exactly when b = 0 and n >= 1.
    """
    augmented, _ = _integer_rows(system)
    n = len(augmented)
    factors = _factor_mod_prime(augmented, n)
    solution = None if factors is None else _solve_by_lifting(augmented, n, factors)
    if solution is None:
        if not _eliminate(augmented, n):
            # Elimination stops at the first column without a pivot, the
            # first whose diagonal entry is 0.
            k = next(k for k in range(n) if not augmented[k][k])
            raise SingularMatrixError(f"no pivot available in column {k}: matrix is singular")
        return _back_substitute(augmented, n)
    return solution


def _integer_rows(system: LinearSystem | ArithmeticNodes) -> tuple[list[list[int]], int]:
    """Cleared augmented rows and the product of their scales, as _clear_rows gives them.

    For nodes, row i is row i of ArithmeticNodes.integer_powers with
    right-hand side 0, or B^n n! last: row i of build_system scaled by D^i,
    its lcm, since gcd(A, B, D) = 1.
    """
    if not isinstance(system, ArithmeticNodes):
        matrix = system.matrix
        return _clear_rows(matrix.row(i) + (system.rhs[i],) for i in range(matrix.rows))
    n = system.n
    scale, step, rows = system.integer_powers(n)
    for row in rows:
        row.append(0)
    rows[n][n + 1] = step**n * factorial(n)
    return rows, scale ** (n * (n + 1) // 2)


def _back_substitute(rows: list[list[int]], n: int) -> list[Fraction]:
    """Solution of eliminated augmented rows (pivots on the diagonal), over rationals."""
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        accumulated = Fraction(rows[i][n])
        for j in range(i + 1, n):
            accumulated -= rows[i][j] * solution[j]
        solution[i] = accumulated / rows[i][i]
    return solution


def _eliminate(rows: list[list[int]], n: int) -> int:
    """Fraction-free forward elimination over the first n columns, in place.

    The n integer rows may be wider than n (an augmented right-hand side is
    carried along).  Pivots are the first nonzero entry in column order, and
    every division in the Bareiss update is exact, which keeps intermediate
    values the size of minors rather than exploding like naive
    cross-multiplication (Bareiss, Math. Comp. 22, 1968).  Afterwards row k
    holds the k-th pivot on the diagonal.  Returns the determinant of the
    leading n x n block, the last pivot times the row-swap sign (1 for no
    rows).  A column k without a pivot makes that block singular: elimination
    stops there and returns 0, with the pivots of columns 0..k-1 in place.
    """
    sign = 1
    previous_pivot = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1 : n]:
            head = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (pivot * row[j] - head * top[j]) // previous_pivot
            row[k] = 0
        previous_pivot = pivot
    return sign * previous_pivot


def _clear_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale each row to integers by its lcm; returns (rows, product of the scales)."""
    cleared_rows = []
    cleared = 1
    for row in rows:
        scale = math.lcm(*(e.denominator for e in row))
        cleared_rows.append([e.numerator * (scale // e.denominator) for e in row])
        cleared *= scale
    return cleared_rows, cleared


def _factor_mod_prime(rows: list[list[int]], n: int) -> _Factors | None:
    """LU factors of the leading n x n block of integer rows modulo _PRIME.

    Returns (order, lower, upper, inverse_pivots): original row order[i]
    sits in position i, lower[i] holds the multipliers left of the unit
    diagonal, upper[i] the entries right of pivot i, and inverse_pivots[i]
    the inverse of pivot i.  Returns None when the block is singular modulo
    _PRIME.  The rows themselves are left untouched.

    Each working row packs its residues into one integer, in slots of
    width = 2 * 30 + n.bit_length() + 1 bits (67 at n = 36), so eliminating
    a row is one big-integer multiply-add of the reduced pivot row.  Slots
    are reduced only when read; each update adds less than _PRIME**2 to a
    slot and a row takes at most n - 1 updates, so no slot ever carries
    into the next.
    """
    prime = _PRIME
    width = 2 * prime.bit_length() + n.bit_length() + 1
    mask = (1 << width) - 1
    packed = [
        sum((entry % prime) << (j * width) for j, entry in enumerate(row[:n])) for row in rows
    ]
    order = list(range(n))
    lower: list[list[int]] = [[] for _ in range(n)]
    upper = []
    inverse_pivots = []
    for k in range(n):
        heads = [(row >> (k * width) & mask) % prime for row in packed[k:]]
        found = next((i for i, head in enumerate(heads) if head), None)
        if found is None:
            return None
        heads[0], heads[found] = heads[found], heads[0]
        pivot_row = k + found
        packed[k], packed[pivot_row] = packed[pivot_row], packed[k]
        order[k], order[pivot_row] = order[pivot_row], order[k]
        lower[k], lower[pivot_row] = lower[pivot_row], lower[k]
        inverse = pow(heads[0], -1, prime)
        inverse_pivots.append(inverse)
        top = packed[k]
        tail = [(top >> (j * width) & mask) % prime for j in range(k + 1, n)]
        upper.append(tail)
        reduced = sum(y << (j * width) for j, y in enumerate(tail, k + 1))
        for i in range(k + 1, n):
            factor = heads[i - k] * inverse % prime
            lower[i].append(factor)
            if factor:
                packed[i] += (prime - factor) * reduced
    return order, lower, upper, inverse_pivots


def _solve_by_lifting(rows: list[list[int]], n: int, factors: _Factors) -> list[Fraction] | None:
    """Certified integer solution of integer augmented rows by Dixon lifting, or None.

    Invariant: after step k the expansion x satisfies A x = rhs modulo
    _PRIME^(k+1), and the residual r is (rhs - A x) / _PRIME^(k+1), so step
    k+1 solves A y = r modulo _PRIME and r becomes (r - A y) / _PRIME, an
    exact division by a one-digit divisor; each step gains 30 bits of x.
    Stop bound: each row's norm is below
    2^(max bit length + ceil(len(row).bit_length() / 2)), so a modulus past
    last_bits bits passes 2 H, twice Hadamard's bound on the augmented rows,
    past which the balanced residues equal any integer solution.
    """
    prime = _PRIME
    matrix = [row[:n] for row in rows]
    rhs = [row[n] for row in rows]
    last_bits = 1 + sum(
        max(map(int.bit_length, row)) + (len(row).bit_length() + 1) // 2 for row in rows
    )
    residual = rhs
    expansion = [0] * n
    modulus = 1
    while True:
        digits = _solve_mod_prime(residual, factors)
        expansion = [x + modulus * y for x, y in zip(expansion, digits)]
        modulus *= prime
        candidate = [x - modulus if 2 * x > modulus else x for x in expansion]
        if all(sum(map(operator.mul, row, candidate)) == b for row, b in zip(matrix, rhs)):
            return [Fraction(x) for x in candidate]
        if modulus.bit_length() > last_bits:
            return None
        residual = [
            (r - sum(map(operator.mul, row, digits))) // prime
            for r, row in zip(residual, matrix)
        ]


def _solve_mod_prime(rhs: list[int], factors: _Factors) -> list[int]:
    """The solution modulo _PRIME of A y = rhs, from the LU factors of A."""
    order, lower, upper, inverse_pivots = factors
    prime = _PRIME
    forward: list[int] = []
    for i, row in enumerate(lower):
        forward.append((rhs[order[i]] - sum(map(operator.mul, row, forward))) % prime)
    solution: list[int] = []
    for i in range(len(upper) - 1, -1, -1):
        # solution holds components i+1.. in reverse, so it pairs with the reversed row.
        above = sum(map(operator.mul, reversed(upper[i]), solution))
        solution.append((forward[i] - above) * inverse_pivots[i] % prime)
    solution.reverse()
    return solution
