"""Power-sum systems on arithmetic-progression nodes, with exact determinants.

The central object is the (n+1) x (n+1) linear system whose coefficient
matrix stacks the powers 0..n of the nodes a, a+b, ..., a+nb and whose
right-hand side is (0, ..., 0, b^n * n!).  The coefficient matrix is a
Vandermonde matrix, so its determinant has a closed form; the same goes for
the column-substituted determinants that appear as Cramer-rule numerators.
Generic exact routes (pairwise-difference product, fraction-free integer
elimination) are provided as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rational_core import Rational, factorial, format_rational, rat_pow, superfactorial


class SingularMatrixError(ArithmeticError):
    """Raised when an exact solve meets a singular coefficient matrix."""


@dataclass(frozen=True)
class ArithmeticNodes:
    """The node family a, a + b, ..., a + n*b (pairwise distinct iff b != 0)."""

    a: Rational
    b: Rational
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def node(self, i: int) -> Rational:
        return self.a + i * self.b

    def values(self) -> list[Rational]:
        return [self.node(i) for i in range(self.n + 1)]


@dataclass(frozen=True)
class ExactMatrix:
    """Dense rational matrix, row-major and immutable."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )
        object.__setattr__(self, "entries", tuple(Fraction(e) for e in self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational]]) -> "ExactMatrix":
        materialised = [list(row) for row in rows]
        n_cols = len(materialised[0]) if materialised else 0
        if any(len(row) != n_cols for row in materialised):
            raise ValueError("rows must all have the same length")
        flat = tuple(entry for row in materialised for entry in row)
        return cls(len(materialised), n_cols, flat)

    def at(self, i: int, j: int) -> Rational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Rational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def with_column(self, j: int, column: Sequence[Rational]) -> "ExactMatrix":
        """Copy of the matrix with column j replaced by the given values."""
        if not 0 <= j < self.cols:
            raise ValueError(f"column index {j} out of range for {self.cols} columns")
        if len(column) != self.rows:
            raise ValueError("replacement column length must equal the row count")
        rows = self.to_rows()
        for i, value in enumerate(column):
            rows[i][j] = Fraction(value)
        return ExactMatrix.from_rows(rows)

    def render(self) -> str:
        """Debug form: one line per row of space-separated "p/q" tokens."""
        return "\n".join(
            " ".join(format_rational(entry, always_fraction=True) for entry in self.row(i))
            for i in range(self.rows)
        )


@dataclass(frozen=True)
class LinearSystem:
    """Square exact system matrix * x = rhs."""

    matrix: ExactMatrix
    rhs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("coefficient matrix must be square")
        if len(self.rhs) != self.matrix.rows:
            raise ValueError("right-hand side length must match the matrix side")
        object.__setattr__(self, "rhs", tuple(Fraction(e) for e in self.rhs))


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


def det_vandermonde_general(nodes: Sequence[Rational]) -> Rational:
    """Vandermonde determinant of an arbitrary node list.

    Product of node_i - node_j over all pairs j < i; the empty product (one
    node or none) is 1.
    """
    values = [Fraction(v) for v in nodes]
    det = Fraction(1)
    for i in range(len(values)):
        for j in range(i):
            det *= values[i] - values[j]
    return det


def det_vandermonde_closed(n: int, b: Rational) -> Rational:
    """Closed form of the power-sum system determinant: 1! * 2! * ... * n! * b^(n(n+1)/2).

    The node offset a cancels out of every pairwise difference, so the value
    depends on b alone.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return superfactorial(n) * rat_pow(b, n * (n + 1) // 2)


def det_cramer_numerator(n: int, k: int, b: Rational) -> Rational:
    """Closed form for the determinant of the system matrix with column k
    replaced by the right-hand side (the Cramer-rule numerator of component k).

    Expanding along the substituted column leaves a smaller Vandermonde
    determinant, which collapses to

        (-1)^(n-k) * b^(n(n+1)/2) * n! * (1! * 2! * ... * n!) / (k! * (n-k)!)

    The division is always exact.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k} n={n}")
    sign = -1 if (n - k) % 2 else 1
    numerator = sign * factorial(n) * superfactorial(n)
    return Fraction(numerator, factorial(k) * factorial(n - k)) * rat_pow(b, n * (n + 1) // 2)


def det_bareiss(matrix: ExactMatrix) -> Rational:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Each row is first scaled to integers by the least common multiple of its
    denominators; the elimination then runs entirely over integers, and the
    accumulated row scales are divided back out of the last pivot at the end.
    A column without a pivot means the matrix is singular: the value is 0.
    """
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    n = matrix.rows
    if n == 0:
        return Fraction(1)
    work: list[list[int]] = []
    cleared = 1
    for i in range(n):
        integer_row, scale = _clear_denominators(matrix.row(i))
        work.append(integer_row)
        cleared *= scale
    try:
        sign = _eliminate(work, n)
    except SingularMatrixError:
        return Fraction(0)
    return Fraction(sign * work[n - 1][n - 1], cleared)


def solve_exact(system: LinearSystem) -> list[Rational]:
    """Unique exact solution of a nonsingular square system.

    Runs fraction-free forward elimination on the denominator-cleared
    augmented matrix (clearing a row only rescales an equation, so the
    solution set is untouched), then back-substitutes over rationals.
    Raises SingularMatrixError when some pivot column has no nonzero entry;
    for power-sum systems that is exactly the coincident-node case b = 0
    with n >= 1.
    """
    n = system.matrix.rows
    augmented = [
        _clear_denominators(system.matrix.row(i) + (system.rhs[i],))[0] for i in range(n)
    ]
    _eliminate(augmented, n)
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        accumulated = Fraction(augmented[i][n])
        for j in range(i + 1, n):
            accumulated -= augmented[i][j] * solution[j]
        solution[i] = accumulated / augmented[i][i]
    return solution


def _eliminate(rows: list[list[int]], n: int) -> int:
    """Fraction-free forward elimination over the first n columns, in place.

    The n integer rows may be wider than n (an augmented right-hand side is
    carried along).  Pivots are the first nonzero entry in column order, and
    every division in the Bareiss update is exact, which keeps intermediate
    values the size of minors rather than exploding like naive
    cross-multiplication (Bareiss, Math. Comp. 22, 1968).  Afterwards row k
    holds the k-th pivot on the diagonal, and the last pivot is the
    determinant of the leading n x n block up to the returned row-swap sign.
    Raises SingularMatrixError when a column has no pivot.
    """
    sign = 1
    previous_pivot = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot available in column {k}: matrix is singular")
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
    return sign


def _clear_denominators(entries: Iterable[Rational]) -> tuple[list[int], int]:
    """Scale a row of rationals to integers; returns (integer row, applied factor)."""
    materialised = [Fraction(e) for e in entries]
    scale = math.lcm(*(e.denominator for e in materialised)) if materialised else 1
    return [e.numerator * (scale // e.denominator) for e in materialised], scale
