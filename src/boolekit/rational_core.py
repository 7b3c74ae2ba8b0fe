"""Exact scalars: arbitrary-precision integers and canonical rationals.

Every number in this package is either a Python ``int`` (natively arbitrary
precision) or a ``fractions.Fraction``.  A ``Fraction`` is always kept in
canonical form -- coprime numerator and denominator, denominator strictly
positive, zero stored as 0/1 -- so structural equality coincides with
numeric equality and no result ever needs re-normalising.

The textual form shared with the command-line layer is ``"p/q"`` with q > 0
and gcd(|p|, q) = 1; plain integers may render as ``"p"`` and parse back as
p/1.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL_LITERAL = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (optional leading minus) into a rational.

    Surrounding whitespace is ignored.  A zero denominator, a signed
    denominator, or any other malformed input raises ValueError.
    """
    token = text.strip()
    if not _RATIONAL_LITERAL.fullmatch(token):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in token:
        num_text, den_text = token.split("/")
        if int(den_text) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num_text), int(den_text))
    return Fraction(int(token))


def format_rational(value: Fraction) -> str:
    """Render a rational as ``"p/q"``, or as bare ``"p"`` for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def factorial(n: int) -> int:
    """n! as an exact integer."""
    return math.factorial(_natural(n, "n"))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 when k > n."""
    return math.comb(_natural(n, "n"), _natural(k, "k"))


def superfactorial(n: int) -> int:
    """The product 1! * 2! * ... * n! (1 for n = 0)."""
    _natural(n, "n")
    product = 1
    running_factorial = 1
    for i in range(1, n + 1):
        running_factorial *= i
        product *= running_factorial
    return product


def rat_pow(x: Fraction, m: int) -> Fraction:
    """x**m exactly, with 0**0 = 1 so a zero node still yields a one in the all-ones power row."""
    _natural(m, "m")
    return (x if isinstance(x, Fraction) else Fraction(x)) ** m


def _natural(value: int, name: str) -> int:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value
