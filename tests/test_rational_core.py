import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolekit.rational_core import (
    binomial,
    factorial,
    format_rational,
    parse_rational,
    rat_pow,
    superfactorial,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def is_canonical(value):
    """Reduced form with a positive denominator."""
    return value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("9/4", Fraction(9, 4)),
            ("-1/3", Fraction(-1, 3)),
            ("3", Fraction(3)),
            ("-12", Fraction(-12)),
            ("  5/10 ", Fraction(1, 2)),
            ("0/7", Fraction(0)),
        ],
    )
    def test_accepts_rational_literals(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1/0", "1/-2", "-1/-2", "a", "", "1/2/3", "+3", "1.5", "1 / 2"])
    def test_rejects_malformed_input(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_format_integer_bare(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-4)) == "-4"
        assert format_rational(3) == "3"

    def test_format_proper_fraction(self):
        assert format_rational(Fraction(-1, 3)) == "-1/3"

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


class TestCanonicalForm:
    @given(rationals, rationals)
    def test_arithmetic_stays_canonical(self, x, y):
        for value in (x + y, x - y, x * y):
            assert is_canonical(value)
        if y != 0:
            assert is_canonical(x / y)

    @given(rationals, rationals, rationals)
    def test_field_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == 0


class TestFactorial:
    def test_empty_product(self):
        assert factorial(0) == 1

    def test_small_values(self):
        assert factorial(3) == 6
        assert factorial(10) == 3628800

    def test_matches_repeated_multiplication(self):
        product = 1
        for i in range(1, 31):
            product *= i
            assert factorial(i) == product

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestBinomial:
    def test_boundary(self):
        assert binomial(4, 0) == 1
        assert binomial(4, 4) == 1

    def test_interior_value(self):
        assert binomial(4, 2) == 6

    def test_k_beyond_n_is_zero(self):
        assert binomial(5, 7) == 0

    def test_pascal_recurrence(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)


class TestSuperfactorial:
    def test_empty_product(self):
        assert superfactorial(0) == 1

    def test_small_values(self):
        assert superfactorial(3) == 12
        assert superfactorial(4) == 288

    def test_recurrence(self):
        for n in range(1, 41):
            assert superfactorial(n) == superfactorial(n - 1) * factorial(n)


class TestRatPow:
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(4)])
    def test_zeroth_power_is_one(self, x):
        assert rat_pow(x, 0) == 1

    def test_int_base_gives_a_fraction(self):
        assert rat_pow(-3, 3) == Fraction(-27)
        assert type(rat_pow(-3, 3)) is Fraction

    def test_small_powers(self):
        assert rat_pow(Fraction(1, 2), 3) == Fraction(1, 8)
        assert rat_pow(Fraction(-2, 3), 2) == Fraction(4, 9)

    @given(rationals, st.integers(min_value=0, max_value=20))
    def test_successor_power(self, x, m):
        assert rat_pow(x, m + 1) == rat_pow(x, m) * x

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            rat_pow(Fraction(1, 2), -1)

    @given(rationals, st.integers(min_value=0, max_value=12))
    def test_result_is_canonical(self, x, m):
        assert is_canonical(rat_pow(x, m))
