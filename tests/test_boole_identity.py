from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boolekit.boole_identity as bi
from boolekit.boole_identity import (
    CaseResult,
    VerificationReport,
    boole_sum,
    boole_sums,
    closed_form_solution,
    difference_rows,
    expected_value,
    forward_difference_at_zero,
    generalized_sum,
    generalized_sums,
    stirling2,
    stirling_grid,
    stirling_rows,
    verify_cramer,
    verify_generalized_boole,
    verify_stirling,
)
from boolekit.rational_core import factorial
from boolekit.vandermonde import (
    ArithmeticNodes,
    SingularMatrixError,
    build_system,
    det_cramer_numerator,
    solve_exact,
)

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero_rationals = small_rationals.filter(lambda x: x != 0)
wide_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=999)
wide_or_zero = st.one_of(st.just(Fraction(0)), wide_rationals)
sizes = st.integers(min_value=0, max_value=25)
negatives = st.integers(max_value=-1)


def enumerate_partitions(elements):
    """Every set partition of the given list, as a list of frozensets."""
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for partial in enumerate_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] | {head}] + partial[i + 1 :]
        yield partial + [frozenset({head})]


def count_partitions_into_blocks(m, n):
    return sum(1 for p in enumerate_partitions(list(range(m))) if len(p) == n)


class TestClosedFormSolution:
    def test_order_zero(self):
        assert closed_form_solution(0) == [1]

    def test_order_one(self):
        assert closed_form_solution(1) == [-1, 1]

    def test_order_three(self):
        assert closed_form_solution(3) == [-1, 3, -3, 1]

    def test_order_five(self):
        assert closed_form_solution(5) == [-1, 5, -10, 10, -5, 1]

    def test_matches_generic_solver(self):
        for n in range(7):
            system = build_system(ArithmeticNodes(Fraction(2, 3), Fraction(-5, 4), n))
            assert solve_exact(system) == [Fraction(c) for c in closed_form_solution(n)]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            closed_form_solution(-1)


class TestBooleSum:
    def test_diagonal_gives_factorial(self):
        assert boole_sum(3, 3) == 6

    def test_below_diagonal_vanishes(self):
        assert boole_sum(3, 2) == 0

    def test_above_diagonal(self):
        assert boole_sum(4, 6) == 1560

    def test_zero_zero_uses_empty_power(self):
        assert boole_sum(0, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            boole_sum(-1, 0)
        with pytest.raises(ValueError):
            boole_sum(0, -1)


class TestStirling2:
    def test_base_case(self):
        assert stirling2(0, 0) == 1

    def test_boundary_zeros(self):
        assert stirling2(4, 0) == 0
        assert stirling2(0, 4) == 0

    def test_small_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(2, 3) == 0
        assert stirling2(6, 4) == 65

    def test_recurrence_consistency(self):
        for m in range(1, 15):
            for n in range(1, 15):
                assert stirling2(m, n) == n * stirling2(m - 1, n) + stirling2(m - 1, n - 1)

    def test_matches_partition_enumeration(self):
        for m in range(7):
            for n in range(9):
                assert stirling2(m, n) == count_partitions_into_blocks(m, n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 2)


class TestForwardDifference:
    def test_square_twice(self):
        assert forward_difference_at_zero(2, 2) == 2

    def test_linear_twice(self):
        assert forward_difference_at_zero(1, 2) == 0

    def test_empty_table(self):
        assert forward_difference_at_zero(0, 0) == 1

    def test_agrees_with_alternating_sum(self):
        for m in range(13):
            for n in range(13):
                assert forward_difference_at_zero(m, n) == boole_sum(n, m)


class TestStirlingRows:
    @given(sizes, sizes)
    @settings(deadline=None, max_examples=40)
    def test_scaled_rows_match_alternating_sum(self, m_max, n_max):
        rows = stirling_rows(m_max, n_max)
        assert len(rows) == m_max + 1
        for m, row in enumerate(rows):
            assert [factorial(n) * s for n, s in enumerate(row)] == [
                boole_sum(n, m) for n in range(n_max + 1)
            ]

    @given(sizes, sizes, sizes, sizes)
    @settings(deadline=None)
    def test_truncated_rows_do_not_depend_on_bounds(self, m_max, n_max, m_cut, n_cut):
        m_cut, n_cut = min(m_cut, m_max), min(n_cut, n_max)
        wide = stirling_rows(m_max, n_max)
        assert [row[: n_cut + 1] for row in wide[: m_cut + 1]] == stirling_rows(m_cut, n_cut)

    @given(sizes, sizes, st.data())
    @settings(deadline=None)
    def test_rows_are_separate_lists(self, m_max, n_max, data):
        rows = stirling_rows(m_max, n_max)
        snapshot = [list(row) for row in rows]
        m = data.draw(st.integers(min_value=0, max_value=m_max))
        n = data.draw(st.integers(min_value=0, max_value=n_max))
        rows[m][n] += 1
        assert rows[:m] + rows[m + 1 :] == snapshot[:m] + snapshot[m + 1 :]
        assert stirling_rows(m_max, n_max) == snapshot

    @given(negatives, sizes)
    def test_negative_bound_raises_on_call(self, negative, size):
        with pytest.raises(ValueError):
            stirling_rows(negative, size)
        with pytest.raises(ValueError):
            stirling_rows(size, negative)


class TestDifferenceRows:
    @given(sizes, sizes)
    @settings(deadline=None, max_examples=40)
    def test_entries_match_sum_and_scaled_partitions(self, m_max, n_max):
        rows = difference_rows(m_max, n_max)
        assert len(rows) == m_max + 1
        for m, row in enumerate(rows):
            assert row == [boole_sum(n, m) for n in range(n_max + 1)]
            assert row == [factorial(n) * stirling2(m, n) for n in range(n_max + 1)]

    @given(sizes, sizes)
    @settings(deadline=None, max_examples=40)
    def test_rows_do_not_depend_on_m_max(self, m_max, n_max):
        rows = difference_rows(m_max, n_max)
        for m in range(m_max + 1):
            assert difference_rows(m, n_max) == rows[: m + 1]

    @given(sizes, sizes, sizes)
    @settings(deadline=None)
    def test_truncated_heads_do_not_depend_on_bound(self, m, n_max, n_cut):
        n_cut = min(n_cut, n_max)
        assert difference_rows(m, n_max)[m][: n_cut + 1] == difference_rows(m, n_cut)[m]

    @given(sizes)
    def test_shapes_at_zero_bounds(self, size):
        assert difference_rows(0, size) == [[1] + [0] * size]
        assert difference_rows(size, 0) == [[1]] + [[0]] * size

    @given(sizes, sizes, st.data())
    @settings(deadline=None)
    def test_rows_are_separate_lists(self, m_max, n_max, data):
        rows = difference_rows(m_max, n_max)
        snapshot = [list(row) for row in rows]
        m = data.draw(st.integers(min_value=0, max_value=m_max))
        n = data.draw(st.integers(min_value=0, max_value=n_max))
        rows[m][n] += 1
        assert rows[:m] + rows[m + 1 :] == snapshot[:m] + snapshot[m + 1 :]
        assert difference_rows(m_max, n_max) == snapshot

    @given(negatives, sizes)
    def test_negative_bound_raises_on_call(self, negative, size):
        with pytest.raises(ValueError):
            difference_rows(negative, size)
        with pytest.raises(ValueError):
            difference_rows(size, negative)


class TestBooleSums:
    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=20))
    @example(0, 0)
    @example(0, 7)
    @example(7, 0)
    @example(3, 12)
    @settings(deadline=None)
    def test_entries_match_definitional_sum(self, n_max, m_max):
        rows = boole_sums(n_max, m_max)
        assert [len(row) for row in rows] == [m_max + 1] * (n_max + 1)
        for n, row in enumerate(rows):
            assert row == [boole_sum(n, m) for m in range(m_max + 1)]
            assert all(type(value) is int for value in row)

    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=20))
    @settings(deadline=None)
    def test_signed_unit_step_table(self, n_max, m_max):
        table = generalized_sums(Fraction(0), Fraction(1), n_max, m_max)
        assert table == [
            [(-1) ** n * value for value in row] for n, row in enumerate(boole_sums(n_max, m_max))
        ]

    @given(sizes, sizes, st.data())
    @settings(deadline=None)
    def test_rows_are_fresh_lists(self, n_max, m_max, data):
        rows = boole_sums(n_max, m_max)
        snapshot = [list(row) for row in rows]
        n = data.draw(st.integers(min_value=0, max_value=n_max))
        rows[n][data.draw(st.integers(min_value=0, max_value=m_max))] += 1
        assert rows[:n] + rows[n + 1 :] == snapshot[:n] + snapshot[n + 1 :]
        assert boole_sums(n_max, m_max) == snapshot

    @given(negatives, sizes)
    def test_negative_bound_raises_on_call(self, negative, size):
        with pytest.raises(ValueError, match="must be >= 0, got"):
            boole_sums(negative, size)
        with pytest.raises(ValueError, match="must be >= 0, got"):
            boole_sums(size, negative)


class TestGeneralizedSum:
    def test_diagonal_case(self):
        assert generalized_sum(Fraction(1), Fraction(2), 2, 2) == 8

    def test_below_diagonal_case(self):
        assert generalized_sum(Fraction(1), Fraction(2), 2, 1) == 0

    def test_unit_nodes_diagonal(self):
        assert generalized_sum(Fraction(0), Fraction(1), 3, 3) == -6

    def test_bridge_to_classical_sum(self):
        for n in range(21):
            for m in range(n + 1):
                assert boole_sum(n, m) == (-1) ** n * generalized_sum(Fraction(0), Fraction(1), n, m)

    @given(small_rationals, small_rationals, small_rationals,
           st.integers(min_value=0, max_value=10))
    @settings(deadline=None)
    def test_value_independent_of_offset(self, a1, a2, b, n):
        for m in range(n + 1):
            assert generalized_sum(a1, b, n, m) == generalized_sum(a2, b, n, m)

    @given(small_rationals, small_rationals, nonzero_rationals,
           st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    @settings(deadline=None)
    def test_homogeneous_of_degree_m(self, a, b, c, n, m):
        scaled = generalized_sum(c * a, c * b, n, m)
        assert scaled == c**m * generalized_sum(a, b, n, m)


class TestGeneralizedSums:
    @given(
        wide_or_zero,
        wide_or_zero,
        st.integers(min_value=0, max_value=10),
        st.none() | st.integers(min_value=0, max_value=14),
    )
    @example(Fraction(0), Fraction(0), 10, None)
    @example(Fraction(0), Fraction(-7, 3), 10, None)
    @example(Fraction(5, 998), Fraction(0), 10, None)
    @example(Fraction(-1, 997), Fraction(-8, 999), 10, None)
    @example(Fraction(0), Fraction(0), 10, 14)
    @example(Fraction(-1, 997), Fraction(-8, 999), 10, 3)
    @example(Fraction(2, 3), Fraction(5, 7), 0, 0)
    @settings(deadline=None)
    def test_rows_match_definitional_sum(self, a, b, n_max, m_max):
        rows = generalized_sums(a, b, n_max, m_max)
        widths = [n + 1 if m_max is None else m_max + 1 for n in range(n_max + 1)]
        assert [len(row) for row in rows] == widths
        for n, row in enumerate(rows):
            assert row == [generalized_sum(a, b, n, m) for m in range(widths[n])]

    def test_unit_step_table_is_the_classical_sum(self):
        rows = generalized_sums(Fraction(0), Fraction(1), 20, 20)
        for n, row in enumerate(rows):
            assert [(-1) ** n * value for value in row] == [boole_sum(n, m) for m in range(21)]

    @given(wide_or_zero, wide_or_zero, st.integers(min_value=0, max_value=10))
    @settings(deadline=None)
    def test_rows_do_not_depend_on_n_max(self, a, b, n_max):
        assert generalized_sums(a, b, n_max + 3)[: n_max + 1] == generalized_sums(a, b, n_max)

    @given(wide_or_zero, wide_or_zero, st.integers(min_value=0, max_value=10), st.data())
    @settings(deadline=None)
    def test_rows_are_fresh_lists(self, a, b, n_max, data):
        rows = generalized_sums(a, b, n_max)
        snapshot = [list(row) for row in rows]
        n = data.draw(st.integers(min_value=0, max_value=n_max))
        rows[n][data.draw(st.integers(min_value=0, max_value=n))] += 1
        assert rows[:n] + rows[n + 1 :] == snapshot[:n] + snapshot[n + 1 :]
        assert generalized_sums(a, b, n_max) == snapshot

    @given(negatives)
    def test_negative_n_max_raises_on_call(self, negative):
        with pytest.raises(ValueError, match="must be >= 0, got"):
            generalized_sums(Fraction(0), Fraction(1), negative)
        with pytest.raises(ValueError, match="must be >= 0, got"):
            generalized_sums(Fraction(0), Fraction(1), 3, negative)


class TestExpectedValue:
    def test_diagonal(self):
        assert expected_value(Fraction(100), Fraction(2), 2, 2) == 8

    def test_below_diagonal(self):
        assert expected_value(Fraction(1), Fraction(7, 3), 5, 3) == 0

    @pytest.mark.parametrize("a, b, n, m", [(1, Fraction(7, 3), 5, 3), (0, 0, 1, 0), (-2, 9, 4, 0)])
    def test_below_diagonal_is_the_canonical_zero(self, a, b, n, m):
        value = expected_value(Fraction(a), Fraction(b), n, m)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (0, 1)

    def test_above_diagonal_rejected(self):
        with pytest.raises(ValueError):
            expected_value(Fraction(0), Fraction(1), 2, 4)

    def test_offset_is_ignored(self):
        for a in (Fraction(0), Fraction(-5, 2), Fraction(9)):
            assert expected_value(a, Fraction(-1, 3), 3, 3) == Fraction(-1, 27) * -6


class TestVerifyGeneralizedBoole:
    def test_unit_parameters_full_sweep(self):
        report = verify_generalized_boole(Fraction(0), Fraction(1), 10)
        assert report.total == 66
        assert report.failures == 0
        assert report.ok

    def test_cases_ordered_by_order_then_exponent(self):
        report = verify_generalized_boole(Fraction(0), Fraction(1), 4)
        keys = [(r.n, r.m) for r in report.results]
        assert keys == sorted(keys)

    def test_fractional_parameters(self):
        report = verify_generalized_boole(Fraction(1, 3), Fraction(-2, 5), 8)
        assert report.total == 45
        assert report.failures == 0

    def test_zero_step_runs_every_case(self):
        report = verify_generalized_boole(Fraction(7), Fraction(0), 6)
        assert report.total == 28
        assert report.failures == 0

    @given(wide_rationals, st.one_of(st.just(Fraction(0)), wide_rationals),
           st.integers(min_value=0, max_value=8))
    @example(Fraction(-5, 3), Fraction(0), 8)
    @example(Fraction(1, 997), Fraction(-7, 101), 8)
    @settings(deadline=None)
    def test_system_rows_are_signed_identity_cases(self, a, b, n):
        system = build_system(ArithmeticNodes(a, b, n))
        vector = closed_form_solution(n)
        sign = (-1) ** n
        for i in range(n + 1):
            row = sum((system.matrix.at(i, j) * vector[j] for j in range(n + 1)), Fraction(0))
            assert row == sign * generalized_sum(a, b, n, i)
            assert system.rhs[i] == sign * expected_value(a, b, n, i)

    @given(wide_or_zero, wide_or_zero, st.integers(min_value=0, max_value=8))
    @example(Fraction(0), Fraction(0), 8)
    @settings(deadline=None)
    def test_report_matches_definitional_route(self, a, b, n_max):
        cases = []
        for n in range(n_max + 1):
            for m in range(n + 1):
                lhs = generalized_sum(a, b, n, m)
                rhs = expected_value(a, b, n, m)
                cases.append(CaseResult(n, m, a, b, lhs, rhs, lhs == rhs))
        assert verify_generalized_boole(a, b, n_max) == VerificationReport(tuple(cases))

    def test_corrupted_expectation_is_caught(self, monkeypatch):
        genuine = bi.expected_value

        def corrupted(a, b, n, m):
            value = genuine(a, b, n, m)
            return value + 1 if (n, m) == (3, 3) else value

        monkeypatch.setattr(bi, "expected_value", corrupted)
        report = verify_generalized_boole(Fraction(0), Fraction(1), 4)
        assert report.failures == 1
        assert not report.ok

    def test_corrupted_zero_sum_fails_alone(self, monkeypatch):
        genuine = bi.generalized_sums

        def shifted(a, b, n_max, m_max=None):
            rows = genuine(a, b, n_max, m_max)
            rows[4][1] += 1
            return rows

        monkeypatch.setattr(bi, "generalized_sums", shifted)
        report = verify_generalized_boole(Fraction(2, 3), Fraction(-1, 5), 6)
        assert [(r.n, r.m) for r in report.results if not r.passed] == [(4, 1)]
        failed = next(r for r in report.results if not r.passed)
        assert (failed.lhs, failed.rhs) == (1, 0)

    @given(wide_or_zero, wide_or_zero, st.integers(min_value=0, max_value=6))
    @settings(deadline=None)
    def test_passing_case_rhs_is_lhs_and_closed_form(self, a, b, n_max):
        for r in verify_generalized_boole(a, b, n_max).results:
            assert r.passed
            assert r.rhs == r.lhs == expected_value(a, b, r.n, r.m)

    def test_determinism(self):
        first = verify_generalized_boole(Fraction(1, 2), Fraction(5, 7), 6)
        second = verify_generalized_boole(Fraction(1, 2), Fraction(5, 7), 6)
        assert first == second


class TestVerifyStirling:
    def test_full_grid(self):
        report = verify_stirling(12, 12)
        assert report.total == 169
        assert report.failures == 0

    def test_single_cell(self):
        report = verify_stirling(0, 0)
        assert report.total == 1
        assert report.results[0].lhs == 1
        assert report.results[0].rhs == 1

    def test_known_interior_case(self):
        report = verify_stirling(6, 4)
        matching = [r for r in report.results if (r.n, r.m) == (4, 6)]
        assert len(matching) == 1
        assert matching[0].lhs == 1560
        assert matching[0].rhs == 24 * 65
        assert matching[0].passed


    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
    @settings(deadline=None, max_examples=30)
    def test_records_hold_fractions_at_unit_nodes(self, m_max, n_max):
        results = verify_stirling(m_max, n_max).results
        assert [(r.n, r.m) for r in results] == [
            (n, m) for n in range(n_max + 1) for m in range(m_max + 1)
        ]
        for r in results:
            assert type(r.lhs) is Fraction and type(r.rhs) is Fraction
            assert (r.a, r.b) == (0, 1) and type(r.a) is Fraction and type(r.b) is Fraction
            assert r.lhs == r.rhs == boole_sum(r.n, r.m) and r.passed


class TestStirlingGrid:
    def test_points_are_table_rows_by_n_then_m(self):
        grid = stirling_grid(3, 2)
        assert [(m, n) for m, n, *_ in grid] == [(m, n) for n in range(3) for m in range(4)]
        assert grid[-1] == (3, 2, 3, 6, 6, True)
        assert all(type(point) is tuple for point in grid)

    @pytest.mark.parametrize("route", ["boole_sums", "stirling_rows", "difference_rows"])
    @pytest.mark.parametrize("cut", [
        lambda rows: rows[:-1],
        lambda rows: [rows[0][:-1], *rows[1:]],
    ], ids=["row", "entry"])
    def test_a_table_of_another_shape_raises(self, monkeypatch, route, cut):
        genuine = getattr(bi, route)
        monkeypatch.setattr(bi, route, lambda *args: cut(genuine(*args)))
        with pytest.raises(ValueError):
            stirling_grid(4, 3)


class TestVerifyCramer:
    def test_unit_step(self):
        report = verify_cramer(Fraction(0), Fraction(1), 5)
        assert report.total == 6
        assert report.failures == 0

    def test_fractional_parameters_same_solution(self):
        fractional = verify_cramer(Fraction(-3, 2), Fraction(1, 7), 4)
        unit = verify_cramer(Fraction(0), Fraction(1), 4)
        assert fractional.failures == 0
        assert [r.lhs for r in fractional.results] == [r.lhs for r in unit.results]

    def test_zero_step_is_singular(self):
        with pytest.raises(SingularMatrixError):
            verify_cramer(Fraction(1), Fraction(0), 2)

    def test_zero_step_at_order_zero_solves_one_by_one(self):
        # The system is [1] x = [1]; one node cannot coincide with another.
        report = verify_cramer(Fraction(7, 3), Fraction(0), 0)
        assert report.ok
        assert [(r.lhs, r.rhs) for r in report.results] == [(Fraction(1), Fraction(1))]

    @pytest.mark.parametrize("b", [Fraction(0), Fraction(1)])
    def test_negative_order_rejected_before_the_step(self, b):
        with pytest.raises(ValueError):
            verify_cramer(Fraction(1), b, -1)


@pytest.mark.parametrize(
    "function, args",
    [
        (generalized_sum, (Fraction(0), Fraction(1), -1, 0)),
        (expected_value, (Fraction(0), Fraction(1), -1, 0)),
        (verify_generalized_boole, (Fraction(0), Fraction(1), -1)),
        (det_cramer_numerator, (-1, 0, Fraction(1))),
    ],
    ids=["generalized_sum", "expected_value", "verify_generalized_boole", "det_cramer_numerator"],
)
def test_negative_order_rejected(function, args):
    with pytest.raises(ValueError, match="must be >= 0, got"):
        function(*args)


def _expected_value_plus_one(monkeypatch):
    genuine = bi.expected_value
    monkeypatch.setattr(bi, "expected_value", lambda a, b, n, m: genuine(a, b, n, m) + 1)


def _stirling_row_three_moved(monkeypatch):
    genuine = bi.stirling_rows

    def moved(m_max, n_max):
        rows = genuine(m_max, n_max)
        rows[3] = [s + 1 for s in rows[3]]
        return rows

    monkeypatch.setattr(bi, "stirling_rows", moved)


def _difference_row_three_moved(monkeypatch):
    genuine = bi.difference_rows

    def moved(m_max, n_max):
        rows = genuine(m_max, n_max)
        rows[3] = [d + 1 for d in rows[3]]
        return rows

    monkeypatch.setattr(bi, "difference_rows", moved)


def _solution_shifted(monkeypatch):
    genuine = bi.solve_exact
    monkeypatch.setattr(bi, "solve_exact", lambda system: [x + 1 for x in genuine(system)])


# (sweep, arguments, fault or None, failures the fault gives); every record is checked.
SWEEPS = [
    pytest.param(verify_generalized_boole, (Fraction(1, 3), Fraction(-2, 5), 6), None, 0,
                 id="generalized"),
    pytest.param(verify_generalized_boole, (Fraction(7, 2), Fraction(0), 4), None, 0,
                 id="generalized-zero-step"),
    pytest.param(verify_generalized_boole, (Fraction(1, 3), Fraction(-2, 5), 6),
                 _expected_value_plus_one, 28, id="generalized-expected-value"),
    pytest.param(verify_generalized_boole, (1, -2, 4), None, 0, id="generalized-int-nodes"),
    pytest.param(verify_stirling, (7, 5), None, 0, id="stirling"),
    pytest.param(verify_stirling, (7, 5), _stirling_row_three_moved, 6,
                 id="stirling-stirling-rows"),
    pytest.param(verify_stirling, (7, 5), _difference_row_three_moved, 6,
                 id="stirling-difference-rows"),
    pytest.param(verify_cramer, (Fraction(1, 3), Fraction(2, 5), 6), None, 0, id="cramer"),
    pytest.param(verify_cramer, (1, -2, 4), None, 0, id="cramer-int-nodes"),
    pytest.param(verify_cramer, (Fraction(1, 3), Fraction(2, 5), 6), _solution_shifted, 7,
                 id="cramer-solve-exact"),
]


class TestSweepRecords:
    """The sweeps build their records unchecked; each must equal its checked twin."""

    @pytest.mark.parametrize("sweep, args, fault, failures", SWEEPS)
    def test_records_are_checked_records(self, monkeypatch, sweep, args, fault, failures):
        if fault is not None:
            fault(monkeypatch)
        report = sweep(*args)
        assert report.failures == failures
        for record in report.results:
            assert type(record) is CaseResult
            assert record == CaseResult(*record)
            assert all(type(value) is Fraction
                       for value in (record.a, record.b, record.lhs, record.rhs))
            assert record.lhs == record.rhs or not record.passed

    def test_failing_stirling_rhs_is_the_scaled_partition_number(self, monkeypatch):
        partitions = stirling_rows(3, 5)[3]
        _stirling_row_three_moved(monkeypatch)
        failed = [r for r in verify_stirling(7, 5).results if not r.passed]
        assert [(r.n, r.m) for r in failed] == [(n, 3) for n in range(6)]
        for r in failed:
            assert r.lhs == boole_sum(r.n, 3)
            assert r.rhs == factorial(r.n) * (partitions[r.n] + 1)

    def test_failing_generalized_rhs_is_the_closed_form(self, monkeypatch):
        a, b = Fraction(1, 3), Fraction(-2, 5)
        _expected_value_plus_one(monkeypatch)
        for r in verify_generalized_boole(a, b, 6).results:
            assert not r.passed
            assert r.lhs == generalized_sum(a, b, r.n, r.m)
            assert r.rhs == r.lhs + 1


class TestReportStructure:
    def test_counts(self):
        good = CaseResult(1, 1, Fraction(0), Fraction(1), Fraction(1), Fraction(1), True)
        bad = CaseResult(1, 1, Fraction(0), Fraction(1), Fraction(1), Fraction(2), False)
        report = VerificationReport((good, bad, good))
        assert report.total == 3
        assert report.failures == 1
        assert not report.ok

    def test_case_validates_indices(self):
        with pytest.raises(ValueError):
            CaseResult(-1, 0, Fraction(0), Fraction(1), Fraction(0), Fraction(0), True)
        with pytest.raises(ValueError):
            CaseResult(0, -1, Fraction(0), Fraction(1), Fraction(0), Fraction(0), True)

    def test_int_values_become_fractions(self):
        a, lhs = Fraction(1, 2), Fraction(-3, 4)
        result = CaseResult(1, 1, a, 2, lhs, 5, False)
        assert result.a is a and result.lhs is lhs
        assert (type(result.b), type(result.rhs)) == (Fraction, Fraction)
        assert (result.b, result.rhs) == (2, 5)


RESULT = CaseResult(2, 1, Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(0), True)

# Each record type with its field names and one set of field values.
RECORDS = [
    pytest.param(
        CaseResult, ("n", "m", "a", "b", "lhs", "rhs", "passed"), tuple(RESULT), id="result"
    ),
    pytest.param(VerificationReport, ("results",), ((RESULT, RESULT),), id="report"),
]


@pytest.mark.parametrize("cls, names, values", RECORDS)
class TestRecordContract:
    def test_equal_fields_give_equal_records_and_hashes(self, cls, names, values):
        record = cls(*values)
        twin = cls(**dict(zip(names, values)))
        assert record == twin
        assert hash(record) == hash(twin)
        assert tuple(record) == values
        assert tuple(getattr(record, name) for name in names) == values

    def test_fields_are_read_only(self, cls, names, values):
        record = cls(*values)
        for name, value in zip(names, values):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 0

    def test_repr_names_each_field(self, cls, names, values):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"
