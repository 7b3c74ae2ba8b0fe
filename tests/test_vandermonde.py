import contextlib
import io
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import boolekit.cli as cli
import boolekit.vandermonde as vandermonde
from boolekit.boole_identity import closed_form_solution
from boolekit.cli import EXIT_OK, main
from boolekit.rational_core import rat_pow, superfactorial
from boolekit.vandermonde import (
    ArithmeticNodes,
    ExactMatrix,
    LinearSystem,
    SingularMatrixError,
    build_system,
    det_bareiss,
    det_cramer_numerator,
    det_vandermonde_closed,
    det_vandermonde_general,
    solve_exact,
)

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero_rationals = small_rationals.filter(lambda x: x != 0)


def matrix_of(rows):
    """The ExactMatrix whose rows are the given equal-length lists."""
    return ExactMatrix(len(rows), len(rows[0]) if rows else 0, tuple(itertools.chain(*rows)))


def signed_binomials(n):
    from boolekit.rational_core import binomial

    return [Fraction((-1) ** (n - k) * binomial(n, k)) for k in range(n + 1)]


# Each record type with its field names and one set of field values.
RECORDS = [
    pytest.param(
        ArithmeticNodes, ("a", "b", "n"), (Fraction(1, 2), Fraction(-1, 3), 4), id="nodes"
    ),
    pytest.param(
        ExactMatrix, ("rows", "cols", "entries"), (1, 2, (Fraction(1), Fraction(2))), id="matrix"
    ),
    pytest.param(
        LinearSystem,
        ("matrix", "rhs"),
        (ExactMatrix(1, 1, (Fraction(2),)), (Fraction(5, 7),)),
        id="system",
    ),
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


class TestArithmeticNodes:
    def test_node_values(self):
        nodes = ArithmeticNodes(Fraction(1, 2), Fraction(1, 3), 3)
        assert nodes.values() == [
            Fraction(1, 2),
            Fraction(5, 6),
            Fraction(7, 6),
            Fraction(3, 2),
        ]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ArithmeticNodes(Fraction(0), Fraction(1), -1)

    def test_int_parameters_become_fractions(self):
        a = Fraction(1, 2)
        nodes = ArithmeticNodes(a, -3, 2)
        assert nodes.a is a
        assert type(nodes.b) is Fraction and nodes.b == -3

    @given(small_rationals, nonzero_rationals, st.integers(min_value=1, max_value=8))
    def test_nodes_distinct_iff_step_nonzero(self, a, b, n):
        values = ArithmeticNodes(a, b, n).values()
        assert len(set(values)) == n + 1
        collapsed = ArithmeticNodes(a, Fraction(0), n).values()
        assert len(set(collapsed)) == 1

    @given(
        small_rationals,
        small_rationals,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=8),
    )
    @example(Fraction(0), Fraction(2, 3), 4, 5)
    @example(Fraction(-5, 4), Fraction(0), 3, 4)
    @example(Fraction(0), Fraction(0), 2, 3)
    def test_integer_powers_are_the_scaled_node_powers(self, a, b, n, m_max):
        nodes = ArithmeticNodes(a, b, n)
        scale, step, powers = nodes.integer_powers(m_max)
        assert scale == math.lcm(a.denominator, b.denominator)
        assert step == b * scale
        assert len(powers) == m_max + 1
        for m, row in enumerate(powers):
            assert all(type(entry) is int for entry in row)
            assert row == [rat_pow(node, m) * scale**m for node in nodes.values()]

    def test_integer_powers_reject_a_negative_exponent(self):
        with pytest.raises(ValueError):
            ArithmeticNodes(Fraction(1), Fraction(1), 2).integer_powers(-1)


class TestExactMatrix:
    def test_entry_count_enforced(self):
        with pytest.raises(ValueError):
            ExactMatrix(2, 2, (Fraction(1), Fraction(2), Fraction(3)))
        # One entry fits (-1) x (-1), but a side may not be negative.
        with pytest.raises(ValueError):
            ExactMatrix(-1, -1, (Fraction(1),))

    def test_accessors(self):
        m = matrix_of([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
        assert m.at(1, 0) == 3
        assert m.row(0) == (Fraction(1), Fraction(2))
        assert m.to_rows() == [[1, 2], [3, 4]]

    def test_with_column(self):
        m = matrix_of([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
        replaced = m.with_column(1, [Fraction(9), Fraction(8)])
        assert replaced.to_rows() == [[1, 9], [3, 8]]
        assert m.to_rows() == [[1, 2], [3, 4]]

    def test_with_column_copies_the_entries_once(self):
        m = matrix_of([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
        with mock.patch.object(ExactMatrix, "to_rows", side_effect=AssertionError):
            replaced = m.with_column(0, (7, Fraction(1, 2)))
        assert replaced.entries == (Fraction(7), Fraction(2), Fraction(1, 2), Fraction(4))

    def test_with_column_validates(self):
        m = matrix_of([[Fraction(1)]])
        with pytest.raises(ValueError):
            m.with_column(2, [Fraction(1)])
        with pytest.raises(ValueError):
            m.with_column(0, [Fraction(1), Fraction(2)])

    def test_int_entries_become_fractions(self):
        half = Fraction(1, 2)
        m = ExactMatrix(1, 3, (3, -4, half))
        assert m.entries == (Fraction(3), Fraction(-4), Fraction(1, 2))
        assert all(type(e) is Fraction for e in m.entries)
        assert m.entries[2] is half


class TestLinearSystem:
    def test_square_matrix_required(self):
        wide = matrix_of([[Fraction(1), Fraction(2)]])
        with pytest.raises(ValueError):
            LinearSystem(wide, (Fraction(0),))

    def test_rhs_length_checked(self):
        square = matrix_of([[Fraction(1)]])
        with pytest.raises(ValueError):
            LinearSystem(square, (Fraction(0), Fraction(1)))

    def test_int_entries_become_fractions(self):
        third = Fraction(1, 3)
        system = LinearSystem(matrix_of([[2, 0], [1, 1]]), (5, third))
        assert system.matrix.to_rows() == [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]]
        assert system.rhs == (Fraction(5), Fraction(1, 3))
        assert all(type(e) is Fraction for e in system.matrix.entries + system.rhs)
        assert system.rhs[1] is third


class TestBuildSystem:
    def test_unit_step_order_one(self):
        system = build_system(ArithmeticNodes(Fraction(0), Fraction(1), 1))
        assert system.matrix.to_rows() == [[1, 1], [0, 1]]
        assert system.rhs == (Fraction(0), Fraction(1))

    def test_offset_two_step_two(self):
        system = build_system(ArithmeticNodes(Fraction(1), Fraction(2), 2))
        assert system.matrix.to_rows() == [[1, 1, 1], [1, 3, 5], [1, 9, 25]]
        assert system.rhs == (Fraction(0), Fraction(0), Fraction(8))

    def test_zero_step_collapses(self):
        system = build_system(ArithmeticNodes(Fraction(3), Fraction(0), 1))
        assert system.matrix.to_rows() == [[1, 1], [3, 3]]
        assert system.rhs == (Fraction(0), Fraction(0))


class TestDetVandermondeGeneral:
    def test_three_integer_nodes(self):
        assert det_vandermonde_general([Fraction(0), Fraction(1), Fraction(2)]) == 2

    def test_duplicate_node_vanishes(self):
        assert det_vandermonde_general([Fraction(5), Fraction(5)]) == 0

    def test_single_node_empty_product(self):
        assert det_vandermonde_general([Fraction(7)]) == 1
        assert det_vandermonde_general([]) == 1

    @given(st.lists(st.one_of(st.integers(-60, 60), st.fractions(max_denominator=10**6)),
                    max_size=9))
    @example([])
    @example([Fraction(-5, 3)])
    @example([7])
    @example([Fraction(1, 2), Fraction(-2, 9), Fraction(1, 2)])
    @example([3, Fraction(3), 3])
    @example([0, 1, 2, 5])
    @example([Fraction(1, 6), 2, Fraction(-7, 10), -4])
    def test_matches_pairwise_fraction_product(self, nodes):
        expected = Fraction(1)
        for i in range(len(nodes)):
            for j in range(i):
                expected *= Fraction(nodes[i]) - Fraction(nodes[j])
        result = det_vandermonde_general(nodes)
        assert type(result) is Fraction
        assert result == expected


class TestDetVandermondeClosed:
    def test_unit_step(self):
        assert det_vandermonde_closed(2, Fraction(1)) == 2

    def test_order_zero(self):
        assert det_vandermonde_closed(0, Fraction(11, 3)) == 1

    def test_step_two(self):
        assert det_vandermonde_closed(3, Fraction(2)) == 768

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            det_vandermonde_closed(-1, Fraction(1))

    @given(small_rationals, small_rationals, st.integers(min_value=0, max_value=5))
    def test_matches_pairwise_product(self, a, b, n):
        nodes = ArithmeticNodes(a, b, n)
        assert det_vandermonde_closed(n, b) == det_vandermonde_general(nodes.values())


class TestDetCramerNumerator:
    @pytest.mark.parametrize("b", [Fraction(1), Fraction(-2), Fraction(3, 7)])
    def test_order_one_component_zero(self, b):
        assert det_cramer_numerator(1, 0, b) == -b

    def test_order_two_components(self):
        assert det_cramer_numerator(2, 1, Fraction(1)) == -4
        assert det_cramer_numerator(2, 2, Fraction(1)) == 2

    def test_component_beyond_order_rejected(self):
        with pytest.raises(ValueError):
            det_cramer_numerator(2, 3, Fraction(1))

    @given(small_rationals, nonzero_rationals, st.integers(min_value=0, max_value=5))
    @settings(deadline=None)
    def test_matches_substituted_determinant(self, a, b, n):
        system = build_system(ArithmeticNodes(a, b, n))
        for k in range(n + 1):
            substituted = system.matrix.with_column(k, system.rhs)
            assert det_cramer_numerator(n, k, b) == det_bareiss(substituted)

    @given(small_rationals, st.integers(min_value=0, max_value=12))
    @example(Fraction(0), 0)
    @example(Fraction(0), 5)
    @settings(deadline=None)
    def test_cramer_rule_on_the_closed_forms_is_the_paper_formula(self, b, n):
        power = b ** (n * (n + 1) // 2)
        scaled = math.factorial(n) * superfactorial(n)
        closed = det_vandermonde_closed(n, b)
        for k, signed in enumerate(closed_form_solution(n)):
            definition = (
                Fraction((-1) ** (n - k) * scaled, math.factorial(k) * math.factorial(n - k))
                * power
            )
            numerator = det_cramer_numerator(n, k, b)
            assert closed * signed == numerator == definition
            assert type(numerator) is Fraction

    def test_cramer_ratio_gives_signed_binomials(self):
        for n in range(0, 31):
            b = Fraction(5, 3)
            det = det_vandermonde_closed(n, b)
            for k in range(n + 1):
                assert det_cramer_numerator(n, k, b) / det == signed_binomials(n)[k]


class TestDetBareiss:
    def test_identity(self):
        eye = matrix_of(
            [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        )
        assert det_bareiss(eye) == 1

    def test_triangular(self):
        m = matrix_of([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])
        assert det_bareiss(m) == 1

    def test_empty_matrix(self):
        assert det_bareiss(ExactMatrix(0, 0, ())) == 1

    def test_row_swap_flips_sign(self):
        m = matrix_of([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        assert det_bareiss(m) == -1

    def test_fractional_vandermonde_nodes(self):
        nodes = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
        matrix = matrix_of([[x**i for x in nodes] for i in range(4)])
        assert det_bareiss(matrix) == det_vandermonde_general(nodes)
        assert det_bareiss(matrix) == Fraction(3, 16)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_bareiss(matrix_of([[Fraction(1), Fraction(2)]]))

    def test_equal_columns_vanish(self):
        rng = random.Random(42)
        for _ in range(10):
            size = rng.randint(2, 5)
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
                for _ in range(size)
            ]
            j = rng.randrange(size - 1)
            for row in rows:
                row[j + 1] = row[j]
            assert det_bareiss(matrix_of(rows)) == 0

    @given(small_rationals, small_rationals, st.integers(min_value=0, max_value=5))
    @settings(deadline=None)
    def test_agrees_with_closed_form_on_power_systems(self, a, b, n):
        matrix = build_system(ArithmeticNodes(a, b, n)).matrix
        assert det_bareiss(matrix) == det_vandermonde_closed(n, b)


def leibniz_determinant(rows):
    """Sum over permutations of the signed products, the determinant by definition."""
    side = len(rows)
    total = 0
    for perm in itertools.permutations(range(side)):
        inversions = sum(perm[i] > perm[j] for i in range(side) for j in range(i + 1, side))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(side))
    return total


@st.composite
def integer_matrices(draw):
    """Square integer matrices of side 0 to 5; rows may start with zeros, so pivot rows swap."""
    side = draw(st.integers(min_value=0, max_value=5))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=side, max_size=side),
        min_size=side, max_size=side,
    ))
    for row in rows:
        zeros = draw(st.integers(min_value=0, max_value=side))
        row[:zeros] = [0] * zeros
    return rows


class TestEliminate:
    """_eliminate against the Leibniz formula (det_bareiss shares the kernel, so not it)."""

    @given(integer_matrices())
    @example([])
    @example([[0, 2], [3, 1]])
    @example([[0, 0, 1], [0, 2, 5], [3, 1, 4]])
    @example([[1, 2], [2, 4]])
    @settings(deadline=None)
    def test_returns_the_determinant_zero_included(self, rows):
        expected = leibniz_determinant(rows)  # before _eliminate works on the rows in place
        assert vandermonde._eliminate(rows, len(rows)) == expected


class TestSolveExact:
    def test_order_one(self):
        system = build_system(ArithmeticNodes(Fraction(0), Fraction(1), 1))
        assert solve_exact(system) == [Fraction(-1), Fraction(1)]

    def test_order_two(self):
        system = build_system(ArithmeticNodes(Fraction(0), Fraction(1), 2))
        assert solve_exact(system) == [Fraction(1), Fraction(-2), Fraction(1)]

    def test_coincident_nodes_singular(self):
        system = build_system(ArithmeticNodes(Fraction(3), Fraction(0), 1))
        with pytest.raises(SingularMatrixError):
            solve_exact(system)

    @pytest.mark.parametrize("rows, column", [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 2),
        ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 2),
    ])
    def test_singular_message_names_the_first_column_without_a_pivot(self, rows, column):
        system = LinearSystem(matrix_of(rows), (0, 0, 0))
        with pytest.raises(SingularMatrixError) as raised:
            solve_exact(system)
        assert str(raised.value) == f"no pivot available in column {column}: matrix is singular"

    def test_order_zero(self):
        system = build_system(ArithmeticNodes(Fraction(4), Fraction(0), 0))
        assert solve_exact(system) == [Fraction(1)]

    def test_pivot_search_swaps_rows(self):
        matrix = matrix_of(
            [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
        )
        system = LinearSystem(matrix, (Fraction(4), Fraction(5)))
        x = solve_exact(system)
        assert x == [Fraction(1), Fraction(2)]

    @given(small_rationals, nonzero_rationals, st.integers(min_value=0, max_value=6))
    @settings(deadline=None)
    def test_solution_is_signed_binomial_vector(self, a, b, n):
        system = build_system(ArithmeticNodes(a, b, n))
        assert solve_exact(system) == signed_binomials(n)

    @given(small_rationals, nonzero_rationals, st.integers(min_value=0, max_value=5))
    @settings(deadline=None)
    def test_solution_satisfies_every_equation(self, a, b, n):
        system = build_system(ArithmeticNodes(a, b, n))
        x = solve_exact(system)
        for i in range(n + 1):
            achieved = sum(
                (system.matrix.at(i, j) * x[j] for j in range(n + 1)), Fraction(0)
            )
            assert achieved == system.rhs[i]


@st.composite
def square_systems(draw):
    """Random rational systems of side 0..6, often singular or needing row swaps."""
    size = draw(st.integers(min_value=0, max_value=6))
    # Entries from a seeded generator: Hypothesis's own draws favour 0 and repeat
    # values so often that most matrices would be singular and few need a swap.
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    rows = [[entry() for _ in range(size)] for _ in range(size)]
    rhs = [entry() for _ in range(size)]
    shapes = ["plain", "row_swap", "row_swap", "zero_column", "repeated_column", "zero_row"]
    shape = draw(st.sampled_from(shapes)) if size > 1 else "plain"
    if shape == "row_swap":
        # Zero leading entries in the top rows force a row swap.
        for i in range(draw(st.integers(min_value=1, max_value=size - 1))):
            rows[i][0] = Fraction(0)
    elif shape == "zero_column":
        for row in rows:
            row[0] = Fraction(0)
    elif shape == "repeated_column":
        source, target = draw(st.permutations(range(size)))[:2]
        for row in rows:
            row[target] = row[source]
    elif shape == "zero_row":
        rows[draw(st.integers(min_value=0, max_value=size - 1))] = [Fraction(0)] * size
    return LinearSystem(matrix_of(rows), tuple(rhs))


class TestCramerRuleByElimination:
    """det's elimination numerators: det_bareiss(nodes) times solve_exact(nodes)'s components."""

    @given(small_rationals, small_rationals, st.integers(min_value=0, max_value=8))
    @example(Fraction(5, 3), Fraction(0), 1)
    @example(Fraction(0), Fraction(0), 3)
    @example(Fraction(0), Fraction(3, 7), 6)
    @example(Fraction(-2), Fraction(0), 4)
    @example(Fraction(7, 6), Fraction(0), 0)
    @settings(deadline=None)
    def test_nodes_give_the_determinant_of_their_matrix(self, a, b, n):
        nodes = ArithmeticNodes(a, b, n)
        assert det_bareiss(nodes) == det_bareiss(build_system(nodes).matrix)

    @given(small_rationals, small_rationals, st.integers(min_value=0, max_value=6))
    @example(Fraction(5, 3), Fraction(0), 1)
    @example(Fraction(-2), Fraction(0), 4)
    @example(Fraction(2), Fraction(0), 0)
    @settings(deadline=None)
    def test_det_columns_are_the_substituted_determinants(self, a, b, n):
        system = build_system(ArithmeticNodes(a, b, n))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["det", f"--a={a}", f"--b={b}", f"--n={n}", "--format", "json"])
        assert code == EXIT_OK
        columns = json.loads(out.getvalue())["columns"]
        assert [Fraction(column["elimination"]) for column in columns] == [
            det_bareiss(system.matrix.with_column(k, system.rhs)) for k in range(n + 1)
        ]

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_zero_step_det_eliminates_once_and_never_solves(self, capsys, monkeypatch, n):
        # Coinciding nodes make the right-hand side zero, so every substituted
        # matrix has a zero column: the elimination that finds the matrix
        # singular decides every numerator.
        calls = []
        integer_rows = vandermonde._integer_rows

        def counting(system):
            calls.append(system)
            return integer_rows(system)

        monkeypatch.setattr(vandermonde, "_integer_rows", counting)
        monkeypatch.setattr(cli, "solve_exact", mock.Mock(side_effect=AssertionError))
        elimination_calls = TestSolvePadic.spy(monkeypatch, "_eliminate")
        assert main(["det", "--b", "0", "--n", str(n), "--format", "json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert [column["elimination"] for column in document["columns"]] == ["0/1"] * (n + 1)
        assert document["agree"] is True
        assert calls == [ArithmeticNodes(0, 0, n)]
        assert len(elimination_calls) == 1

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_power_system_numerators_are_the_closed_forms(self, n):
        b = Fraction(-7, 9)
        nodes = ArithmeticNodes(Fraction(9, 8), b, n)
        det = det_bareiss(nodes)
        assert det == det_vandermonde_closed(n, b)
        assert [det * x for x in solve_exact(nodes)] == [
            det_cramer_numerator(n, k, b) for k in range(n + 1)
        ]


class TestIntegerRowsFromNodes:
    """Nodes in place of their system: integer rows from the scaled nodes, same answers.

    build_system stays the oracle; a = 0 and b = 0 are pinned as examples.
    """

    @given(small_rationals, small_rationals, st.integers(min_value=0, max_value=8))
    @example(Fraction(0), Fraction(0), 3)
    @example(Fraction(0), Fraction(2, 3), 4)
    @example(Fraction(-5, 4), Fraction(0), 2)
    @example(Fraction(7, 6), Fraction(0), 0)
    @settings(deadline=None)
    def test_rows_and_scale_match_the_cleared_system(self, a, b, n):
        nodes = ArithmeticNodes(a, b, n)
        system = build_system(nodes)
        expected = vandermonde._integer_rows(system)
        assert vandermonde._integer_rows(nodes) == expected

    @given(small_rationals, small_rationals, st.integers(min_value=0, max_value=8))
    @example(Fraction(0), Fraction(0), 3)
    @example(Fraction(0), Fraction(-1, 2), 5)
    @example(Fraction(9, 4), Fraction(0), 1)
    @settings(deadline=None)
    def test_solve_exact_matches_the_system(self, a, b, n):
        nodes = ArithmeticNodes(a, b, n)
        try:
            expected = solve_exact(build_system(nodes))
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as raised:
                solve_exact(nodes)
            assert str(raised.value) == str(exc)
        else:
            assert solve_exact(nodes) == expected


def bareiss_route(system):
    """The elimination route of solve_exact: Bareiss, then rational back-substitution."""
    n = system.matrix.rows
    augmented, _ = vandermonde._integer_rows(system)
    if not vandermonde._eliminate(augmented, n):
        k = next(k for k in range(n) if not augmented[k][k])
        raise SingularMatrixError(f"no pivot available in column {k}: matrix is singular")
    return vandermonde._back_substitute(augmented, n)


def reference_factor_mod_prime(rows, n):
    """Row-by-row LU modulo vandermonde._PRIME: the reference for the packed rows."""
    prime = vandermonde._PRIME
    work = [[entry % prime for entry in row[:n]] for row in rows]
    order = list(range(n))
    inverse_pivots = []
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if work[r][k]), None)
        if pivot_row is None:
            return None
        work[k], work[pivot_row] = work[pivot_row], work[k]
        order[k], order[pivot_row] = order[pivot_row], order[k]
        top = work[k]
        inverse = pow(top[k], -1, prime)
        inverse_pivots.append(inverse)
        tail = top[k + 1 :]
        for row in work[k + 1 :]:
            if row[k]:
                factor = row[k] * inverse % prime
                row[k] = factor
                row[k + 1 :] = [(x - factor * y) % prime for x, y in zip(row[k + 1 :], tail)]
    lower = [row[:i] for i, row in enumerate(work)]
    upper = [row[i + 1 :] for i, row in enumerate(work)]
    return order, lower, upper, inverse_pivots


@st.composite
def integer_rows(draw, prime):
    """Augmented integer rows of side 0..9: small values, multiples of prime, near +-10^40."""
    size = draw(st.integers(min_value=0, max_value=9))
    entries = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-3, max_value=3).map(lambda m: m * prime),
        st.integers(min_value=0, max_value=prime - 1),
        st.tuples(st.sampled_from([-1, 1]), st.integers(min_value=-999, max_value=999)).map(
            lambda t: t[0] * 10**40 + t[1]
        ),
    )
    row = st.lists(entries, min_size=size + 1, max_size=size + 1)
    return draw(st.lists(row, min_size=size, max_size=size))


class TestFactorModPrime:
    """Packed-row LU modulo the prime against the row-by-row reference."""

    PRIMES = [vandermonde._PRIME, 2**61 - 1, 2, 5, 7]

    @staticmethod
    def assert_factors_multiply_back(rows, factors):
        order, lower, upper, inverse_pivots = factors
        prime = vandermonde._PRIME
        n = len(rows)
        assert sorted(order) == list(range(n))
        for i in range(n):
            left = lower[i] + [1] + [0] * (n - i - 1)
            for j in range(n):
                product = sum(
                    left[t] * (pow(inverse_pivots[t], -1, prime) if t == j else upper[t][j - t - 1])
                    for t in range(min(i, j) + 1)
                )
                assert (product - rows[order[i]][j]) % prime == 0

    @pytest.mark.parametrize("prime", PRIMES)
    @given(st.data())
    @settings(deadline=None)
    def test_matches_the_row_by_row_reference(self, prime, data):
        rows = data.draw(integer_rows(prime))
        n = len(rows)
        with mock.patch.object(vandermonde, "_PRIME", prime):
            factors = vandermonde._factor_mod_prime(rows, n)
            assert factors == reference_factor_mod_prime(rows, n)
            if factors is not None:
                self.assert_factors_multiply_back(rows, factors)

    def test_worst_case_slots_do_not_carry(self):
        # Side 70 needs the n.bit_length() term of the slot width: residues
        # p - 1 make every update add nearly p^2 to a slot, 69 times over.
        prime = vandermonde._PRIME
        rng = random.Random(70)
        n = 70
        rows = [[prime - 1] * (n + 1) for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(1, prime - 1)
        factors = vandermonde._factor_mod_prime(rows, n)
        assert factors is not None
        assert factors == reference_factor_mod_prime(rows, n)
        self.assert_factors_multiply_back(rows, factors)

    def test_prime_is_one_interpreter_digit(self):
        # Trial division up to 2^15 > sqrt(2^30) proves any number below 2^30 prime.
        prime = vandermonde._PRIME
        assert prime < 2**30
        assert all(prime % d for d in range(2, 2**15))

    def test_rows_are_left_untouched(self):
        rows = [[2, 1, 5], [1, 3, -7]]
        copy = [list(row) for row in rows]
        vandermonde._factor_mod_prime(rows, 2)
        assert rows == copy


class TestSolvePadic:
    """solve_exact's p-adic route against the Bareiss route it falls back to.

    Small primes make the rare cases common: matrices singular modulo the
    prime, candidates that fail the certificate, and many lifting steps.
    """

    PRIMES = [vandermonde._PRIME, 2**61 - 1, 2, 5, 7]

    @staticmethod
    def assert_matches_bareiss_route(system):
        try:
            expected = bareiss_route(system)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as raised:
                solve_exact(system)
            assert str(raised.value) == str(exc)
        else:
            assert solve_exact(system) == expected

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        original = getattr(vandermonde, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(vandermonde, name, counting)
        return calls

    @pytest.mark.parametrize("prime", PRIMES)
    @given(square_systems())
    @settings(deadline=None)
    def test_matches_bareiss_route(self, prime, system):
        with mock.patch.object(vandermonde, "_PRIME", prime):
            self.assert_matches_bareiss_route(system)

    @pytest.mark.parametrize("prime", PRIMES)
    @given(small_rationals, small_rationals, st.integers(min_value=0, max_value=8))
    @settings(deadline=None)
    def test_power_systems_match_bareiss_route(self, prime, a, b, n):
        with mock.patch.object(vandermonde, "_PRIME", prime):
            self.assert_matches_bareiss_route(build_system(ArithmeticNodes(a, b, n)))

    def test_singular_only_modulo_the_prime(self, monkeypatch):
        # diag(P, 1) is nonsingular over Q, so the elimination route must solve it.
        eliminations = self.spy(monkeypatch, "_eliminate")
        prime = vandermonde._PRIME
        matrix = matrix_of([[Fraction(prime), Fraction(0)], [Fraction(0), Fraction(1)]])
        system = LinearSystem(matrix, (Fraction(3), Fraction(-4)))
        assert solve_exact(system) == [Fraction(3, prime), Fraction(-4)]
        assert len(eliminations) == 1

    def test_large_integer_solution_needs_several_lifting_steps(self, monkeypatch):
        steps = self.spy(monkeypatch, "_solve_mod_prime")
        eliminations = self.spy(monkeypatch, "_eliminate")
        big = 10**40 + 1
        matrix = matrix_of([[Fraction(3), Fraction(1)], [Fraction(1), Fraction(2)]])
        system = LinearSystem(matrix, (Fraction(3 * big - 7), Fraction(big - 14)))
        # Entries near 10^40 need a modulus past 2 * 10^40: P^4 < 2 * 10^40 < P^5.
        assert solve_exact(system) == [Fraction(big), Fraction(-7)]
        assert len(steps) == 5
        assert eliminations == []

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(st.integers(-(2**200), 2**200), min_size=n, max_size=n),
            )
        )
    )
    @settings(deadline=None)
    def test_integer_solution_is_lifted_without_elimination(self, data):
        # By Hadamard, |det A| is at most (20 sqrt 5)^5, about 1.8e8 < P, about
        # 1.07e9, so a matrix nonsingular over the integers is nonsingular
        # modulo P and lifting must certify x.
        entries, x = data
        matrix = matrix_of([[Fraction(e) for e in row] for row in entries])
        assume(det_bareiss(matrix) != 0)
        rhs = tuple(Fraction(sum(map(operator.mul, row, x))) for row in entries)
        with mock.patch.object(vandermonde, "_eliminate", side_effect=AssertionError):
            assert solve_exact(LinearSystem(matrix, rhs)) == [Fraction(v) for v in x]

    @pytest.mark.parametrize(
        "n, steps", [(14, 1), (31, 1), (32, 2), (36, 2), (62, 2), (63, 3), (92, 3), (93, 4)]
    )
    @pytest.mark.parametrize("route", ["nodes", "system"])
    def test_integer_solution_needs_only_the_steps_its_entries_fill(
        self, monkeypatch, route, n, steps
    ):
        # The signed binomials are certified once the modulus P^k passes twice
        # the largest, C(n, n // 2): 2 C(31, 15) < P < 2 C(32, 16),
        # 2 C(62, 31) < P^2 < 2 C(63, 31) and 2 C(92, 46) < P^3 < 2 C(93, 46).
        nodes = ArithmeticNodes(Fraction(1, 3), Fraction(2, 5), n)
        system = nodes if route == "nodes" else build_system(nodes)
        calls = self.spy(monkeypatch, "_solve_mod_prime")
        eliminations = self.spy(monkeypatch, "_eliminate")
        assert solve_exact(system) == closed_form_solution(n)
        assert len(calls) == steps
        assert eliminations == []

    @pytest.mark.parametrize(
        "system",
        [
            LinearSystem(
                matrix_of([[Fraction(3), Fraction(1)], [Fraction(1), Fraction(2)]]),
                (Fraction(10**40 + 1), Fraction(7, 11)),
            ),
            LinearSystem(
                build_system(ArithmeticNodes(Fraction(1, 3), Fraction(2, 7), 4)).matrix,
                tuple(Fraction(k + 1) for k in range(5)),
            ),
            LinearSystem(
                build_system(ArithmeticNodes(Fraction(-5, 4), Fraction(9, 8), 12)).matrix,
                tuple(Fraction(k + 1) for k in range(13)),
            ),
        ],
        ids=["big-rhs", "power-4", "power-12"],
    )
    def test_non_integer_solution_lifts_past_hadamard_then_eliminates(self, monkeypatch, system):
        # Lifting stops between twice Hadamard's bound and its bit bound, never
        # returns an unchecked answer, and leaves the system to one elimination.
        steps = self.spy(monkeypatch, "_solve_mod_prime")
        rows, _ = vandermonde._integer_rows(system)
        expected = bareiss_route(system)
        assert any(x.denominator != 1 for x in expected)
        eliminations = self.spy(monkeypatch, "_eliminate")
        assert solve_exact(system) == expected
        assert len(eliminations) == 1
        # P^k > 2 H, squared, since H is the root of the product of squared norms.
        assert vandermonde._PRIME ** (2 * len(steps)) > 4 * math.prod(
            sum(e * e for e in row) for row in rows
        )
        last_bits = 1 + sum(
            max(e.bit_length() for e in row) + (len(row).bit_length() + 1) // 2 for row in rows
        )
        assert len(steps) <= math.ceil(last_bits / vandermonde._PRIME.bit_length()) + 1
