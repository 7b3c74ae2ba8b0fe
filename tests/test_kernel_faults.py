"""A fault table for the exact kernels below the routes TestFaultMatrix shifts.

Each mutant is written by hand and installed with monkeypatch: it wraps one
private kernel and moves one value of its result, or, to drop a step inside
a kernel, stands in for it as a copy without that step.  The table records
what each command gives under each mutant, on small rational nodes, so a
kernel whose fault no command sees is named here rather than assumed to be
covered.  A command that exits 0 under a mutant gives the genuine document
byte for byte.
"""

import json
import math
from fractions import Fraction

import pytest

import boolekit.boole_identity as bi
import boolekit.vandermonde as vandermonde
from boolekit.boole_identity import generalized_sum, generalized_sums
from boolekit.cli import EXIT_FAILURE, EXIT_OK, main
from boolekit.vandermonde import (
    ArithmeticNodes,
    ExactMatrix,
    LinearSystem,
    build_system,
    det_bareiss,
    det_vandermonde_closed,
    det_vandermonde_general,
    solve_exact,
)

COMMANDS = {
    "verify": ["verify", "--a", "1/3", "--b", "2/5", "--n-max", "6", "--m-max", "6",
               "--trials", "3"],
    "solve": ["solve", "--a", "1/3", "--b", "2/5", "--n", "6"],
    "det": ["det", "--a", "1/3", "--b", "2/5", "--n", "6"],
    "stirling": ["stirling", "--m-max", "6", "--n-max", "6"],
}


def offset_moved(monkeypatch):
    """integer_powers scales the nodes from a + 5b + 1/3 in place of a, when a != 0."""
    genuine = ArithmeticNodes.integer_powers

    def moved(nodes, m_max):
        if nodes.a:
            nodes = ArithmeticNodes(nodes.a + 5 * nodes.b + Fraction(1, 3), nodes.b, nodes.n)
        return genuine(nodes, m_max)

    monkeypatch.setattr(ArithmeticNodes, "integer_powers", moved)


def entry_negated(monkeypatch):
    """_signed_power_sums negates its entry [2][2]."""
    genuine = bi._signed_power_sums

    def negated(powers, n_max, m_max):
        rows = genuine(powers, n_max, m_max)
        if len(rows) > 2 and len(rows[2]) > 2:
            rows[2][2] = -rows[2][2]
        return rows

    monkeypatch.setattr(bi, "_signed_power_sums", negated)


def last_pivot_shifted(monkeypatch):
    """_eliminate leaves its last pivot shifted by 1, and returns the determinant read off it."""
    genuine = vandermonde._eliminate

    def shifted(rows, n):
        det = genuine(rows, n)
        pivot = rows[n - 1][n - 1]
        rows[n - 1][n - 1] += 1
        return det // pivot * (pivot + 1)  # the row-swap sign times the shifted pivot

    monkeypatch.setattr(vandermonde, "_eliminate", shifted)


def sign_flipped(monkeypatch):
    """_eliminate returns the negated determinant, as if its row-swap sign were flipped."""
    genuine = vandermonde._eliminate

    def flipped(rows, n):
        return -genuine(rows, n)

    monkeypatch.setattr(vandermonde, "_eliminate", flipped)


def middle_component_negated(monkeypatch):
    """_back_substitute flips the sign of the middle component of every solution it returns."""
    genuine = vandermonde._back_substitute

    def negated(rows, n):
        solution = genuine(rows, n)
        solution[len(solution) // 2] = -solution[len(solution) // 2]
        return solution

    monkeypatch.setattr(vandermonde, "_back_substitute", negated)


def middle_digit_shifted(monkeypatch):
    """_solve_mod_prime shifts the middle entry of every digit vector it returns."""
    genuine = vandermonde._solve_mod_prime

    def shifted(rhs, factors):
        digits = genuine(rhs, factors)
        digits[len(digits) // 2] += 1
        return digits

    monkeypatch.setattr(vandermonde, "_solve_mod_prime", shifted)


def digit_unreduced(monkeypatch):
    """_solve_mod_prime leaves the middle digit of every vector unreduced, _PRIME too high."""
    genuine = vandermonde._solve_mod_prime

    def unreduced(rhs, factors):
        digits = genuine(rhs, factors)
        digits[len(digits) // 2] += vandermonde._PRIME
        return digits

    monkeypatch.setattr(vandermonde, "_solve_mod_prime", unreduced)


def middle_component_shifted(monkeypatch):
    """_back_substitute shifts the middle component of every solution it returns by 1."""
    genuine = vandermonde._back_substitute

    def shifted(rows, n):
        solution = genuine(rows, n)
        solution[len(solution) // 2] += 1
        return solution

    monkeypatch.setattr(vandermonde, "_back_substitute", shifted)


def multiplier_negated(monkeypatch):
    """_factor_mod_prime negates the multiplier lower[2][0] modulo _PRIME."""
    genuine = vandermonde._factor_mod_prime

    def negated(rows, n):
        factors = genuine(rows, n)
        if factors is not None:
            lower = factors[1]
            lower[2][0] = -lower[2][0] % vandermonde._PRIME
        return factors

    monkeypatch.setattr(vandermonde, "_factor_mod_prime", negated)


def last_inverse_pivot_negated(monkeypatch):
    """_factor_mod_prime negates its last inverse pivot modulo _PRIME."""
    genuine = vandermonde._factor_mod_prime

    def negated(rows, n):
        factors = genuine(rows, n)
        if factors is not None:
            inverse_pivots = factors[3]
            inverse_pivots[-1] = -inverse_pivots[-1] % vandermonde._PRIME
        return factors

    monkeypatch.setattr(vandermonde, "_factor_mod_prime", negated)


def division_dropped(monkeypatch):
    """_eliminate skips the exact division by the previous pivot: a copy with that one change."""

    def undivided(rows, n):
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
                    row[j] = pivot * row[j] - head * top[j]
                row[k] = 0
            previous_pivot = pivot
        return sign * previous_pivot

    monkeypatch.setattr(vandermonde, "_eliminate", undivided)


def _factor_reading_unreduced(slots):
    """A copy of _factor_mod_prime that reads its "heads" or its "tail" slots without % prime."""

    def factor(rows, n):
        prime = vandermonde._PRIME
        width = 2 * prime.bit_length() + n.bit_length() + 1
        mask = (1 << width) - 1

        def read(row, j, name):
            slot = row >> (j * width) & mask
            return slot if name == slots else slot % prime

        packed = [
            sum((entry % prime) << (j * width) for j, entry in enumerate(row[:n])) for row in rows
        ]
        order = list(range(n))
        lower = [[] for _ in range(n)]
        upper = []
        inverse_pivots = []
        for k in range(n):
            heads = [read(row, k, "heads") for row in packed[k:]]
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
            tail = [read(packed[k], j, "tail") for j in range(k + 1, n)]
            upper.append(tail)
            reduced = sum(y << (j * width) for j, y in enumerate(tail, k + 1))
            for i in range(k + 1, n):
                factor = heads[i - k] * inverse % prime
                lower[i].append(factor)
                if factor:
                    packed[i] += (prime - factor) * reduced
        return order, lower, upper, inverse_pivots

    return factor


def heads_unreduced(monkeypatch):
    """_factor_mod_prime reads each column's heads without % prime."""
    monkeypatch.setattr(vandermonde, "_factor_mod_prime", _factor_reading_unreduced("heads"))


def tail_unreduced(monkeypatch):
    """_factor_mod_prime reads the pivot row's tail without % prime."""
    monkeypatch.setattr(vandermonde, "_factor_mod_prime", _factor_reading_unreduced("tail"))


def last_scale_dropped(monkeypatch):
    """_clear_rows leaves the last row's scale out of the product of scales it returns."""
    genuine = vandermonde._clear_rows

    def dropped(rows):
        rows = list(rows)
        cleared_rows, cleared = genuine(rows)
        return cleared_rows, cleared // math.lcm(*(e.denominator for e in rows[-1]))

    monkeypatch.setattr(vandermonde, "_clear_rows", dropped)


def rhs_power_short(monkeypatch):
    """_integer_rows from nodes puts B^(n-1) n! last in place of B^n n!, when b != 0."""
    genuine = vandermonde._integer_rows

    def short(system):
        rows, cleared = genuine(system)
        if isinstance(system, ArithmeticNodes) and system.b:
            rows[-1][-1] //= system.integer_powers(0)[1]
        return rows, cleared

    monkeypatch.setattr(vandermonde, "_integer_rows", short)


def scale_power_short(monkeypatch):
    """_integer_rows from nodes returns the product of scales one power of D short."""
    genuine = vandermonde._integer_rows

    def short(system):
        rows, cleared = genuine(system)
        if isinstance(system, ArithmeticNodes):
            cleared //= system.integer_powers(0)[0]
        return rows, cleared

    monkeypatch.setattr(vandermonde, "_integer_rows", short)


# Exit code of each command under each mutant.  The integer_powers mutant is
# invisible: every command reads the nodes' powers only through sums and systems
# that do not depend on the offset.  _signed_power_sums feeds only the identity
# and Stirling sums.  _eliminate runs in det, through det_bareiss.  The systems
# of solve, of det's solve_exact and of verify's Cramer gate all have b != 0
# and are settled by p-adic lifting, which neither eliminates nor
# back-substitutes, so no command reaches _back_substitute on these nodes
# (test_back_substitution_mutants_fail_a_step_of_the_prime reaches it).
# Their signed binomials are at most C(6, 3) = 20, far below _PRIME, so one
# lifting step certifies each of them.  Under the shifted digit the
# certificate rejects every lifted candidate, and elimination settles the
# system.  The unreduced digit keeps the expansion right modulo the modulus
# but out of range, so its balanced residues can be wrong (at order 6, whose
# middle entry is -20, they are): the certificate rejects them, and
# elimination settles the system.  The _factor_mod_prime multiplier mutant is
# invisible: a power-sum system's right-hand side is zero above its last row,
# so forward substitution multiplies every multiplier by zero, and the first
# digit vector is already certified.  The last inverse pivot is another
# matter: it scales the one nonzero entry of the forward substitution, so
# every digit vector is wrong, the certificate rejects every candidate, and
# elimination settles the system with the genuine answer.
# test_lifting_mutants_never_change_the_solution shows each lifting mutant on
# solve_exact; stirling never lifts.  _eliminate returns the determinant read
# off its last pivot: shifting that pivot moves the returned determinant, and
# a flipped sign negates it; each reaches only det, through det_bareiss.
# Without the division by the previous pivot, _eliminate still makes valid row
# combinations, so the solution is unchanged, but the last pivot, and so the
# determinant it returns, is wrong, and only det reads it.  Unreduced heads in
# _factor_mod_prime are still right modulo _PRIME, and only a head that is a
# nonzero multiple of _PRIME would pick another pivot, so no command sees
# them.  An unreduced tail is right modulo _PRIME too, but the row updates it
# feeds overflow their slots, so the factors are wrong: the certificate
# rejects every lifted candidate, and elimination settles each system of
# solve, of det and of verify's Cramer gate.  A scale left out of _clear_rows
# reaches det through det_vandermonde_general; solve_exact never reads the
# product of scales, and the other commands do not clear rows of rationals.
# _integer_rows from nodes feeds solve_exact in solve, in det and in verify's
# Cramer gate, and det_bareiss in det.  A right-hand side one power of B short
# divides the solution by B, so all three fail; solve_exact never reads the
# product of scales, and only the determinant does, so only det sees it one
# power of D short.
FAULT_TABLE = [
    (offset_moved, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK, "stirling": EXIT_OK}),
    (entry_negated, {"verify": EXIT_FAILURE, "solve": EXIT_OK, "det": EXIT_OK,
                     "stirling": EXIT_FAILURE}),
    (last_pivot_shifted, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                          "stirling": EXIT_OK}),
    (middle_component_shifted, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK,
                                "stirling": EXIT_OK}),
    (sign_flipped, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                    "stirling": EXIT_OK}),
    (middle_component_negated, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK,
                                "stirling": EXIT_OK}),
    (middle_digit_shifted, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK,
                            "stirling": EXIT_OK}),
    (digit_unreduced, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK,
                       "stirling": EXIT_OK}),
    (multiplier_negated, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK,
                          "stirling": EXIT_OK}),
    (last_inverse_pivot_negated, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK,
                                  "stirling": EXIT_OK}),
    (division_dropped, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                        "stirling": EXIT_OK}),
    (heads_unreduced, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK,
                       "stirling": EXIT_OK}),
    (tail_unreduced, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK,
                      "stirling": EXIT_OK}),
    (last_scale_dropped, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                          "stirling": EXIT_OK}),
    (rhs_power_short, {"verify": EXIT_FAILURE, "solve": EXIT_FAILURE, "det": EXIT_FAILURE,
                       "stirling": EXIT_OK}),
    (scale_power_short, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                         "stirling": EXIT_OK}),
]


def json_run(capsys, argv):
    code = main([*argv, "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("mutant, command, expected", [
    pytest.param(mutant, command, expected, id=f"{mutant.__name__}-{command}")
    for mutant, exits in FAULT_TABLE
    for command, expected in exits.items()
])
def test_command_under_mutant(capsys, monkeypatch, mutant, command, expected):
    genuine_code, genuine = json_run(capsys, COMMANDS[command])
    assert genuine_code == EXIT_OK
    mutant(monkeypatch)
    code, document = json_run(capsys, COMMANDS[command])
    assert code == expected
    if expected == EXIT_OK:
        assert document == genuine
    else:
        record = json.loads(document)
        assert record["summary"]["failures"] > 0 if "summary" in record else not record["agree"]


def test_moved_offset_shows_only_above_the_diagonal(monkeypatch):
    """The CLI checks m <= n, where the sums do not depend on a; m > n shows the mutant."""
    a, b, n_max, m_max = Fraction(1, 3), Fraction(2, 5), 4, 6
    genuine = generalized_sums(a, b, n_max, m_max)
    offset_moved(monkeypatch)
    rows = generalized_sums(a, b, n_max, m_max)
    assert all(rows[n][: n + 1] == genuine[n][: n + 1] for n in range(n_max + 1))
    assert any(rows[n][m] != generalized_sum(a, b, n, m)
               for n in range(n_max + 1) for m in range(n + 1, m_max + 1))


NODES = ArithmeticNodes(Fraction(1, 3), Fraction(2, 5), 6)
# The same matrix with the all-ones solution, which lifting certifies: its
# right-hand side, the power sums of the nodes, is nonzero in every row.
MATRIX = build_system(NODES).matrix
DENSE = LinearSystem(MATRIX, tuple(sum(MATRIX.row(i)) for i in range(7)))


@pytest.mark.parametrize("mutant, system, eliminations", [
    pytest.param(middle_digit_shifted, NODES, 1, id="middle_digit_shifted-nodes"),
    pytest.param(digit_unreduced, NODES, 1, id="digit_unreduced-nodes"),
    pytest.param(multiplier_negated, NODES, 0, id="multiplier_negated-nodes"),
    pytest.param(multiplier_negated, DENSE, 1, id="multiplier_negated-dense"),
    pytest.param(last_inverse_pivot_negated, NODES, 1, id="last_inverse_pivot_negated-nodes"),
    pytest.param(last_inverse_pivot_negated, DENSE, 1, id="last_inverse_pivot_negated-dense"),
    pytest.param(heads_unreduced, NODES, 0, id="heads_unreduced-nodes"),
    pytest.param(heads_unreduced, DENSE, 0, id="heads_unreduced-dense"),
    pytest.param(tail_unreduced, NODES, 1, id="tail_unreduced-nodes"),
    pytest.param(tail_unreduced, DENSE, 1, id="tail_unreduced-dense"),
])
def test_lifting_mutants_never_change_the_solution(monkeypatch, mutant, system, eliminations):
    """A lifted candidate that fails the exact check goes to one elimination, never out."""
    genuine = solve_exact(system)
    mutant(monkeypatch)
    calls = []
    eliminate = vandermonde._eliminate

    def counting(rows, n):
        calls.append(n)
        return eliminate(rows, n)

    monkeypatch.setattr(vandermonde, "_eliminate", counting)
    assert solve_exact(system) == genuine
    assert calls == [7] * eliminations


@pytest.mark.parametrize("mutant", [middle_component_shifted, middle_component_negated])
@pytest.mark.parametrize("command", ["solve", "det"])
def test_back_substitution_mutants_fail_a_step_of_the_prime(capsys, monkeypatch, mutant, command):
    """Nodes k * _PRIME coincide modulo the prime, so elimination and back-substitution solve."""
    argv = [command, "--b", str(vandermonde._PRIME), "--n", "3"]
    genuine_code, _ = json_run(capsys, argv)
    assert genuine_code == EXIT_OK
    mutant(monkeypatch)
    code, document = json_run(capsys, argv)
    assert code == EXIT_FAILURE
    assert json.loads(document)["agree"] is False


def test_unreduced_heads_raise_where_a_pivot_vanishes_modulo_the_prime(monkeypatch):
    """A leading 2x2 block singular modulo _PRIME leaves a head equal to _PRIME after column 0.

    The genuine kernel reads it as 0, takes the next row as pivot and finds
    the block singular modulo _PRIME, so elimination solves the system.
    Unreduced, the head is taken as a pivot and has no inverse modulo
    _PRIME: the mutant never returns a wrong solution, but it raises.
    solve_exact deliberately has no handler for this: pow can raise only on a
    pivot the genuine kernel never takes, no input reaches it, and a handler
    would hide such a kernel fault behind a slower, correct answer.
    """
    prime = vandermonde._PRIME
    matrix = ExactMatrix(3, 3, (1, 1, 0, 1, 1 + prime, 0, 0, 0, 1))
    system = LinearSystem(matrix, tuple(sum(matrix.row(i)) for i in range(3)))
    assert solve_exact(system) == [1, 1, 1]
    heads_unreduced(monkeypatch)
    with pytest.raises(ValueError, match="not invertible"):
        solve_exact(system)


def test_dropped_scale_reaches_every_reader_of_the_product(monkeypatch):
    """det_bareiss and det_vandermonde_general divide by it."""
    system = build_system(NODES)
    closed = det_vandermonde_closed(NODES.n, NODES.b)
    solution = solve_exact(system)
    last_scale_dropped(monkeypatch)
    assert det_bareiss(MATRIX) != closed
    assert det_vandermonde_general(NODES.values()) != closed
    assert det_bareiss(NODES) == closed
    assert solve_exact(system) == solution
