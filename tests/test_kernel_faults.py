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
from fractions import Fraction

import pytest

import boolekit.boole_identity as bi
import boolekit.vandermonde as vandermonde
from boolekit.boole_identity import generalized_sum, generalized_sums
from boolekit.cli import EXIT_FAILURE, EXIT_OK, main
from boolekit.vandermonde import ArithmeticNodes, LinearSystem, build_system, solve_exact

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
    """_eliminate leaves its last pivot, the determinant up to sign, shifted by 1."""
    genuine = vandermonde._eliminate

    def shifted(rows, n):
        sign = genuine(rows, n)
        rows[n - 1][n - 1] += 1
        return sign

    monkeypatch.setattr(vandermonde, "_eliminate", shifted)


def sign_flipped(monkeypatch):
    """_eliminate returns the opposite row-swap sign, so its determinant changes sign."""
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
        for k in range(n):
            pivot_row = next((r for r in range(k, n) if rows[r][k] != 0), None)
            if pivot_row is None:
                raise vandermonde.SingularMatrixError(
                    f"no pivot available in column {k}: matrix is singular"
                )
            if pivot_row != k:
                rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
                sign = -sign
            top = rows[k]
            for row in rows[k + 1 : n]:
                head = row[k]
                for j in range(k + 1, len(row)):
                    row[j] = top[k] * row[j] - head * top[j]
                row[k] = 0
        return sign

    monkeypatch.setattr(vandermonde, "_eliminate", undivided)


# Exit code of each command under each mutant.  The integer_powers mutant is
# invisible: every command reads the nodes' powers only through sums and systems
# that do not depend on the offset.  _signed_power_sums feeds only the identity
# and Stirling sums.  _eliminate and _back_substitute run in det, while solve and
# verify's Cramer gate, whose systems all have b != 0, are settled by p-adic
# lifting, which does not eliminate.  Under the shifted digit the certificate
# rejects every lifted candidate, and elimination settles the system.  The
# unreduced digit keeps the expansion right modulo the modulus but out of
# range, so its balanced residues can be wrong (at order 6, whose middle entry
# is -20, they are): the certificate rejects them, and elimination settles the
# system.  The _factor_mod_prime multiplier mutant is invisible: a power-sum
# system's right-hand side is zero above its last row, so forward substitution
# multiplies every multiplier by zero, and the first digit vector is already
# certified.  The
# last inverse pivot is another matter: it scales the one nonzero entry of the
# forward substitution, so every digit vector is wrong, the certificate rejects
# every candidate, and elimination settles the system with the genuine answer.
# test_lifting_mutants_never_change_the_solution shows each lifting mutant on
# solve_exact; det and stirling never lift.  The flipped sign in _eliminate
# reaches only det, through det_bareiss and cramer_numerators, and the one in
# _back_substitute only det's cramer_numerators.  Without the division by the
# previous pivot, _eliminate still makes valid row combinations, so the
# solution is unchanged, but the last pivot is no longer the determinant, and
# only det reads it.
FAULT_TABLE = [
    (offset_moved, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK, "stirling": EXIT_OK}),
    (entry_negated, {"verify": EXIT_FAILURE, "solve": EXIT_OK, "det": EXIT_OK,
                     "stirling": EXIT_FAILURE}),
    (last_pivot_shifted, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                          "stirling": EXIT_OK}),
    (middle_component_shifted, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                                "stirling": EXIT_OK}),
    (sign_flipped, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                    "stirling": EXIT_OK}),
    (middle_component_negated, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
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
