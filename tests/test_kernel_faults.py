"""A fault table for the exact kernels below the routes TestFaultMatrix shifts.

Each mutant is written by hand and installed with monkeypatch: it wraps one
private kernel and moves one value of its result.  The table records what each
command gives under each mutant, on small rational nodes, so a kernel whose
fault no command sees is named here rather than assumed to be covered.  A
command that exits 0 under a mutant gives the genuine document byte for byte.
"""

import json
from fractions import Fraction

import pytest

import boolekit.boole_identity as bi
import boolekit.vandermonde as vandermonde
from boolekit.boole_identity import generalized_sum, generalized_sums
from boolekit.cli import EXIT_FAILURE, EXIT_OK, main
from boolekit.vandermonde import ArithmeticNodes, solve_exact

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


def middle_digit_shifted(monkeypatch):
    """_solve_mod_prime shifts the middle entry of every digit vector it returns."""
    genuine = vandermonde._solve_mod_prime

    def shifted(rhs, factors):
        digits = genuine(rhs, factors)
        digits[len(digits) // 2] += 1
        return digits

    monkeypatch.setattr(vandermonde, "_solve_mod_prime", shifted)


# Exit code of each command under each mutant.  The integer_powers mutant is
# invisible: every command reads the nodes' powers only through sums and systems
# that do not depend on the offset.  _signed_power_sums feeds only the identity
# and Stirling sums; _eliminate runs in det, while solve and verify's Cramer gate
# solve by p-adic lifting, which does not eliminate.  Under the _solve_mod_prime
# mutant solve_exact raises (test_shifted_digit_fails_certification), and solve
# and verify, which call it, do not finish; det and stirling never call it.
FAULT_TABLE = [
    (offset_moved, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_OK, "stirling": EXIT_OK}),
    (entry_negated, {"verify": EXIT_FAILURE, "solve": EXIT_OK, "det": EXIT_OK,
                     "stirling": EXIT_FAILURE}),
    (last_pivot_shifted, {"verify": EXIT_OK, "solve": EXIT_OK, "det": EXIT_FAILURE,
                          "stirling": EXIT_OK}),
    (middle_digit_shifted, {"det": EXIT_OK, "stirling": EXIT_OK}),
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


def test_shifted_digit_fails_certification(monkeypatch):
    """No lifted candidate passes the exact check, so the solver gives up loudly."""
    nodes = ArithmeticNodes(Fraction(1, 3), Fraction(2, 5), 6)
    solve_exact(nodes)
    middle_digit_shifted(monkeypatch)
    with pytest.raises(RuntimeError):
        solve_exact(nodes)
