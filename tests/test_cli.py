import argparse
import contextlib
import csv
import errno
import gc
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import types
import warnings
from fractions import Fraction
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boolekit.boole_identity as bi
import boolekit.cli as cli
import boolekit.vandermonde as vandermonde
from boolekit.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    Table,
    _csv_document,
    _frac,
    _json_document,
    _merge_negative_values,
    main,
    random_rational,
    seeded_parameter_pairs,
)
from boolekit.rational_core import factorial, format_rational, parse_rational

RATIONAL_PATTERN = r"^-?\d+/\d+$"

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "cases", "summary"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "params": {
            "type": "object",
            "required": ["a", "b", "n_max", "seed"],
            "additionalProperties": False,
            "properties": {
                "a": {"type": "string", "pattern": RATIONAL_PATTERN},
                "b": {"type": "string", "pattern": RATIONAL_PATTERN},
                "n_max": {"type": "integer", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "m", "a", "b", "lhs", "rhs", "pass"],
                "additionalProperties": False,
                "properties": {
                    "n": {"type": "integer", "minimum": 0},
                    "m": {"type": "integer", "minimum": 0},
                    "a": {"type": "string", "pattern": RATIONAL_PATTERN},
                    "b": {"type": "string", "pattern": RATIONAL_PATTERN},
                    "lhs": {"type": "string", "pattern": RATIONAL_PATTERN},
                    "rhs": {"type": "string", "pattern": RATIONAL_PATTERN},
                    "pass": {"type": "boolean"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "failures"],
            "additionalProperties": False,
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "failures": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


class TestArgvPreprocessing:
    def test_negative_rational_folds_into_flag(self):
        assert _merge_negative_values(["--b", "-1/3", "--n", "3"]) == ["--b=-1/3", "--n", "3"]

    def test_negative_integer_folds_too(self):
        assert _merge_negative_values(["--a", "-7"]) == ["--a=-7"]

    def test_other_tokens_untouched(self):
        argv = ["solve", "--a", "2", "--n", "3", "-1/3"]
        assert _merge_negative_values(argv) == argv

    def test_non_numeric_dash_token_untouched(self):
        assert _merge_negative_values(["--a", "-x"]) == ["--a", "-x"]

    def test_matches_the_lookahead_loop_exhaustively(self):
        """Every argv of up to 4 tokens over an alphabet of flags, values and lookalikes."""

        def lookahead(argv):
            merged, index = [], 0
            while index < len(argv):
                token = argv[index]
                if (token in ("--a", "--b") and index + 1 < len(argv)
                        and cli._NEGATIVE_RATIONAL.fullmatch(argv[index + 1])):
                    merged.append(f"{token}={argv[index + 1]}")
                    index += 2
                else:
                    merged.append(token)
                    index += 1
            return merged

        alphabet = ["--a", "--b", "-3/4", "-2", "3", "--n", "--a=-1", "-x", "--", "verify",
                    "-0/5", "--b=", "-3/-4"]
        argvs = [[]]
        for length in range(1, 5):
            argvs.extend(list(argv) for argv in itertools.product(alphabet, repeat=length))
        assert len(argvs) == 30941
        for argv in argvs:
            assert _merge_negative_values(argv) == lookahead(argv), argv


class TestRandomParameters:
    def test_components_bounded_and_denominator_nonzero(self):
        rng = random.Random(123)
        for _ in range(500):
            value = random_rational(rng)
            assert -9 <= value.numerator <= 9
            assert 1 <= value.denominator <= 9

    def test_pairs_deterministic_per_seed(self):
        assert seeded_parameter_pairs(5, 50) == seeded_parameter_pairs(5, 50)
        assert seeded_parameter_pairs(5, 50) != seeded_parameter_pairs(6, 50)

    def test_zero_step_draws_occur(self):
        pairs = seeded_parameter_pairs(0, 200)
        assert any(b == 0 for _, b in pairs)


class TestVerifyCommand:
    def test_full_sweep_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--a", "0", "--b", "1", "--n-max", "10")
        assert code == EXIT_OK
        assert "total=66 failures=0" in out

    def test_minimal_sweep_single_case(self, capsys):
        code, out = run_cli(capsys, "verify", "--a", "1", "--b", "2", "--n-max", "0")
        assert code == EXIT_OK
        assert "n=0 m=0" in out
        assert "total=1 failures=0" in out

    def test_json_document_validates(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--a", "0", "--b", "1", "--n-max", "3", "--format", "json"
        )
        assert code == EXIT_OK
        document = json.loads(out)
        jsonschema.validate(document, VERIFY_SCHEMA)
        assert document["summary"] == {"total": 10, "failures": 0}

    def test_json_rationals_round_trip(self, capsys):
        _, out = run_cli(
            capsys, "verify", "--a", "2/6", "--b", "-4/10", "--n-max", "4",
            "--format", "json",
        )
        document = json.loads(out)
        fields = [document["params"]["a"], document["params"]["b"]]
        for case in document["cases"]:
            fields.extend([case["a"], case["b"], case["lhs"], case["rhs"]])
        for text in fields:
            x = parse_rational(text)
            assert text == f"{x.numerator}/{x.denominator}"

    def test_seeded_output_is_byte_identical(self, capsys):
        args = ("verify", "--n-max", "5", "--trials", "7", "--seed", "99", "--format", "json")
        code_one, first = run_cli(capsys, *args)
        code_two, second = run_cli(capsys, *args)
        assert code_one == code_two == EXIT_OK
        assert first == second

    def test_trials_extend_the_case_list(self, capsys):
        _, out = run_cli(
            capsys, "verify", "--n-max", "2", "--trials", "3", "--seed", "4",
            "--format", "json",
        )
        document = json.loads(out)
        assert document["summary"]["total"] == 6 * 4

    def test_zero_step_pair_noted(self, capsys):
        code, out = run_cli(capsys, "verify", "--a", "7", "--b", "0", "--n-max", "6")
        assert code == EXIT_OK
        assert "skipped for 1 pair(s) with b = 0" in out

    def test_one_failing_cramer_pair_is_counted(self, capsys, monkeypatch):
        genuine = bi.solve_exact
        calls = []

        def shifted_once(system):
            solution = genuine(system)
            calls.append(system)
            return shifted(solution) if len(calls) == 2 else solution

        monkeypatch.setattr(bi, "solve_exact", shifted_once)
        code, out = run_cli(capsys, "verify", "--a", "1/3", "--b", "-2/5", "--n-max", "4",
                            "--m-max", "4", "--trials", "3", "--seed", "4")
        assert code == EXIT_FAILURE
        lines = out.splitlines()
        assert ("note: cramer component checks passed for 2 of 3 pair(s) at n = 4, "
                "skipped for 1 pair(s) with b = 0") in lines
        cases = [line for line in lines if line.startswith("n=")]
        identity_cases = 4 * 15
        assert len(cases) > identity_cases
        assert all(line.endswith(" ok") for line in cases[:identity_cases])
        assert all(line.endswith(" FAIL") for line in cases[identity_cases:])

    @staticmethod
    def count_closed_forms(monkeypatch):
        """Count the calls of the closed forms the Cramer gate looks up in boole_identity."""
        calls = {"det_cramer_numerator": 0, "det_vandermonde_closed": 0}

        def counting(name, genuine):
            def counted(*args):
                calls[name] += 1
                return genuine(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(bi, name, counting(name, getattr(bi, name)))
        return calls

    @pytest.mark.parametrize("argv, numerators, determinants", [
        (["--n-max", "5", "--trials", "4", "--seed", "1"], 6, 1),
        (["--b", "0", "--n-max", "5"], 0, 0),
    ], ids=["five-pairs", "zero-step"])
    def test_closed_ratios_are_checked_once_per_order(
        self, capsys, monkeypatch, argv, numerators, determinants
    ):
        calls = self.count_closed_forms(monkeypatch)
        code, _ = run_cli(capsys, "verify", *argv)
        assert code == EXIT_OK
        assert calls == {"det_cramer_numerator": numerators, "det_vandermonde_closed": determinants}

    def test_a_wrong_closed_numerator_fails_every_pair(self, capsys, monkeypatch):
        genuine = bi.det_cramer_numerator
        monkeypatch.setattr(bi, "det_cramer_numerator",
                            lambda n, k, b: genuine(n, k, b) * (2 if k == 1 else 1))
        code, out = run_cli(capsys, "verify", "--n-max", "4", "--m-max", "4", "--trials", "4",
                            "--seed", "4", "--format", "json")
        assert code == EXIT_FAILURE
        steps = [b for _, b in [(0, Fraction(1))] + cli.seeded_parameter_pairs(4, 4) if b != 0]
        assert len(steps) == 4
        failing = [case for case in json.loads(out)["cases"] if not case["pass"]]
        assert [(c["n"], c["m"], c["b"]) for c in failing] == [
            (4, 1, f"{b.numerator}/{b.denominator}") for b in steps
        ]
        assert all(c["lhs"] == c["rhs"] == "-4/1" for c in failing)

    def test_corrupted_expectation_fails_run(self, capsys, monkeypatch):
        genuine = bi.expected_value

        def corrupted(a, b, n, m):
            value = genuine(a, b, n, m)
            return value + 1 if (n, m) == (2, 2) else value

        monkeypatch.setattr(bi, "expected_value", corrupted)
        code, out = run_cli(
            capsys, "verify", "--a", "0", "--b", "1", "--n-max", "3", "--format", "json"
        )
        assert code == EXIT_FAILURE
        document = json.loads(out)
        jsonschema.validate(document, VERIFY_SCHEMA)
        assert document["summary"]["failures"] == 1
        failing = [case for case in document["cases"] if not case["pass"]]
        assert [(c["n"], c["m"]) for c in failing] == [(2, 2)]

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--n-max", "1", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,a,b,lhs,rhs,pass"
        assert len(lines) == 4

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "verify", "--n-max", "2", "--format", "json", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["summary"]["total"] == 6

    @pytest.mark.parametrize(
        "target",
        [
            "missing/report.txt", ".", "afile/report.txt", "afile/sub/report.txt",
            pytest.param("x" * 300, id="long-name"),
            pytest.param("x" * 300 + "/report.txt", id="long-middle-component"),
            "loop/report.txt",
            pytest.param("", id="empty"),
        ],
    )
    def test_unwritable_output_is_a_usage_error(self, capsys, monkeypatch, tmp_path, target):
        def never(args):
            raise AssertionError("the command ran before --output was checked")

        # The path is opened before the command runs, so a huge order costs nothing.
        monkeypatch.setitem(cli._HANDLERS, "verify", never)
        (tmp_path / "afile").write_text("a regular file, not a directory\n")
        (tmp_path / "loop").symlink_to("loop")
        path = str(tmp_path / target) if target else ""
        code = main(["verify", "--n-max", "99999999999999999999", "--output", path])
        captured = capsys.readouterr()
        reason = {"missing": errno.ENOENT, ".": errno.EISDIR, "afile": errno.ENOTDIR,
                  "x" * 300: errno.ENAMETOOLONG, "loop": errno.ELOOP, "": errno.ENOENT}
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("boolekit: cannot write --output ")
        assert captured.err.endswith(f": {os.strerror(reason[target.split('/')[0]])}\n")
        assert captured.err.count("\n") == 1

    @staticmethod
    def main_closing_files(argv):
        """main(argv), and the ResourceWarnings of any file it left open."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
            gc.collect()
        return code, [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_failure_found_only_by_the_write_is_a_usage_error(self, capsys):
        # A short document fails at the close, a long one (about 100 kB) at a write.
        for orders in (["--n-max", "2"], ["--n-max", "12", "--trials", "30"]):
            code, unclosed = self.main_closing_files(["verify", *orders, "--output", "/dev/full"])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert captured.out == ""
            assert captured.err == (
                f"boolekit: cannot write --output /dev/full: {os.strerror(errno.ENOSPC)}\n"
            )
            assert unclosed == []

    def test_out_of_memory_leaves_the_output_file_closed_and_empty(
        self, capsys, monkeypatch, tmp_path
    ):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "verify", exhausted)
        target = tmp_path / "report.txt"
        code, unclosed = self.main_closing_files(["verify", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("boolekit: out of memory in verify")
        assert captured.err.count("\n") == 1
        assert target.read_text() == ""
        assert unclosed == []


class TestSolveCommand:
    def test_unit_parameters(self, capsys):
        code, out = run_cli(capsys, "solve", "--a", "0", "--b", "1", "--n", "2")
        assert code == EXIT_OK
        assert "eliminated:       1 -2 1" in out
        assert "agreement: yes" in out

    def test_negative_fraction_flag_value(self, capsys):
        code, out = run_cli(capsys, "solve", "--a", "9/4", "--b", "-1/3", "--n", "3")
        assert code == EXIT_OK
        assert "-1 3 -3 1" in out

    def test_equals_form_flag_value(self, capsys):
        code, _ = run_cli(capsys, "solve", "--a=9/4", "--b=-1/3", "--n", "3")
        assert code == EXIT_OK

    def test_singular_system_exits_one(self, capsys):
        code, out = run_cli(capsys, "solve", "--a", "1", "--b", "0", "--n", "1")
        assert code == EXIT_FAILURE
        assert "singular" in out

    def test_json_document(self, capsys):
        code, out = run_cli(
            capsys, "solve", "--a", "0", "--b", "1", "--n", "3", "--format", "json"
        )
        assert code == EXIT_OK
        document = json.loads(out)
        assert document["eliminated"] == ["-1/1", "3/1", "-3/1", "1/1"]
        assert document["eliminated"] == document["signed_binomials"]
        assert document["agree"] is True

    def test_singular_json_document(self, capsys):
        code, out = run_cli(
            capsys, "solve", "--b", "0", "--n", "2", "--format", "json"
        )
        assert code == EXIT_FAILURE
        assert "singular" in json.loads(out)["error"]

    def test_matrix_rendered_in_text(self, capsys):
        _, out = run_cli(capsys, "solve", "--a", "0", "--b", "1", "--n", "1")
        assert "1/1 1/1" in out
        assert "0/1 1/1" in out

    @staticmethod
    def count_eliminations(monkeypatch):
        eliminations = []
        eliminate = vandermonde._eliminate

        def counting_eliminate(rows, n):
            eliminations.append(n)
            return eliminate(rows, n)

        monkeypatch.setattr(vandermonde, "_eliminate", counting_eliminate)
        return eliminations

    def test_prime_nodes_need_no_elimination(self, capsys, monkeypatch):
        eliminations = self.count_eliminations(monkeypatch)
        code, out = run_cli(
            capsys, "solve", "--a=101/103", "--b=-107/109", "--n", "36", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.rstrip().splitlines()[-1] == "36,1/1,1/1,true"
        assert eliminations == []

    def test_step_singular_modulo_the_prime_is_solved_by_elimination(self, capsys, monkeypatch):
        # Nodes a + k * _PRIME coincide modulo the prime, so the factorization
        # fails there and elimination solves the nonsingular system.
        eliminations = self.count_eliminations(monkeypatch)
        code, out = run_cli(
            capsys, "solve", "--b", str(vandermonde._PRIME), "--n", "3", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.rstrip().splitlines()[-1] == "3,1/1,1/1,true"
        assert eliminations == [4]

    def test_cramer_gate_takes_the_same_elimination(self, capsys, monkeypatch):
        eliminations = self.count_eliminations(monkeypatch)
        code, _ = run_cli(
            capsys, "verify", "--b", str(vandermonde._PRIME), "--n-max", "3", "--m-max", "2"
        )
        assert code == EXIT_OK
        assert eliminations == [4]

    def test_zero_step_is_decided_by_elimination(self, capsys, monkeypatch):
        eliminations = self.count_eliminations(monkeypatch)
        code, out = run_cli(capsys, "solve", "--b", "0", "--n", "3")
        assert code == EXIT_FAILURE
        assert out == "singular system: no pivot available in column 1: matrix is singular\n"
        assert eliminations == [4]


class TestFractionSystemOnlyForTheMatrixText:
    """solve, det and verify work from the nodes; only solve's text renders the Fraction matrix."""

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build_system = vandermonde.build_system

        def counting_build_system(nodes):
            builds.append(nodes)
            return build_system(nodes)

        for module in (vandermonde, bi, cli):
            monkeypatch.setattr(module, "build_system", counting_build_system)
        return builds

    @pytest.mark.parametrize(
        "argv, builds",
        [
            (["solve", "--format", "csv"], 0),
            (["solve", "--format", "json"], 0),
            (["det", "--format", "json"], 0),
            (["solve", "--format", "text"], 1),
            (["verify", "--format", "json"], 0),
            (["verify", "--format", "csv"], 0),
            (["verify", "--format", "text"], 0),
        ],
        ids=["solve-csv", "solve-json", "det-json", "solve-text", "verify-json", "verify-csv",
             "verify-text"],
    )
    def test_build_system_calls(self, capsys, monkeypatch, argv, builds):
        calls = self.count_builds(monkeypatch)
        order = "--n-max" if argv[0] == "verify" else "--n"
        code, _ = run_cli(capsys, *argv, "--a=-109/107", "--b=-113/101", order, "12")
        assert code == EXIT_OK
        assert len(calls) == builds


class TestDetCommand:
    def test_unit_step(self, capsys):
        code, out = run_cli(capsys, "det", "--a", "0", "--b", "1", "--n", "2")
        assert code == EXIT_OK
        for label in ("closed form", "pairwise product", "elimination"):
            assert label in out
        assert out.count(" 2\n") >= 2

    def test_step_two_order_three(self, capsys):
        code, out = run_cli(
            capsys, "det", "--a", "0", "--b", "2", "--n", "3", "--format", "json"
        )
        assert code == EXIT_OK
        document = json.loads(out)
        assert document["closed"] == "768/1"
        assert document["pairwise"] == "768/1"
        assert document["elimination"] == "768/1"
        assert all(column["agree"] for column in document["columns"])

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_zero_step_all_zero_still_passes(self, capsys, n):
        # At n = 1 a 2 x 2 matrix with a nonzero right-hand side would have
        # nonzero numerators; coinciding nodes make that side zero.
        code, out = run_cli(
            capsys, "det", "--a", "5", "--b", "0", "--n", str(n), "--format", "json"
        )
        assert code == EXIT_OK
        document = json.loads(out)
        assert document["closed"] == "0/1"
        assert [column["elimination"] for column in document["columns"]] == ["0/1"] * (n + 1)
        assert document["agree"] is True

    def test_step_singular_modulo_the_prime_is_solved_by_elimination(self, capsys, monkeypatch):
        # Nodes k * _PRIME coincide modulo the prime, so solve_exact falls back
        # to elimination, after det_bareiss's own.
        eliminations, _ = self.count_eliminations_and_copies(monkeypatch)
        code, out = run_cli(
            capsys, "det", "--b", str(vandermonde._PRIME), "--n", "3", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.rstrip().splitlines()[-1] == "agree,true"
        assert eliminations == [4, 4]

    @staticmethod
    def count_eliminations_and_copies(monkeypatch):
        eliminations, copies = [], []
        eliminate = vandermonde._eliminate
        with_column = vandermonde.ExactMatrix.with_column

        def counting_eliminate(rows, n):
            eliminations.append(n)
            return eliminate(rows, n)

        def counting_with_column(matrix, j, column):
            copies.append(j)
            return with_column(matrix, j, column)

        monkeypatch.setattr(vandermonde, "_eliminate", counting_eliminate)
        monkeypatch.setattr(vandermonde.ExactMatrix, "with_column", counting_with_column)
        return eliminations, copies

    @pytest.mark.parametrize(
        "a, b, n", [("0", "1", "0"), ("0", "1", "2"), ("1/2", "2/3", "7"), ("-3", "-1/4", "12")]
    )
    def test_one_elimination_for_every_column(self, capsys, monkeypatch, a, b, n):
        eliminations, copies = self.count_eliminations_and_copies(monkeypatch)
        code, _ = run_cli(capsys, "det", "--a", a, "--b", b, "--n", n, "--format", "json")
        assert code == EXIT_OK
        assert eliminations == [int(n) + 1]
        assert copies == []

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_values_past_the_digit_limit_render(self, capsys, fmt):
        # The determinant has about 4500 digits, past Python's default int -> str limit.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out = run_cli(
            capsys, "det", "--b", "1000000000", "--n", "30", "--format", fmt
        )
        assert code == EXIT_OK
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        if fmt == "json":
            document = json.loads(out)
            assert len(document["closed"]) > 4300
            assert document["agree"] is True
        else:
            assert max(len(line) for line in out.splitlines()) > 4300
            assert out.rstrip().endswith("agreement: yes" if fmt == "text" else "agree,true")

    def test_singular_nodes_are_eliminated_once(self, capsys, monkeypatch):
        # With b = 0 the right-hand side B^n n! is 0, so every substituted
        # column is zero: one elimination finds the matrix singular and
        # decides every numerator, with no copy and no Fraction matrix.
        eliminations, copies = self.count_eliminations_and_copies(monkeypatch)
        built = []
        build_system = vandermonde.build_system

        def counting_build_system(nodes):
            built.append(nodes)
            return build_system(nodes)

        monkeypatch.setattr(vandermonde, "build_system", counting_build_system)
        monkeypatch.setattr(cli, "build_system", counting_build_system)
        code, _ = run_cli(capsys, "det", "--a", "5", "--b", "0", "--n", "3")
        assert code == EXIT_OK
        assert copies == []
        assert built == []
        assert eliminations == [4]


class TestStirlingCommand:
    def test_small_table(self, capsys):
        code, out = run_cli(capsys, "stirling", "--m-max", "3", "--n-max", "3")
        assert code == EXIT_OK
        assert "3 2 3 6 6 ok" in out

    def test_single_cell(self, capsys):
        code, out = run_cli(capsys, "stirling", "--m-max", "0", "--n-max", "0")
        assert code == EXIT_OK
        assert "0 0 1 1 1 ok" in out

    def test_known_row_in_csv(self, capsys):
        code, out = run_cli(
            capsys, "stirling", "--m-max", "6", "--n-max", "4", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,stirling2,scaled,boole_sum,agree"
        assert "6,4,65,1560,1560,true" in lines

    def test_difference_route_gates_the_table(self, capsys, monkeypatch):
        genuine = bi.difference_rows

        def moved(m_max, n_max):
            rows = genuine(m_max, n_max)
            rows[3][2] += 1
            return rows

        monkeypatch.setattr(bi, "difference_rows", moved)
        code, out = run_cli(capsys, "stirling", "--m-max", "3", "--n-max", "3")
        assert code == EXIT_FAILURE
        assert [line for line in out.splitlines() if "FAIL" in line] == ["3 2 3 6 6 FAIL"]

    def test_grid_needs_no_cell_by_cell_oracle(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid must come from the power-sum table")

        monkeypatch.setattr(bi, "boole_sum", refuse)
        monkeypatch.setattr(bi, "stirling2", refuse)
        assert not hasattr(cli, "boole_sum") and not hasattr(cli, "stirling_rows")
        assert run_cli(capsys, "verify", "--n-max", "5", "--m-max", "7")[0] == EXIT_OK
        # The Stirling grid's sums are ints: no Fraction power-sum table is built for it.
        monkeypatch.setattr(bi, "generalized_sums", refuse)
        assert run_cli(capsys, "stirling", "--m-max", "7", "--n-max", "5")[0] == EXIT_OK

    def test_passing_grid_builds_no_record(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a passing grid point needs no record")

        class Refused:
            __new__ = _make = refuse

        monkeypatch.setattr(cli, "stirling_case", refuse)
        assert run_cli(capsys, "verify", "--n-max", "5", "--m-max", "7")[0] == EXIT_OK
        monkeypatch.setattr(bi, "CaseResult", Refused)
        assert run_cli(capsys, "stirling", "--m-max", "7", "--n-max", "5")[0] == EXIT_OK

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    @settings(deadline=None, max_examples=30)
    def test_rows_are_the_definitional_values(self, m_max, n_max):
        code, document = document_of(
            ["stirling", "--m-max", str(m_max), "--n-max", str(n_max)], "json")
        assert code == EXIT_OK
        rows = json.loads(document)["rows"]
        assert [(row["m"], row["n"]) for row in rows] == [
            (m, n) for m in range(m_max + 1) for n in range(n_max + 1)
        ]
        for row in rows:
            m, n = row["m"], row["n"]
            partitions = bi.stirling2(m, n)
            direct = bi.boole_sum(n, m)
            assert (row["stirling2"], row["scaled"], row["boole_sum"], row["agree"]) == (
                partitions, factorial(n) * partitions, direct, True)
            assert bi.forward_difference_at_zero(m, n) == direct


def _moved(route, index):
    """route's table with one entry moved by 1: row index(rows), entry index(len(row)) in it."""
    genuine = getattr(bi, route)

    def moved(*args):
        rows = [list(row) for row in genuine(*args)]
        row = rows[index(len(rows))]
        row[index(len(row))] += 1
        return rows

    return moved


def _middle(size):
    return size // 2


def _last(size):
    return size - 1


def _failing_stirling_cases(m_max, n_max):
    """(n, m, 0, 1, sum, n! * S) wherever sum == n! * S(m,n) == difference fails, by n, then m.

    Read cell by cell from bi's three tables, so stirling_grid's zips and
    transposes are not part of the expectation.
    """
    sums = bi.boole_sums(n_max, m_max)
    partitions = bi.stirling_rows(m_max, n_max)
    differences = bi.difference_rows(m_max, n_max)
    failed = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            direct, scaled = sums[n][m], factorial(n) * partitions[m][n]
            if not direct == scaled == differences[m][n]:
                failed.append((n, m, 0, 1, direct, scaled, False))
    return failed


class TestStirlingGate:
    """verify's Stirling failures are the faulted tables' failing cells, case for case."""

    @pytest.mark.parametrize("m_max, n_max", [(0, 0), (0, 4), (5, 0), (3, 6), (7, 5), (9, 2)])
    @pytest.mark.parametrize("faults", [
        [("boole_sums", _middle)],
        [("stirling_rows", _middle)],
        [("difference_rows", _middle)],
        [("boole_sums", _middle), ("stirling_rows", _last)],
        [("stirling_rows", _middle), ("difference_rows", _last)],
        [("difference_rows", _middle), ("boole_sums", _last)],
    ], ids=["sums", "stirling", "differences", "sums-stirling", "stirling-differences",
            "differences-sums"])
    def test_gate_failures_are_the_sweep_failures(self, monkeypatch, m_max, n_max, faults):
        for route, index in faults:
            monkeypatch.setattr(bi, route, _moved(route, index))
        expected = _failing_stirling_cases(m_max, n_max)
        assert expected
        code, document = document_of(["verify", "--a", "1/3", "--b", "2/5", "--n-max",
                                      str(n_max), "--m-max", str(m_max)], "json")
        assert code == EXIT_FAILURE
        failed = [
            (case["n"], case["m"], *map(Fraction, (case["a"], case["b"], case["lhs"], case["rhs"])),
             case["pass"])
            for case in json.loads(document)["cases"] if not case["pass"]
        ]
        assert failed == expected


class TestBenchCommand:
    def test_ladder_rows(self, capsys):
        code, out = run_cli(capsys, "bench", "--n-max", "4", "--seed", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,closed_ns,bareiss_ns,agree"
        assert len(lines) == 5
        assert all(line.endswith(",true") for line in lines[1:])

    def test_single_rung(self, capsys):
        code, out = run_cli(capsys, "bench", "--n-max", "1")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2

    def test_non_timing_columns_deterministic(self, capsys):
        def skeleton():
            code, out = run_cli(capsys, "bench", "--n-max", "5", "--seed", "7")
            assert code == EXIT_OK
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            return [(row[0], row[3]) for row in rows]

        assert skeleton() == skeleton()

    def test_median_time_is_the_middle_sample(self, monkeypatch):
        # Five calls that take 70, 10, 50, 20 and 90 ns: the median is 50, the mean 48.
        ticks = iter([0, 70, 100, 110, 200, 250, 300, 320, 400, 490])
        clock = types.SimpleNamespace(perf_counter_ns=lambda: next(ticks))
        monkeypatch.setattr(cli, "time", clock)
        calls = []
        assert cli._median_time_ns(lambda: calls.append(None)) == 50
        assert len(calls) == 5


def shifted(value):
    """value + 1 for a scalar; for a list or tuple, a copy with its middle entry shifted."""
    if isinstance(value, (list, tuple)):
        middle = len(value) // 2
        return type(value)([*value[:middle], shifted(value[middle]), *value[middle + 1:]])
    return value + 1


# (argv, module the command looks the route up in, route names); each route is faulted alone.
FAULTS = [
    (["verify", "--a", "1/3", "--b", "2/5"], bi,
     ["generalized_sums", "expected_value", "solve_exact", "closed_form_solution",
      "det_cramer_numerator", "det_vandermonde_closed", "boole_sums", "stirling_rows",
      "difference_rows"]),
    (["solve"], cli, ["solve_exact", "closed_form_solution"]),
    (["det", "--b", "2/5"], cli, ["det_vandermonde_closed", "det_vandermonde_general",
                                  "det_bareiss", "solve_exact", "closed_form_solution"]),
    (["stirling"], bi, ["boole_sums", "stirling_rows", "difference_rows"]),
    (["bench"], cli, ["det_vandermonde_closed", "det_bareiss"]),
]
FAULT_MATRIX = [
    pytest.param(argv, module, route, id=f"{argv[0]}-{route}")
    for argv, module, routes in FAULTS
    for route in routes
]


class TestFaultMatrix:
    """A fault in any one route fails its command, and the document says so."""

    @pytest.mark.parametrize("argv, module, route", FAULT_MATRIX)
    def test_faulted_route_fails_the_document(self, capsys, monkeypatch, argv, module, route):
        genuine = getattr(module, route)
        monkeypatch.setattr(module, route, lambda *args: shifted(genuine(*args)))
        code = main([*argv, "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_FAILURE
        if "summary" in document:
            assert document["summary"]["failures"] > 0
        else:
            assert document["agree"] is False

    @pytest.mark.parametrize("route, drop_last", [
        ("closed_form_solution", lambda signed: signed[:-1]),
        ("solve_exact", lambda solution: solution[:-1]),
    ], ids=["closed", "elimination"])
    def test_a_short_column_list_fails_det(self, capsys, monkeypatch, route, drop_last):
        genuine = getattr(cli, route)
        monkeypatch.setattr(cli, route, lambda *args: drop_last(genuine(*args)))
        code = main(["det", "--b", "2/5", "--n", "3", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_FAILURE
        assert document["agree"] is False
        assert all(column["agree"] for column in document["columns"])


@contextlib.contextmanager
def no_int_digit_limit():
    """Lift the int -> str digit limit, where the interpreter has one, as main does."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# Quotes, backslashes, control and non-ASCII characters, plus any code point.
JSON_KEYS = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f aZé€\u2028😀') | st.characters(),
                    max_size=5)
JSON_SCALARS = (
    st.fractions()
    | st.integers().map(Fraction)
    | st.booleans()
    | st.none()
    | st.text(max_size=5)
    | st.integers()
    # Past the default 4300-digit limit. Mapped from a digit count, because Hypothesis
    # reprs the elements of sampled_from outside the lifted limit.
    | st.integers(min_value=4301, max_value=4400).map(lambda digits: 1 - 10**digits)
    | st.integers(min_value=4301, max_value=4400).map(lambda digits: Fraction(10**digits, 7))
)
JSON_RECORDS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, children, max_size=4),
    max_leaves=24,
)


# One Fraction object held in several rows; the second row also holds an equal but distinct one.
SHARED = Fraction(1, 3)


class TestJsonDocument:
    @given(record=JSON_RECORDS)
    @example(record={"a": {}, "b": [], "c": [{}, [[]], ({"d": [Fraction(-3), None]},)]})
    @example(record=[{"a": 1, "b": 2}, {"b": 2, "a": 1}])
    @example(record=[{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}, {"a": 6}])
    @example(record=[{"a": 1, "b": [2, {"c": None}]}, {"a": {"d": "%s"}, "b": 3}])
    @example(record=[{"%s": 1, "%%": "%d"}, {"%s": "%", "%%": 2}])
    @example(record=[{}, {"a": 1}, {"a": 2}])
    @example(record=[{"a": Fraction(1, 2)}, {"a": Fraction(3)}, 7, "x", None])
    @example(record=[
        {"a": SHARED, "b": SHARED}, {"a": Fraction(1, 3), "b": SHARED}, {"a": Fraction(3), "b": 3}
    ])
    @example(record=[{"a": True, "b": 1}, {"a": 1, "b": True}, {"a": False, "b": 0}])
    @settings(deadline=None, max_examples=300)
    def test_same_text_as_the_standard_encoder(self, record):
        with no_int_digit_limit():
            assert _json_document(record) == json.dumps(record, indent=2, default=_frac)

    @pytest.mark.parametrize(
        "value", [1.5, {1, 2}, {"x": [0.5]}, [frozenset()], [{"x": 1}, {"x": 0.5}]]
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _json_document(value)

    def test_integers_render_in_the_uniform_fraction_form(self):
        assert [_frac(Fraction(v)) for v in (3, 0, -2)] == ["3/1", "0/1", "-2/1"]

    @given(st.fractions())
    def test_rational_text_round_trips(self, x):
        assert parse_rational(_frac(x)) == x


@st.composite
def json_tables(draw):
    """A Table with unique keys and rows of any json-renderable cells, nested ones too."""
    keys = tuple(draw(st.lists(JSON_KEYS, unique=True, max_size=4)))
    return Table(keys, draw(st.lists(st.tuples(*[JSON_RECORDS] * len(keys)), max_size=3)))


TABLE_RECORDS = st.recursive(
    json_tables(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(JSON_KEYS, children, max_size=3),
    max_leaves=4,
)


def untabled(value):
    """The record with each Table replaced by the list of dicts that pair its keys with a row."""
    if type(value) is Table:
        return [dict(zip(value.keys, map(untabled, row))) for row in value.rows]
    if type(value) is dict:
        return {key: untabled(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return [untabled(item) for item in value]
    return value


# Any text but a carriage return or a NUL, which no command writes into a csv cell.
CSV_TEXT = st.text(st.characters(blacklist_characters="\r\x00"), max_size=5)


@st.composite
def csv_tables(draw):
    keys = tuple(draw(st.lists(CSV_TEXT, min_size=1, unique=True, max_size=4)))
    cells = st.fractions() | st.integers() | st.booleans() | CSV_TEXT
    return Table(keys, draw(st.lists(st.tuples(*[cells] * len(keys)), max_size=4)))


class TestTableWriters:
    """A Table renders as json.dumps renders its rows as dicts, and as csv header plus rows."""

    @given(record=TABLE_RECORDS)
    @example(record=Table(("a", "b"), []))
    @example(record=Table((), [(), ()]))
    @example(record=Table(("a", "b"), [(SHARED, SHARED), (Fraction(1, 3), SHARED)]))
    @example(record=Table(("a", "b"), [(True, 1), (1, True), (False, 0)]))
    @example(record=Table(("%s", "%%"), [(1, "%d"), ("%", 2)]))
    @example(record={"t": Table(("x", "y"), [([1, {"z": None}], {}), ({"w": [SHARED]}, 2)])})
    @example(record=[Table(("x",), [({"z": [Fraction(1, 2)]},)]), Table(("x",), [([],)]), 3])
    @settings(deadline=None, max_examples=100)
    def test_json_same_text_as_the_standard_encoder(self, record):
        with no_int_digit_limit():
            expected = json.dumps(untabled(record), indent=2, default=_frac)
            assert _json_document(record) == expected

    @given(table=csv_tables())
    @example(table=Table(("", "%s"), [("", True), (Fraction(-3, 4), 0)]))
    @example(table=Table(("a", "b", "c"), [(SHARED, SHARED, True), (Fraction(1, 3), SHARED, 1),
                                           (1, True, ""), ("", 1, SHARED)]))
    @settings(deadline=None, max_examples=200)
    def test_csv_header_then_cell_forms(self, table):
        assert list(csv.reader(io.StringIO(_csv_document(table)))) == [
            list(table.keys), *([csv_text(cell) for cell in row] for row in table.rows)
        ]

    def test_csv_of_an_empty_table_is_its_header(self):
        assert _csv_document(Table(("n", "m", "a,b"), [])) == 'n,m,"a,b"'


RATIONAL_FLAGS = st.builds(
    "{}/{}".format, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


@st.composite
def table_argv(draw):
    """A verify or stirling command line: small orders and trials, rationals in [-9, 9]."""
    n_max = str(draw(st.integers(min_value=0, max_value=5)))
    m_max = str(draw(st.integers(min_value=0, max_value=6)))
    if draw(st.booleans()):
        return ["stirling", "--m-max", m_max, "--n-max", n_max]
    return ["verify", "--a", draw(RATIONAL_FLAGS), "--b", draw(RATIONAL_FLAGS),
            "--n-max", n_max, "--m-max", m_max,
            "--trials", str(draw(st.integers(min_value=0, max_value=2))),
            "--seed", str(draw(st.integers(min_value=0, max_value=99)))]


def document_of(argv, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", fmt])
    return code, out.getvalue()


def csv_text(value):
    """The csv form of one cell or json value: p/q for a Fraction, true/false, str() otherwise."""
    if type(value) is Fraction:
        return f"{value.numerator}/{value.denominator}"
    return ("true" if value else "false") if type(value) is bool else str(value)


class TestFormatsAgree:
    """json, csv and text documents of one command line hold the same rows."""

    @given(argv=table_argv())
    @example(argv=["verify", "--a", "1/3", "--b", "-2/5", "--n-max", "4", "--m-max", "4",
                   "--trials", "3", "--seed", "4"])
    @example(argv=["verify", "--a", "2", "--b", "0", "--n-max", "3", "--m-max", "3"])
    @example(argv=["stirling", "--m-max", "5", "--n-max", "4"])
    @example(argv=["stirling", "--m-max", "0", "--n-max", "0"])
    @settings(deadline=None, max_examples=100)
    def test_json_csv_and_text_rows_agree(self, argv):
        (code, json_doc), (csv_code, csv_doc), (text_code, text_doc) = (
            document_of(argv, fmt) for fmt in ("json", "csv", "text")
        )
        assert code == csv_code == text_code
        rows = json.loads(json_doc)["cases" if argv[0] == "verify" else "rows"]
        csv_rows = list(csv.DictReader(io.StringIO(csv_doc)))
        assert csv_rows == [{key: csv_text(value) for key, value in row.items()} for row in rows]
        lines = text_doc.splitlines()
        if argv[0] == "verify":
            case_lines = [line for line in lines if line.startswith("n=")]
            expected = [
                f"n={r['n']} m={r['m']} "
                + " ".join(f"{key}={format_rational(parse_rational(r[key]))}"
                           for key in ("a", "b", "lhs", "rhs"))
                + (" ok" if r["pass"] else " FAIL")
                for r in rows
            ]
        else:
            case_lines = lines[2:-1]
            expected = [
                f"{r['m']} {r['n']} {r['stirling2']} {r['scaled']} {r['boole_sum']} "
                + ("ok" if r["agree"] else "FAIL")
                for r in rows
            ]
        assert case_lines == expected


class TestJsonRoute:
    """Every json document comes from the writer; the standard encoder is never called."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n-max", "4", "--trials", "2", "--seed", "5"],
            ["det", "--a", "1/2", "--b", "-2/3", "--n", "4"],
            ["det", "--b", "0", "--n", "2"],
            ["solve", "--a", "1/3", "--b", "2/7", "--n", "4"],
            ["solve", "--b", "0", "--n", "2"],
            ["stirling", "--m-max", "5", "--n-max", "4"],
            ["bench", "--n-max", "3"],
        ],
    )
    def test_json_documents_skip_json_dumps(self, argv, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(cli.json, "dumps", refuse)
        code = main([*argv, "--format", "json"])
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == argv[0]
        assert code == (EXIT_FAILURE if "error" in record else EXIT_OK)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--bogus"],
            ["solve", "--a", "1/0", "--n", "1"],
            ["solve", "--n", "-3"],
            ["bench", "--n-max", "0"],
            ["unknown-command"],
            [],
            ["det", "--b", "1" * 5000, "--n", "1"],
            ["verify", "--n-max", "1" * 5000],
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()


ORDER_FLAGS = {
    "verify": ("--n-max", "--m-max"),
    "solve": ("--n",),
    "det": ("--n",),
    "stirling": ("--m-max", "--n-max"),
    "bench": ("--n-max",),
}
RATIONAL_VALUES = ["0", "1", "-1", "2/3", "-3/4", "9/4", "1/0", "3/-4", "abc", "", "1.5", "-"]
ORDER_VALUES = ["0", "1", "3", "6", "-1", "x", "2.5"]
FLAG_VALUES = {
    "--a": RATIONAL_VALUES,
    "--b": RATIONAL_VALUES,
    "--n": ORDER_VALUES,
    "--n-max": ORDER_VALUES,
    "--m-max": ORDER_VALUES,
    "--trials": ["0", "1", "2", "-1", "many"],
    "--seed": ["0", "7", "-2", "s"],
    "--format": ["json", "csv", "text", "xml"],
    # Names relative to a scratch directory: a file, one in a missing directory, the directory.
    "--output": ["@report.out", "@missing/report.out", "@."],
}
UNKNOWN_FLAGS = ["--bogus", "-x", "--n-maxx", "--help"]


@st.composite
def fuzzed_argv(draw):
    """Subcommand, orders of at most 6 and a step, then flags, values and junk in any order."""
    command = draw(st.sampled_from([*ORDER_FLAGS, "unknown-command", None]))
    argv = [] if command is None else [command]
    for flag in ORDER_FLAGS.get(command, ()):
        argv += [flag, str(draw(st.integers(min_value=0, max_value=6)))]
    if command in ("verify", "solve", "det"):
        argv += ["--b", draw(st.sampled_from(["1", "0", "-2/3", "1000000000"]))]
    flag_or_junk = st.sampled_from([*FLAG_VALUES, *UNKNOWN_FLAGS, *RATIONAL_VALUES])
    for token in draw(st.lists(flag_or_junk, max_size=6)):
        argv.append(token)
        # A flag keeps its value four times in five; without one it eats the next token.
        if token in FLAG_VALUES and draw(st.integers(min_value=0, max_value=4)) < 4:
            argv.append(draw(st.sampled_from(FLAG_VALUES[token])))
    return argv


class TestArgvFuzz:
    @given(argv=fuzzed_argv())
    @settings(deadline=None, max_examples=200)
    def test_every_argv_exits_with_a_documented_code(self, tmp_path_factory, argv):
        base = tmp_path_factory.getbasetemp() / "argv-fuzz"
        base.mkdir(exist_ok=True)
        argv = [str(base / token[1:]) if token.startswith("@") else token for token in argv]
        out, err = io.StringIO(), io.StringIO()
        csv_documents = []

        def recording(table):
            csv_documents.append(_csv_document(table))
            return csv_documents[-1]

        # --output without its value takes the next junk token ("-", "0", "abc") as a
        # relative path, so run from the scratch directory.
        cwd = os.getcwd()
        os.chdir(base)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch.object(cli, "_csv_document", recording):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code != EXIT_USAGE:
            assert err.getvalue() == ""
        # CPython 3.13 quotes a cell holding "\r" and earlier versions do not, so none may.
        for document in csv_documents:
            assert "\r" not in document
            header, *rows = csv.reader(io.StringIO(document))
            assert all(len(row) == len(header) for row in rows), argv


def parse_outcome(parse, argv):
    """(namespace or exit status, stdout, stderr) of one parse of argv, as main merges it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = parse(_merge_negative_values(argv))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


EVERY_FLAG = {
    "verify": ["--a", "1/3", "--b", "-2/5", "--n-max", "4", "--m-max", "6", "--trials", "2",
               "--seed", "9", "--format", "json", "--output", "report.json"],
    "solve": ["--a", "7", "--b", "2/9", "--n", "5", "--format", "csv", "--output", "x.csv"],
    "det": ["--a=-1/2", "--b=3", "--n", "0", "--format", "text", "--output", "det.txt"],
    "stirling": ["--m-max", "0", "--n-max", "11", "--format", "json", "--output", "s.json"],
    "bench": ["--n-max", "3", "--seed", "4", "--format", "text", "--output", "b.txt"],
}
PARSE_CORPUS = [
    *([command] for command in EVERY_FLAG),
    *([command, *flags] for command, flags in EVERY_FLAG.items()),
    *([command, "-h"] for command in EVERY_FLAG),
    ["verify", "--help"], ["det", "--he"], ["solve", "--n", "3", "-h", "stray"],
    ["--help"], ["-h"], [],
    # Bad values, each reported by the command's own parser.
    ["verify", "--n-max", "x"], ["solve", "--a", "1/0"], ["solve", "--n", "-3"],
    ["bench", "--n-max", "0"], ["det", "--format", "xml"], ["stirling", "--m-max"],
    ["verify", "--n-max", "x", "stray"],
    # Negative values, folded into their flag, or left bare.
    ["solve", "--a", "-3/4", "--b", "-2"], ["det", "--b", "-1/3", "--n", "2"],
    ["verify", "--a", "-", "--b", "1"], ["solve", "--n", "-3/4"],
    # Abbreviated flags.
    ["verify", "--n-m", "3", "--tri", "2", "--se", "4", "--fo", "csv"],
    ["stirling", "--m", "3", "--n", "2"], ["bench", "--n", "2", "--o", "out.csv"],
    # Unknown flags and stray positionals after a valid command.
    ["verify", "--bogus"], ["solve", "--n", "3", "-x"], ["det", "--n-maxx", "3"],
    ["solve", "--n", "3", "stray"], ["det", "stray", "--n", "2"], ["stirling", "1", "2"],
    ["solve", "--", "--n", "3"], ["solve", "--n", "3", "--"], ["verify", "verify"],
    # Unknown commands, or a flag where the command goes.
    ["nope"], ["nope", "--n", "3"], ["Verify"], ["--n", "3", "solve"], ["-x", "det"],
]


class TestOneParser:
    """main's parse equals the full tree's parse, and a well-formed one builds one parser."""

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_outcome_as_the_full_tree(self, argv):
        fast = parse_outcome(cli._parse, argv)
        assert fast == parse_outcome(lambda args: cli.build_parser().parse_args(args), argv)
        if not isinstance(fast[0], int):
            assert fast[1:] == ("", "")

    @given(argv=fuzzed_argv())
    @settings(deadline=None, max_examples=200)
    def test_fuzzed_argv_same_outcome_as_the_full_tree(self, argv):
        assert parse_outcome(cli._parse, argv) == parse_outcome(
            lambda args: cli.build_parser().parse_args(args), argv
        )

    def test_every_command_has_flags_and_a_handler(self):
        assert list(cli._FLAGS) == list(cli._HANDLERS)

    @staticmethod
    def count_parsers(monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("argv", [
        ["verify", "--n-max", "2", "--format", "json"],
        ["solve", "--a", "-3/4", "--n", "3", "--format", "csv"],
        ["det", "--n", "2"],
        ["stirling", "--m-max", "3", "--n-max", "2"],
        ["bench", "--n-max", "1"],
    ], ids=" ".join)
    def test_well_formed_command_line_builds_one_parser(self, capsys, monkeypatch, argv):
        built = self.count_parsers(monkeypatch)
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert built == [f"boolekit {argv[0]}"]

    def test_left_over_arguments_build_the_full_tree(self, capsys, monkeypatch):
        built = self.count_parsers(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--n", "3", "stray"])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "boolekit: error: unrecognized arguments: stray\n"
        )
        assert built == ["boolekit solve", "boolekit", *(f"boolekit {name}" for name in cli._FLAGS)]


class TestModuleEntryPoint:
    def test_import_loads_no_dataclasses_inspect_or_statistics(self):
        # Only the modules the import itself adds count, whatever site loaded before.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import boolekit.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        loaded = set(completed.stdout.split())
        assert "boolekit.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "statistics"})

    @pytest.mark.parametrize("argv", [
        ["verify", "--n-max", "3", "--trials", "2"],
        ["solve", "--n", "3"],
        ["det", "--n", "3"],
        ["stirling", "--m-max", "3", "--n-max", "3"],
        ["bench", "--n-max", "2"],
    ], ids=lambda argv: argv[0])
    def test_no_command_loads_typing(self, argv):
        # -S keeps site, which may import typing itself, out of the child.
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        script = (
            "import sys\n"
            f"sys.path.insert(0, {package_root!r})\n"
            "from boolekit.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'typing' in sys.modules, file=sys.stderr)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True
        )
        assert completed.stderr == f"{EXIT_OK} False\n"

    def test_python_dash_m_invocation(self):
        completed = subprocess.run(
            [sys.executable, "-m", "boolekit", "verify", "--n-max", "2"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == EXIT_OK
        assert "total=6 failures=0" in completed.stdout

    @pytest.mark.parametrize("argv", [
        ["verify", "--n-max", "4", "--trials", "2", "--format", "json"],
        ["solve", "--a", "1/3", "--b", "2/7", "--n", "6", "--format", "text"],
        ["det", "--a", "1/2", "--b", "2/3", "--n", "6", "--format", "csv"],
        ["stirling", "--m-max", "5", "--n-max", "4", "--format", "csv"],
        ["bench", "--n-max", "3", "--format", "text"],
    ], ids=lambda argv: argv[0])
    def test_no_command_warns_under_dash_w_error(self, argv):
        # A deprecation in argparse, fractions or csv, at import or at run, fails the child.
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-m", "boolekit", *argv],
            capture_output=True,
            text=True,
        )
        assert completed.stderr == ""
        assert completed.returncode == EXIT_OK
        assert completed.stdout

    def test_out_of_memory_is_a_usage_exit(self):
        # The child caps only its own address space; --n 5000 needs far more.
        cap = 400 * 2**20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        completed = subprocess.run(
            [sys.executable, "-m", "boolekit", "solve", "--n", "5000"],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
        )
        assert completed.returncode == EXIT_USAGE
        assert completed.stdout == ""
        assert completed.stderr.startswith("boolekit: out of memory")
        assert len(completed.stderr.splitlines()) == 1
        assert "Traceback" not in completed.stderr

    @pytest.mark.parametrize("stdout", ["/dev/full", "closed"])
    def test_unwritable_stdout_is_a_usage_exit(self, stdout):
        if stdout == "/dev/full" and not os.path.exists(stdout):
            pytest.skip("no /dev/full device")
        argv = [sys.executable, "-m", "boolekit", "verify", "--n-max", "1"]
        if stdout == "closed":
            # The child starts with fd 1 closed, so its sys.stdout is None.
            completed = subprocess.run(
                argv, stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1)
            )
        else:
            with open(stdout, "w") as full:
                completed = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True)
        assert completed.returncode == EXIT_USAGE
        assert completed.stderr.startswith("boolekit: cannot write stdout: ")
        assert len(completed.stderr.splitlines()) == 1
        assert "Traceback" not in completed.stderr
        assert "Exception ignored" not in completed.stderr

    def test_closed_stdout_pipe_ends_quietly(self):
        # The document (about 100 kB) outgrows the pipe buffer, so writing the
        # rest of it after the reader has gone fails inside the child.
        with subprocess.Popen(
            [sys.executable, "-m", "boolekit", "verify", "--n-max", "12", "--trials", "30"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            first_line = child.stdout.readline()
            child.stdout.close()
            errors = child.stderr.read()
        assert child.returncode == EXIT_OK
        assert first_line.startswith(b"verify sweep: ")
        assert errors == b""
