import json
import random
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

import boolekit.boole_identity as bi
from boolekit.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    _merge_negative_values,
    main,
    random_rational,
    seeded_parameter_pairs,
)
from boolekit.rational_core import format_rational, parse_rational

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
            assert format_rational(parse_rational(text), always_fraction=True) == text

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

    @pytest.mark.parametrize("target", ["missing/report.txt", "."])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, target):
        code = main(["verify", "--n-max", "2", "--output", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("boolekit: cannot write --output ")
        assert captured.err.count("\n") == 1


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

    def test_zero_step_all_zero_still_passes(self, capsys):
        code, out = run_cli(
            capsys, "det", "--a", "5", "--b", "0", "--n", "2", "--format", "json"
        )
        assert code == EXIT_OK
        document = json.loads(out)
        assert document["closed"] == "0/1"
        assert document["agree"] is True


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
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        completed = subprocess.run(
            [sys.executable, "-m", "boolekit", "verify", "--n-max", "2"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == EXIT_OK
        assert "total=6 failures=0" in completed.stdout

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
