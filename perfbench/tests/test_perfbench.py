"""Tests of the benchmark itself: metric names, self-time arithmetic,
seed determinism, the oracle and the span recorder.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, list[str]]:
    """Run the benchmark as BENCHMARK.json's command; the parsed last line and all lines."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_listed_metric_with_its_unit(workload, trace):
    result, _ = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                      "--trace", trace, "--smoke")
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_lists_exactly_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_children_on_a_synthetic_tree():
    #  0 root   [0, 100]
    #  1  a     [10, 40]
    #  2   a1   [15, 25]
    #  3  b     [50, 70]
    #  4 root2  [200, 230]  (a second root with no children)
    starts = [0, 10, 15, 50, 200]
    ends = [100, 40, 25, 70, 230]
    parents = [-1, 0, 1, 0, -1]
    assert spans.self_times_ns(starts, ends, parents) == [50, 20, 10, 20, 30]
    trace = {
        "names": ["cli.main", "vandermonde.solve_exact"],
        "counters": {},
        "spans": {"name": [0, 1, 1, 1, 0], "start_ns": starts, "end_ns": ends, "parent": parents},
    }
    summary = spans.summarize(trace)
    assert summary["per_name"] == {
        "cli.main": {"calls": 2, "self_ns": 80},
        "vandermonde.solve_exact": {"calls": 3, "self_ns": 50},
    }
    assert summary["spans"] == 5


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0, 10, 30, 90], [100, 40, 60, 120], [-1, 0, 0, 0]
    # Children cover [10, 60] and [90, 100] of the parent: 60 of its 100.
    assert spans.self_times_ns(starts, ends, parents)[0] == 40


def test_same_seed_gives_identical_argv_and_documents():
    first = [next(run.WORKLOADS[name].argvs(11)) for name in run.WORKLOADS]
    again = [next(run.WORKLOADS[name].argvs(11)) for name in run.WORKLOADS]
    other = [next(run.WORKLOADS[name].argvs(12)) for name in run.WORKLOADS]
    assert first == again
    assert first != other
    digests = []
    for _ in range(2):
        bench("--workload", "all", "--seed", "11", "--seconds", "0", "--smoke")
        digests.append([
            [(r["argv"], r["sha256"]) for r in json.loads(
                (run.OUT / f"{name}-seed11-trace0-smoke" / "result.json").read_text()
            )["repetitions"]]
            for name in run.WORKLOADS
        ])
    assert digests[0] == digests[1]
    assert all(rep[1] for reps in digests[0] for rep in reps)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """One real smoke-size document per workload, made by the CLI in a child process."""
    runner = run.Runner(tmp_path_factory.mktemp("docs"))
    made = {}
    for name, workload in run.WORKLOADS.items():
        argv = next(workload.argvs(5, smoke=True))
        outcome = runner.child("run", argv)
        assert outcome.failure is None
        made[name] = (argv, runner.document.read_text().removesuffix("\n"))
    return made


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tampered_document_is_rejected_and_fails_the_run(documents, workload, tmp_path):
    argv, document = documents[workload]
    assert oracle.check(argv, document) is None
    tampered = oracle.tamper(argv, document)
    assert tampered != document
    assert oracle.check(argv, tampered) is not None
    runner = run.Runner(tmp_path)
    record = {"module": str(run.SRC / "boolekit" / "cli.py"), "run_s": 1.0}
    outcome = runner.judge("run", argv, record, (tampered + "\n").encode())
    assert outcome.failure.startswith("document rejected")
    assert (runner.attempted, runner.failed) == (1, 1)


def test_oracle_rejects_a_wrong_case_count_and_a_non_canonical_rational(documents):
    argv, document = documents["sweep-rational"]
    record = json.loads(document)
    record["cases"].pop()
    assert "case count" in oracle.check(argv, json.dumps(record))
    record = json.loads(document)
    record["cases"][0]["lhs"] = "2/2"
    assert "lowest terms" in oracle.check(argv, json.dumps(record))


def test_oracle_reproduces_the_cli_trial_pairs():
    from boolekit.cli import seeded_parameter_pairs

    pairs = oracle.cli_pairs(Fraction(0), Fraction(1), 42, 30)
    assert pairs[1:] == seeded_parameter_pairs(42, 30)


def test_recorder_patches_every_reference_and_restores_them():
    import boolekit
    import boolekit.boole_identity as bi
    import boolekit.cli as cli
    import boolekit.rational_core as rc
    import boolekit.vandermonde as vm

    modules = [boolekit, cli, bi, vm, rc]
    originals = {
        "solve_exact": vm.solve_exact,
        "rat_pow": rc.rat_pow,
        "with_column": vm.ExactMatrix.__dict__["with_column"],
        "handler": cli._HANDLERS["det"],
        "new": Fraction.__dict__["__new__"],
    }
    recorder = spans.SpanRecorder("test")
    recorder.patch(modules)
    try:
        assert bi.solve_exact is vm.solve_exact is boolekit.solve_exact
        assert bi.solve_exact is not originals["solve_exact"]
        assert vm.rat_pow is not originals["rat_pow"]
        assert cli._HANDLERS["det"] is cli.cmd_det is not originals["handler"]
        report = bi.verify_cramer(Fraction(1, 3), Fraction(-2, 5), 3)
    finally:
        recorder.restore()
    assert report.ok
    assert vm.solve_exact is bi.solve_exact is originals["solve_exact"]
    assert vm.rat_pow is rc.rat_pow is originals["rat_pow"]
    assert vm.ExactMatrix.__dict__["with_column"] is originals["with_column"]
    assert cli._HANDLERS["det"] is originals["handler"]
    assert Fraction.__dict__["__new__"] is originals["new"]

    trace = recorder.to_dict()
    names = [trace["names"][i] for i in trace["spans"]["name"]]
    parents = trace["spans"]["parent"]
    cramer = names.index("boole_identity.verify_cramer")
    assert parents[cramer] == -1
    assert parents[names.index("vandermonde.solve_exact")] == cramer
    assert parents[names.index("vandermonde.build_system")] == cramer
    # Through vandermonde's own reference: 16 matrix entries, the rhs, the
    # closed determinant and 4 Cramer numerators.
    assert names.count("rational_core.rat_pow") == 16 + 1 + 1 + 4
    assert trace["counters"]["boole_identity.cases"] == report.total == 4
    assert trace["counters"][spans.FRACTION_NEW] > 0


def test_kernel_time_is_out_of_reach_of_what_boolekit_does_at_import(tmp_path):
    # A copy of the sources whose import slows every Python call and changes
    # the collector's state for the rest of the process.
    poisoned = tmp_path / "src"
    shutil.copytree(run.SRC / "boolekit", poisoned / "boolekit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(poisoned / "boolekit" / "__init__.py", "a", encoding="utf-8") as init:
        init.write("\nimport gc, sys\ngc.set_threshold(1)\n"
                   "sys.setprofile(lambda frame, event, arg: sum(range(20)))\n")
    argv = next(run.WORKLOADS["det-elimination"].argvs(1, smoke=True))
    kernels = {}
    for name, src in (("clean", run.SRC), ("poisoned", poisoned)):
        runner = run.Runner(tmp_path / name, src)
        outcomes = [runner.child("run", argv) for _ in range(3)]
        assert all(o.failure is None for o in outcomes)
        assert all(Path(o.record["module"]).is_relative_to(src) for o in outcomes)
        kernels[name] = statistics.median(o.record["kernel_s"] for o in outcomes)
    # Timed inside the poisoned child, the kernel took about three times as long.
    assert kernels["poisoned"] < 1.5 * kernels["clean"]


def test_coverage_drops_when_a_module_is_left_unwrapped(capsys):
    import boolekit
    import boolekit.boole_identity as bi
    import boolekit.cli as cli
    import boolekit.rational_core as rc
    import boolekit.vandermonde as vm

    def coverage(modules):
        recorder = spans.SpanRecorder("test")
        recorder.patch(modules)
        began = time.perf_counter()
        try:
            assert cli.main(["verify", "--n-max", "8", "--trials", "3", "--format", "csv"]) == 0
        finally:
            recorder.restore()
        run_s = time.perf_counter() - began
        return run.layer_metrics(recorder.to_dict(), run_s)["trace.coverage"]

    full = coverage([boolekit, cli, bi, vm, rc])
    without_identity = coverage([boolekit, cli, vm, rc])
    capsys.readouterr()
    assert full > 0.9
    assert without_identity < full - 0.2


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "det-elimination",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
