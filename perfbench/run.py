"""Benchmark of the boolekit command line: four seeded workloads, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  One client runs one CLI command at a time.
Every command runs in a fresh interpreter (perfbench/child.py), so nothing
cached in one process can speed up the next, just as for a user of the CLI.
The workload's inputs are drawn from --seed; each repetition draws new
ones.  Every document is checked by perfbench/oracle.py, which does not
import boolekit, before its timing counts.

With --trace 0 the run reports the end-to-end metrics: run_s (median wall
time of main), setup_s (median time to import boolekit and parse the flags)
and peak_rss_mb (median peak RSS of the child).  With --trace 1 it
alternates untraced and traced repetitions of the same inputs and reports
the per-layer metrics from the spans.  The last line of stdout is one JSON
object; the lines before it are for people.  Each run also writes a results
file with provenance under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
import spans
from calibrate import REFERENCE_S, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is ~40 ms and noisy, so every run takes this many extra set-up
# samples from processes that only import and parse.
SETUP_PROBES = 12
# A run must end within 180 s, so each child is stopped once a workload has
# been running this long.
RUN_DEADLINE_S = 170

# Equal-sized prime components keep the cost of the elimination workloads
# nearly independent of the draw: the four components are distinct, so every
# node a + i*b has denominator exactly q*s and numerators of the same size.
PRIMES = (101, 103, 107, 109, 113)


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _prime_pair(rng: random.Random) -> tuple[str, str]:
    p, q, r, s = rng.sample(PRIMES, 4)
    return f"{_sign(rng) * p}/{q}", f"{_sign(rng) * r}/{s}"


def _sweep_rational(rng: random.Random, smoke: bool) -> list[str]:
    n_max, trials = ("3", "2") if smoke else ("14", "20")
    return ["verify", "--n-max", n_max, "--trials", trials,
            "--seed", str(rng.randrange(2**31)), "--format", "json"]


def _grid_integer(rng: random.Random, smoke: bool) -> list[str]:
    a = _sign(rng) * rng.randint(10, 99)
    b = _sign(rng) * rng.randint(10, 99)
    n_max, m_max = ("3", "4") if smoke else ("28", "80")
    return ["verify", f"--a={a}", f"--b={b}", "--n-max", n_max, "--m-max", m_max,
            "--trials", "0", "--format", "csv"]


def _det_elimination(rng: random.Random, smoke: bool) -> list[str]:
    a, b = _prime_pair(rng)
    return ["det", f"--a={a}", f"--b={b}", "--n", "3" if smoke else "20", "--format", "json"]


def _solve_elimination(rng: random.Random, smoke: bool) -> list[str]:
    a, b = _prime_pair(rng)
    return ["solve", f"--a={a}", f"--b={b}", "--n", "3" if smoke else "36", "--format", "csv"]


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random, bool], list[str]]

    def argvs(self, seed: int, smoke: bool = False):
        """The endless, seed-determined sequence of CLI argument lists."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.draw(rng, smoke)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-rational", _sweep_rational),
        Workload("grid-integer", _grid_integer),
        Workload("det-elimination", _det_elimination),
        Workload("solve-elimination", _solve_elimination),
    )
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_FUNCTION_METRICS = (
    "boole_identity.generalized_sum.calls",
    "boole_identity.generalized_sum.self_s",
    "boole_identity.expected_value.calls",
    "boole_identity.expected_value.self_s",
    "boole_identity.verify_generalized_boole.self_s",
    "boole_identity.verify_cramer.self_s",
    "boole_identity.closed_form_solution.calls",
    "boole_identity.verify_stirling.self_s",
    "boole_identity.stirling2.calls",
    "boole_identity.stirling2.self_s",
    "boole_identity.boole_sum.calls",
    "boole_identity.boole_sum.self_s",
    "boole_identity.forward_difference_at_zero.calls",
    "boole_identity.forward_difference_at_zero.self_s",
    "vandermonde.build_system.calls",
    "vandermonde.build_system.self_s",
    "vandermonde.det_bareiss.calls",
    "vandermonde.det_bareiss.self_s",
    "vandermonde.with_column.self_s",
    "vandermonde.det_vandermonde_general.self_s",
    "vandermonde.solve_exact.calls",
    "vandermonde.solve_exact.self_s",
    "vandermonde.det_cramer_numerator.calls",
    "vandermonde.det_cramer_numerator.self_s",
    "vandermonde.det_vandermonde_closed.self_s",
    "rational_core.rat_pow.calls",
    "rational_core.rat_pow.self_s",
    "rational_core.factorial.calls",
    "rational_core.binomial.calls",
    "rational_core.superfactorial.calls",
)
_LAYERS = ("cli", "boole_identity", "vandermonde", "rational_core")

PER_LAYER = {
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.document_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in _LAYERS},
    **{name: ("count" if name.endswith(".calls") else "s") for name in _FUNCTION_METRICS},
    "boole_identity.cases": "count",
    "vandermonde.solve_exact.singular": "count",
    "rational_core.fraction_new.calls": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

_COUNTER_METRICS = {
    "boole_identity.cases": "boole_identity.cases",
    "vandermonde.solve_exact.singular": "vandermonde.solve_exact.raised.SingularMatrixError",
    "rational_core.fraction_new.calls": spans.FRACTION_NEW,
}


def layer_metrics(trace: dict, run_s: float) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition."""
    summary = spans.summarize(trace)
    per_name = summary["per_name"]
    layer_ns = dict.fromkeys(_LAYERS, 0)
    for name, entry in per_name.items():
        layer_ns[name.split(".", 1)[0]] += entry["self_ns"]
    values = {f"{layer}.self_s": ns / 1e9 for layer, ns in layer_ns.items()}
    for metric in _FUNCTION_METRICS:
        function, _, kind = metric.rpartition(".")
        entry = per_name.get(function, {"calls": 0, "self_ns": 0})
        values[metric] = entry["calls"] if kind == "calls" else entry["self_ns"] / 1e9
    for metric, counter in _COUNTER_METRICS.items():
        values[metric] = trace["counters"].get(counter, 0)
    # The share of run_s spent below the CLI layer.  Time in a function
    # nobody wrapped lands in its caller's self time, so an unwrapped module
    # of boolekit lowers it; the CLI's own loops and rendering lower it too.
    values["trace.coverage"] = 1 - layer_ns["cli"] / 1e9 / run_s
    return values


@dataclass
class Outcome:
    """One child process: its record (None if it produced none) and why it failed, if it did."""

    argv: list[str]
    record: dict | None
    failure: str | None
    digest: str | None = None
    document_bytes: int = 0
    trace: dict | None = None


class Runner:
    """Starts children one at a time and judges each one.

    ``src`` is the directory the children import boolekit from.
    """

    def __init__(self, work: Path, src: Path = SRC) -> None:
        self.src = src
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        work.mkdir(parents=True, exist_ok=True)
        self.document = work / "document.txt"
        self.record = work / "record.json"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )
        # Documents never depend on string hashing; fixing it removes one
        # source of process-to-process timing noise.
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_document: tuple[list[str], str] | None = None

    def child(self, mode: str, argv: list[str], run_id: str = "-") -> Outcome:
        """Run one child process to completion, time the calibration kernel, and judge the child."""
        for stale in (self.record, Path(f"{self.record}.trace")):
            stale.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "child.py"), mode, str(self.record), run_id, "--", *argv]
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.document, "wb") as stdout:
            try:
                done = subprocess.run(
                    command, stdout=stdout, stderr=subprocess.PIPE,
                    env=self.env, cwd=ROOT, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return self._count(Outcome(argv, None, f"no result within {timeout:.0f} s"))
        kernel_s = kernel_seconds()
        if done.returncode != 0 or done.stderr:
            failure = f"exit code {done.returncode}, stderr {done.stderr[-400:]!r}"
            return self._count(Outcome(argv, None, failure))
        try:
            record = json.loads(self.record.read_text(encoding="utf-8"))
            trace = None
            if mode == "trace":
                trace = json.loads(Path(f"{self.record}.trace").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return self._count(Outcome(argv, None, f"no record: {exc}"))
        record["kernel_s"] = kernel_s
        return self.judge(mode, argv, record, self.document.read_bytes(), trace)

    def judge(self, mode: str, argv: list[str], record: dict, document: bytes,
              trace: dict | None = None) -> Outcome:
        """Count a child that exited cleanly.

        It still fails if boolekit was imported from outside this checkout's
        sources or if the oracle rejects its document.
        """
        if not Path(record["module"]).resolve().is_relative_to(self.src):
            return self._count(Outcome(argv, None, f"boolekit imported from {record['module']}"))
        if mode == "setup":
            return self._count(Outcome(argv, record, None))
        text = document.decode("utf-8").removesuffix("\n")
        rejection = oracle.check(argv, text)
        if rejection is not None:
            return self._count(Outcome(argv, None, f"document rejected: {rejection}"))
        if self.first_document is None:
            self.first_document = (argv, text)
        digest = hashlib.sha256(document).hexdigest()
        return self._count(Outcome(argv, record, None, digest, len(document), trace))

    def _count(self, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if outcome.failure is not None:
            self.failed += 1
            self.failures.append(f"{' '.join(outcome.argv)}: {outcome.failure}")
        return outcome

    def oracle_rejects_tampering(self) -> bool:
        """The oracle must reject the first accepted document once one expected value is changed."""
        if self.first_document is None:
            return False
        argv, document = self.first_document
        return oracle.check(argv, oracle.tamper(argv, document)) is not None


def scaled(record: dict, key: str) -> float:
    """A time from a child's record, scaled to the speed at which the calibration kernel takes REFERENCE_S.

    ``kernel_s`` is the kernel's time in the runner right after that child ended.
    """
    return record[key] * REFERENCE_S / record["kernel_s"]


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile and sample count, as reported in results files."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool, work: Path) -> dict:
    """One benchmark run: warm-up, set-up probes, then repetitions for ``seconds``.

    In a traced run each repetition is an untraced child followed by a
    traced one on the same arguments; their difference is the overhead.
    """
    runner = Runner(work)
    argvs = workload.argvs(seed, smoke)
    first = next(argvs)
    runner.child("setup", first)  # compiles bytecode and warms the file cache; not timed
    setups = [runner.child("setup", first) for _ in range(SETUP_PROBES)]
    reps: list[tuple[Outcome, Outcome | None]] = []
    began = time.perf_counter()
    for rep, argv in enumerate(itertools.chain([first], argvs)):
        plain = runner.child("run", argv)
        traced = runner.child("trace", argv, f"{workload.name}-{seed}-{rep}") if trace else None
        reps.append((plain, traced))
        if time.perf_counter() - began >= seconds:
            break
    tamper_rejected = runner.oracle_rejects_tampering()
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:20],
        "tampered_document_rejected": tamper_rejected,
        "correct": runner.failed == 0 and tamper_rejected,
        "repetitions": [
            {"argv": plain.argv, "sha256": plain.digest,
             "run_s": plain.record["run_s"] if plain.record else None}
            for plain, _ in reps
        ],
        "samples": {},
        "metrics": {},
    }
    outcomes = setups + [o for pair in reps for o in pair if o is not None]
    records = [o.record for o in outcomes if o.failure is None]
    good = [plain.record for plain, _ in reps if plain.failure is None]
    result["wall"] = {
        key: quartiles(values)
        for key, values in (("run_s", [r["run_s"] for r in good]),
                            ("setup_s", [r["setup_s"] for r in records]),
                            ("kernel_s", [r["kernel_s"] for r in records]))
        if values
    }
    if trace:
        samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
        for plain, traced in reps:
            if plain.failure is None and traced.failure is None:
                speed = REFERENCE_S / traced.record["kernel_s"]
                values = layer_metrics(traced.trace, traced.record["run_s"])
                for name, value in values.items():
                    samples[name].append(value * speed if PER_LAYER[name] == "s" else value)
                samples["cli.document_bytes"].append(traced.document_bytes)
                samples["trace.overhead_s"].append(
                    scaled(traced.record, "run_s") - scaled(plain.record, "run_s")
                )
        samples["cli.import_s"] = [scaled(r, "import_s") for r in records]
        samples["cli.parse_s"] = [scaled(r, "parse_s") for r in records]
        units = PER_LAYER
    else:
        samples = {
            "run_s": [scaled(r, "run_s") for r in good],
            "setup_s": [scaled(r, "setup_s") for r in records],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in good],
        }
        units = END_TO_END
    if all(samples.values()):
        result["samples"] = {name: quartiles(values) for name, values in samples.items()}
        result["metrics"] = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in units.items()
        }
    return result


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def provenance(seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": git_commit(ROOT),
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "loadavg_start": loadavg(),
        "seed": seed,
        "note": f"Timings are per process on a machine shared with other work, with "
                f"{nproc} CPUs and no CPU pinning; no system setting was changed to take them.",
    }


def describe(result: dict) -> str:
    """One human-readable line for a run."""
    head = (f"{result['workload']}: error_rate {result['failed']}/{result['attempted']}"
            f" = {result['failed'] / result['attempted']:.3g}")
    samples = result["samples"]
    if not result["trace"]:
        parts = [
            f"{name} {s['median']:.4g} {END_TO_END[name]} (q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, n={s['n']})"
            for name, s in samples.items()
        ]
        return "; ".join([head] + parts)
    if not samples:
        return head
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    layers = ", ".join(f"{layer} {m[layer + '.self_s']:.3g} s" for layer in _LAYERS)
    functions = sorted(
        (name for name in m if name.endswith(".self_s") and name.count(".") == 2),
        key=lambda name: -m[name],
    )
    top = ", ".join(f"{name} {m[name]:.3g} s" for name in functions[:5])
    return (f"{head}; traced self time by layer: {layers}; top functions: {top};"
            f" overhead {m['trace.overhead_s']:.3g} s, coverage {m['trace.coverage']:.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check the harness itself")
    args = parser.parse_args(argv)
    if not (SRC / "boolekit" / "cli.py").is_file():
        print(f"boolekit sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tag = f"seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    results = []
    for name in names:
        run_dir = OUT / f"{name}-{tag}"
        info = provenance(args.seed)
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.smoke, run_dir)
        info["loadavg_end"] = loadavg()
        result["provenance"] = info
        (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(describe(result), flush=True)
        results.append(result)
    if any(not r["metrics"] for r in results):
        print("no repetition succeeded; no metrics to report", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
