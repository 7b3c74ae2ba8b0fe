"""Repeat the benchmark over many seeds and check that it is steady.

    python3 perfbench/prove.py --output perfbench/results/BENCH_<name>.json

Run from the repository root.  It makes two sets of runs; each set runs every
workload of BENCHMARK.json once for each of the seeds 1 to 10 (seeds outer,
workloads inner, so slow drift in machine load reaches every workload alike)
with the settings of BENCHMARK.json, exactly as ``perfbench/run.py`` is run
from outside.  Then it makes one traced run per workload with seed 1.

For each end-to-end metric it reports each set's ten-run median and spread,
(q3 - q1) / median with the quartiles of ``statistics.quantiles(values, n=4)``,
and how far the second median moved from the first.  The benchmark is steady
when every spread is at most a third of the metric's bound and every move is
at most the bound, either way.  The results file holds every run's metrics,
the verdict and the provenance; the exit status is 0 only if every run was
correct and the benchmark was steady.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
SEEDS = range(1, 11)
SETS = 2
TRACED_SEED = 1


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    print(lines[-2], flush=True)
    last = json.loads(lines[-1])
    detail = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text())
    reps = detail["repetitions"]
    return {
        "seed": seed,
        **last,
        "samples": detail["samples"],
        "wall": detail["wall"],
        "loadavg": [detail["provenance"]["loadavg_start"], detail["provenance"]["loadavg_end"]],
        "repetitions": len(reps),
        # Later repetitions draw their arguments from the same seeded sequence.
        "first_argv": reps[0]["argv"],
        "first_sha256": reps[0]["sha256"],
    }


def spread(values: list[float]) -> dict:
    stats = run.quartiles(values)
    return {**stats, "spread": (stats["q3"] - stats["q1"]) / stats["median"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    info = run.provenance(SEEDS[0])
    info["seeds"] = list(SEEDS)
    sets = []
    for _ in range(SETS):
        runs = {name: [] for name in workloads}
        for seed in SEEDS:
            for name in workloads:
                runs[name].append(one_run(name, seed, spec["run_seconds"], 0))
        sets.append(runs)
    traced = {name: one_run(name, TRACED_SEED, spec["run_seconds"], 1) for name in workloads}
    info["loadavg_end"] = run.loadavg()

    summary = {}
    steady = True
    for name in workloads:
        summary[name] = {}
        for metric, bound in bounds.items():
            stats = [spread([r["metrics"][metric]["value"] for r in runs[name]]) for runs in sets]
            change = stats[1]["median"] / stats[0]["median"] - 1
            ok = all(s["spread"] <= bound / 3 for s in stats) and abs(change) <= bound
            summary[name][metric] = {"bound": bound, "sets": stats, "median_change": change, "steady": ok}
            steady = steady and ok
            print(f"{name:18} {metric:12} bound {bound:<5} "
                  + " ".join(f"median {s['median']:.5g} spread {s['spread']:.4f}" for s in stats)
                  + f" change {change:+.4f}" + ("" if ok else "  <-- over"))
        walls = [spread([r["wall"]["run_s"]["median"] for r in runs[name]]) for runs in sets]
        summary[name]["wall_run_s"] = {"sets": walls}
        print(f"{name:18} {'wall run_s':12} (unscaled)  "
              + " ".join(f"median {s['median']:.5g} spread {s['spread']:.4f}" for s in walls))
    attempted = sum(r["attempted"] for runs in sets for rs in runs.values() for r in rs)
    failed = sum(r["failed"] for runs in sets for rs in runs.values() for r in rs)
    correct = all(r["correct"] for runs in sets for rs in runs.values() for r in rs)
    print(f"runs correct: {correct}; error_rate {failed}/{attempted}; steady: {steady}")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps({
        "provenance": info,
        "benchmark": spec,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "steady": steady,
        "summary": summary,
        "runs": sets,
        "traced": traced,
    }, indent=2) + "\n")
    return 0 if correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
