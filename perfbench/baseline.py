"""Run every workload on several seeds and write the medians to a BENCH_*.json.

    python3 perfbench/baseline.py --out perfbench/BENCH_baseline.json

Each run is `run.py --trace 0` in its own process, for the run_seconds of
BENCHMARK.json, on seeds 1 to 10.  For every workload and end-to-end metric
the file holds the median, the quartiles and IQR/median over the seeds,
plus the printed wall_ms_p50, setup_plain_s and wall_ms_p90 (where a run
timed 100 operations), and every run's values.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
PRINTED = ("wall_ms_p50", "wall_ms_p90", "setup_plain_s")


def one_run(workload: str, seed: int, seconds: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for line in lines:
        parts = line.split()
        if parts and parts[0] in PRINTED:
            values[parts[0]] = float(parts[1])
    values["failed"] = result["failed"]
    values["attempted"] = result["attempted"]
    return values


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values), "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": len(os.sched_getaffinity(0)),
              "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(one_run(workload, seed, seconds))
            print(workload, seed, runs[-1], flush=True)
        names = sorted({name for run in runs for name in run} - {"failed", "attempted"})
        report["workloads"][workload] = {
            "metrics": {name: summary([run[name] for run in runs if name in run])
                        for name in names if sum(name in run for run in runs) >= 2},
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
