"""Seeded benchmark for reconfig-sim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is plan_large, sweep_mid, oracle_small, cli_bundled, or all.  Inputs
come from the seed alone; the package sees only the generated JSON text.
Every workload is a closed loop with one client.  Library workloads run in
a fresh interpreter each (perfbench/worker.py); cli_bundled starts one
`python -m reconfig_sim.cli` process per command from a small
perfbench/cli_worker.py process.  The package is taken from src/ of the
checkout, unmodified and uninstalled.  perfbench/NOTE.md describes every
metric.

Host metrics are time or memory on this machine; simulated metrics are
milliseconds on the modelled device, which no hardware measurement has
validated.  With --trace 0 the last line of output holds the end-to-end
metrics, with --trace 1 the per-layer metrics from a traced run.  Outputs
and span dumps go under .perfbench-out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("plan_large", "sweep_mid", "oracle_small", "cli_bundled")
SETUP_RUNS = 8  # on each side of the timed run
# setup_s is given at the host speed at which a bare interpreter starts in
# this time, about the median on the machine the benchmark was developed on
BARE_START_S = 0.08
PROBE_RUNS = 5
P90_MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 60
PACKAGE_MODULES = ("analyzer", "model", "costmodel", "emulator", "optimizer", "harness", "cli")


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("RECONFIG_SIM_THREADS", None)
    return env


def run_child(cmd: list[str], timeout: float = CHILD_TIMEOUT_S, cwd: Path = ROOT) -> str:
    done = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def make_inputs(workload: str, seed: int, input_dir: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "plan_large":
        docs = [gen.scenario(rng, 2000, 12)]
    elif workload == "sweep_mid":
        docs = [gen.scenario(rng, 300, 8)]
    elif workload == "oracle_small":
        docs = [gen.oracle_instance(rng, i) for i in range(20)]
    else:
        docs = [gen.scenario(rng, 100, 8)]
    input_dir.mkdir()
    for i, doc in enumerate(docs):
        (input_dir / f"{i:02d}.json").write_text(json.dumps(doc), encoding="utf-8")
    return docs


def wall_s(cmd: list[str]) -> float:
    start = time.perf_counter()
    run_child(cmd)
    return time.perf_counter() - start


def setup_samples(workload: str, input_dir: Path, runs: int) -> list[tuple[float, float]]:
    """Import plus one-time package work in fresh interpreters.

    Returns (seconds at the BARE_START_S host speed, plain seconds) per
    sample.  Each probe is weighed against the bare interpreter starts
    timed right before and after it: the host's speed changes by up to a
    factor of two between runs, and process start-up follows it the way
    an import does.  Half the samples are taken before the timed run and
    half after it, so that their median spans the run.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(input_dir)]
    bare = [wall_s([sys.executable, "-c", "pass"])]
    samples = []
    for _ in range(runs):
        probe = float(run_child(cmd))
        bare.append(wall_s([sys.executable, "-c", "pass"]))
        samples.append((probe * 2 * BARE_START_S / (bare[-2] + bare[-1]), probe))
    return samples


def setup_result(samples: list[tuple[float, float]]) -> dict[str, float]:
    return {"setup_s": statistics.median(s for s, _ in samples),
            "setup_plain_s": statistics.median(plain for _, plain in samples)}


def cli_probes() -> dict[str, float]:
    """Interpreter start, package import, and -X importtime self times."""
    python = sys.executable
    bare = statistics.median(wall_s([python, "-c", "pass"]) * 1e3 for _ in range(PROBE_RUNS))
    imported = statistics.median(
        wall_s([python, "-c", "import reconfig_sim"]) * 1e3 for _ in range(PROBE_RUNS))
    samples: dict[str, list[float]] = {}
    for _ in range(PROBE_RUNS):
        # -S: without the site hook, whose .pth files may preload modules the
        # package imports, every import is charged to the module that makes it
        done = subprocess.run([python, "-S", "-X", "importtime", "-c", "import reconfig_sim.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
            if name == "importlib.resources":
                # its own body is tiny; what it costs is what it pulls in
                samples.setdefault(name, []).append(int(cumulative_us) / 1e3)
            elif name == "reconfig_sim" or name.startswith("reconfig_sim."):
                short = name.removeprefix("reconfig_sim.")
                samples.setdefault(short, []).append(int(self_us) / 1e3)
    metrics = {"cli.interpreter_ms": bare, "cli.import_ms": imported - bare}
    for name in ("reconfig_sim", *PACKAGE_MODULES, "importlib.resources"):
        metrics[f"cli.import_self_ms.{name}"] = statistics.median(samples.get(name, [0.0]))
    return metrics


def run_cli(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    docs = make_inputs("cli_bundled", seed, tmp / "inputs")
    setup = setup_samples("cli_bundled", tmp / "inputs", 1 + SETUP_RUNS)[1:]
    result_path = tmp / "result.json"
    run_child([sys.executable, str(HERE / "cli_worker.py"), str(tmp / "inputs"), repr(seconds),
               "1" if trace else "0", str(result_path)], timeout=2 * seconds + 150)
    setup += setup_samples("cli_bundled", tmp / "inputs", SETUP_RUNS)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if trace:
        dumps = [json.loads(Path(p).read_text(encoding="utf-8")) for p in result["spans_paths"]]
        (OUT / f"spans-cli_bundled-seed{seed}.json").write_text(json.dumps(dumps), encoding="utf-8")
        result["layers"] = tracer.layer_metrics(dumps)
        result["layers"].update(result["command_ms"])
    result.update(setup_result(setup), input_shares=gen.input_shares(docs + bundled_docs()))
    return result


def bundled_docs() -> list[dict]:
    data = SRC / "reconfig_sim" / "data"
    return [json.loads((data / name).read_text(encoding="utf-8"))
            for name in ("seq2.json", "corpus/q13.json")]


def run_library(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    docs = make_inputs(workload, seed, tmp / "inputs")
    # the first sample also leaves compiled bytecode behind, as an install has
    setup = setup_samples(workload, tmp / "inputs", 1 + SETUP_RUNS)[1:]
    result_path = tmp / "result.json"
    run_child([sys.executable, str(HERE / "worker.py"), workload, str(tmp / "inputs"),
               repr(seconds), "1" if trace else "0", str(result_path)],
              timeout=2 * seconds + 150)
    setup += setup_samples(workload, tmp / "inputs", SETUP_RUNS)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if trace:
        spans = json.loads(Path(result["spans_path"]).read_text(encoding="utf-8"))
        result["layers"] = tracer.layer_metrics([spans])
        shutil.move(result["spans_path"], OUT / f"spans-{workload}-seed{seed}.json")
    result.update(setup_result(setup), input_shares=gen.input_shares(docs))
    return result


# ---------------------------------------------------------------------------
# reporting

END_TO_END = (
    ("wall_ref_p50", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_total_ms", "ms"),
)


def per_layer() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit; per-op figures are means over traced ops."""
    metrics = [("wall_ms_p50", "ms"), ("trace.ops", "count"), ("trace.overhead_ratio", "ratio")]
    for function in tracer.FUNCTIONS:
        metrics += [(f"{function}.self_ms", "ms/op"), (f"{function}.calls", "count/op")]
    metrics += [("emulator.spans", "count/op"), ("emulator.trace_bytes", "bytes/op"),
                ("optimizer.emulations_per_optimize", "ratio"),
                ("harness.candidate_builds_per_point", "ratio"),
                ("model.validations_per_emulation", "ratio"),
                ("emulator.us_per_span", "us"),
                ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms")]
    metrics += [(f"cli.import_self_ms.{m}", "ms")
                for m in ("reconfig_sim", *PACKAGE_MODULES, "importlib.resources")]
    metrics += [(f"cli.command_ms.{c}", "ms") for c in ("optimize", "simulate", "sweep", "verify")]
    metrics += [("device.reconfigs", "count"), ("device.reconfigs_speculative", "count")]
    metrics += [(f"device.{lane}_busy_ms", "ms") for lane in checks.LANES]
    metrics += [(f"input.{share}", "ratio") for share in
                ("pair_reuse_share", "hide_window_covers_share", "derived_invocation_share")]
    return metrics


def report(workload: str, result: dict, trace: bool) -> dict[str, dict]:
    """Print a readable summary and return the metrics for the JSON line."""
    samples = result["samples_ms"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}: {len(samples)} timed operations, "
          f"{attempted} attempted, {failed} failed")
    for error in result["errors"]:
        print(f"   FAIL {error}")
    if not trace:
        metrics = {
            "wall_ref_p50": statistics.median(result["relative"]),
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "sim_total_ms": result["sim_total_ms"],
        }
        notes = {"wall_ref_p50": f"host, operation wall time in reference units, n={len(samples)}",
                 "setup_s": f"host, median of {2 * SETUP_RUNS} fresh interpreters, "
                            f"at a {BARE_START_S * 1e3:.0f} ms bare start",
                 "peak_rss_mb": "host, peak resident memory",
                 "sim_total_ms": "simulated, deterministic"}
        for name, unit in END_TO_END:
            print(f"   {name:<14} {metrics[name]:>14.4f} {unit:<4} ({notes[name]})")
        print(f"   {'wall_ms_p50':<14} {statistics.median(samples):>14.4f} ms   "
              f"(host, n={len(samples)})")
        print(f"   {'setup_plain_s':<14} {result['setup_plain_s']:>14.4f} s    "
              "(host, setup_s in plain seconds)")
        if len(samples) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(samples, n=10)[-1]
            print(f"   {'wall_ms_p90':<14} {p90:>14.4f} ms   (host, n={len(samples)})")
        print(f"   {'error_rate':<14} {failed / attempted:>14.4f}      ({failed}/{attempted})")
        return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    values = dict(result["layers"])
    values.update(cli_probes())
    values.update(result["device"])
    values.update(result["input_shares"])
    values["trace.overhead_ratio"] = result["overhead"]
    values["wall_ms_p50"] = statistics.median(samples)
    metrics = {}
    for name, unit in per_layer():
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        print(f"   {name:<48} {metrics[name]['value']:>14.4f} {unit}")
    print(f"   {'error_rate':<48} {failed / attempted:>14.4f} ({failed}/{attempted})")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reconfig_sim" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'reconfig_sim'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        try:
            if workload == "cli_bundled":
                result = run_cli(args.seed, args.seconds, bool(args.trace), tmp)
            else:
                result = run_library(workload, args.seed, args.seconds, bool(args.trace), tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, metric in report(workload, result, bool(args.trace)).items():
            metrics[prefix + name] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
