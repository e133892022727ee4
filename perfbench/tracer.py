"""Per-layer tracing from outside the package.

Tracer.install wraps the public functions listed in LAYERS and rebinds each
wrapper in every reconfig_sim module that holds the original, since modules
bind functions with `from .x import f` (optimizer.execute_schedule,
harness.execute_schedule, cli.execute_schedule and the package namespace all
name the same function).  Spans stay in memory with a parent link and the
operation id current when they opened, and are written out once at the end.

Run as a script, it executes one CLI command under the tracer:

    python3 perfbench/tracer.py SPANS_JSON -- simulate corpus/q13 --trace out.json
"""
from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "model": ("load_scenario", "validate_schedule", "schedule_to_doc"),
    "analyzer": ("parse_predicate", "baseline_order", "find_common_accelerators",
                 "generate_hints"),
    "costmodel": ("propagate_volumes",),
    "optimizer": ("optimize", "candidate_schedules", "apply_reorder", "apply_speculative",
                  "exhaustive_oracle", "outcome_document"),
    "emulator": ("execute_schedule", "analytic_total", "emit_trace"),
    "harness": ("run_sweep", "with_scale_factor", "with_gaps", "verify_corpus",
                "load_bundled"),
}
FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
OUTSIDE_OPS = -1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_s, end_s, parent index, op id]
        self.counts = {"emulator.spans": 0, "emulator.trace_bytes": 0}
        self.op = OUTSIDE_OPS
        self._stack: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if self.op != OUTSIDE_OPS:
                if name == "emulator.execute_schedule":
                    self.counts["emulator.spans"] += len(result.spans)
                elif name == "emulator.emit_trace":
                    self.counts["emulator.trace_bytes"] += len(result.encode("utf-8"))
            return result
        return wrapper

    def install(self):
        """Wrap every function in LAYERS wherever the package bound it."""
        import importlib

        modules = [importlib.import_module(f"reconfig_sim.{m}") for m in (*LAYERS, "cli")]
        modules.append(importlib.import_module("reconfig_sim"))
        for qualified in FUNCTIONS:
            module_name, name = qualified.split(".")
            original = getattr(importlib.import_module(f"reconfig_sim.{module_name}"), name)
            wrapper = self.span(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path: str, ops: int):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"ops": ops, "counts": self.counts, "spans": self.spans}, f)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Self time and calls per operation for every traced function.

    Self time is a span's duration minus its child spans; spans opened
    outside a timed operation (set-up, checks) are left out.
    """
    self_s = dict.fromkeys(FUNCTIONS, 0.0)
    inclusive_s = dict.fromkeys(FUNCTIONS, 0.0)
    calls = dict.fromkeys(FUNCTIONS, 0)
    counts = {"emulator.spans": 0, "emulator.trace_bytes": 0}
    ops = 0
    for dump in dumps:
        ops += dump["ops"]
        for key in counts:
            counts[key] += dump["counts"][key]
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, parent, op), children in zip(spans, child_s):
            if op == OUTSIDE_OPS:
                continue
            calls[name] += 1
            inclusive_s[name] += end - start
            self_s[name] += end - start - children
    per_op = max(ops, 1)
    metrics: dict[str, float] = {"trace.ops": ops}
    for name in FUNCTIONS:
        metrics[f"{name}.self_ms"] = self_s[name] * 1e3 / per_op
        metrics[f"{name}.calls"] = calls[name] / per_op
    for key, value in counts.items():
        metrics[key] = value / per_op

    def ratio(a, b):
        return a / b if b else 0.0

    emulations = calls["emulator.execute_schedule"]
    points = calls["harness.with_scale_factor"] + calls["harness.with_gaps"]
    metrics["optimizer.emulations_per_optimize"] = ratio(emulations, calls["optimizer.optimize"])
    metrics["harness.candidate_builds_per_point"] = ratio(
        calls["optimizer.candidate_schedules"], points)
    metrics["model.validations_per_emulation"] = ratio(
        calls["model.validate_schedule"], emulations + calls["emulator.analytic_total"])
    metrics["emulator.us_per_span"] = ratio(
        inclusive_s["emulator.execute_schedule"] * 1e6, counts["emulator.spans"])
    return metrics


def _run_cli(argv: list[str]) -> int:
    spans_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- CLI ARGS...")
    from reconfig_sim import cli

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return cli.cli_dispatch(cli_args)
    finally:
        tracer.dump(spans_path, 1)


if __name__ == "__main__":
    sys.exit(_run_cli(sys.argv[1:]))
