"""Library workloads, each run in a fresh interpreter that does nothing else.

    python3 perfbench/worker.py WORKLOAD INPUT_DIR SECONDS TRACE RESULT_JSON

The worker sets up from the input texts alone, then repeats the operation
in a closed loop (one client, next operation after the previous one
returns) for SECONDS.  Every output must equal the first output of the same
input.  Only then does it read its peak memory and parse anything for the
checks: one untimed pass over the distinct inputs with full checks, whose
outputs must equal the timed ones.  With TRACE 1 the loop time is split: an
untraced half, then a traced half under tracer.Tracer.  The result goes to
RESULT_JSON.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reconfig_sim as rs
from reconfig_sim import harness, model, optimizer

import checks
import reference
import tracer
from setup_probe import package_setup

SWEEP_SCALES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
SWEEP_GAPS = (0.0, 2.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0)


class PlanLarge:
    """load -> optimize(auto) -> outcome document -> emulate -> trace, per iteration."""

    ref_units = 120

    def setup(self, texts):
        self.text = texts[0]
        return 1

    def op(self, i):
        s = rs.load_scenario(self.text)
        yield
        outcome = rs.optimize(s, "auto")
        yield
        doc_text = json.dumps(optimizer.outcome_document(s, outcome), indent=2) + "\n"
        yield
        report = rs.execute_schedule(s, outcome.schedule)
        trace = rs.emit_trace(report)
        return s, outcome, doc_text, report, trace

    def full_check(self, i, out, errors):
        s, outcome, doc_text, report, trace = out
        doc = json.loads(doc_text)
        missing = [key for key in checks.OUTCOME_KEYS if key not in doc]
        if missing:
            errors.append(f"outcome document lacks {missing}")
            return None
        orders, prefetches = checks.schedule_from_outcome(doc)
        scenario_doc = json.loads(self.text)
        checks.check_schedule(scenario_doc, orders, prefetches, doc["total_ms"], "auto", errors)
        if doc["strategy"] != outcome.strategy or report.total_ms != outcome.total_ms:
            errors.append("outcome document, emulation and optimize disagree")
        totals = check_candidates(s, optimizer.candidate_schedules(s), scenario_doc, errors)
        if outcome.total_ms != min(totals.values()):
            errors.append(f"auto total {outcome.total_ms!r} is not the best of {totals}")
        records = json.loads(trace)
        if len(records) != len(report.spans) or max(r["end_ms"] for r in records) != report.total_ms:
            errors.append("trace does not match the emulated timeline")
        device = checks.device_stats(
            (sp.lane, sp.start_ms, sp.end_ms, sp.query_id) for sp in report.spans)
        return {"sim_total_ms": outcome.total_ms, "device": device}

    def digest(self, out):
        return checks.sha256(out[2] + out[4])


class SweepMid:
    """One two-axis sweep: 8 scale factors then 8 gaps, all five strategies."""

    ref_units = 80

    def setup(self, texts):
        self.text = texts[0]
        self.s = package_setup(rs, "sweep_mid", texts)
        return 1

    def op(self, i):
        scales = rs.run_sweep(self.s, rs.SweepSpec("scale_factor", SWEEP_SCALES))
        yield  # one step per axis, so host speed is tracked twice per sweep
        return scales + rs.run_sweep(self.s, rs.SweepSpec("gap_ms", SWEEP_GAPS))

    def full_check(self, i, csv, errors):
        rows: dict[tuple[str, str], dict[str, float]] = {}
        for line in csv.splitlines():
            if line.startswith("axis,"):
                continue
            axis, value, strategy, total, _ = line.split(",")
            rows.setdefault((axis, value), {})[strategy] = float(total)
        sim_total = 0.0
        for (axis, value), totals in rows.items():
            auto = totals["auto"]
            sim_total += auto
            if any(auto > totals[name] for name in optimizer.FIXED_STRATEGIES):
                errors.append(f"{axis}={value}: auto loses to a fixed strategy: {totals}")
            # rebuild the point from the document, independently of harness
            doc = json.loads(self.text)
            if axis == "scale_factor":
                doc["scale_factor"] = float(value)
            else:
                for q in doc["sequence"][:-1]:
                    q["gap_after_ms"] = float(value)
            s = rs.load_scenario(json.dumps(doc))
            best = min(check_candidates(s, optimizer.candidate_schedules(s), doc, errors).values())
            if not checks.close(auto, best, checks.CSV_REL_TOL):
                errors.append(f"{axis}={value}: auto row {auto!r} is not the best candidate {best!r}")
        if len(rows) != len(SWEEP_SCALES) + len(SWEEP_GAPS):
            errors.append(f"sweep produced {len(rows)} points")
        report = rs.execute_schedule(self.s, rs.optimize(self.s, "auto").schedule)
        device = checks.device_stats(
            (sp.lane, sp.start_ms, sp.end_ms, sp.query_id) for sp in report.spans)
        return {"sim_total_ms": sim_total, "device": device}

    def digest(self, out):
        return checks.sha256(out)


class OracleSmall:
    """optimize(oracle) and optimize(auto) on one instance at the size guard."""

    ref_units = 20

    def setup(self, texts):
        self.texts = texts
        self.instances = package_setup(rs, "oracle_small", texts)
        return len(texts)

    def op(self, i):
        s = self.instances[i % len(self.instances)]
        return rs.optimize(s, "oracle"), rs.optimize(s, "auto")
        yield  # one step: the auto half is too short to time on its own

    def full_check(self, i, out, errors):
        oracle, auto = out
        s, doc = self.instances[i], json.loads(self.texts[i])
        if oracle.total_ms > auto.total_ms:
            errors.append(f"instance {i}: oracle {oracle.total_ms!r} worse than auto {auto.total_ms!r}")
        for outcome in out:
            checks.check_schedule(doc, outcome.schedule.orders, outcome.schedule.prefetches,
                                  outcome.total_ms, f"instance {i} {outcome.strategy}", errors)
        totals = check_candidates(s, optimizer.candidate_schedules(s), doc, errors)
        if auto.total_ms != min(totals.values()):
            errors.append(f"instance {i}: auto is not the best of {totals}")
        report = rs.execute_schedule(s, oracle.schedule)
        if report.total_ms != oracle.total_ms:
            errors.append(f"instance {i}: oracle total does not replay")
        device = checks.device_stats(
            (sp.lane, sp.start_ms, sp.end_ms, sp.query_id) for sp in report.spans)
        return {"sim_total_ms": oracle.total_ms, "device": device}

    def digest(self, out):
        return repr([(o.strategy, o.total_ms, o.schedule) for o in out])


WORKLOADS = {"plan_large": PlanLarge, "sweep_mid": SweepMid, "oracle_small": OracleSmall}


def check_candidates(s, schedules, doc, errors) -> dict[str, float]:
    """Emulator, closed form and reference model agree on every candidate."""
    totals = {}
    for name, schedule in schedules.items():
        emulated = rs.execute_schedule(s, schedule).total_ms
        closed = rs.analytic_total(s, schedule)
        if not checks.close(emulated, closed):
            errors.append(f"{name}: emulated {emulated!r} differs from closed form {closed!r}")
        checks.check_schedule(doc, schedule.orders, schedule.prefetches, emulated, name, errors)
        totals[name] = emulated
    return totals


def golden_texts() -> dict[str, str]:
    """Library outputs on bundled scenarios whose digests digests.json records."""
    schedules = {}
    for name in harness.bundled_names():
        s = rs.load_bundled(name)
        schedules[name] = {strategy: model.schedule_to_doc(s, sch)
                           for strategy, sch in optimizer.candidate_schedules(s).items()}
    seq2 = rs.load_bundled("seq2")
    outcome = json.dumps(optimizer.outcome_document(seq2, rs.optimize(seq2, "auto")), indent=2)
    q13 = rs.load_bundled("corpus/q13")
    return {
        "fixed_schedules": json.dumps(schedules, sort_keys=True),
        "outcome_seq2": checks.outcome_today(outcome),
        "sweep_seq2": rs.run_sweep(seq2, rs.SweepSpec("scale_factor", (0.25, 0.5, 1.0, 2.0))),
        "trace_q13": rs.emit_trace(rs.execute_schedule(q13, rs.identity_schedule(q13))),
    }


def golden_errors() -> list[str]:
    errors: list[str] = []
    for key, text in golden_texts().items():
        checks.expect_digest(key, text, errors)
    for name, problems in rs.verify_corpus():
        if problems:
            errors.append(f"verify_corpus {name}: {problems}")
    return errors


def run_steps(op) -> object:
    """Drive an operation's steps without timing; return its output."""
    try:
        while True:
            next(op)
    except StopIteration as stop:
        return stop.value


class Loop:
    """The closed loop plus the per-operation bookkeeping of one worker.

    A workload's op is a generator whose yields split it into steps.  The
    reference unit runs before the first step, between steps and after the
    last, and each step is weighed against the reference times around it,
    so a change in host speed during a long operation is tracked closely.
    """

    def __init__(self, workload, distinct: int):
        self.workload = workload
        self.distinct = distinct
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}  # first timed output of each input
        self.reference: list[dict | None] = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def checked_pass(self):
        """One untimed pass over the distinct inputs, fully checked.

        It runs after the timed loop, so that the loop's peak memory is the
        package's alone, and its outputs must equal the timed ones.
        """
        for i in range(self.distinct):
            self.attempted += 1
            errors: list[str] = []
            try:
                out = run_steps(self.workload.op(i))
                summary = self.workload.full_check(i, out, errors)
                if self.digests.get(i) not in (None, self.workload.digest(out)):
                    errors.append(f"op {i}: timed output differs from the checked one")
            except Exception as exc:  # an operation that raises is a failed operation
                summary, errors = None, [f"op {i}: {type(exc).__name__}: {exc}"]
            if errors:
                self.fail("; ".join(errors))
            self.reference.append(summary)

    def _timed_op(self, k: int) -> tuple[object, float, float]:
        """Run op k; return its output, wall seconds and cost in reference units."""
        units = self.workload.ref_units
        op = self.workload.op(k)
        refs = [reference.seconds(units)]
        steps = []
        while True:
            start = time.perf_counter()
            try:
                next(op)
            except StopIteration as stop:
                steps.append(time.perf_counter() - start)
                refs.append(reference.seconds(units))
                out = stop.value
                break
            steps.append(time.perf_counter() - start)
            refs.append(reference.seconds(units))
        relative = sum(step * 2 * units / (refs[j] + refs[j + 1]) for j, step in enumerate(steps))
        return out, sum(steps), relative

    def timed(self, seconds: float, trace: tracer.Tracer | None = None) -> tuple[list, list]:
        """Repeat the operation for `seconds`; return wall ms and reference units per op."""
        samples, relative = [], []
        i = 0
        deadline = time.perf_counter() + seconds
        while True:
            k = i % self.distinct
            self.attempted += 1
            if trace is not None:
                trace.op = i
            try:
                out, elapsed, cost = self._timed_op(k)
            except Exception as exc:
                self.fail(f"op {i}: {type(exc).__name__}: {exc}")
            else:
                samples.append(elapsed * 1e3)
                relative.append(cost)
                digest = self.workload.digest(out)
                del out  # not alive while the next operation runs
                if self.digests.setdefault(k, digest) != digest:
                    self.fail(f"op {i}: output differs from the first output of its input")
            finally:
                if trace is not None:
                    trace.op = tracer.OUTSIDE_OPS
            i += 1
            if time.perf_counter() >= deadline:
                return samples, relative

    def totals(self) -> tuple[float | None, dict]:
        if any(r is None for r in self.reference):
            return None, {}
        device: dict[str, float] = {}
        for r in self.reference:
            checks.add_stats(device, r["device"])
        return sum(r["sim_total_ms"] for r in self.reference), device


def peak_rss_kib() -> int:
    """This process's own peak resident memory.

    VmHWM covers only the memory image since exec.  getrusage's ru_maxrss
    also counts the parent's peak at the moment it spawned this process,
    which would hide a worker smaller than the process that started it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    name, input_dir, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"
    texts = [p.read_text(encoding="utf-8") for p in sorted(Path(input_dir).glob("*.json"))]
    workload = WORKLOADS[name]()
    loop = Loop(workload, workload.setup(texts))
    result: dict = {}
    samples, relative = loop.timed(seconds / 2 if trace else seconds)
    if not trace:
        result["peak_rss_mb"] = peak_rss_kib() / 1024
    loop.checked_pass()
    sim_total, device = loop.totals()
    golden = golden_errors()
    loop.attempted += 1
    if golden:
        loop.fail("; ".join(golden))
    result.update(samples_ms=samples, relative=relative, sim_total_ms=sim_total, device=device)
    if trace:
        t = tracer.Tracer()
        t.install()
        traced_loop = Loop(workload, loop.distinct)
        traced_loop.digests.update(loop.digests)  # tracing must not change an output
        traced_samples, traced_relative = traced_loop.timed(seconds / 2, t)
        traced_loop.checked_pass()
        traced_total, traced_device = traced_loop.totals()
        loop.attempted += traced_loop.attempted
        loop.failed += traced_loop.failed
        loop.errors += traced_loop.errors
        if (traced_total, traced_device) != (sim_total, device):
            loop.fail("sim_total_ms or device.* changed under tracing")
        spans_path = str(Path(result_path).with_suffix(".spans.json"))
        t.dump(spans_path, len(traced_samples))
        result.update(spans_path=spans_path, overhead=statistics.median(traced_relative)
                      / statistics.median(relative))
    result.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
