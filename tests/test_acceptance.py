"""Acceptance gate for the emulator and the schedule optimizer.

One test per criterion; each prints a single PASS or FAIL verdict line (run
with -s to see them alongside the pytest report).  Tolerances are pinned
here once: totals match to 1e-9 ms absolute, volumes to 1e-9 relative, and
percentage figures to 1e-7.
"""
import json
import random
import time

from reconfig_sim import harness
from reconfig_sim.costmodel import (
    propagate_volumes,
    reconfig_time,
    scan_time,
    transfer_time,
)
from reconfig_sim.emulator import analytic_total, emit_trace, execute_schedule
from reconfig_sim.harness import SweepSpec, run_sweep
from reconfig_sim.optimizer import (
    FIXED_STRATEGIES,
    apply_speculative,
    candidate_schedules,
    exhaustive_oracle,
    optimize,
    outcome_document,
    plan_baseline,
)

from conftest import make_random_scenario

TOTAL_TOL_MS = 1e-9
PCT_TOL = 1e-7


def _verdict(criterion: str, failures: list[str]):
    status = "FAIL" if failures else "PASS"
    print(f"{status}  {criterion}", flush=True)
    assert not failures, f"{criterion}: " + " | ".join(failures[:8])


def test_criterion_1_closed_form_matches_event_emulation():
    failures = []
    started = time.perf_counter()
    for name in harness.bundled_names():
        s = harness.load_bundled(name)
        for strategy, schedule in candidate_schedules(s).items():
            emulated = execute_schedule(s, schedule).total_ms
            closed = analytic_total(s, schedule)
            if abs(emulated - closed) > TOTAL_TOL_MS:
                failures.append(
                    f"{name}/{strategy}: emulated {emulated!r} vs closed {closed!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"equivalence pass took {elapsed:.3f}s, budget 1s")
    _verdict("criterion 1: closed-form totals equal event emulation (1e-9) on every "
             "bundled scenario", failures)


def test_criterion_2_canonical_totals_and_improvements():
    expected = {
        "seq2": {
            "totals": {"baseline": 110.0, "spec_reconfig": 101.0,
                       "reorder": 103.4, "combined": 103.4},
            "improvements": {"spec_reconfig": 900.0 / 110.0, "reorder": 6.0},
            "per_query": {"baseline": (75.0, 33.0), "spec_reconfig": (75.0, 24.0),
                          "reorder": (77.4, 24.0)},
            "auto": ("spec_reconfig", 101.0),
        },
        "seq2_small": {
            "totals": {"baseline": 62.5, "spec_reconfig": 52.5,
                       "reorder": 49.6, "combined": 49.6},
            "improvements": {"spec_reconfig": 16.0, "reorder": 20.64},
            "per_query": {"baseline": (41.0, 19.5), "reorder": (41.6, 6.0)},
            "auto": ("reorder", 49.6),
        },
    }
    failures = []
    for name, want in expected.items():
        s = harness.load_bundled(name)
        schedules = candidate_schedules(s)
        for strategy, total in want["totals"].items():
            outcome = optimize(s, strategy)
            if abs(outcome.total_ms - total) > TOTAL_TOL_MS:
                failures.append(f"{name}/{strategy}: total {outcome.total_ms!r}, want {total}")
        for strategy, pct in want["improvements"].items():
            outcome = optimize(s, strategy)
            if abs(outcome.improvement_pct - pct) > PCT_TOL:
                failures.append(
                    f"{name}/{strategy}: improvement {outcome.improvement_pct!r}, want {pct}")
        for strategy, per_query in want["per_query"].items():
            report = execute_schedule(s, schedules[strategy])
            for i, (got, expected_ms) in enumerate(zip(report.per_query_ms, per_query)):
                if abs(got - expected_ms) > TOTAL_TOL_MS:
                    failures.append(f"{name}/{strategy}: query {i} took {got!r}, "
                                    f"want {expected_ms}")
        auto = optimize(s, "auto")
        if auto.strategy != want["auto"][0] or abs(auto.total_ms - want["auto"][1]) > TOTAL_TOL_MS:
            failures.append(f"{name}/auto: chose {auto.strategy} at {auto.total_ms!r}, "
                            f"want {want['auto']}")
    _verdict("criterion 2: canonical two-query totals, latencies, and improvement "
             "percentages", failures)


def test_criterion_3_strategy_crossover_with_volume():
    failures = []
    s = harness.load_bundled("seq2")

    quarter = harness.with_scale_factor(s, 0.25)
    spec_q = optimize(quarter, "spec_reconfig").total_ms
    reorder_q = optimize(quarter, "reorder").total_ms
    if not reorder_q < spec_q - TOTAL_TOL_MS:
        failures.append(f"reorder should win at 0.25x: {reorder_q!r} vs {spec_q!r}")
    if abs((spec_q - reorder_q) - 2.9) > PCT_TOL:
        failures.append(f"margin at 0.25x is {spec_q - reorder_q!r}, want 2.9")
    reorder_pct = optimize(quarter, "reorder").improvement_pct
    if abs(reorder_pct - 20.64) > PCT_TOL:
        failures.append(f"reorder improvement at 0.25x is {reorder_pct!r}, want 20.64")

    spec_full = optimize(s, "spec_reconfig").total_ms
    reorder_full = optimize(s, "reorder").total_ms
    if not spec_full <= reorder_full + TOTAL_TOL_MS:
        failures.append(f"prefetch should win at 1x: {spec_full!r} vs {reorder_full!r}")

    margins = []
    for i in range(1, 41):
        varied = harness.with_scale_factor(s, round(0.1 * i, 10))
        margins.append(optimize(varied, "spec_reconfig").total_ms
                       - optimize(varied, "reorder").total_ms)
    flips = sum(1 for a, b in zip(margins, margins[1:]) if (a > 0) != (b > 0))
    if flips != 1:
        failures.append(f"dominance changed {flips} times over the grid, want exactly 1")
    _verdict("criterion 3: reorder wins small volumes, prefetch wins large, one "
             "crossover on the 0.1-4.0 grid", failures)


def test_criterion_4_optimized_schedules_never_lose():
    failures = []
    started = time.perf_counter()
    for seed in range(1000):
        rng = random.Random(seed)
        s = make_random_scenario(rng, rng.randint(2, 4))
        auto = optimize(s, "auto").total_ms
        base = optimize(s, "baseline").total_ms
        if auto > base + TOTAL_TOL_MS:
            failures.append(f"seed {seed}: auto {auto!r} above baseline {base!r}")

    gaps = []
    for name in harness.bundled_names():
        s = harness.load_bundled(name)
        best = exhaustive_oracle(s).total_ms
        auto = optimize(s, "auto").total_ms
        if best > auto + TOTAL_TOL_MS:
            failures.append(f"{name}: oracle {best!r} above auto {auto!r}")
        if auto - best > TOTAL_TOL_MS:
            gaps.append(f"{name} ({auto - best:.6g} ms)")
    if gaps:
        # the four fixed strategies are heuristics; a gap to the oracle is
        # informative, not a failure
        print(f"note: oracle strictly beats auto on {len(gaps)} scenario(s): "
              + ", ".join(gaps), flush=True)
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"sampling took {elapsed:.1f}s, budget 30s")
    _verdict("criterion 4: auto never above baseline on 1000 random scenarios, "
             "never below the exhaustive oracle on bundled ones", failures)


def test_criterion_5_result_volumes_are_strategy_independent():
    failures = []
    for name in harness.bundled_names():
        s = harness.load_bundled(name)
        tables = {t.id: t for t in s.tables}
        for i, q in enumerate(s.sequence):
            outputs = [
                propagate_volumes(q, schedule.orders[i], tables)[1]
                for schedule in candidate_schedules(s).values()]
            reference = outputs[0]
            tolerance = max(abs(reference) * 1e-9, 1e-12)
            if any(abs(v - reference) > tolerance for v in outputs):
                failures.append(f"{name}/{q.id}: outputs differ: {outputs!r}")
    _verdict("criterion 5: every query's result volume is identical (rel 1e-9) "
             "under all strategies", failures)


def test_criterion_6_prefetch_saving_formula_holds():
    failures = []
    for seed in range(1000):
        rng = random.Random(10_000 + seed)
        s = make_random_scenario(rng, 2)
        modules = {m.id: m for m in s.library}
        tables = {t.id: t for t in s.tables}

        base = plan_baseline(s)
        spec = apply_speculative(s, base)

        base_total = execute_schedule(s, base).total_ms
        spec_total = execute_schedule(s, spec).total_ms

        q0, q1 = s.sequence
        last0 = q0.invocations[base.orders[0][-1]].accelerator_id
        first1 = q1.invocations[base.orders[1][0]].accelerator_id
        if first1 == last0:
            predicted = 0.0
        else:
            load = reconfig_time(modules[first1], last0, s.rpu)
            _, out0 = propagate_volumes(q0, base.orders[0], tables)
            window = transfer_time(out0, s.rpu) + q0.gap_after_ms
            residual = max(0.0, load - window)
            scan1 = scan_time(tables[q1.table_id].volume, s.rpu)
            predicted = max(scan1, load) - max(scan1, residual)

        actual = base_total - spec_total
        if abs(actual - predicted) > TOTAL_TOL_MS:
            failures.append(f"seed {seed}: saving {actual!r}, formula {predicted!r}")
    _verdict("criterion 6: measured prefetch saving equals "
             "max(scan, load) - max(scan, residual) on 1000 random pairs", failures)


def test_criterion_7_byte_deterministic_outputs():
    failures = []
    s = harness.load_bundled("seq2")

    spec = SweepSpec("scale_factor", (0.25, 0.5, 1.0, 2.0))
    first = run_sweep(s, spec)
    if run_sweep(s, spec) != first:
        failures.append("repeated sweep differs")

    schedule = candidate_schedules(s)["spec_reconfig"]
    trace = emit_trace(execute_schedule(s, schedule))
    if emit_trace(execute_schedule(s, schedule)) != trace:
        failures.append("repeated trace differs")

    document = json.dumps(outcome_document(s, optimize(s, "auto")), indent=2)
    if json.dumps(outcome_document(s, optimize(s, "auto")), indent=2) != document:
        failures.append("repeated outcome document differs")
    _verdict("criterion 7: sweeps, traces, and outcome documents are "
             "byte-deterministic", failures)
