"""Timeline checks against hand-computed span arithmetic.

The canonical two-query scenario: a 16-volume scan at rate 1 takes 16 ms and
covers the first 15 ms load, each filter halves or keeps most of its input at
rate 2, and the 0.2-rate network stretches the 6.4-volume result to 32 ms.
Every expected number below is the sum of those pieces.
"""
import hashlib
import json
import random

import pytest

from reconfig_sim.costmodel import stage_terms
from reconfig_sim.emulator import (
    LANES,
    SPECULATIVE,
    Span,
    TimelineReport,
    _run_queries,
    analytic_total,
    emit_trace,
    execute_schedule,
)
from reconfig_sim.harness import with_gaps
from reconfig_sim.model import Schedule, ScheduleError, load_scenario
from reconfig_sim.optimizer import candidate_schedules, plan_baseline

from conftest import (event_loop_total, make_chained_scenario, make_random_scenario,
                      spread_over_modules)


def _spans(report, lane, query_id=None):
    return [sp for sp in report.spans
            if sp.lane == lane and (query_id is None or sp.query_id == query_id)]


def test_baseline_timeline(seq2):
    report = execute_schedule(seq2, plan_baseline(seq2))
    assert report.total_ms == pytest.approx(110.0, abs=1e-9)
    assert report.per_query_ms == pytest.approx((75.0, 33.0), abs=1e-9)

    lanes = {lane: len(_spans(report, lane)) for lane in ("scan", "reconfig", "accel", "transfer")}
    assert lanes == {"scan": 2, "reconfig": 3, "accel": 3, "transfer": 2}

    assert _spans(report, "scan") == [
        Span("scan", "orders", 0.0, 16.0, "Q0"),
        Span("scan", "lineitem", 77.0, 83.0, "Q1"),
    ]
    assert _spans(report, "reconfig") == [
        Span("reconfig", "accA", 0.0, 15.0, "Q0"),
        Span("reconfig", "accB", 24.0, 39.0, "Q0"),
        Span("reconfig", "accA", 77.0, 92.0, "Q1"),
    ]
    assert _spans(report, "accel") == [
        Span("accel", "accA", 16.0, 24.0, "Q0"),
        Span("accel", "accB", 39.0, 43.0, "Q0"),
        Span("accel", "accA", 92.0, 95.0, "Q1"),
    ]
    assert _spans(report, "transfer") == [
        Span("transfer", "result", 43.0, 75.0, "Q0"),
        Span("transfer", "result", 95.0, 110.0, "Q1"),
    ]


def test_speculative_prefetch_hides_reconfiguration(seq2):
    schedule = candidate_schedules(seq2)["spec_reconfig"]
    assert schedule.prefetches == ("accA", None)
    report = execute_schedule(seq2, schedule)
    assert report.total_ms == pytest.approx(101.0, abs=1e-9)
    assert report.per_query_ms == pytest.approx((75.0, 24.0), abs=1e-9)

    speculative = [sp for sp in report.spans if sp.query_id == SPECULATIVE]
    assert speculative == [Span("reconfig", "accA", 43.0, 58.0, SPECULATIVE)]
    assert _spans(report, "reconfig", "Q1") == []


def test_reordered_query_ends_on_reused_module(seq2):
    schedule = candidate_schedules(seq2)["reorder"]
    assert schedule.orders == ((1, 0), (0,))
    report = execute_schedule(seq2, schedule)
    assert report.total_ms == pytest.approx(103.4, abs=1e-9)
    assert report.per_query_ms == pytest.approx((77.4, 24.0), abs=1e-9)
    assert [sp.label for sp in _spans(report, "accel", "Q0")] == ["accB", "accA"]
    assert _spans(report, "reconfig", "Q1") == []


def test_zero_reconfig_single_query_is_pure_pipeline():
    doc = {
        "rpu": {"storage_rate": 1.0, "network_rate": 0.5,
                "default_reconfig_ms": 0.0, "pr_region_count": 1},
        "tables": [{"id": "t", "volume": 10.0}],
        "library": [{"id": "m", "proc_rate": 2.0,
                     "supported_ops": [{"kind": "compare_gt", "operand_type": "int32"}]}],
        "sequence": [{"id": "Q0", "table": "t", "invocations": [
            {"accelerator": "m", "predicate": "a > 1", "selectivity": 0.5, "reads": ["a"]}]}],
    }
    s = load_scenario(json.dumps(doc))
    report = execute_schedule(s, plan_baseline(s))
    assert report.total_ms == pytest.approx(10.0 + 5.0 + 10.0, abs=1e-9)


def test_resident_module_skips_reconfiguration(corpus):
    s = dict(corpus)["corpus/q06"]
    report = execute_schedule(s, plan_baseline(s))
    assert len(_spans(report, "reconfig")) == 1


def _emulated_total(s, schedule):
    """The total of execute_schedule, after checking that the planners'
    totals loop gives the same total, recording no span, and the same
    reconfiguration count when it records them."""
    report = execute_schedule(s, schedule)
    spans = []
    total = event_loop_total(s, schedule)
    assert total == event_loop_total(s, schedule, spans) == report.total_ms
    assert sum(sp[0] == "reconfig" for sp in spans) == len(_spans(report, "reconfig"))
    return report.total_ms


def test_analytic_total_matches_emulation(corpus):
    for _, s in corpus:
        for schedule in candidate_schedules(s).values():
            emulated = _emulated_total(s, schedule)
            assert abs(emulated - analytic_total(s, schedule)) <= 1e-9


def test_analytic_total_matches_emulation_on_random_schedules(random_scenario):
    """Any legal order with any prefetches, including prefetches of a module
    the successor does not start with and prefetches after the last query."""
    correct_prefetches = wrong_prefetches = trailing_prefetches = 0
    for seed in range(500):
        rng = random.Random(20_000 + seed)
        s = random_scenario(rng, rng.randint(1, 5))
        # every random invocation reads the same column, so any permutation is legal
        orders = tuple(tuple(rng.sample(range(len(q.invocations)), len(q.invocations)))
                       for q in s.sequence)
        prefetches = tuple(rng.choice([None] + [m.id for m in s.library]) for _ in s.sequence)
        for i, module_id in enumerate(prefetches):
            if module_id is None:
                continue
            if i == len(s.sequence) - 1:
                trailing_prefetches += 1
            elif module_id != s.sequence[i + 1].invocations[orders[i + 1][0]].accelerator_id:
                wrong_prefetches += 1
            else:
                correct_prefetches += 1
        schedule = Schedule(orders, prefetches)
        emulated = _emulated_total(s, schedule)
        assert abs(emulated - analytic_total(s, schedule)) <= 1e-9, (seed, schedule)
    assert correct_prefetches > 0 and wrong_prefetches > 0 and trailing_prefetches > 0


def test_mistaken_prefetch_queues_the_real_load(seq2_doc):
    seq2_doc["library"].append({
        "id": "accC", "proc_rate": 2.0, "reconfig_ms": 40.0,
        "supported_ops": [{"kind": "compare_gt", "operand_type": "int32"}]})
    s = load_scenario(json.dumps(seq2_doc))
    schedule = Schedule(((0, 1), (0,)), ("accC", None))

    report = execute_schedule(s, schedule)
    assert report.total_ms == pytest.approx(116.0, abs=1e-9)
    assert abs(analytic_total(s, schedule) - report.total_ms) <= 1e-9

    speculative = [sp for sp in report.spans if sp.query_id == SPECULATIVE]
    assert speculative == [Span("reconfig", "accC", 43.0, 83.0, SPECULATIVE)]
    # the real first load waits for the region, not for the query arrival
    assert _spans(report, "reconfig", "Q1") == [Span("reconfig", "accA", 83.0, 98.0, "Q1")]


def test_prefetch_still_loading_and_zero_time_loads(seq2_doc):
    """A correct prefetch that outlasts the hide window delays the next
    query's accelerator past its scan; a switch that loads in 0 ms still
    gets its own (empty) reconfiguration span, since the module that owns
    the region decides whether to load, not the load time."""
    seq2_doc["library"][0]["reconfig_ms"] = 45.0
    s = load_scenario(json.dumps(seq2_doc))
    schedule = Schedule(((0, 1), (0,)), ("accA", None))
    report = execute_schedule(s, schedule)
    assert [sp for sp in report.spans if sp.query_id == SPECULATIVE] == [
        Span("reconfig", "accA", 72.0, 117.0, SPECULATIVE)]
    assert _spans(report, "scan", "Q1") == [Span("scan", "lineitem", 106.0, 112.0, "Q1")]
    assert _spans(report, "reconfig", "Q1") == []
    assert _spans(report, "accel", "Q1") == [Span("accel", "accA", 117.0, 120.0, "Q1")]
    assert report.total_ms == 135.0
    assert analytic_total(s, schedule) == 135.0

    seq2_doc["rpu"]["default_reconfig_ms"] = 0.0
    seq2_doc["library"][0]["reconfig_ms"] = 0.0
    s = load_scenario(json.dumps(seq2_doc))
    schedule = plan_baseline(s)
    report = execute_schedule(s, schedule)
    assert _spans(report, "reconfig") == [
        Span("reconfig", "accA", 0.0, 0.0, "Q0"),
        Span("reconfig", "accB", 24.0, 24.0, "Q0"),
        Span("reconfig", "accA", 62.0, 62.0, "Q1"),
    ]
    assert report.total_ms == pytest.approx(86.0, abs=1e-9)
    assert abs(analytic_total(s, schedule) - report.total_ms) <= 1e-9


# sha256 over every span, the per-query latencies and both totals of the
# cases below.  The equivalence tests above allow 1e-9 ms; this pins the
# outputs bit for bit, so a refactor of either timing model that reorders
# its float operations fails here.  The closed form adds each query's
# duration as max(scan, entry) + body, its order's summary.
TIMING_DIGEST = "3cad1f7aa5cba3ffc7ae5c5863582918934571d39d740dfa4e992622002dd337"


def test_timing_models_are_bit_stable(corpus, random_scenario):
    cases = [(s, schedule) for _, s in corpus for schedule in candidate_schedules(s).values()]
    for seed in range(200):
        rng = random.Random(40_000 + seed)
        s = random_scenario(rng, rng.randint(1, 6))
        orders = tuple(tuple(rng.sample(range(len(q.invocations)), len(q.invocations)))
                       for q in s.sequence)
        firsts = [q.invocations[order[0]].accelerator_id
                  for q, order in zip(s.sequence[1:], orders[1:])] + [None]
        # correct, mistaken and trailing prefetches, and none
        prefetches = tuple(rng.choice([None, first] + [m.id for m in s.library])
                           for first in firsts)
        cases.append((s, Schedule(orders, prefetches)))

    digest = hashlib.sha256()
    for s, schedule in cases:
        report = execute_schedule(s, schedule)
        for sp in report.spans:
            digest.update(repr((sp.lane, sp.label, sp.start_ms, sp.end_ms, sp.query_id)).encode())
        digest.update(repr((report.per_query_ms, report.total_ms,
                            analytic_total(s, schedule))).encode())
    assert digest.hexdigest() == TIMING_DIGEST


def test_prefetch_of_resident_module_is_a_no_op(seq2):
    baseline = execute_schedule(seq2, plan_baseline(seq2))
    noop = execute_schedule(seq2, Schedule(((0, 1), (0,)), ("accB", None)))
    assert noop.spans == baseline.spans
    assert noop.total_ms == baseline.total_ms


def test_prefetch_after_last_query_changes_only_the_loaded_module(seq2):
    report = execute_schedule(seq2, Schedule(((0, 1), (0,)), (None, "accB")))
    assert report.total_ms == pytest.approx(110.0, abs=1e-9)
    assert [sp for sp in report.spans if sp.query_id == SPECULATIVE] == [
        Span("reconfig", "accB", 95.0, 110.0, SPECULATIVE)]


def test_invalid_schedule_is_rejected(seq2):
    with pytest.raises(ScheduleError) as excinfo:
        execute_schedule(seq2, Schedule(((0, 0), (0,)), (None, None)))
    assert excinfo.value.violations
    with pytest.raises(ScheduleError):
        analytic_total(seq2, Schedule(((0, 1),), (None,)))


def test_trace_is_sorted_and_deterministic(seq2):
    report = execute_schedule(seq2, plan_baseline(seq2))
    text = emit_trace(report)
    assert text == emit_trace(execute_schedule(seq2, plan_baseline(seq2)))
    assert text.endswith("\n")

    records = json.loads(text)
    assert len(records) == 10
    assert all(set(r) == {"lane", "label", "query", "start_ms", "end_ms"} for r in records)
    keys = [(r["start_ms"], r["lane"]) for r in records]
    assert keys == sorted(keys)


def _reference_trace(report):
    """emit_trace's former definition, through json's indenting encoder."""
    records = [
        {"lane": sp.lane, "label": sp.label, "query": sp.query_id,
         "start_ms": sp.start_ms, "end_ms": sp.end_ms}
        for sp in sorted(report.spans, key=lambda sp: (sp.start_ms, sp.lane))
    ]
    return json.dumps(records, indent=2) + "\n"


def test_trace_matches_json_indent_encoding(corpus, random_scenario):
    """emit_trace equals the json.dumps reference byte for byte on the
    corpus, on seeded random scenarios and on hand-built reports: odd
    strings, -0.0 beside 0.0 (which a memo of each time's text keyed by the
    float would merge), infinities, and equal starts on all four lanes with
    and without a NaN start among them, each in both orders (a sort by lane
    and then by start orders NaN starts differently from the (start, lane)
    key)."""
    reports = [execute_schedule(s, schedule)
               for _, s in corpus for schedule in candidate_schedules(s).values()]
    for seed in range(100):
        rng = random.Random(60_000 + seed)
        s = random_scenario(rng, rng.randint(1, 6))
        reports += [execute_schedule(s, schedule) for schedule in candidate_schedules(s).values()]
    odd = 'a "quote", a back\\slash, a new\nline, Größe, 加速器 and \U0001f600'
    reports.append(TimelineReport((
        Span("scan", odd, -0.0, 1e300, odd),
        Span("reconfig", "m\t0", 0.0, float("inf"), SPECULATIVE),
        Span("accel", "\x00", float("-inf"), 5e-324, "Q1"),
        Span("transfer", "result", 0.1 + 0.2, float("nan"), "Q1"),
    ), (1.0,), float("inf")))
    ties = [Span(lane, "tie", 2.0, 3.0, "Q2") for lane in LANES]
    mixed = (ties[:2] + [Span("accel", "nan", float("nan"), 4.0, "Q3")] + ties[2:]
             + [Span("scan", "t", 1.0, float("nan"), "Q3"),
                Span("transfer", "result", 0.0, 2.0, "Q2")])
    for spans in (ties, ties[::-1], mixed, mixed[::-1]):
        reports.append(TimelineReport(tuple(spans), (1.0,), 4.0))
    for report in reports:
        assert emit_trace(report) == _reference_trace(report)


def test_spans_are_tuples_of_their_fields_equal_only_to_spans(corpus):
    """execute_schedule makes its spans past the constructor; each is still
    the Span the constructor makes of its fields, and a span equals no
    plain tuple, as a record equals only records of its own type."""
    fields = ("scan", "t", 0.0, 1.5, "Q0")
    span = Span(*fields)
    assert tuple(span) == fields and span[2] == span.start_ms == 0.0
    assert span != fields and fields != span and not span == fields
    assert hash(span) == hash(fields) and {span, Span(*fields)} == {span}
    for name, s in corpus:
        for schedule in candidate_schedules(s).values():
            for sp in execute_schedule(s, schedule).spans:
                assert type(sp) is Span and sp == Span(*sp), (name, sp)


def test_span_and_report_validation():
    with pytest.raises(ValueError, match="unknown lane"):
        Span("conveyor", "x", 0.0, 1.0, "Q0")
    with pytest.raises(ValueError, match="ends before it starts"):
        Span("scan", "x", 2.0, 1.0, "Q0")
    with pytest.raises(ValueError, match="at least one span"):
        TimelineReport((), (), 0.0)
    single = TimelineReport((Span("scan", "t", 0.0, 1.0, "Q0"),), (1.0,), 1.0)
    assert json.loads(emit_trace(single)) == [
        {"lane": "scan", "label": "t", "query": "Q0", "start_ms": 0.0, "end_ms": 1.0}]


def test_totals_loop_checks_span_invariants(seq2):
    """A scenario built in code skips the loader's checks, and the totals
    loop no longer checks its spans: the record constructors keep them from
    ending before they start.  A negative load time, or a NaN or negative
    gap, must still fail, where the record is built."""
    with pytest.raises(ValueError, match="reconfig_ms must be at least 0, got -1.0"):
        seq2.library[0].replace(reconfig_ms=-1.0)
    for gap, problem in ((float("nan"), "must be finite"), (-1.0, "must be at least 0")):
        with pytest.raises(ValueError, match=f"gap_after_ms {problem}, got {gap}"):
            seq2.sequence[0].replace(gap_after_ms=gap)


def test_timeline_invariants_hold_everywhere(corpus):
    """The region never runs two things at once, queries proceed scan to
    transfer in order, and the totals are consistent with the spans."""
    for name, s in corpus:
        for strategy, schedule in candidate_schedules(s).items():
            report = execute_schedule(s, schedule)
            context = f"{name}/{strategy}"

            region = sorted((sp for sp in report.spans if sp.lane in ("reconfig", "accel")),
                            key=lambda sp: (sp.start_ms, sp.end_ms))
            for before, after in zip(region, region[1:]):
                assert after.start_ms >= before.end_ms - 1e-9, (context, before, after)

            for sp in report.spans:
                assert sp.end_ms >= sp.start_ms, (context, sp)
                if sp.query_id == SPECULATIVE:
                    assert sp.lane == "reconfig", (context, sp)

            arrival = 0.0
            for i, q in enumerate(s.sequence):
                scans = _spans(report, "scan", q.id)
                transfers = _spans(report, "transfer", q.id)
                accels = _spans(report, "accel", q.id)
                assert len(scans) == 1 and len(transfers) == 1, context
                assert len(accels) == len(q.invocations), context
                assert scans[0].start_ms == pytest.approx(arrival, abs=1e-9), context
                for a, b in zip(accels, accels[1:]):
                    assert b.start_ms >= a.end_ms - 1e-9, context
                assert transfers[0].start_ms == pytest.approx(accels[-1].end_ms, abs=1e-9)
                assert report.per_query_ms[i] == pytest.approx(
                    transfers[0].end_ms - arrival, abs=1e-9), context
                arrival = transfers[0].end_ms + q.gap_after_ms

            gaps = sum(q.gap_after_ms for q in s.sequence[:-1])
            assert report.total_ms == pytest.approx(
                sum(report.per_query_ms) + gaps, abs=1e-9), context


def test_a_passed_gap_runs_as_the_gapped_scenario():
    """The event loop given a gap gives the total and the span tuples of the
    same run on harness.with_gaps(s, gap), bit for bit, which a gap sweep
    relies on to run every point on its input scenario.  The queries carry
    gaps of their own that differ, and some scenarios hold one query."""
    scenarios = []
    for seed in range(60):
        rng = random.Random(70_000 + seed)
        if seed % 2:
            s = make_random_scenario(rng, rng.randint(1, 5))
        else:
            s = spread_over_modules(make_chained_scenario(rng, rng.randint(1, 4)), rng, 3)
            s = s.replace(sequence=tuple(q.replace(gap_after_ms=round(rng.uniform(0.0, 40.0), 3))
                                         for q in s.sequence))
        candidates = list(candidate_schedules(s).values())
        # correct, mistaken and trailing prefetches over the baseline orders
        prefetches = tuple(rng.choice([None] + [m.id for m in s.library]) for _ in s.sequence)
        scenarios.append((s, candidates + [Schedule(candidates[0].orders, prefetches)]))
    assert any(len(s.sequence) == 1 for s, _ in scenarios)
    assert sum(len({q.gap_after_ms for q in s.sequence[:-1]}) > 1 for s, _ in scenarios) > 20

    for s, schedules in scenarios:
        for gap in (0.0, 2.5, 1e300):
            gapped = with_gaps(s, gap)
            for schedule in schedules:
                terms = [stage_terms(q, order, s) for q, order in zip(s.sequence, schedule.orders)]
                spans, gapped_spans = [], []
                total = _run_queries(s, terms, schedule.prefetches, gap=gap)
                assert total == _run_queries(gapped, terms, schedule.prefetches)
                assert total == _run_queries(s, terms, schedule.prefetches, gap=gap, spans=spans)
                assert total == event_loop_total(gapped, schedule, gapped_spans)
                assert spans == gapped_spans, (s, schedule, gap)
