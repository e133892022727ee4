"""Discrete-event timing emulation of a query sequence on the device.

Three resources are tracked.  The storage scan streams the table while the
single reconfigurable region loads the first accelerator, so only the larger
of the two delays the first invocation.  Stages run store-and-forward: an
invocation needs its full input, so invocation k+1 cannot start before
invocation k has finished, and its reconfiguration cannot start before the
region frees up at that same moment.  The network transfer of a query's
result overlaps whatever the region does next; a speculative reconfiguration
requested by the schedule starts exactly when the region frees up after the
query's last invocation and runs under the transfer and the idle gap.

A speculative load of the wrong module does not break anything: the next
query's regular reconfiguration simply queues behind it on the region.

One query passes only the region state to the next: the module owning the
region, when the region frees up, and when the next query arrives.  The
event loop, _run_queries, starts from such a state and returns the state
after its last query, so a run over a prefix of the sequence can be resumed
with the same float operations.  It reads each query's costs from its stage
terms (costmodel.stage_terms of the query in its order), which do not depend
on the region state, so a caller builds them once and runs the loop over
them as often as it likes; the loop itself only decides when a load costs
nothing and how the stages overlap.  It records span tuples only when given
a list to put them in, and execute_schedule reads the per-query latencies
off them.  analytic_total adds up the same terms in closed form.

execute_schedule and analytic_total take schedules from outside and reject
an illegal one with ScheduleError.  The event loop, which the planners
compare totals with, checks nothing: their schedules are legal by
construction, and the record constructors reject the negative and NaN rates,
volumes, load times, selectivities, multipliers and gaps that could make a
span end before it starts.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from .costmodel import StageTerms, reconfig_time, stage_terms
from .model import QuerySpec, Scenario, Schedule, ScheduleError, validate_schedule
from .record import Record, set_field

LANES = ("scan", "reconfig", "accel", "transfer")

SPECULATIVE = "speculative"


class Span(Record):
    __slots__ = ("lane", "label", "start_ms", "end_ms", "query_id")

    def __init__(self, lane: str, label: str, start_ms: float, end_ms: float, query_id: str):
        set_field(self, "lane", lane)
        set_field(self, "label", label)
        set_field(self, "start_ms", start_ms)
        set_field(self, "end_ms", end_ms)
        set_field(self, "query_id", query_id)
        if lane not in LANES:
            raise ValueError(f"unknown lane: {lane!r}")
        if end_ms < start_ms:
            raise ValueError(f"span ends before it starts: {self}")


class TimelineReport(Record):
    """Everything a run produced: spans, per-query latencies, and the total.

    per_query_ms measures each query from its arrival to the end of its
    transfer; total_ms runs from the first arrival to the last transfer end,
    idle gaps included.
    """

    __slots__ = ("spans", "per_query_ms", "total_ms")

    def __init__(self, spans: tuple[Span, ...], per_query_ms: tuple[float, ...], total_ms: float):
        if not spans:
            raise ValueError("a timeline report must contain at least one span")
        set_field(self, "spans", spans)
        set_field(self, "per_query_ms", per_query_ms)
        set_field(self, "total_ms", total_ms)


def _run_queries(s: Scenario, queries: tuple[QuerySpec, ...], terms: Sequence[StageTerms],
                 prefetches: tuple[str | None, ...], loaded: str | None, region_free: float,
                 arrival: float, spans: list[tuple[str, str, float, float, str]] | None = None
                 ) -> tuple[str | None, float, float, float]:
    """The event loop.  Run the queries through their stage terms (one
    costmodel.stage_terms per query, of its order), with their prefetches,
    unchecked, from the region state the queries before them left: loaded,
    the module owning the region, possibly still loading; region_free, when
    its last load or invocation ends; arrival, when the first of the queries
    arrives.  Given a list, spans collects (lane, label, start_ms, end_ms,
    query_id) tuples.  Returns that state after the last query, then the
    last query's transfer end.

    A load costs its term's load_ms unless its module owns the region, and
    nothing then.  Each `b if b > a else a` is max(a, b), which keeps a on
    ties, without the call.
    """
    modules, rpu = s.modules_by_id, s.rpu
    span = None if spans is None else spans.append
    transfer_end = 0.0

    for q, (scan_ms, stages, transfer_ms), prefetch in zip(queries, terms, prefetches):
        data_ready = arrival + scan_ms
        if span:
            span(("scan", q.table_id, arrival, data_ready, q.id))

        for module_id, load_ms, accel_ms in stages:
            if module_id != loaded:
                start = region_free if region_free > arrival else arrival
                end = start + load_ms
                if span:
                    span(("reconfig", module_id, start, end, q.id))
                loaded, region_free = module_id, end
            start = region_free if region_free > data_ready else data_ready
            end = start + accel_ms
            if span:
                span(("accel", module_id, start, end, q.id))
            data_ready = region_free = end

        transfer_end = data_ready + transfer_ms
        if span:
            span(("transfer", "result", data_ready, transfer_end, q.id))

        if prefetch is not None and prefetch != loaded:
            end = region_free + reconfig_time(modules[prefetch], rpu)
            if span:
                span(("reconfig", prefetch, region_free, end, SPECULATIVE))
            loaded, region_free = prefetch, end

        arrival = transfer_end + q.gap_after_ms

    return loaded, region_free, arrival, transfer_end


def _timeline(s: Scenario, sch: Schedule,
              spans: list[tuple[str, str, float, float, str]] | None = None) -> float:
    """Run a legal schedule event by event, unchecked, from an empty region
    at time 0, and return the total; spans, when given, collects the span
    tuples.
    """
    terms = [stage_terms(q, order, s) for q, order in zip(s.sequence, sch.orders)]
    return _run_queries(s, s.sequence, terms, sch.prefetches, None, 0.0, 0.0, spans)[3]


def execute_schedule(s: Scenario, sch: Schedule) -> TimelineReport:
    """Run the schedule event by event and report the resulting timeline.

    An illegal schedule is a ScheduleError listing every violation.
    """
    violations = validate_schedule(s, sch)
    if violations:
        raise ScheduleError(violations)
    spans: list[tuple[str, str, float, float, str]] = []
    total = _timeline(s, sch, spans)
    # a query's latency runs from its arrival, where its scan starts, to its
    # transfer end; the loop records both spans of a query in that order
    per_query, arrival = [], 0.0
    for lane, _, start, end, _ in spans:
        if lane == "scan":
            arrival = start
        elif lane == "transfer":
            per_query.append(end - arrival)
    return TimelineReport(tuple([Span(*sp) for sp in spans]), tuple(per_query), total)


def analytic_total(s: Scenario, sch: Schedule) -> float:
    """Closed-form total for the same schedule, computed without events.

    Per query, from its stage terms: max(scan, effective first
    reconfiguration) + the invocation runtimes + the remaining
    reconfigurations + the transfer.  The effective first reconfiguration is
    the load of the first module over whatever owns the region (zero when it
    already does, prefetched or not) plus the residual of a prefetch: the
    part of its load that the previous transfer plus gap did not hide.  An
    illegal schedule is a ScheduleError.
    """
    violations = validate_schedule(s, sch)
    if violations:
        raise ScheduleError(violations)
    modules = s.modules_by_id

    total = 0.0
    loaded: str | None = None   # module owning the region, a prefetched one included
    residual = 0.0              # unhidden load time of that prefetch, else 0.0

    for i, (q, order, prefetch) in enumerate(zip(s.sequence, sch.orders, sch.prefetches)):
        scan_ms, stages, t_trans = stage_terms(q, order, s)
        first, first_load, _ = stages[0]
        effective = residual + (0.0 if first == loaded else first_load)
        duration = max(scan_ms, effective)
        for _, _, accel_ms in stages:
            duration += accel_ms
        previous = first
        for module_id, load_ms, _ in stages[1:]:
            if module_id != previous:
                duration += load_ms
            previous = module_id
        duration += t_trans

        gap = q.gap_after_ms if i < len(s.sequence) - 1 else 0.0
        total += duration + gap

        loaded = previous
        if prefetch is not None and prefetch != loaded:
            residual = max(0.0, reconfig_time(modules[prefetch], s.rpu) - (t_trans + gap))
            loaded = prefetch
        else:
            residual = 0.0
    return total


_TRACE_RECORD = ('  {\n    "lane": %s,\n    "label": %s,\n    "query": %s,\n'
                 '    "start_ms": %s,\n    "end_ms": %s\n  }')


def _json_number(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def emit_trace(report: TimelineReport) -> str:
    """Serialize the spans for a timeline viewer; output is byte-deterministic.

    The text matches json.dumps(records, indent=2) + "\n" byte for byte, where
    records holds one dict per span (lane, label, query, start_ms, end_ms),
    sorted by start time, then lane.  It is written directly because json's
    indenting encoder runs in pure Python.
    """
    records = [
        _TRACE_RECORD % (encode_basestring_ascii(sp.lane), encode_basestring_ascii(sp.label),
                         encode_basestring_ascii(sp.query_id),
                         _json_number(sp.start_ms), _json_number(sp.end_ms))
        for sp in sorted(report.spans, key=lambda sp: (sp.start_ms, sp.lane))
    ]
    return "[\n" + ",\n".join(records) + "\n]\n"
