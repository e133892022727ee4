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
with the same float operations.  _timeline runs it once over the whole
sequence from an empty region at time 0; the exhaustive oracle resumes it
once per query of each schedule prefix it searches.

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
from json.encoder import encode_basestring_ascii

from .costmodel import accel_runtime, propagate_volumes, reconfig_time, scan_time, transfer_time
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


def _run_queries(s: Scenario, queries: tuple[QuerySpec, ...], orders: tuple[tuple[int, ...], ...],
                 prefetches: tuple[str | None, ...], loaded: str | None, region_free: float,
                 arrival: float, spans: list[tuple[str, str, float, float, str]],
                 per_query: list[float]) -> tuple[str | None, float, float, float]:
    """The event loop.  Run the queries in their orders, with their prefetches,
    unchecked, from the region state the queries before them left: loaded,
    the module owning the region, possibly still loading; region_free, when
    its last load or invocation ends; arrival, when the first of the queries
    arrives.  Spans go to spans as (lane, label, start_ms, end_ms, query_id)
    tuples and latencies to per_query.  Returns that state after the last
    query, then the last query's transfer end.

    Each `b if b > a else a` is max(a, b), which keeps a on ties, without the
    call.
    """
    tables, modules, rpu = s.tables_by_id, s.modules_by_id, s.rpu
    span = spans.append
    transfer_end = 0.0

    for q, order, prefetch in zip(queries, orders, prefetches):
        input_volumes, output_volume = propagate_volumes(q, order, tables)
        data_ready = arrival + scan_time(tables[q.table_id].volume, rpu)
        span(("scan", q.table_id, arrival, data_ready, q.id))

        for k, idx in enumerate(order):
            inv = q.invocations[idx]
            module = modules[inv.accelerator_id]
            if inv.accelerator_id != loaded:
                start = region_free if region_free > arrival else arrival
                end = start + reconfig_time(module, loaded, rpu)
                span(("reconfig", module.id, start, end, q.id))
                loaded, region_free = module.id, end
            start = region_free if region_free > data_ready else data_ready
            end = start + accel_runtime(input_volumes[k], module)
            span(("accel", module.id, start, end, q.id))
            data_ready = region_free = end

        transfer_end = data_ready + transfer_time(output_volume, rpu)
        span(("transfer", "result", data_ready, transfer_end, q.id))
        per_query.append(transfer_end - arrival)

        if prefetch is not None and prefetch != loaded:
            module = modules[prefetch]
            end = region_free + reconfig_time(module, loaded, rpu)
            span(("reconfig", module.id, region_free, end, SPECULATIVE))
            loaded, region_free = prefetch, end

        arrival = transfer_end + q.gap_after_ms

    return loaded, region_free, arrival, transfer_end


def _timeline(s: Scenario, sch: Schedule
              ) -> tuple[list[tuple[str, str, float, float, str]], list[float], float]:
    """Run a legal schedule event by event, unchecked, from an empty region
    at time 0: the span tuples, the per-query latencies and the total.

    Planners that compare totals call this directly and build no Span.
    """
    spans: list[tuple[str, str, float, float, str]] = []
    per_query: list[float] = []
    total = _run_queries(s, s.sequence, sch.orders, sch.prefetches, None, 0.0, 0.0,
                         spans, per_query)[3]
    return spans, per_query, total


def execute_schedule(s: Scenario, sch: Schedule) -> TimelineReport:
    """Run the schedule event by event and report the resulting timeline.

    An illegal schedule is a ScheduleError listing every violation.
    """
    violations = validate_schedule(s, sch)
    if violations:
        raise ScheduleError(violations)
    spans, per_query, total = _timeline(s, sch)
    return TimelineReport(tuple([Span(*sp) for sp in spans]), tuple(per_query), total)


def analytic_total(s: Scenario, sch: Schedule) -> float:
    """Closed-form total for the same schedule, computed without events.

    Per query: max(scan, effective first reconfiguration) + the invocation
    runtimes + the remaining reconfigurations + the transfer.  The effective
    first reconfiguration is the load of the first module over whatever owns
    the region (zero when it already does, prefetched or not) plus the
    residual of a prefetch: the part of its load that the previous transfer
    plus gap did not hide.  An illegal schedule is a ScheduleError.
    """
    violations = validate_schedule(s, sch)
    if violations:
        raise ScheduleError(violations)
    tables, modules = s.tables_by_id, s.modules_by_id

    total = 0.0
    loaded: str | None = None   # module owning the region, a prefetched one included
    residual = 0.0              # unhidden load time of that prefetch, else 0.0

    for i, (q, order, prefetch) in enumerate(zip(s.sequence, sch.orders, sch.prefetches)):
        input_volumes, output_volume = propagate_volumes(q, order, tables)
        invs = [q.invocations[idx] for idx in order]
        first = invs[0].accelerator_id
        effective = residual + reconfig_time(modules[first], loaded, s.rpu)
        duration = max(scan_time(tables[q.table_id].volume, s.rpu), effective)
        for volume, inv in zip(input_volumes, invs):
            duration += accel_runtime(volume, modules[inv.accelerator_id])
        previous = first
        for inv in invs[1:]:
            duration += reconfig_time(modules[inv.accelerator_id], previous, s.rpu)
            previous = inv.accelerator_id
        t_trans = transfer_time(output_volume, s.rpu)
        duration += t_trans

        gap = q.gap_after_ms if i < len(s.sequence) - 1 else 0.0
        total += duration + gap

        loaded = invs[-1].accelerator_id
        if prefetch is not None and prefetch != loaded:
            residual = max(0.0, reconfig_time(modules[prefetch], None, s.rpu) - (t_trans + gap))
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
