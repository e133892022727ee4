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
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

from .costmodel import accel_runtime, propagate_volumes, reconfig_time, scan_time, transfer_time
from .model import AcceleratorModule, Scenario, Schedule, ScheduleError, TableDef, validate_schedule
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


def _checked_lookups(s: Scenario, sch: Schedule
                     ) -> tuple[dict[str, TableDef], dict[str, AcceleratorModule]]:
    """Reject an illegal schedule, then return the scenario's tables and modules by id."""
    violations = validate_schedule(s, sch)
    if violations:
        raise ScheduleError(violations)
    return s.tables_by_id, s.modules_by_id


def _timeline(s: Scenario, sch: Schedule
              ) -> tuple[list[tuple[str, str, float, float, str]], list[float], float]:
    """Run the schedule event by event: the spans as (lane, label, start_ms,
    end_ms, query_id) tuples, the per-query latencies and the total.

    Planners that compare totals call this directly and build no Span.  Each
    `b if b > a else a` is max(a, b), which keeps a on ties, without the call.
    """
    tables, modules = _checked_lookups(s, sch)
    rpu = s.rpu

    spans: list[tuple[str, str, float, float, str]] = []
    span = spans.append
    per_query: list[float] = []
    loaded: str | None = None   # module owning the region, possibly still loading
    region_free = 0.0           # when the region's last load or invocation ends
    arrival = 0.0
    transfer_end = 0.0

    for q, order, prefetch in zip(s.sequence, sch.orders, sch.prefetches):
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

        arrival = transfer_end + q.gap_after_ms  # unused after the last query

    for sp in spans:
        if sp[0] not in LANES or sp[3] < sp[2]:
            Span(*sp)  # raises the error a Span reports for itself
    return spans, per_query, transfer_end


def execute_schedule(s: Scenario, sch: Schedule) -> TimelineReport:
    """Run the schedule event by event and report the resulting timeline."""
    spans, per_query, total = _timeline(s, sch)
    return TimelineReport(tuple([Span(*sp) for sp in spans]), tuple(per_query), total)


def analytic_total(s: Scenario, sch: Schedule) -> float:
    """Closed-form total for the same schedule, computed without events.

    Per query: max(scan, effective first reconfiguration) + the invocation
    runtimes + the remaining reconfigurations + the transfer.  The effective
    first reconfiguration is the load of the first module over whatever owns
    the region (zero when it already does, prefetched or not) plus the
    residual of a prefetch: the part of its load that the previous transfer
    plus gap did not hide.
    """
    tables, modules = _checked_lookups(s, sch)

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
