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

execute_schedule (the event loop) and analytic_total (the closed form) take
schedules from outside and reject an illegal one with ScheduleError.  The
event loop, which the planners compare totals with, checks nothing: their
schedules are legal by construction, and the record constructors reject
the negative, NaN and infinite rates, volumes, load times, selectivities,
multipliers and gaps that could make a span end before it starts or never
end; a gap passed to the loop is checked by its caller with
record.finite_number, as SweepSpec checks a sweep's gaps.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .costmodel import StageTerms, reconfig_time, stage_terms
from .model import Scenario, Schedule, ScheduleError, validate_schedule
from .record import Record, set_field

LANES = ("scan", "reconfig", "accel", "transfer")

SPECULATIVE = "speculative"


class Span(Record, tuple):
    """One interval of one lane, labelled with the table, module or "result"
    it concerns and with its query id (SPECULATIVE for a prefetch).

    A tuple of its fields underneath, which the fields read by index, so
    that execute_schedule makes each span from the event loop's tuple with
    tuple.__new__, past the constructor: the loop's spans are on known lanes
    and end no earlier than they start by construction.  Equality and hash
    hold only between spans, as between other records.
    """

    __slots__ = ()
    _fields = ("lane", "label", "start_ms", "end_ms", "query_id")
    lane, label, start_ms, end_ms, query_id = (property(itemgetter(i)) for i in range(5))

    def __new__(cls, lane: str, label: str, start_ms: float, end_ms: float, query_id: str):
        if lane not in LANES:
            raise ValueError(f"unknown lane: {lane!r}")
        self = tuple.__new__(cls, (lane, label, start_ms, end_ms, query_id))
        if end_ms < start_ms:
            raise ValueError(f"span ends before it starts: {self}")
        return self

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    # copy and pickle call the constructor with the fields
    def __getnewargs__(self):
        return tuple(self)


# the Span of a span tuple from the event loop, past the constructor's checks
_new_span = partial(tuple.__new__, Span)


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


def _run_queries(s: Scenario, terms: Sequence[StageTerms], prefetches: Sequence[str | None],
                 gap: float | None = None,
                 spans: list[tuple[str, str, float, float, str]] | None = None) -> float:
    """The event loop.  Run the sequence through its stage terms (one
    costmodel.stage_terms per query, of its order), with its prefetches,
    unchecked, from an empty region at time 0, and return the last query's
    transfer end.  A gap, when given, replaces the gap after every query, so
    the total and spans are those of harness.with_gaps(s, gap) without the
    copy; the caller has checked it with record.finite_number, as
    with_gaps does.  Given a list, spans collects (lane, label, start_ms,
    end_ms, query_id) tuples.  The region state is loaded, the module owning
    the region, possibly still loading; region_free, when its last load or
    invocation ends; arrival, when the next query arrives.

    A load costs its term's load_ms unless its module owns the region, and
    nothing then.  Each `b if b > a else a` is max(a, b), which keeps a on
    ties, without the call.  The gap is chosen per query by one `is None`
    test, which costs less than zipping in a stream of gaps.
    """
    modules, rpu = s.modules_by_id, s.rpu
    span = None if spans is None else spans.append
    loaded, region_free, arrival, transfer_end = None, 0.0, 0.0, 0.0

    for q, (scan_ms, stages, transfer_ms), prefetch in zip(s.sequence, terms, prefetches):
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

        arrival = transfer_end + (q.gap_after_ms if gap is None else gap)

    return transfer_end


def execute_schedule(s: Scenario, sch: Schedule) -> TimelineReport:
    """Run the schedule event by event and report the resulting timeline.

    An illegal schedule is a ScheduleError listing every violation.
    """
    violations = validate_schedule(s, sch)
    if violations:
        raise ScheduleError(violations)
    terms = [stage_terms(q, order, s) for q, order in zip(s.sequence, sch.orders)]
    spans: list[tuple[str, str, float, float, str]] = []
    total = _run_queries(s, terms, sch.prefetches, spans=spans)
    # a query's latency runs from its arrival, where its scan starts, to its
    # transfer end; the loop records both spans of a query in that order
    per_query, arrival = [], 0.0
    for lane, _, start, end, _ in spans:
        if lane == "scan":
            arrival = start
        elif lane == "transfer":
            per_query.append(end - arrival)
    return TimelineReport(tuple(map(_new_span, spans)), tuple(per_query), total)


# (loaded, residual): the module owning the region, a prefetched one included,
# and the part of a prefetch's load still to run
State = tuple[str | None, float]


def _closed_form_table(s: Scenario, choices: Sequence[StageTerms], states: Sequence[State],
                       prefetches: Sequence[str], gap: float
                       ) -> tuple[list[list[float]], list[list[tuple[str | None, int]]],
                                  list[State]]:
    """One query of the closed form in each of its orders, given their stage
    terms, from each state at its arrival, followed by a gap of gap ms.
    Each order is read once into a summary: its scan, first module and that
    module's load, body, last module and transfer, where the body adds the
    accelerator times, the loads inside the order and the transfer; only
    the first load depends on the state.

    Returns (rows, moves, after).  rows[k][j] is order j's duration from
    states[k], arrival to transfer end, plus the gap: max(scan, residual +
    (0 if first == loaded else first load)) + body + gap.  after lists the
    distinct states the query can leave, in the order met, and moves[j]
    order j's (prefetch, index in after) pairs, where the prefetch is what
    Schedule.prefetches holds: None, leaving (last, 0), then each module id
    of prefetches but the order's last module, leaving (module, max(0, its
    load - (transfer + gap))), the part of the load the transfer and gap
    did not hide.  A prefetch of the last module leaves the state of no
    prefetch, as in the event loop.  Each `b if b > a else a` is max(a, b),
    as there.
    """
    modules, rpu = s.modules_by_id, s.rpu
    loads = [(module, reconfig_time(modules[module], rpu)) for module in prefetches]
    summaries, index, moves = [], {}, []  # index: the position of each state in after
    for scan_ms, stages, transfer_ms in choices:
        first, first_load, body = stages[0]
        last = first
        for module_id, load_ms, accel_ms in stages[1:]:
            if module_id != last:
                body += load_ms
            body += accel_ms
            last = module_id
        summaries.append((scan_ms, first, first_load, body + transfer_ms))
        order_moves = [(None, index.setdefault((last, 0.0), len(index)))]
        hidden = transfer_ms + gap
        for module, load_ms in loads:
            if module != last:
                unhidden = load_ms - hidden
                state = (module, unhidden if unhidden > 0.0 else 0.0)
                order_moves.append((module, index.setdefault(state, len(index))))
        moves.append(order_moves)
    rows = []
    for loaded, residual in states:
        row = []
        for scan_ms, first, first_load, body in summaries:
            entry = residual if first == loaded else residual + first_load
            row.append((entry if entry > scan_ms else scan_ms) + body + gap)
        rows.append(row)
    return rows, moves, list(index)


def analytic_total(s: Scenario, sch: Schedule) -> float:
    """Closed-form total for the same schedule, computed without events: the
    sum of each query's _closed_form_table row for its order, the state it
    meets and its prefetch.  An illegal schedule is a ScheduleError.
    """
    violations = validate_schedule(s, sch)
    if violations:
        raise ScheduleError(violations)
    total, state = 0.0, (None, 0.0)
    for i, (q, order, prefetch) in enumerate(zip(s.sequence, sch.orders, sch.prefetches)):
        gap = q.gap_after_ms if i < len(s.sequence) - 1 else 0.0
        rows, moves, after = _closed_form_table(s, [stage_terms(q, order, s)], [state],
                                                () if prefetch is None else (prefetch,), gap)
        total += rows[0][0]
        state = after[moves[0][-1][1]]  # the prefetch's move, else no prefetch's
    return total


def _json_number(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def emit_trace(report: TimelineReport) -> str:
    """Serialize the spans for a timeline viewer; output is byte-deterministic.

    The text matches json.dumps(records, indent=2) + "\n" byte for byte, where
    records holds one dict per span (lane, label, query, start_ms, end_ms),
    sorted by start time, then lane.  It is written directly, one f-string per
    span, because json's indenting encoder runs in pure Python.
    """
    records = [
        f'  {{\n    "lane": {encode_basestring_ascii(lane)},\n'
        f'    "label": {encode_basestring_ascii(label)},\n'
        f'    "query": {encode_basestring_ascii(query_id)},\n'
        f'    "start_ms": {_json_number(start_ms)},\n    "end_ms": {_json_number(end_ms)}\n  }}'
        for lane, label, start_ms, end_ms, query_id in sorted(report.spans, key=itemgetter(2, 0))
    ]
    return "[\n" + ",\n".join(records) + "\n]\n"
