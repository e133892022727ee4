"""Schedule planning strategies and the exhaustive reference search.

baseline      lowest-selectivity-first within each query, no prefetch
spec_reconfig baseline order plus speculative reconfiguration between queries
reorder       permute a query so its last accelerator matches the next
              query's first, removing that reconfiguration entirely
combined      reorder first, then speculative reconfiguration on top
auto          the cheapest of the four

candidate_schedules plans the four fixed-strategy schedules; none of them
reads a volume or a gap, so a sweep plans them once for all its points.
fixed_outcomes emulates each once and derives every fixed outcome and the
auto pick from those four totals.  Both it and the exhaustive search run the
emulator's unchecked event loop, since every schedule they emulate is legal
by construction, over stage terms (costmodel.stage_terms) they build once
per query and order: fixed_outcomes once per distinct orders, which the
candidates share in pairs, and the search once per (query, legal order).

exhaustive_oracle is the reference the heuristics are measured against.  It
is still exhaustive, but it searches the schedules as a prefix tree: a query's
timeline depends only on the choices for it and the queries before it, so
the search resumes the event loop from the region state each prefix left
instead of emulating every schedule from the start.  It asks the loop for
spans only to count the reconfigurations its tie-break ranks.

The two optimizations trade off: prefetching hides a reconfiguration behind
the previous transfer and gap but leaves a residual when that window is
short, while reordering avoids the reconfiguration outright at the price of
running a less selective accelerator earlier, which inflates the reordered
query itself.
"""
from __future__ import annotations

from itertools import permutations

from .analyzer import baseline_order, find_common_accelerators, generate_hints
from .costmodel import stage_terms
from .emulator import _run_queries, _timeline
from .model import Scenario, Schedule, reader_first_pairs, schedule_to_doc
from .record import Record, set_field

FIXED_STRATEGIES = ("baseline", "spec_reconfig", "reorder", "combined")
STRATEGIES = FIXED_STRATEGIES + ("auto", "oracle")

ORACLE_MAX_INVOCATIONS = 8
ORACLE_MAX_QUERIES = 4
ORACLE_MAX_MODULES = 8


class InstanceTooLargeError(ValueError):
    pass


class StrategyOutcome(Record):
    __slots__ = ("strategy", "schedule", "total_ms", "improvement_pct")

    def __init__(self, strategy: str, schedule: Schedule, total_ms: float,
                 improvement_pct: float):
        set_field(self, "strategy", strategy)
        set_field(self, "schedule", schedule)
        set_field(self, "total_ms", total_ms)
        set_field(self, "improvement_pct", improvement_pct)


def plan_baseline(s: Scenario) -> Schedule:
    """Most selective accelerator first, producers always before their readers."""
    return Schedule(
        orders=tuple(baseline_order(q) for q in s.sequence),
        prefetches=(None,) * len(s.sequence),
    )


def apply_speculative(s: Scenario, base: Schedule) -> Schedule:
    """Prefetch each successor's first module unless it is already resident.

    The module resident at the end of query i is the one its last scheduled
    invocation used, so only differing pairs get a directive.
    """
    prefetches = list(base.prefetches)
    for i in range(len(s.sequence) - 1):
        last_module = s.sequence[i].invocations[base.orders[i][-1]].accelerator_id
        next_first = s.sequence[i + 1].invocations[base.orders[i + 1][0]].accelerator_id
        prefetches[i] = next_first if next_first != last_module else None
    return Schedule(base.orders, tuple(prefetches))


def apply_reorder(s: Scenario, base: Schedule) -> Schedule:
    """Make each query end on its successor's first accelerator when legal.

    Pairs are processed from the back so that each pair targets the
    successor's final first module.  Only the left query of a pair moves:
    the matching invocation, preferring the one scheduled latest, goes to
    the end while the rest keep their ascending-selectivity order.  An
    invocation whose output another invocation reads cannot move.  No
    prefetch directives are added.
    """
    orders = list(base.orders)
    for i in reversed(range(len(s.sequence) - 1)):
        successor = s.sequence[i + 1]
        target = successor.invocations[orders[i + 1][0]].accelerator_id
        q = s.sequence[i]
        order = orders[i]
        scheduled_modules = [q.invocations[idx].accelerator_id for idx in order]
        if target not in scheduled_modules or scheduled_modules[-1] == target:
            continue
        for position in reversed([p for p, m in enumerate(scheduled_modules) if m == target]):
            idx = order[position]
            if any(producer == idx for producer, _ in q.dependencies):
                continue
            orders[i] = order[:position] + order[position + 1:] + (idx,)
            break
    return Schedule(tuple(orders), base.prefetches)


def candidate_schedules(s: Scenario) -> dict[str, Schedule]:
    """The four fixed-strategy schedules for this scenario."""
    base = plan_baseline(s)
    reordered = apply_reorder(s, base)
    return {
        "baseline": base,
        "spec_reconfig": apply_speculative(s, base),
        "reorder": reordered,
        "combined": apply_speculative(s, reordered),
    }


def _improvement(baseline_total: float, total: float) -> float:
    if baseline_total == 0.0:
        return 0.0
    return 100.0 * (baseline_total - total) / baseline_total


def fixed_outcomes(s: Scenario, schedules: dict[str, Schedule]) -> dict[str, StrategyOutcome]:
    """The four fixed outcomes plus "auto", from one emulation of each
    candidate schedule.

    schedules is candidate_schedules of s, or of a scenario that differs
    from s only in volumes or gaps, which gives the same schedules.  The
    stage terms are built once per distinct orders, so the two pairs of
    candidates that differ only in prefetches share them.  Auto is
    the cheapest fixed outcome; ties go to the earliest strategy in baseline,
    spec_reconfig, reorder, combined order.
    """
    terms_by_orders = {}
    totals = {}
    for name, sched in schedules.items():
        terms = terms_by_orders.get(sched.orders)
        if terms is None:
            terms = terms_by_orders[sched.orders] = [
                stage_terms(q, order, s) for q, order in zip(s.sequence, sched.orders)]
        totals[name] = _run_queries(s, s.sequence, terms, sched.prefetches, None, 0.0, 0.0)[3]
    outcomes = {
        name: StrategyOutcome(
            strategy=name,
            schedule=schedules[name],
            total_ms=totals[name],
            improvement_pct=_improvement(totals["baseline"], totals[name]),
        )
        for name in FIXED_STRATEGIES
    }
    outcomes["auto"] = min(outcomes.values(), key=lambda o: o.total_ms)
    return outcomes


def optimize(s: Scenario, strategy: str = "auto") -> StrategyOutcome:
    """Plan with one strategy, "auto" for the cheapest of the four fixed ones,
    or "oracle" for the exhaustive search.

    The outcome names the strategy that produced the schedule; see
    fixed_outcomes for the tie-break under "auto".
    """
    if strategy == "oracle":
        return exhaustive_oracle(s)
    if strategy not in FIXED_STRATEGIES and strategy != "auto":
        raise ValueError(f"unknown strategy: {strategy!r}")
    return fixed_outcomes(s, candidate_schedules(s))[strategy]


def _legal_orders(q) -> list[tuple[int, ...]]:
    return [perm for perm in permutations(range(len(q.invocations)))
            if not reader_first_pairs(q, perm)]


def _least_key(s: Scenario, order_choices, prefetch_choices, i: int, loaded: str | None,
               region_free: float, arrival: float, total: float, reconfigs: int,
               order_ranks: tuple[int, ...], prefetch_ranks: tuple[int, ...]
               ) -> tuple[float, int, tuple[int, ...], tuple[int, ...]]:
    """The least (total, reconfigurations, order ranks, prefetch ranks) over
    the schedules that extend a choice for queries 0..i-1.  That prefix left
    the region state (loaded, region_free, arrival), ended its last transfer
    at total and ran reconfigs loads.

    order_choices[i] holds query i's stage terms, one per legal order in
    rank order.  Query i runs once per (order, prefetch), resumed from that
    state, and the state it ends in is the prefix state of query i+1.
    """
    if i == len(s.sequence):
        return total, reconfigs, order_ranks, prefetch_ranks
    queries = (s.sequence[i],)
    # the last query has nothing to prefetch for
    prefetches = prefetch_choices[:1] if i == len(s.sequence) - 1 else prefetch_choices
    least = None
    for order_rank, terms in enumerate(order_choices[i]):
        ranks = order_ranks + (order_rank,)
        ends_on = terms[1][-1][0]  # the module of the order's last stage
        for prefetch_rank, prefetch in enumerate(prefetches):
            if prefetch == ends_on:
                continue
            spans: list = []
            state = _run_queries(s, queries, (terms,), (prefetch,), loaded, region_free, arrival,
                                 spans)
            count = reconfigs + sum(1 for sp in spans if sp[0] == "reconfig")
            key = _least_key(s, order_choices, prefetch_choices, i + 1, *state, count, ranks,
                             prefetch_ranks + (prefetch_rank,))
            if least is None or key < least:
                least = key
    return least


def exhaustive_oracle(s: Scenario) -> StrategyOutcome:
    """The best schedule over every legal order and prefetch choice.

    Guarded to small instances, the library size included: each query
    before the last fans out over no prefetch and every module.  A
    depth-first search over (query, order, prefetch) runs the event loop
    once per node, resuming from the region state its parent left, so
    schedules that share a prefix share its run.
    A prefetch of the module the order ends on is skipped: the loop ignores
    it, so it gives the timeline of no prefetch, which ranks before it.
    The least (total, reconfigurations, order ranks, prefetch ranks) wins,
    where a rank is the position in _legal_orders or in None followed by the
    library; that is the first schedule of the enumeration of all order
    choices, then all prefetch choices, which makes the result deterministic.
    """
    n = len(s.sequence)
    total_invocations = sum(len(q.invocations) for q in s.sequence)
    if (total_invocations > ORACLE_MAX_INVOCATIONS or n > ORACLE_MAX_QUERIES
            or len(s.library) > ORACLE_MAX_MODULES):
        raise InstanceTooLargeError(
            f"instance too large for exhaustive search: {total_invocations} invocations "
            f"over {n} queries, {len(s.library)} modules (limits: {ORACLE_MAX_INVOCATIONS} "
            f"invocations, {ORACLE_MAX_QUERIES} queries, {ORACLE_MAX_MODULES} modules)")

    legal_orders = [_legal_orders(q) for q in s.sequence]
    order_choices = [[stage_terms(q, order, s) for order in orders]
                     for q, orders in zip(s.sequence, legal_orders)]
    prefetch_choices = [None] + [m.id for m in s.library]
    total, _, order_ranks, prefetch_ranks = _least_key(
        s, order_choices, prefetch_choices, 0, None, 0.0, 0.0, 0.0, 0, (), ())
    orders = tuple(legal_orders[i][rank] for i, rank in enumerate(order_ranks))
    prefetches = tuple(prefetch_choices[rank] for rank in prefetch_ranks)
    baseline_total = _timeline(s, plan_baseline(s))
    return StrategyOutcome(
        strategy="oracle",
        schedule=Schedule(orders, prefetches),
        total_ms=total,
        improvement_pct=_improvement(baseline_total, total),
    )


def outcome_document(s: Scenario, outcome: StrategyOutcome) -> dict:
    """JSON-ready report: chosen strategy, totals, schedule, and pair hints."""
    return {
        "strategy": outcome.strategy,
        "total_ms": outcome.total_ms,
        "improvement_pct": outcome.improvement_pct,
        "schedule": schedule_to_doc(s, outcome.schedule),
        "hints": generate_hints(s, find_common_accelerators(s), outcome.schedule),
    }
