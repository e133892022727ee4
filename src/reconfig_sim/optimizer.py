"""Schedule planning strategies and the exhaustive reference search.

baseline      lowest-selectivity-first within each query, no prefetch
spec_reconfig baseline order plus speculative reconfiguration between queries
reorder       permute a query so its last accelerator matches the next
              query's first, removing that reconfiguration entirely
combined      reorder first, then speculative reconfiguration on top
auto          the cheapest of the four

candidate_schedules plans the four fixed-strategy schedules; none of them
reads a volume or a gap, so a sweep plans them once for all its points.
candidate_terms builds their stage terms (costmodel.stage_terms) once per
distinct (query, order) among them; the terms read volumes but no gap, so a
gap sweep builds them once for all its points.  fixed_outcomes emulates each
candidate once over those terms and derives every fixed outcome and the auto
pick from the four totals.  Both it and the exhaustive search run the
emulator's unchecked event loop, since every schedule they emulate is legal
by construction; the search builds its terms once per (query, legal order).

exhaustive_oracle is the reference the heuristics are measured against.  Its
answer is the exhaustive one, but it searches the schedules as a prefix tree
by branch and bound: a query's timeline depends only on the choices for it
and the queries before it, so the search resumes the event loop from the
region state each prefix left instead of emulating every schedule from the
start, and it cuts a prefix whose transfer end plus a lower bound on the
rest of the sequence (_rest_bounds) is above the best total found so far by
more than rounding.  After each query it tries no prefetch and only the
modules that start a legal order of the next query: any other module is
evicted by that query's first load, which starts no earlier, so it adds a
reconfiguration and never lowers the total.  It asks the loop for spans
only to count the reconfigurations of schedules that tie on the total,
which its tie-break ranks next.

The two optimizations trade off: prefetching hides a reconfiguration behind
the previous transfer and gap but leaves a residual when that window is
short, while reordering avoids the reconfiguration outright at the price of
running a less selective accelerator earlier, which inflates the reordered
query itself.
"""
from __future__ import annotations

from itertools import permutations

from .analyzer import baseline_order, generate_hints
from .costmodel import StageTerms, stage_terms
from .emulator import _run_queries, _timeline
from .model import Scenario, Schedule, reader_first_pairs, schedule_to_doc
from .record import Record, set_field

FIXED_STRATEGIES = ("baseline", "spec_reconfig", "reorder", "combined")
STRATEGIES = FIXED_STRATEGIES + ("auto", "oracle")

ORACLE_MAX_INVOCATIONS = 8
ORACLE_MAX_QUERIES = 4
ORACLE_MAX_MODULES = 8

# the stage terms of each query, keyed by the orders of a candidate schedule
CandidateTerms = dict[tuple[tuple[int, ...], ...], list[StageTerms]]


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
    its order is walked from the back, and a query that already ends on the
    target stays as it is.  Otherwise the latest matching invocation that
    no other invocation reads from goes to the end, while the rest keep
    their ascending-selectivity order.  No prefetch directives are added.
    """
    orders = list(base.orders)
    for i in reversed(range(len(s.sequence) - 1)):
        target = s.sequence[i + 1].invocations[orders[i + 1][0]].accelerator_id
        q, order = s.sequence[i], orders[i]
        for position in reversed(range(len(order))):
            idx = order[position]
            if q.invocations[idx].accelerator_id != target:
                continue
            if position == len(order) - 1:  # it already ends on the target
                break
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


def candidate_terms(s: Scenario, schedules: dict[str, Schedule]) -> CandidateTerms:
    """The stage terms of the schedules, keyed by their orders: for each
    distinct orders among them, one entry per query.

    Each (query index, order) is built once, so the candidates that differ
    only in prefetches share one list, and a query that reorder leaves in
    its baseline order shares its terms across both lists.
    """
    built: dict[tuple[int, tuple[int, ...]], StageTerms] = {}
    terms = {}
    for sched in schedules.values():
        if sched.orders in terms:
            continue
        row = terms[sched.orders] = []
        for i, (q, order) in enumerate(zip(s.sequence, sched.orders)):
            term = built.get((i, order))
            if term is None:
                term = built[i, order] = stage_terms(q, order, s)
            row.append(term)
    return terms


def fixed_outcomes(s: Scenario, schedules: dict[str, Schedule], terms: CandidateTerms
                   ) -> dict[str, StrategyOutcome]:
    """The four fixed outcomes plus "auto", from one emulation of each
    candidate schedule.

    schedules is candidate_schedules of s, or of a scenario that differs
    from s only in volumes or gaps, which gives the same schedules.  terms
    is candidate_terms of those schedules on s, or on a scenario that
    differs from s only in gaps, which gives the same terms.  Auto is the
    cheapest fixed outcome; ties go to the earliest strategy in baseline,
    spec_reconfig, reorder, combined order.
    """
    totals = {name: _run_queries(s, s.sequence, terms[sched.orders], sched.prefetches,
                                 None, 0.0, 0.0)[3]
              for name, sched in schedules.items()}
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
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy!r}")
    schedules = candidate_schedules(s)
    return fixed_outcomes(s, schedules, candidate_terms(s, schedules))[strategy]


def _legal_orders(q) -> list[tuple[int, ...]]:
    return [perm for perm in permutations(range(len(q.invocations)))
            if not reader_first_pairs(q, perm)]


def _rest_bounds(s: Scenario, order_choices: list[list[StageTerms]]) -> list[float]:
    """rest[i], a lower bound on what queries i.. add to the total after query
    i-1's transfer end: the gap after query i-1, plus, for each query from i
    on, its least transfer end over its legal orders when it runs alone, from
    a region that holds the order's first module, frees up at 0 and sees the
    query arrive at 0.  In real arithmetic no accelerator of a real run of
    the query starts earlier after its arrival than in that run, so the bound
    holds; the event loop decides the stage costs and residency of both.
    """
    n = len(s.sequence)
    rest = [0.0] * (n + 1)
    for i in reversed(range(n)):
        q = s.sequence[i]
        alone = min(_run_queries(s, (q,), (terms,), (None,), terms[1][0][0], 0.0, 0.0)[3]
                    for terms in order_choices[i])
        rest[i] = (s.sequence[i - 1].gap_after_ms if i else 0.0) + alone + rest[i + 1]
    return rest


def exhaustive_oracle(s: Scenario) -> StrategyOutcome:
    """The best schedule over every legal order and prefetch choice.

    Guarded to small instances, the library size included.  Each query
    before the last fans out over its legal orders times no prefetch and
    the modules that start a legal order of the next query.  A prefetch of
    any other module cannot win: the next query's first load evicts it and
    starts no earlier than with no prefetch, since the loop only takes
    maxes and adds nonnegative times, so that schedule totals no less and
    has more reconfigurations.  A prefetch of the module the order ends on
    is skipped too: the loop ignores it, so it gives the timeline of no
    prefetch, which ranks first.  A depth-first branch and bound over
    (query, order, prefetch) runs the event loop once per node it visits,
    resuming from the region state its parent left, so schedules that share
    a prefix share its run.  A node is skipped when its transfer end plus
    _rest_bounds of the queries after it exceeds the best total found so
    far by more than rounding can explain; the test is strict, so a
    schedule that could tie is never skipped.
    The least (total, reconfigurations, order ranks, prefetch ranks) wins,
    where a rank is the position in _legal_orders or in None followed by the
    library; that is the first schedule of the enumeration of all order
    choices, then all prefetch choices, which makes the result deterministic.
    Reconfigurations are counted only between schedules that tie on the
    total, by replaying each from the empty region with spans.
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
    # query i's stage terms, one per legal order in rank order
    order_choices = [[stage_terms(q, order, s) for order in orders]
                     for q, orders in zip(s.sequence, legal_orders)]
    prefetch_choices = [None] + [m.id for m in s.library]
    # the (rank, prefetch) pairs query i tries: None, and each module that
    # starts a legal order of query i+1; the last query has nothing to
    # prefetch for
    starts = [{terms[1][0][0] for terms in choices} for choices in order_choices[1:]] + [()]
    prefetch_lists = [[(rank, prefetch) for rank, prefetch in enumerate(prefetch_choices)
                       if prefetch is None or prefetch in modules] for modules in starts]
    rest = _rest_bounds(s, order_choices)
    # the least leaf so far: [total, reconfigurations or None until a tie
    # needs them, order ranks, prefetch ranks]
    best = None

    def reconfigs(order_ranks, prefetch_ranks):
        spans: list = []
        _run_queries(s, s.sequence, [order_choices[i][r] for i, r in enumerate(order_ranks)],
                     [prefetch_choices[r] for r in prefetch_ranks], None, 0.0, 0.0, spans)
        return sum(1 for sp in spans if sp[0] == "reconfig")

    def search(i, loaded, region_free, arrival, total, order_ranks, prefetch_ranks):
        """Visit the schedules that extend a choice for queries 0..i-1, whose
        prefix left the region state (loaded, region_free, arrival) and ended
        its last transfer at total.  Query i runs once per (order, prefetch)
        from that state, which gives query i+1's.
        """
        nonlocal best
        # In real arithmetic over the same stage terms, every leaf below this
        # node totals at least total + rest[i].  The loop and _rest_bounds
        # take maxes, which are exact, and sums of nonnegative floats, each
        # within a relative 2**-53 of its real value (exact if it underflows);
        # a leaf's total and rest[i] take a few dozen of them, so they stray
        # by far less than the relative 1e-9 given up here, and a leaf that
        # could tie the best total is never cut.
        if best is not None and (total + rest[i]) * (1 - 1e-9) > best[0]:
            return
        if i == n:
            if best is None or total < best[0]:
                best = [total, None, order_ranks, prefetch_ranks]
            elif total == best[0]:
                if best[1] is None:
                    best[1] = reconfigs(best[2], best[3])
                key = [reconfigs(order_ranks, prefetch_ranks), order_ranks, prefetch_ranks]
                if key < best[1:]:
                    best[1:] = key
            return
        queries = (s.sequence[i],)
        for order_rank, terms in enumerate(order_choices[i]):
            ranks = order_ranks + (order_rank,)
            ends_on = terms[1][-1][0]  # the module of the order's last stage
            for prefetch_rank, prefetch in prefetch_lists[i]:
                if prefetch != ends_on:
                    search(i + 1, *_run_queries(s, queries, (terms,), (prefetch,), loaded,
                                                region_free, arrival),
                           ranks, prefetch_ranks + (prefetch_rank,))

    search(0, None, 0.0, 0.0, 0.0, (), ())
    del search  # it is in its own closure: free the search state now, not at the next gc
    total, _, order_ranks, prefetch_ranks = best
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
        "hints": generate_hints(s, outcome.schedule),
    }
