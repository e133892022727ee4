"""Schedule planning strategies and the exact optimum.

baseline      lowest-selectivity-first within each query, no prefetch
spec_reconfig baseline order plus speculative reconfiguration between queries
reorder       permute a query so its last accelerator matches the next
              query's first, removing that reconfiguration entirely
combined      reorder first, then speculative reconfiguration on top
auto          the cheapest of the four

optimal       the exact optimum over every legal order and prefetch choice
oracle        a synonym of optimal

The two optimizations trade off: prefetching hides a reconfiguration behind
the previous transfer and gap but leaves a residual when that window is
short, while reordering avoids the reconfiguration outright at the price of
running a less selective accelerator earlier, which inflates the reordered
query itself.
"""
from __future__ import annotations

from itertools import permutations
from operator import add, getitem

from .analyzer import baseline_order, generate_hints
from .costmodel import StageTerms, scaled_stage_terms, stage_terms, term_lookup
from .emulator import _closed_form_table, _run_queries
from .model import Scenario, Schedule, reader_first_pairs, schedule_to_doc
from .record import Record, set_field

FIXED_STRATEGIES = ("baseline", "spec_reconfig", "reorder", "combined")
STRATEGIES = FIXED_STRATEGIES + ("auto", "oracle", "optimal")

OPTIMAL_MAX_WIDTH = 8

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
    """The four fixed-strategy schedules for this scenario.  None of them
    reads a volume or a gap, so a sweep plans them once for all its points."""
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


def candidate_evaluator(s: Scenario, axis: str | None = None):
    """The four candidate schedules of s, by name, and evaluate(value=None),
    which gives their totals by name, in FIXED_STRATEGIES order, from one
    emulation each.  evaluate() runs s as it is.  On a harness.SWEEP_AXES
    axis, evaluate(value) runs s as harness.with_scale_factor(s, value) or
    harness.with_gaps(s, value) would, without the copy; the caller has
    checked the value with record.finite_number, as SweepSpec does.

    Each distinct (query index, order) pair among the candidates is built
    once: the candidates that differ only in prefetches share their orders
    object and so one term list, and a query that reorder leaves in its
    baseline order has one term object in both lists.  The terms read no
    gap, so a gap axis builds them once; a scale axis looks each pair up
    once and builds a point's terms in one scaled_stage_terms call.
    """
    schedules = candidate_schedules(s)
    pairs: dict[tuple[int, tuple[int, ...]], int] = {}
    rows = {}  # positions among pairs of each orders object, by its id
    for sched in schedules.values():
        if id(sched.orders) not in rows:
            rows[id(sched.orders)] = [pairs.setdefault(pair, len(pairs))
                                      for pair in enumerate(sched.orders)]
    sequence = s.sequence
    if axis == "scale_factor":
        lookups = [term_lookup(sequence[i], order, s) for i, order in pairs]
    else:
        built = [stage_terms(sequence[i], order, s) for i, order in pairs]

    def evaluate(value: float | None = None) -> dict[str, float]:
        terms = scaled_stage_terms(lookups, s, value) if axis == "scale_factor" else built
        gap = value if axis == "gap_ms" else None
        lists = {key: [terms[k] for k in row] for key, row in rows.items()}
        return {name: _run_queries(s, lists[id(sched.orders)], sched.prefetches, gap)
                for name, sched in schedules.items()}

    return schedules, evaluate


def _auto_choice(totals: dict[str, float]) -> str:
    """The fixed strategy that "auto" picks from the candidates' totals: the
    cheapest; ties go to the earliest in baseline, spec_reconfig, reorder,
    combined order."""
    return min(FIXED_STRATEGIES, key=totals.__getitem__)


def optimize(s: Scenario, strategy: str = "auto") -> StrategyOutcome:
    """Plan with one strategy: a fixed one, "auto" for the cheapest of the
    four fixed ones, "optimal" for the exact optimum or "oracle", its
    synonym.

    The outcome names the strategy that produced the schedule; see
    _auto_choice for the tie-break under "auto".
    """
    if strategy == "optimal":
        return optimal(s)
    if strategy == "oracle":
        return exhaustive_oracle(s)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy!r}")
    schedules, evaluate = candidate_evaluator(s)
    totals = evaluate()
    name = _auto_choice(totals) if strategy == "auto" else strategy
    return StrategyOutcome(name, schedules[name], totals[name],
                           _improvement(totals["baseline"], totals[name]))


def _legal_orders(q) -> list[tuple[int, ...]]:
    orders = permutations(range(len(q.invocations)))
    if not q.dependencies:
        return list(orders)
    return [perm for perm in orders if not reader_first_pairs(q, perm)]


def _order_choices(s: Scenario) -> tuple[list[list[tuple[int, ...]]], list[list[StageTerms]]]:
    """The legal orders of each query, and their stage terms in that order."""
    legal_orders = [_legal_orders(q) for q in s.sequence]
    return legal_orders, [[stage_terms(q, order, s) for order in orders]
                          for q, orders in zip(s.sequence, legal_orders)]


def _cost_to_go(s: Scenario, order_choices: list[list[StageTerms]]):
    """The exact least closed-form cost of the rest of the sequence, for
    each query and each region state at its arrival, and the schedule that
    attains it from the empty region; order_choices[i] holds query i's
    stage terms, one per legal order in rank order.

    A state is the module owning the region and the residual of a prefetch's
    load.  One emulator._closed_form_table call per query gives its steps
    from each state it can meet and each order's moves to the states it can
    leave, found forward from the empty region.  After query i the choices
    are no prefetch and each module that starts a legal order of query i+1.
    A prefetch of any other module cannot win: query i+1's first load evicts
    it and starts no earlier than with no prefetch, since both timing models
    only take maxes and add nonnegative times, and query i+1 leaves the same
    state either way.  The entries are filled backward, and the schedule is
    walked forward again: each query takes the order whose step plus next
    entry gives its entry, and that order's move with the least next entry.
    Ties go to the least order rank, then to the first move in the moves'
    order: no prefetch, then the modules in library order.

    Returns (states, table, (order ranks, prefetches)), where a state is
    named by its index in states[i], the states query i can meet, and
    states[n] holds those after the last query; ranks index the legal
    orders, and the prefetches are module ids or None, as a Schedule holds.
    table[i][k] is the least closed-form duration of query i from state k,
    plus the gap after it and the next entry, over its orders and
    prefetches, and table[n] is 0.
    """
    n = len(s.sequence)
    library = [m.id for m in s.library]
    states = [[(None, 0.0)]]
    steps, moves = [], []
    for i, q in enumerate(s.sequence):
        if i < n - 1:
            starts = {stages[0][0] for _, stages, _ in order_choices[i + 1]}
            prefetches = [module for module in library if module in starts]
            gap = q.gap_after_ms
        else:
            prefetches, gap = (), 0.0
        rows, query_moves, after = _closed_form_table(s, order_choices[i], states[i],
                                                      prefetches, gap)
        steps.append(rows)
        moves.append(query_moves)
        states.append(after)

    table = [None] * n + [[0.0] * len(states[n])]
    best, tails = [None] * n, [None] * n  # per query and order, its move and next entry
    for i in reversed(range(n)):
        rest = table[i + 1]
        best[i], tails[i] = query_best, query_tails = [], []
        for order_moves in moves[i]:
            move = order_moves[0]
            tail = rest[move[1]]
            for other in order_moves:  # the first again, which is not less
                if rest[other[1]] < tail:
                    move, tail = other, rest[other[1]]
            query_best.append(move)
            query_tails.append(tail)
        table[i] = [min(map(add, row, query_tails)) for row in steps[i]]

    state, order_ranks, prefetches = 0, [], []
    for i, query_best in enumerate(best):
        order_rank = list(map(add, steps[i][state], tails[i])).index(table[i][state])
        prefetch, state = query_best[order_rank]
        order_ranks.append(order_rank)
        prefetches.append(prefetch)
    return states, table, (tuple(order_ranks), tuple(prefetches))


def optimal(s: Scenario) -> StrategyOutcome:
    """The exact optimum over every legal order and prefetch choice, in time
    linear in the number of queries: the forward walk of _cost_to_go's
    table, which breaks ties query by query.  The table only chooses: the
    total is the event loop's, as for every strategy, and so is the baseline
    total, over the terms already built, since the baseline order of each
    query is one of its legal orders.  Each query's legal orders are
    enumerated, so a query may hold at most OPTIMAL_MAX_WIDTH invocations.
    """
    for q in s.sequence:
        if len(q.invocations) > OPTIMAL_MAX_WIDTH:
            raise InstanceTooLargeError(
                f"query {q.id} too wide for the optimal strategy: {len(q.invocations)} "
                f"invocations (limit: {OPTIMAL_MAX_WIDTH} invocations per query)")
    legal_orders, order_choices = _order_choices(s)
    order_ranks, prefetches = _cost_to_go(s, order_choices)[2]
    total = _run_queries(s, list(map(getitem, order_choices, order_ranks)), prefetches)
    base = [choices[orders.index(baseline_order(q))]
            for q, orders, choices in zip(s.sequence, legal_orders, order_choices)]
    return StrategyOutcome("optimal", Schedule(tuple(map(getitem, legal_orders, order_ranks)),
                                               prefetches),
                           total, _improvement(_run_queries(s, base, (None,) * len(base)), total))


def exhaustive_oracle(s: Scenario) -> StrategyOutcome:
    """optimal's outcome under the strategy name "oracle"."""
    outcome = optimal(s)
    return StrategyOutcome("oracle", outcome.schedule, outcome.total_ms, outcome.improvement_pct)


def outcome_document(s: Scenario, outcome: StrategyOutcome) -> dict:
    """JSON-ready report: chosen strategy, totals, schedule, and pair hints."""
    return {
        "strategy": outcome.strategy,
        "total_ms": outcome.total_ms,
        "improvement_pct": outcome.improvement_pct,
        "schedule": schedule_to_doc(s, outcome.schedule),
        "hints": generate_hints(s, outcome.schedule),
    }
