"""Schedule planning strategies, the exact optimum and the exhaustive reference
search.

baseline      lowest-selectivity-first within each query, no prefetch
spec_reconfig baseline order plus speculative reconfiguration between queries
reorder       permute a query so its last accelerator matches the next
              query's first, removing that reconfiguration entirely
combined      reorder first, then speculative reconfiguration on top
auto          the cheapest of the four

optimal       the exact optimum over every legal order and prefetch choice
oracle        the same optimum by exhaustive search, with a full tie-break

candidate_schedules plans the four fixed-strategy schedules; none of them
reads a volume or a gap, so a sweep plans them once for all its points.
candidate_terms builds their stage terms (costmodel.stage_terms) once per
distinct (query, order) among them; the terms read volumes but no gap, so a
gap sweep builds them once for all its points.  fixed_outcomes emulates each
candidate once over those terms and derives every fixed outcome and the auto
pick from the four totals.  It, optimal and the exhaustive search run the
emulator's unchecked event loop, since every schedule they emulate is legal
by construction; optimal and the search build their terms once per (query,
legal order).

optimal and exhaustive_oracle share one table, _cost_to_go.  Consecutive
queries interact only through the region state a query leaves the next: the
module owning the region and the part of a prefetch's load still running.
So for each query and each such state the least closed-form cost of the
rest of the sequence is a dynamic program over the queries, linear in their
number; emulator._closed_form_step, the closed form's step for one query,
gives every cost in it.  optimal walks the table forward from the empty
region.  exhaustive_oracle is the reference the heuristics are measured
against: it starts from optimal's schedule, searches the schedules as a
prefix tree and cuts a child before running it by the table.

The two optimizations trade off: prefetching hides a reconfiguration behind
the previous transfer and gap but leaves a residual when that window is
short, while reordering avoids the reconfiguration outright at the price of
running a less selective accelerator earlier, which inflates the reordered
query itself.
"""
from __future__ import annotations

from itertools import permutations
from operator import add

from .analyzer import baseline_order, generate_hints
from .costmodel import StageTerms, stage_terms
from .emulator import _closed_form_step, _run_queries
from .model import Scenario, Schedule, reader_first_pairs, schedule_to_doc
from .record import Record, set_field

FIXED_STRATEGIES = ("baseline", "spec_reconfig", "reorder", "combined")
STRATEGIES = FIXED_STRATEGIES + ("auto", "oracle", "optimal")

ORACLE_MAX_INVOCATIONS = 8
ORACLE_MAX_QUERIES = 4
ORACLE_MAX_MODULES = 8
OPTIMAL_MAX_WIDTH = 8

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
    """Plan with one strategy: a fixed one, "auto" for the cheapest of the
    four fixed ones, "optimal" for the exact optimum or "oracle" for the
    exhaustive search.

    The outcome names the strategy that produced the schedule; see
    fixed_outcomes for the tie-break under "auto".
    """
    if strategy == "optimal":
        return optimal(s)
    if strategy == "oracle":
        return exhaustive_oracle(s)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy!r}")
    schedules = candidate_schedules(s)
    return fixed_outcomes(s, schedules, candidate_terms(s, schedules))[strategy]


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

    A state is what emulator._closed_form_step passes to the next query:
    the module owning the region and the residual of a prefetch's load.
    After query i the choices are no prefetch and each module that starts a
    legal order of query i+1 (see exhaustive_oracle for why no other can
    win).  The residual a prefetch leaves depends on the query's transfer
    and the gap after it, not on the state the query met, so each order's
    moves are found from one state.  The states of each query are found
    forward from the empty region, the entries are filled backward, and the
    schedule is walked forward again: each query takes the order whose step
    plus next entry gives its entry, and that order's least next entry.
    Ties go to the least order rank, then the least prefetch rank.

    Returns (states, steps, moves, table, (order ranks, prefetch ranks)),
    where a state is named by its index in states[i], the states query i
    can meet, and states[n] holds those after the last query.  steps[i][k]
    lists, per order rank, query i's closed-form duration from state k plus
    the gap after it.  moves[i][rank] lists (prefetch rank, prefetch, next
    state) per prefetch after that order, ranks indexing None followed by
    the library; a prefetch that leaves the state of no prefetch (of the
    module the order ends on, which the loop ignores) is left out.
    table[i][k] is the least step plus next entry over the orders and
    moves, and table[n] is 0.
    """
    n = len(s.sequence)
    library = list(enumerate((m.id for m in s.library), 1))
    states = [[(None, 0.0)]]
    steps, moves = [], []
    for i, (q, choices) in enumerate(zip(s.sequence, order_choices)):
        if i < n - 1:
            gap = q.gap_after_ms
            starts = {terms[1][0][0] for terms in order_choices[i + 1]}
            prefetches = [(rank, module) for rank, module in library if module in starts]
        else:
            gap, prefetches = 0.0, ()
        module, residual = states[i][0]
        index: dict = {}  # the next states, in the order they are met
        head, query_moves = [], []
        for terms in choices:
            duration, owner, unhidden = _closed_form_step(s, terms, module, residual, None, gap)
            head.append(duration + gap)
            plain = index.setdefault((owner, unhidden), len(index))
            order_moves = [(0, None, plain)]
            for rank, prefetch in prefetches:
                after = index.setdefault(
                    _closed_form_step(s, terms, module, residual, prefetch, gap)[1:], len(index))
                if after != plain:
                    order_moves.append((rank, prefetch, after))
            query_moves.append(order_moves)
        query_steps = [head]
        for module, residual in states[i][1:]:
            row = []
            for terms in choices:
                row.append(_closed_form_step(s, terms, module, residual, None, gap)[0] + gap)
            query_steps.append(row)
        steps.append(query_steps)
        moves.append(query_moves)
        states.append(list(index))

    table = [None] * n + [[0.0] * len(states[n])]
    best = [None] * n  # per query and order, (least next entry, its move)
    for i in reversed(range(n)):
        rest = table[i + 1]
        best[i] = query_best = []
        tails = []
        for order_moves in moves[i]:
            move = order_moves[0]
            tail = rest[move[2]]
            for other in order_moves[1:]:
                if rest[other[2]] < tail:
                    move, tail = other, rest[other[2]]
            query_best.append((tail, move))
            tails.append(tail)
        table[i] = [min(map(add, row, tails)) for row in steps[i]]

    state, order_ranks, prefetch_ranks = 0, (), ()
    for i, query_best in enumerate(best):
        costs = [step + tail for step, (tail, _) in zip(steps[i][state], query_best)]
        order_rank = costs.index(table[i][state])
        prefetch_rank, _, state = query_best[order_rank][1]
        order_ranks += (order_rank,)
        prefetch_ranks += (prefetch_rank,)
    return states, steps, moves, table, (order_ranks, prefetch_ranks)


def _ranked_outcome(s: Scenario, strategy: str, legal_orders, order_choices, order_ranks,
                    prefetch_ranks, total: float) -> StrategyOutcome:
    """The outcome of the schedule with these ranks, whose emulated total is
    total; the baseline total is emulated over the terms already built,
    since the baseline order of each query is one of its legal orders."""
    prefetch_choices = [None] + [m.id for m in s.library]
    base = [choices[orders.index(baseline_order(q))]
            for q, orders, choices in zip(s.sequence, legal_orders, order_choices)]
    baseline_total = _run_queries(s, s.sequence, base, (None,) * len(base), None, 0.0, 0.0)[3]
    return StrategyOutcome(
        strategy=strategy,
        schedule=Schedule(tuple(legal_orders[i][rank] for i, rank in enumerate(order_ranks)),
                          tuple(prefetch_choices[rank] for rank in prefetch_ranks)),
        total_ms=total,
        improvement_pct=_improvement(baseline_total, total),
    )


def _emulate_ranks(s: Scenario, order_choices, order_ranks, prefetch_ranks,
                   spans: list | None = None) -> float:
    """The event loop's total of the schedule with these ranks."""
    prefetch_choices = [None] + [m.id for m in s.library]
    return _run_queries(s, s.sequence, [order_choices[i][r] for i, r in enumerate(order_ranks)],
                        [prefetch_choices[r] for r in prefetch_ranks], None, 0.0, 0.0, spans)[3]


def optimal(s: Scenario) -> StrategyOutcome:
    """The exact optimum over every legal order and prefetch choice, in time
    linear in the number of queries: the forward walk of _cost_to_go's
    table.  Consecutive queries interact only through the region state, so
    the least cost of the rest of the sequence from each state settles each
    query's choice.  Ties go to the least order rank, then the least
    prefetch rank, query by query.  The table adds the closed form's terms
    in another order than the event loop, so it only chooses; the total is
    the event loop's, as for every strategy.  Each query's legal orders are
    enumerated, so a query may hold at most OPTIMAL_MAX_WIDTH invocations.
    """
    for q in s.sequence:
        if len(q.invocations) > OPTIMAL_MAX_WIDTH:
            raise InstanceTooLargeError(
                f"query {q.id} too wide for the optimal strategy: {len(q.invocations)} "
                f"invocations (limit: {OPTIMAL_MAX_WIDTH} invocations per query)")
    legal_orders, order_choices = _order_choices(s)
    ranks = _cost_to_go(s, order_choices)[4]
    return _ranked_outcome(s, "optimal", legal_orders, order_choices, *ranks,
                           _emulate_ranks(s, order_choices, *ranks))


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
    prefetch, which ranks first.
    The least (total, reconfigurations, order ranks, prefetch ranks) wins,
    where a rank is the position in _legal_orders or in None followed by the
    library; that is the first schedule of the enumeration of all order
    choices, then all prefetch choices, which makes the result deterministic.
    The search starts from optimal's schedule, emulated, as the best leaf so
    far, and walks the tree of (query, order, prefetch) depth first,
    running the event loop once per node it visits from the region state
    its parent left, so schedules that share a prefix share its run.  A
    child is cut before it runs when its closed-form prefix plus its
    _cost_to_go entry, the least closed-form total of any leaf below it,
    exceeds the best total by more than rounding can explain; the test is
    strict, so a schedule that could tie is never cut.  Reconfigurations are
    counted only between schedules that tie on the total, by replaying each
    from the empty region with spans.
    """
    n = len(s.sequence)
    total_invocations = sum(len(q.invocations) for q in s.sequence)
    if (total_invocations > ORACLE_MAX_INVOCATIONS or n > ORACLE_MAX_QUERIES
            or len(s.library) > ORACLE_MAX_MODULES):
        raise InstanceTooLargeError(
            f"instance too large for exhaustive search: {total_invocations} invocations "
            f"over {n} queries, {len(s.library)} modules (limits: {ORACLE_MAX_INVOCATIONS} "
            f"invocations, {ORACLE_MAX_QUERIES} queries, {ORACLE_MAX_MODULES} modules)")

    legal_orders, order_choices = _order_choices(s)
    _, steps, moves, table, ranks = _cost_to_go(s, order_choices)
    # the least leaf so far: [total, reconfigurations or None until a tie
    # needs them, order ranks, prefetch ranks]
    best = [_emulate_ranks(s, order_choices, *ranks), None, *ranks]

    def reconfigs(order_ranks, prefetch_ranks):
        spans: list = []
        _emulate_ranks(s, order_choices, order_ranks, prefetch_ranks, spans)
        return sum(1 for sp in spans if sp[0] == "reconfig")

    def search(i, region, state, cost, order_ranks, prefetch_ranks):
        """Visit the children of a choice for queries 0..i-1, whose prefix
        left the event loop's region state region and the closed form's
        state after a closed-form cost of cost.  Query i runs once per
        (order, prefetch) not cut, from region.
        """
        queries, rest = (s.sequence[i],), table[i + 1]
        for order_rank, (terms, step, order_moves) in enumerate(
                zip(order_choices[i], steps[i][state], moves[i])):
            here = cost + step
            for prefetch_rank, prefetch, after in order_moves:
                # In real arithmetic every leaf below this child totals at
                # least here + rest[after], in both timing models.  The loop
                # and the closed form take maxes, which are exact, and sums
                # of nonnegative floats, each within a relative 2**-53 of its
                # real value (exact if it underflows); a leaf's total and the
                # bound take a few dozen of them, so they stray by far less
                # than the relative 1e-9 given up here, and a leaf that could
                # tie the best total is never cut.
                if (here + rest[after]) * (1 - 1e-9) > best[0]:
                    continue
                run = _run_queries(s, queries, (terms,), (prefetch,), *region)
                leaf = (order_ranks + (order_rank,), prefetch_ranks + (prefetch_rank,))
                if i + 1 < n:
                    search(i + 1, run[:3], after, here, *leaf)
                elif run[3] < best[0]:
                    best[:] = [run[3], None, *leaf]
                elif run[3] == best[0] and list(leaf) != best[2:]:
                    if best[1] is None:
                        best[1] = reconfigs(*best[2:])
                    key = [reconfigs(*leaf), *leaf]
                    if key < best[1:]:
                        best[1:] = key

    search(0, (None, 0.0, 0.0), 0, 0.0, (), ())
    del search  # it is in its own closure: free the search state now, not at the next gc
    total, _, order_ranks, prefetch_ranks = best
    return _ranked_outcome(s, "oracle", legal_orders, order_choices, order_ranks,
                           prefetch_ranks, total)


def outcome_document(s: Scenario, outcome: StrategyOutcome) -> dict:
    """JSON-ready report: chosen strategy, totals, schedule, and pair hints."""
    return {
        "strategy": outcome.strategy,
        "total_ms": outcome.total_ms,
        "improvement_pct": outcome.improvement_pct,
        "schedule": schedule_to_doc(s, outcome.schedule),
        "hints": generate_hints(s, outcome.schedule),
    }
