"""Schedule planning strategies and the exhaustive reference search.

baseline      lowest-selectivity-first within each query, no prefetch
spec_reconfig baseline order plus speculative reconfiguration between queries
reorder       permute a query so its last accelerator matches the next
              query's first, removing that reconfiguration entirely
combined      reorder first, then speculative reconfiguration on top
auto          the cheapest of the four

fixed_outcomes plans the four candidate schedules once, emulates each once,
and derives every fixed outcome and the auto pick from those four totals.

The two optimizations trade off: prefetching hides a reconfiguration behind
the previous transfer and gap but leaves a residual when that window is
short, while reordering avoids the reconfiguration outright at the price of
running a less selective accelerator earlier, which inflates the reordered
query itself.
"""
from __future__ import annotations

from itertools import permutations, product

from .analyzer import baseline_order, find_common_accelerators, generate_hints
from .emulator import _timeline
from .model import Scenario, Schedule, schedule_to_doc
from .record import Record, set_field

FIXED_STRATEGIES = ("baseline", "spec_reconfig", "reorder", "combined")
STRATEGIES = FIXED_STRATEGIES + ("auto", "oracle")

ORACLE_MAX_INVOCATIONS = 8
ORACLE_MAX_QUERIES = 4


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
            produced = q.invocations[idx].produces
            if any(produced & q.invocations[other].reads for other in order if other != idx):
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


def fixed_outcomes(s: Scenario) -> dict[str, StrategyOutcome]:
    """The four fixed outcomes plus "auto", from one plan and four emulations.

    Auto is the cheapest fixed outcome; ties go to the earliest strategy in
    baseline, spec_reconfig, reorder, combined order.
    """
    schedules = candidate_schedules(s)
    totals = {name: _timeline(s, sched)[2] for name, sched in schedules.items()}
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
    return fixed_outcomes(s)[strategy]


def _legal_orders(q) -> list[tuple[int, ...]]:
    orders = []
    for perm in permutations(range(len(q.invocations))):
        position = {idx: pos for pos, idx in enumerate(perm)}
        if all(position[producer] < position[reader] for producer, reader in q.dependencies):
            orders.append(perm)
    return orders


def exhaustive_oracle(s: Scenario) -> StrategyOutcome:
    """Brute-force the best schedule over all orders and prefetch choices.

    Guarded to small instances.  Ties prefer fewer reconfigurations, then
    enumeration order, which makes the result deterministic.
    """
    n = len(s.sequence)
    total_invocations = sum(len(q.invocations) for q in s.sequence)
    if total_invocations > ORACLE_MAX_INVOCATIONS or n > ORACLE_MAX_QUERIES:
        raise InstanceTooLargeError(
            f"instance too large for exhaustive search: {total_invocations} invocations "
            f"over {n} queries (limits: {ORACLE_MAX_INVOCATIONS} and {ORACLE_MAX_QUERIES})")

    module_ids = [m.id for m in s.library]
    order_choices = [_legal_orders(q) for q in s.sequence]
    prefetch_choices = [[None] + module_ids if i < n - 1 else [None] for i in range(n)]

    best: Schedule | None = None
    best_key: tuple[float, int] | None = None
    for orders in product(*order_choices):
        for prefetches in product(*prefetch_choices):
            sch = Schedule(orders, prefetches)
            spans, _, total = _timeline(s, sch)
            key = (total, sum(1 for sp in spans if sp[0] == "reconfig"))
            if best_key is None or key < best_key:
                best, best_key = sch, key

    assert best is not None and best_key is not None
    baseline_total = _timeline(s, plan_baseline(s))[2]
    return StrategyOutcome(
        strategy="oracle",
        schedule=best,
        total_ms=best_key[0],
        improvement_pct=_improvement(baseline_total, best_key[0]),
    )


def outcome_document(s: Scenario, outcome: StrategyOutcome) -> dict:
    """JSON-ready report: chosen strategy, totals, schedule, and pair hints."""
    reuse = find_common_accelerators(s)
    hints = generate_hints(s, reuse, outcome.schedule)
    hint_docs = []
    for i, hint in enumerate(hints):
        hint_docs.append({
            "after_query": s.sequence[i].id,
            "next_query": s.sequence[i + 1].id,
            "next_first_module": hint.next_first_module,
            "reusable_modules": sorted(hint.reusable_modules),
            "expected_gap_ms": hint.expected_gap_ms,
        })
    return {
        "strategy": outcome.strategy,
        "total_ms": outcome.total_ms,
        "improvement_pct": outcome.improvement_pct,
        "schedule": schedule_to_doc(s, outcome.schedule),
        "hints": hint_docs,
    }
