import json
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfig_sim import emulator, optimizer
from reconfig_sim.costmodel import propagate_volumes
from reconfig_sim.emulator import SPECULATIVE, Span, execute_schedule
from reconfig_sim.harness import bundled_names, load_bundled, with_gaps, with_scale_factor
from reconfig_sim.model import Schedule, load_scenario, validate_schedule
from reconfig_sim.optimizer import (
    FIXED_STRATEGIES,
    ORACLE_MAX_INVOCATIONS,
    ORACLE_MAX_MODULES,
    ORACLE_MAX_QUERIES,
    STRATEGIES,
    InstanceTooLargeError,
    StrategyOutcome,
    _legal_orders,
    candidate_schedules,
    exhaustive_oracle,
    fixed_outcomes,
    optimize,
    outcome_document,
    plan_baseline,
)

from conftest import make_chained_scenario, make_random_scenario

_GT = {"kind": "compare_gt", "operand_type": "int32"}
_LT = {"kind": "compare_lt", "operand_type": "int32"}


def _scenario(tables, library, sequence):
    doc = {
        "rpu": {"storage_rate": 1.0, "network_rate": 0.2,
                "default_reconfig_ms": 15.0, "pr_region_count": 1},
        "tables": tables, "library": library, "sequence": sequence,
    }
    return load_scenario(json.dumps(doc))


def test_strategy_constants():
    assert STRATEGIES == ("baseline", "spec_reconfig", "reorder", "combined",
                          "auto", "oracle")


def test_baseline_runs_most_selective_first():
    s = _scenario(
        [{"id": "t", "volume": 10.0}],
        [{"id": "m", "supported_ops": [_GT], "proc_rate": 2.0}],
        [{"id": "Q0", "table": "t", "invocations": [
            {"accelerator": "m", "predicate": "a > 1", "selectivity": 0.8, "reads": ["a"]},
            {"accelerator": "m", "predicate": "b > 2", "selectivity": 0.5, "reads": ["b"]},
        ]}])
    assert plan_baseline(s).orders == ((1, 0),)


def test_candidate_schedules_for_canonical_pair(seq2):
    schedules = candidate_schedules(seq2)
    assert schedules["baseline"].orders == ((0, 1), (0,))
    assert schedules["baseline"].prefetches == (None, None)
    assert schedules["spec_reconfig"].orders == ((0, 1), (0,))
    assert schedules["spec_reconfig"].prefetches == ("accA", None)
    assert schedules["reorder"].orders == ((1, 0), (0,))
    assert schedules["reorder"].prefetches == (None, None)
    # after the reorder the reused module is already resident, so the
    # combined plan has nothing left to prefetch
    assert schedules["combined"].orders == ((1, 0), (0,))
    assert schedules["combined"].prefetches == (None, None)


def test_speculative_skips_already_resident_module(corpus):
    s = dict(corpus)["corpus/q10"]
    schedules = candidate_schedules(s)
    assert schedules["spec_reconfig"].prefetches == (None, None)
    totals = {name: execute_schedule(s, sched).total_ms
              for name, sched in schedules.items()}
    assert len(set(totals.values())) == 1
    assert optimize(s, "auto").strategy == "baseline"
    assert optimize(s, "auto").improvement_pct == 0.0


def test_reorder_leaves_dependent_producer_in_place():
    calc = {"id": "calc", "proc_rate": 2.0,
            "supported_ops": [{"kind": "arith_mul", "operand_type": "int32"},
                              {"kind": "compare_eq", "operand_type": "int32"}]}
    thresh = {"id": "thresh", "supported_ops": [_GT], "proc_rate": 2.0}
    s = _scenario(
        [{"id": "t0", "volume": 10.0}, {"id": "t1", "volume": 10.0}],
        [calc, thresh],
        [
            {"id": "Q0", "table": "t0", "invocations": [
                {"accelerator": "calc", "predicate": "rev = price * qty",
                 "selectivity": 0.3, "reads": ["price", "qty"], "produces": ["rev"]},
                {"accelerator": "thresh", "predicate": "rev > 10",
                 "selectivity": 0.5, "reads": ["rev"]},
            ]},
            {"id": "Q1", "table": "t1", "invocations": [
                {"accelerator": "calc", "predicate": "rev2 = a * b",
                 "selectivity": 0.5, "reads": ["a", "b"], "produces": ["rev2"]},
            ]},
        ])
    schedules = candidate_schedules(s)
    assert schedules["reorder"].orders == schedules["baseline"].orders


def test_reorder_moves_the_latest_matching_invocation():
    s = _scenario(
        [{"id": "t0", "volume": 10.0}, {"id": "t1", "volume": 10.0}],
        [{"id": "accA", "supported_ops": [_GT], "proc_rate": 2.0},
         {"id": "accB", "supported_ops": [_LT], "proc_rate": 2.0}],
        [
            {"id": "Q0", "table": "t0", "invocations": [
                {"accelerator": "accA", "predicate": "a > 1", "selectivity": 0.2, "reads": ["a"]},
                {"accelerator": "accA", "predicate": "b > 2", "selectivity": 0.4, "reads": ["b"]},
                {"accelerator": "accB", "predicate": "c < 3", "selectivity": 0.6, "reads": ["c"]},
            ]},
            {"id": "Q1", "table": "t1", "invocations": [
                {"accelerator": "accA", "predicate": "d > 4", "selectivity": 0.5, "reads": ["d"]},
            ]},
        ])
    assert candidate_schedules(s)["reorder"].orders[0] == (0, 2, 1)


def test_reorder_processes_pairs_back_to_front():
    """The middle query is retargeted first, so the front pair must chase the
    middle query's new first module, not its original one."""
    s = _scenario(
        [{"id": "t0", "volume": 10.0}, {"id": "t1", "volume": 10.0},
         {"id": "t2", "volume": 10.0}],
        [{"id": "accA", "supported_ops": [_GT], "proc_rate": 2.0},
         {"id": "accB", "supported_ops": [_LT], "proc_rate": 2.0}],
        [
            {"id": "Q0", "table": "t0", "invocations": [
                {"accelerator": "accB", "predicate": "a < 5", "selectivity": 0.3, "reads": ["a"]},
                {"accelerator": "accA", "predicate": "b > 5", "selectivity": 0.6, "reads": ["b"]},
            ]},
            {"id": "Q1", "table": "t1", "invocations": [
                {"accelerator": "accA", "predicate": "c > 1", "selectivity": 0.2, "reads": ["c"]},
                {"accelerator": "accB", "predicate": "d < 9", "selectivity": 0.7, "reads": ["d"]},
            ]},
            {"id": "Q2", "table": "t2", "invocations": [
                {"accelerator": "accA", "predicate": "e > 2", "selectivity": 0.5, "reads": ["e"]},
            ]},
        ])
    assert candidate_schedules(s)["reorder"].orders == ((1, 0), (1, 0), (0,))


def test_auto_picks_speculative_at_full_volume(seq2):
    outcome = optimize(seq2, "auto")
    assert outcome.strategy == "spec_reconfig"
    assert outcome.total_ms == pytest.approx(101.0, abs=1e-9)
    assert outcome.improvement_pct == pytest.approx(900.0 / 110.0, abs=1e-7)


def test_auto_picks_reorder_at_quarter_volume(seq2_small):
    outcome = optimize(seq2_small, "auto")
    assert outcome.strategy == "reorder"
    assert outcome.total_ms == pytest.approx(49.6, abs=1e-9)
    assert outcome.improvement_pct == pytest.approx(20.64, abs=1e-7)


def test_fixed_strategy_totals(seq2, seq2_small):
    expected = {
        seq2: {"baseline": 110.0, "spec_reconfig": 101.0,
               "reorder": 103.4, "combined": 103.4},
        seq2_small: {"baseline": 62.5, "spec_reconfig": 52.5,
                     "reorder": 49.6, "combined": 49.6},
    }
    for s, totals in expected.items():
        for strategy, total in totals.items():
            outcome = optimize(s, strategy)
            assert outcome.strategy == strategy
            assert outcome.total_ms == pytest.approx(total, abs=1e-9), strategy


def test_improvement_is_relative_to_baseline(seq2):
    base = optimize(seq2, "baseline").total_ms
    for strategy in FIXED_STRATEGIES:
        outcome = optimize(seq2, strategy)
        assert outcome.improvement_pct == pytest.approx(
            100.0 * (base - outcome.total_ms) / base, abs=1e-9)


def test_prefetch_saving_follows_the_hiding_formula(seq2):
    """Doubling the volumes shrinks the saving to 3 ms: the 15 ms load now
    hides entirely behind the 64 ms transfer, but the 12 ms scan already
    covered most of it."""
    doubled = with_scale_factor(seq2, 2.0)
    assert optimize(doubled, "baseline").total_ms == pytest.approx(188.0, abs=1e-9)
    assert optimize(doubled, "spec_reconfig").total_ms == pytest.approx(185.0, abs=1e-9)

    # saving = max(scan, load) - max(scan, residual), with the residual
    # clamped at zero once transfer plus gap exceed the load time
    scan = 12.0
    load = 15.0
    transfer = (6.4 * 2.0) / 0.2
    residual = max(0.0, load - (transfer + 2.0))
    assert 188.0 - 185.0 == pytest.approx(max(scan, load) - max(scan, residual), abs=1e-9)


def test_long_gap_hides_the_load_entirely(seq2, corpus):
    relaxed = with_gaps(seq2, 25.0)
    assert optimize(relaxed, "baseline").total_ms == pytest.approx(133.0, abs=1e-9)
    assert optimize(relaxed, "spec_reconfig").total_ms == pytest.approx(124.0, abs=1e-9)

    # when the scan is longer than the load, hiding it saves nothing
    s = dict(corpus)["corpus/q11"]
    schedules = candidate_schedules(s)
    spec = execute_schedule(s, schedules["spec_reconfig"])
    base = execute_schedule(s, schedules["baseline"])
    assert spec.total_ms == pytest.approx(base.total_ms, abs=1e-9)
    speculative = [sp for sp in spec.spans if sp.query_id == SPECULATIVE]
    scan_q1 = next(sp for sp in spec.spans if sp.lane == "scan" and sp.query_id == "Q1")
    assert len(speculative) == 1
    assert speculative[0].end_ms <= scan_q1.end_ms


def test_auto_never_loses_to_baseline_sampled(random_scenario):
    for seed in range(40):
        rng = random.Random(seed)
        s = random_scenario(rng, rng.randint(2, 4))
        auto = optimize(s, "auto")
        base = optimize(s, "baseline")
        assert auto.total_ms <= base.total_ms + 1e-9, seed


def _outcomes_by_separate_emulation(s):
    """Every fixed outcome and the auto pick, emulating each candidate on its
    own; auto keeps the first strategy, in FIXED_STRATEGIES order, with the
    lowest total."""
    schedules = candidate_schedules(s)
    totals = {name: execute_schedule(s, schedules[name]).total_ms for name in FIXED_STRATEGIES}
    base = totals["baseline"]
    outcomes = {name: StrategyOutcome(name, schedules[name], totals[name],
                                      0.0 if base == 0.0 else 100.0 * (base - totals[name]) / base)
                for name in FIXED_STRATEGIES}
    winner = "baseline"
    for name in FIXED_STRATEGIES:
        if totals[name] < totals[winner]:
            winner = name
    outcomes["auto"] = outcomes[winner]
    return outcomes


def test_fixed_outcomes_match_separate_emulation(seq2, seq2_small, corpus, random_scenario):
    scenarios = [seq2, seq2_small] + [s for _, s in corpus]
    for seed in range(50):
        rng = random.Random(seed)
        scenarios.append(random_scenario(rng, rng.randint(1, 5)))
    tied_winners = 0
    for s in scenarios:
        expected = _outcomes_by_separate_emulation(s)
        outcomes = fixed_outcomes(s, candidate_schedules(s))
        assert outcomes == expected
        assert list(outcomes) == [*FIXED_STRATEGIES, "auto"]
        for strategy, outcome in expected.items():
            assert optimize(s, strategy) == outcome
        best = expected["auto"].total_ms
        tied_winners += sum(expected[name].total_ms == best for name in FIXED_STRATEGIES) > 1
    assert tied_winners > 0  # the sample exercises the tie-break


def test_auto_tie_goes_to_baseline():
    s = _scenario(
        tables=[{"id": "t0", "volume": 10.0}, {"id": "t1", "volume": 5.0}],
        library=[{"id": "m0", "supported_ops": [_GT], "proc_rate": 2.0}],
        sequence=[
            {"id": "Q0", "table": "t0", "gap_after_ms": 1.0, "invocations": [
                {"accelerator": "m0", "predicate": "a > 1", "selectivity": 0.5,
                 "reads": ["a"]}]},
            {"id": "Q1", "table": "t1", "invocations": [
                {"accelerator": "m0", "predicate": "b > 2", "selectivity": 0.2,
                 "reads": ["b"]}]},
        ])
    outcomes = fixed_outcomes(s, candidate_schedules(s))
    assert len({outcomes[name].total_ms for name in FIXED_STRATEGIES}) == 1
    assert outcomes["auto"].strategy == "baseline"
    assert optimize(s, "auto") == optimize(s, "baseline")


def test_oracle_matches_known_optima(seq2, seq2_small):
    outcome = exhaustive_oracle(seq2)
    assert outcome.strategy == "oracle"
    assert outcome.total_ms == pytest.approx(101.0, abs=1e-9)
    assert exhaustive_oracle(seq2_small).total_ms == pytest.approx(49.6, abs=1e-9)
    assert optimize(seq2, "oracle").total_ms == pytest.approx(101.0, abs=1e-9)


def test_oracle_never_above_any_strategy(seq2, seq2_small, corpus):
    scenarios = dict(corpus)
    for s in (seq2, seq2_small, scenarios["corpus/q03"], scenarios["corpus/q13"]):
        best = exhaustive_oracle(s).total_ms
        for strategy in FIXED_STRATEGIES:
            assert best <= optimize(s, strategy).total_ms + 1e-9


def test_planners_compare_totals_without_spans(seq2, seq2_small, monkeypatch):
    built = []
    original = Span.__init__

    def counting(sp, *fields):
        built.append(sp)
        original(sp, *fields)

    monkeypatch.setattr(Span, "__init__", counting)
    for s in (seq2, seq2_small):
        fixed_outcomes(s, candidate_schedules(s))
        exhaustive_oracle(s)
    assert built == []
    execute_schedule(seq2, plan_baseline(seq2))
    assert len(built) == 10  # the counter sees spans where they are built


def _runs_producers_first(q, order):
    """No invocation runs before one that produces an attribute it reads;
    read from produces and reads, not from the stored dependency pairs."""
    return not any(q.invocations[earlier].reads & q.invocations[later].produces
                   for pos, earlier in enumerate(order) for later in order[pos + 1:])


def _over_modules(s, rng, n_modules):
    """s with its invocations spread at random over copies of its first module."""
    ids = [f"{s.library[0].id}{j}" for j in range(n_modules)]
    library = tuple(s.library[0].replace(id=module_id) for module_id in ids)
    sequence = tuple(q.replace(invocations=tuple(inv.replace(accelerator_id=rng.choice(ids))
                                                 for inv in q.invocations))
                     for q in s.sequence)
    return s.replace(library=library, sequence=sequence)


def _keyed_schedules(s):
    """Every legal order and prefetch choice in the oracle's enumeration
    order, each keyed by (emulated total, reconfiguration spans)."""
    n = len(s.sequence)
    prefetch_choices = [[None] + [m.id for m in s.library] if i < n - 1 else [None]
                        for i in range(n)]
    keyed = []
    for orders in product(*(permutations(range(len(q.invocations))) for q in s.sequence)):
        if not all(_runs_producers_first(q, order) for q, order in zip(s.sequence, orders)):
            continue
        for prefetches in product(*prefetch_choices):
            schedule = Schedule(orders, prefetches)
            report = execute_schedule(s, schedule)
            keyed.append(((report.total_ms, sum(sp.lane == "reconfig" for sp in report.spans)),
                          schedule))
    return keyed


def _zero_loads(s):
    return s.replace(rpu=s.rpu.replace(default_reconfig_ms=0.0),
                     library=tuple(m.replace(reconfig_ms=0.0) for m in s.library))


def _at_the_guard(rng, n_modules):
    """A random instance of the largest shape the oracle accepts: four
    queries, eight invocations spread over n_modules modules of their own
    rates and load times."""
    s = make_random_scenario(rng, ORACLE_MAX_QUERIES)
    while sum(len(q.invocations) for q in s.sequence) != ORACLE_MAX_INVOCATIONS:
        s = make_random_scenario(rng, ORACLE_MAX_QUERIES)
    library = tuple(s.library[0].replace(id=f"g{j}", proc_rate=round(rng.uniform(0.5, 4.0), 3),
                                         reconfig_ms=rng.choice((None, rng.uniform(0, 25))))
                    for j in range(n_modules))
    sequence = tuple(q.replace(invocations=tuple(inv.replace(accelerator_id=rng.choice(library).id)
                                                 for inv in q.invocations))
                     for q in s.sequence)
    return s.replace(library=library, sequence=sequence)


def _orders_rank_before_prefetches():
    """Q1 running B then C with B prefetched ties on (total, reconfigurations)
    with Q1 running C then B with C prefetched.  The first has the lower order
    ranks, the second the lower prefetch rank: the library lists C before B."""
    s = _scenario(
        tables=[{"id": "t", "volume": 8.0}],
        library=[{"id": m, "supported_ops": [_GT], "proc_rate": 2.0} for m in "ACB"],
        sequence=[
            {"id": "Q0", "table": "t", "gap_after_ms": 20.0, "invocations": [
                {"accelerator": "A", "predicate": "a > 1", "selectivity": 0.5, "reads": ["a"]}]},
            {"id": "Q1", "table": "t", "invocations": [
                {"accelerator": "B", "predicate": "b > 1", "selectivity": 0.5, "reads": ["b"]},
                {"accelerator": "C", "predicate": "c > 1", "selectivity": 0.5, "reads": ["c"]}]},
        ])
    return s.replace(rpu=s.rpu.replace(storage_rate=4.0, network_rate=2.0,
                                       default_reconfig_ms=10.0))


def test_oracle_ranks_every_order_before_any_prefetch():
    """The tie-break compares the order ranks of all queries before any
    prefetch rank, as enumerating all order choices, then all prefetch
    choices, does; a search that ranks query by query, order then
    prefetch, would pick the C-first schedule."""
    s = _orders_rank_before_prefetches()
    first, second = (Schedule(((0,), (0, 1)), ("B", None)), Schedule(((0,), (1, 0)), ("C", None)))
    for schedule in (first, second):
        report = execute_schedule(s, schedule)
        assert (report.total_ms, sum(sp.lane == "reconfig" for sp in report.spans)) == (55.0, 3)
    outcome = exhaustive_oracle(s)
    assert (outcome.schedule, outcome.total_ms) == (first, 55.0)


def test_oracle_shares_schedule_prefixes(monkeypatch):
    """The oracle runs the event loop once per node of its search tree, a
    (query, order, prefetch) below the choices for the queries before it,
    skipping a prefetch of the module the order ends on; and once over the
    whole sequence for the baseline total.  It builds the stage terms once
    per (query, legal order), and once per query for the baseline."""
    s = _at_the_guard(random.Random(72), 3)
    runs, builds = [], []
    run, build = emulator._run_queries, emulator.stage_terms
    for module in (emulator, optimizer):
        monkeypatch.setattr(module, "_run_queries",
                            lambda s, queries, *rest: runs.append(len(queries))
                            or run(s, queries, *rest))
        monkeypatch.setattr(module, "stage_terms",
                            lambda *args: builds.append(args) or build(*args))
    exhaustive_oracle(s)
    n = len(s.sequence)
    nodes, paths, schedules = 0, 1, 1
    for i, q in enumerate(s.sequence):
        prefetches = [None] + [m.id for m in s.library] if i < n - 1 else [None]
        orders = _legal_orders(q)
        paths *= sum(1 for order in orders for prefetch in prefetches
                     if prefetch != q.invocations[order[-1]].accelerator_id)
        nodes += paths
        schedules *= len(orders) * len(prefetches)
    assert sum(runs) == nodes + n
    assert len(builds) == sum(len(_legal_orders(q)) for q in s.sequence) + n
    # at most a quarter of the query runs of emulating every schedule whole
    assert 4 * sum(runs) <= n * schedules


def test_oracle_tie_break_matches_brute_force(seq2, seq2_small, random_scenario,
                                              chained_scenario):
    """The oracle returns the first enumerated schedule with the least
    (total, reconfigurations) key; zero-time loads make totals tie often.
    Chained instances, some spread over two modules, make the legal orders
    a strict subset of the permutations.  Ten instances at the full guard,
    half of them with zero-time loads, have the oracle benchmark's shape."""
    # Q0's two orders tie on the total exactly; only (1, 0) ends on Q1's module
    reuse_decides = _scenario(
        tables=[{"id": "t0", "volume": 16.0}, {"id": "t1", "volume": 8.0}],
        library=[{"id": "A", "supported_ops": [_GT], "proc_rate": 2.0, "reconfig_ms": 0.0},
                 {"id": "B", "supported_ops": [_GT], "proc_rate": 4.0, "reconfig_ms": 0.0}],
        sequence=[
            {"id": "Q0", "table": "t0", "gap_after_ms": 1.0, "invocations": [
                {"accelerator": "A", "predicate": "a > 1", "selectivity": 1.0, "reads": ["a"]},
                {"accelerator": "B", "predicate": "b > 1", "selectivity": 1.0, "reads": ["b"]}]},
            {"id": "Q1", "table": "t1", "invocations": [
                {"accelerator": "A", "predicate": "c > 1", "selectivity": 0.5, "reads": ["c"]}]},
        ])
    assert exhaustive_oracle(reuse_decides).schedule == Schedule(((1, 0), (0,)), (None, None))
    scenarios = [seq2, seq2_small, reuse_decides]
    rng = random.Random(70_000)
    while len(scenarios) < 53:
        s = random_scenario(rng, 4)
        if sum(len(q.invocations) for q in s.sequence) > ORACLE_MAX_INVOCATIONS:
            continue
        scenarios.append(_zero_loads(s) if len(scenarios) % 2 else s)
    while len(scenarios) < 73:
        s = chained_scenario(rng, rng.randint(1, 4))
        if sum(len(q.invocations) for q in s.sequence) > ORACLE_MAX_INVOCATIONS:
            continue
        scenarios.append(_over_modules(s, rng, 2) if len(scenarios) % 2 else s)
    assert sum(1 for s in scenarios[53:] for q in s.sequence if q.dependencies) > 10
    scenarios.append(_orders_rank_before_prefetches())
    for k in range(10):
        s = _at_the_guard(rng, 3 + k % 2)
        scenarios.append(_zero_loads(s) if k < 5 else s)
    decided_by_reconfigs = decided_by_order = 0
    for s in scenarios:
        keyed = _keyed_schedules(s)
        best = min(key for key, _ in keyed)
        winner = next(schedule for key, schedule in keyed if key == best)
        outcome = exhaustive_oracle(s)
        assert (outcome.schedule, outcome.total_ms) == (winner, best[0])
        first_least_total = next(schedule for key, schedule in keyed if key[0] == best[0])
        decided_by_reconfigs += first_least_total != winner
        decided_by_order += sum(key == best for key, _ in keyed) > 1
    assert decided_by_reconfigs > 0 and decided_by_order > 0


def _within_oracle_guard(s):
    return (len(s.sequence) <= ORACLE_MAX_QUERIES and len(s.library) <= ORACLE_MAX_MODULES
            and sum(len(q.invocations) for q in s.sequence) <= ORACLE_MAX_INVOCATIONS)


def test_candidate_schedules_are_legal_on_chains(corpus, random_scenario, chained_scenario):
    """fixed_outcomes and the oracle emulate their schedules unchecked, so
    every planner's output must pass validate_schedule: the four candidates
    on bundled, random and chained scenarios, and the oracle's pick on each
    of them within its guard."""
    rng = random.Random(71)
    scenarios = [s for _, s in corpus]
    scenarios += [random_scenario(rng, rng.randint(1, 5)) for _ in range(40)]
    scenarios += [_over_modules(chained_scenario(rng, rng.randint(1, 4)), rng, 3)
                  for _ in range(80)]
    reordered = searched = 0
    for s in scenarios:
        schedules = candidate_schedules(s)
        for name, schedule in schedules.items():
            assert validate_schedule(s, schedule) == [], name
        reordered += schedules["reorder"] != schedules["baseline"]
        if _within_oracle_guard(s):
            assert validate_schedule(s, exhaustive_oracle(s).schedule) == []
            searched += 1
    assert reordered > 10 and searched > 50


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("bundled", "random", "chained")),
       st.floats(1e-3, 1e3), st.floats(0.0, 1e4))
def test_candidate_schedules_are_the_same_at_every_sweep_point(seed, source, scale, gap):
    """A sweep plans the candidates once, on its input scenario, and emulates
    them at every point; that holds only while no planner reads a volume or
    a gap."""
    rng = random.Random(seed)
    if source == "bundled":
        s = load_bundled(rng.choice(bundled_names()))
    elif source == "random":
        s = make_random_scenario(rng, rng.randint(1, 6))
    else:
        s = _over_modules(make_chained_scenario(rng, rng.randint(1, 4)), rng, 3)
    planned = candidate_schedules(s)
    assert candidate_schedules(with_scale_factor(s, scale)) == planned
    assert candidate_schedules(with_gaps(s, gap)) == planned


def test_oracle_guard_rejects_large_instances(random_scenario):
    s = random_scenario(random.Random(3), 5)
    with pytest.raises(InstanceTooLargeError, match="instance too large for exhaustive search"):
        exhaustive_oracle(s)


def test_oracle_guard_rejects_large_libraries():
    """Each query before the last fans out over no prefetch and every
    module, so the search grows with the library even at four queries and
    eight invocations."""
    rng = random.Random(5)
    exhaustive_oracle(_at_the_guard(rng, ORACLE_MAX_MODULES))
    s = _at_the_guard(rng, ORACLE_MAX_MODULES + 1)
    with pytest.raises(InstanceTooLargeError) as excinfo:
        exhaustive_oracle(s)
    assert str(excinfo.value) == (
        "instance too large for exhaustive search: 8 invocations over 4 queries, 9 modules "
        "(limits: 8 invocations, 4 queries, 8 modules)")


def test_unknown_strategy_is_rejected(seq2):
    with pytest.raises(ValueError, match="unknown strategy"):
        optimize(seq2, "bogus")


def test_result_volumes_do_not_depend_on_the_strategy(corpus):
    for name, s in corpus:
        tables = {t.id: t for t in s.tables}
        outputs = [
            propagate_volumes(s.sequence[-1], schedule.orders[-1], tables)[1]
            for schedule in candidate_schedules(s).values()]
        assert all(v == pytest.approx(outputs[0], rel=1e-9, abs=1e-12) for v in outputs), name


def test_outcome_document_shape(seq2):
    outcome = optimize(seq2, "spec_reconfig")
    doc = outcome_document(seq2, outcome)
    assert set(doc) == {"strategy", "total_ms", "improvement_pct", "schedule", "hints"}
    assert doc["strategy"] == "spec_reconfig"
    assert doc["schedule"]["queries"][0]["order"] == [0, 1]
    assert doc["schedule"]["queries"][0]["prefetch"]["module"] == "accA"
    assert doc["hints"] == [{
        "after_query": "Q0",
        "next_query": "Q1",
        "next_first_module": "accA",
        "reusable_modules": ["accA"],
        "expected_gap_ms": 2.0,
    }]
    json.dumps(doc)
