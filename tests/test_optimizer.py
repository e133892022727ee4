import hashlib
import json
import random
from itertools import cycle, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfig_sim import emulator, optimizer
from reconfig_sim.costmodel import first_unbounded_query, propagate_volumes, stage_terms
from reconfig_sim.emulator import SPECULATIVE, execute_schedule
from reconfig_sim.harness import (SWEEP_AXES, bundled_names, load_bundled, with_gaps,
                                  with_scale_factor)
from reconfig_sim.model import Schedule, load_scenario, schedule_to_doc, validate_schedule
from reconfig_sim.optimizer import (
    FIXED_STRATEGIES,
    OPTIMAL_MAX_WIDTH,
    STRATEGIES,
    InstanceTooLargeError,
    StrategyOutcome,
    _auto_choice,
    _legal_orders,
    candidate_evaluator,
    candidate_schedules,
    exhaustive_oracle,
    optimal,
    optimize,
    outcome_document,
    plan_baseline,
)

from conftest import (brute_force, event_loop_total, largest_bounded_scale_factor,
                      make_chained_scenario, make_random_scenario, spread_over_modules)

_GT = {"kind": "compare_gt", "operand_type": "int32"}
_LT = {"kind": "compare_lt", "operand_type": "int32"}

# the largest instances the brute force runs on
MAX_QUERIES, MAX_INVOCATIONS, MAX_MODULES = 4, 8, 8


def _scenario(tables, library, sequence):
    doc = {
        "rpu": {"storage_rate": 1.0, "network_rate": 0.2,
                "default_reconfig_ms": 15.0, "pr_region_count": 1},
        "tables": tables, "library": library, "sequence": sequence,
    }
    return load_scenario(json.dumps(doc))


def test_strategy_constants():
    assert STRATEGIES == ("baseline", "spec_reconfig", "reorder", "combined",
                          "auto", "oracle", "optimal")


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


def _fixed_totals(s):
    return candidate_evaluator(s)[1]()


def test_candidate_evaluator_builds_each_query_order_once(monkeypatch, corpus, random_scenario,
                                                          chained_scenario):
    """candidate_evaluator runs stage_terms once per distinct (query, order)
    pair among the candidates; baseline and spec_reconfig, which share their
    orders, are emulated over one term list, reorder and combined over
    another, and a query that reorder leaves in its baseline order has one
    term object in both lists."""
    built, emulated = [], []

    def counting_terms(q, order, s):
        built.append((q.id, order))
        return stage_terms(q, order, s)

    def recording_run(s, terms, *args):
        emulated.append(terms)
        return emulator._run_queries(s, terms, *args)

    monkeypatch.setattr(optimizer, "stage_terms", counting_terms)
    monkeypatch.setattr(optimizer, "_run_queries", recording_run)
    rng = random.Random(17)
    scenarios = [s for _, s in corpus] + [random_scenario(rng, rng.randint(1, 5))
                                          for _ in range(20)]
    scenarios += [spread_over_modules(chained_scenario(rng, rng.randint(1, 4)), rng, 3)
                  for _ in range(20)]
    shared = 0
    for s in scenarios:
        built.clear()
        emulated.clear()
        schedules, evaluate = candidate_evaluator(s)
        evaluate()
        assert len(built) == len(set(built)) == len(
            {(q.id, order) for sch in schedules.values() for q, order in zip(s.sequence, sch.orders)})
        base, spec, reordered, combined = emulated
        assert base is spec and reordered is combined and base is not reordered
        for name, terms in (("baseline", base), ("reorder", reordered)):
            assert terms == [stage_terms(q, order, s)
                             for q, order in zip(s.sequence, schedules[name].orders)]
        for i, (b, r) in enumerate(zip(schedules["baseline"].orders, schedules["reorder"].orders)):
            assert (base[i] is reordered[i]) == (b == r)
            shared += b == r
    assert shared > 0


def test_each_sweep_axis_point_equals_the_copy_bit_for_bit(corpus, random_scenario,
                                                           chained_scenario):
    """evaluate(value) on each of harness.SWEEP_AXES gives, bit for bit, the
    totals of the with_scale_factor or with_gaps copy evaluated as it is, at
    gap 0 and at the largest scale factor a sweep accepts among others; an
    axis named differently in harness and optimizer reads the value nowhere,
    and so fails here."""
    copies = {"scale_factor": with_scale_factor, "gap_ms": with_gaps}
    assert tuple(copies) == SWEEP_AXES
    rng = random.Random(29)
    scenarios = [s for _, s in corpus] + [random_scenario(rng, rng.randint(1, 5))
                                          for _ in range(15)]
    scenarios += [spread_over_modules(chained_scenario(rng, rng.randint(1, 4)), rng, 3)
                  for _ in range(15)]
    moved = dict.fromkeys(SWEEP_AXES, 0)
    for s in scenarios:
        values = {"scale_factor": (1e-3, 0.3, 1.0, 7.5, largest_bounded_scale_factor(s)),
                  "gap_ms": (0.0, 0.5, 4.0, 60.0)}
        as_is = candidate_evaluator(s)[1]()
        for axis, copy in copies.items():
            evaluate = candidate_evaluator(s, axis)[1]
            for value in values[axis]:
                totals = evaluate(value)
                # repr tells -0.0 from 0.0 and prints each float exactly
                assert repr(totals) == repr(candidate_evaluator(copy(s, value))[1]()), (axis, value)
                moved[axis] += totals != as_is
    assert all(moved.values()), moved


def test_fixed_outcomes_match_separate_emulation(seq2, seq2_small, corpus, random_scenario):
    scenarios = [seq2, seq2_small] + [s for _, s in corpus]
    for seed in range(50):
        rng = random.Random(seed)
        scenarios.append(random_scenario(rng, rng.randint(1, 5)))
    tied_winners = 0
    for s in scenarios:
        expected = _outcomes_by_separate_emulation(s)
        totals = _fixed_totals(s)
        assert totals == {name: expected[name].total_ms for name in FIXED_STRATEGIES}
        assert list(totals) == list(FIXED_STRATEGIES)
        assert _auto_choice(totals) == expected["auto"].strategy
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
    totals = _fixed_totals(s)
    assert len({totals[name] for name in FIXED_STRATEGIES}) == 1
    assert _auto_choice(totals) == "baseline"
    assert optimize(s, "auto").strategy == "baseline"
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
    original = emulator._new_span

    def counting(fields):
        built.append(fields)
        return original(fields)

    # execute_schedule makes every Span from the event loop's tuples here
    monkeypatch.setattr(emulator, "_new_span", counting)
    for s in (seq2, seq2_small):
        _fixed_totals(s)
        exhaustive_oracle(s)
    assert built == []
    execute_schedule(seq2, plan_baseline(seq2))
    assert len(built) == 10  # the counter sees spans where they are built


def _runs_producers_first(q, order):
    """No invocation runs before one that produces an attribute it reads;
    read from produces and reads, not from the stored dependency pairs."""
    return not any(q.invocations[earlier].reads & q.invocations[later].produces
                   for pos, earlier in enumerate(order) for later in order[pos + 1:])


def _keyed_schedules(s):
    """Every legal order and prefetch choice, all order choices enumerated
    before all prefetch choices, each keyed by (emulated total,
    reconfiguration spans)."""
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


def _scaled(s, volumes, rates):
    """s with its table volumes multiplied by volumes, its rates by rates,
    and its load times and gaps by volumes / rates, so that every time of
    the timing models scales alike."""
    times = volumes / rates
    rpu = s.rpu.replace(storage_rate=s.rpu.storage_rate * rates,
                        network_rate=s.rpu.network_rate * rates,
                        default_reconfig_ms=s.rpu.default_reconfig_ms * times)
    library = tuple(m.replace(proc_rate=m.proc_rate * rates,
                              reconfig_ms=None if m.reconfig_ms is None else m.reconfig_ms * times)
                    for m in s.library)
    return s.replace(rpu=rpu, library=library,
                     tables=tuple(t.replace(volume=t.volume * volumes) for t in s.tables),
                     sequence=tuple(q.replace(gap_after_ms=q.gap_after_ms * times)
                                    for q in s.sequence))


def _near_unbounded(s):
    """s scaled by the largest power of four of its times at which
    first_unbounded_query still finds the total bounded."""
    e = 0
    while first_unbounded_query(_scaled(s, 2.0 ** (e + 1), 2.0 ** -(e + 1))) is None:
        e += 1
    return _scaled(s, 2.0 ** e, 2.0 ** -e)


def _float_edges(rng):
    """Instances at the edges of float arithmetic: every time scaled toward
    1e-300, and into the subnormals, and toward the loader's bound on the
    total; zero loads with zero gaps; and modules that are copies of one
    another, so that totals tie exactly."""
    def instance():
        s = make_random_scenario(rng, 4)
        while sum(len(q.invocations) for q in s.sequence) > MAX_INVOCATIONS:
            s = make_random_scenario(rng, 4)
        return s

    return [_scaled(instance(), 2.0 ** -500, 2.0 ** 500),
            _scaled(instance(), 2.0 ** -530, 2.0 ** 530),
            _near_unbounded(instance()),
            _near_unbounded(_at_the_guard(rng, 3)),
            with_gaps(_zero_loads(instance()), 0.0),
            with_gaps(_zero_loads(_at_the_guard(rng, 3)), 0.0),
            spread_over_modules(_at_the_guard(rng, 3), rng, 3),
            _zero_loads(spread_over_modules(_at_the_guard(rng, 4), rng, 2))]


def _at_the_guard(rng, n_modules):
    """A random instance of the largest shape the brute force runs on: four
    queries, eight invocations spread over n_modules modules of their own
    rates and load times."""
    s = make_random_scenario(rng, MAX_QUERIES)
    while sum(len(q.invocations) for q in s.sequence) != MAX_INVOCATIONS:
        s = make_random_scenario(rng, MAX_QUERIES)
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


def _bound_rounds_up():
    """_orders_rank_before_prefetches with rates, volume, selectivity, gap
    and load time at which the float sum of the B-first schedule's Q0
    transfer end plus Q1's least transfer end when it runs alone, from a
    region that holds its first module and sees it arrive at 0, is one ulp
    above the schedule's own total.  The C-first schedule ties it, so a
    lower bound built that way rounds above the optimum."""
    s = _orders_rank_before_prefetches()
    q0, q1 = s.sequence
    inv = q0.invocations[0].replace(selectivity=0.013167991554874137)
    return s.replace(
        rpu=s.rpu.replace(storage_rate=4.581719189719639, network_rate=1.7948430829182773,
                          default_reconfig_ms=6.039200385961944),
        tables=(s.tables[0].replace(volume=12.888685778053027),),
        library=tuple(m.replace(proc_rate=1.33287619482162) for m in s.library),
        sequence=(q0.replace(invocations=(inv,), gap_after_ms=11.965865777194393), q1))


def test_oracle_ranks_every_order_before_any_prefetch():
    """The brute force's tie-break compares the order ranks of all queries
    before any prefetch rank, as enumerating all order choices, then all
    prefetch choices, does; a search that ranks query by query, order then
    prefetch, would pick the C-first schedule."""
    s = _orders_rank_before_prefetches()
    first, second = (Schedule(((0,), (0, 1)), ("B", None)), Schedule(((0,), (1, 0)), ("C", None)))
    for schedule in (first, second):
        report = execute_schedule(s, schedule)
        assert (report.total_ms, sum(sp.lane == "reconfig" for sp in report.spans)) == (55.0, 3)
    assert brute_force(s) == (55.0, first)


def test_optimal_breaks_ties_query_by_query():
    """optimal takes, query by query, the least order rank and then the
    least prefetch rank among the choices that tie on the least cost, so on
    this instance it prefetches C, the library's second module, after Q0
    and runs Q1 C first, where the brute force ranks every order before
    any prefetch and picks B first; both total 55 ms."""
    s = _orders_rank_before_prefetches()
    outcome = optimize(s, "optimal")
    assert (outcome.schedule, outcome.total_ms) == (Schedule(((0,), (1, 0)), ("C", None)), 55.0)
    assert brute_force(s)[1] == Schedule(((0,), (0, 1)), ("B", None))
    # two filters that keep every row on one module: both orders cost the same
    twins = _scenario(
        tables=[{"id": "t", "volume": 8.0}],
        library=[{"id": "A", "supported_ops": [_GT], "proc_rate": 2.0}],
        sequence=[{"id": "Q0", "table": "t", "invocations": [
            {"accelerator": "A", "predicate": f"{c} > 1", "selectivity": 1.0, "reads": [c]}
            for c in "ab"]}])
    assert optimize(twins, "optimal").schedule == Schedule(((0, 1),), (None,))


def _starts(s, i):
    """The modules that start a legal order of query i."""
    q = s.sequence[i]
    return {q.invocations[order[0]].accelerator_id for order in _legal_orders(q)}


def test_only_prefetches_that_start_the_next_query_can_win(random_scenario, chained_scenario):
    """A prefetch at query i that starts no legal order of query i+1, and
    that the loop does not ignore, gives a strictly larger (total,
    reconfigurations) key than no prefetch there: query i+1's first load
    evicts it and starts no earlier, and its own load adds a reconfig
    span.  So optimal's table and the brute force try only None and the
    modules that start a legal order of the next query.  Chained instances make the legal orders a
    strict subset of the permutations.  Most such prefetches are hidden and
    tie on the total, so the reconfigurations decide; some do not."""
    rng = random.Random(74)
    scenarios = []
    while len(scenarios) < 24:
        if len(scenarios) % 3 == 0:
            s = random_scenario(rng, rng.randint(2, 4))
        elif len(scenarios) % 3 == 1:
            s = spread_over_modules(chained_scenario(rng, rng.randint(2, 4)), rng, 3)
        else:
            s = _zero_loads(random_scenario(rng, rng.randint(2, 4)))
        if sum(len(q.invocations) for q in s.sequence) <= 6:
            scenarios.append(s)
    scenarios += _float_edges(rng)
    dominated = tied = 0
    for s in scenarios:
        keys = {schedule: key for key, schedule in _keyed_schedules(s)}
        for schedule, key in keys.items():
            for i, prefetch in enumerate(schedule.prefetches):
                ends_on = s.sequence[i].invocations[schedule.orders[i][-1]].accelerator_id
                if prefetch in (None, ends_on) or prefetch in _starts(s, i + 1):
                    continue
                prefetches = schedule.prefetches[:i] + (None,) + schedule.prefetches[i + 1:]
                without = keys[Schedule(schedule.orders, prefetches)]
                assert key > without
                dominated += 1
                tied += key[0] == without[0]
    assert dominated > 1000 and 0 < tied < dominated


def _searched(s, schedule):
    """Whether schedule tries only the prefetches that can win: after each
    query no prefetch, or a module that starts a legal order of the next
    query and is not the one the order ends on."""
    return all(prefetch is None or (prefetch in _starts(s, i + 1) and prefetch
                                    != s.sequence[i].invocations[order[-1]].accelerator_id)
               for i, (order, prefetch) in enumerate(zip(schedule.orders, schedule.prefetches)))


def _closed_form_prefixes(s, orders, prefetches):
    """(closed-form cost, state) at the arrival of each of the queries the
    choices cover and after the last of them, stepping
    emulator._closed_form_table from the empty region with one order, one
    state and one prefetch; the cost includes the gap after each query but
    the last of the sequence."""
    cost, state = 0.0, (None, 0.0)
    prefixes = [(cost, state)]
    for i, (q, order, prefetch) in enumerate(zip(s.sequence, orders, prefetches)):
        gap = q.gap_after_ms if i < len(s.sequence) - 1 else 0.0
        rows, moves, after = emulator._closed_form_table(
            s, [stage_terms(q, order, s)], [state], () if prefetch is None else (prefetch,), gap)
        cost, state = cost + rows[0][0], after[moves[0][-1][1]]
        prefixes.append((cost, state))
    return prefixes


def test_cost_to_go_bounds_every_schedule(seq2, random_scenario, chained_scenario):
    """For every schedule that tries only the prefetches that can win and
    every prefix of it, the prefix's closed-form cost plus the _cost_to_go
    entry of the state it leaves is at most the schedule's emulated total,
    beyond a relative rounding of 1e-12; the rounding is real.  The entry
    at the empty region equals the least total of every schedule within a
    relative 1e-9, so the bound is tight."""
    rng = random.Random(73)
    scenarios = [seq2, _orders_rank_before_prefetches(), _bound_rounds_up()]
    scenarios += [_at_the_guard(rng, 3), _zero_loads(_at_the_guard(rng, 2))]
    scenarios += [random_scenario(rng, rng.randint(1, 3)) for _ in range(6)]
    scenarios += [spread_over_modules(chained_scenario(rng, rng.randint(1, 3)), rng, 2)
                  for _ in range(6)]
    scenarios += _float_edges(rng)
    checked = rounded_up = 0
    for s in scenarios:
        if not _within_reach(s):
            continue
        states, table, _ = optimizer._cost_to_go(s, optimizer._order_choices(s)[1])
        assert len(table) == len(s.sequence) + 1 and set(table[-1]) == {0.0}
        keyed = _keyed_schedules(s)
        least = min(total for (total, _), _ in keyed)
        assert abs(table[0][0] - least) <= 1e-9 * least
        for (total, _), schedule in keyed:
            if not _searched(s, schedule):
                continue
            prefixes = _closed_form_prefixes(s, schedule.orders, schedule.prefetches)
            for (cost, state), entries, query_states in zip(prefixes, table, states):
                bound = cost + entries[query_states.index(state)]
                assert bound <= total * (1 + 1e-12)
                rounded_up += bound > total
                checked += 1
    assert checked > 5000 and rounded_up > 0


def test_oracle_tie_break_matches_brute_force(seq2, seq2_small, random_scenario,
                                              chained_scenario):
    """The brute force, which tries only the prefetches that can win,
    returns the first schedule of the unpruned enumeration with the least
    (total, reconfigurations) key; zero-time loads make totals tie often.
    Chained instances, some spread over two modules, make the legal orders
    a strict subset of the permutations.  Ten instances at the brute
    force's largest shape, half of them with zero-time loads, have the
    oracle benchmark's shape.  The float edges add tiny, subnormal and huge
    totals, totals that tie exactly, and a bound that rounds above the
    winner's total."""
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
    assert brute_force(reuse_decides)[1] == Schedule(((1, 0), (0,)), (None, None))
    scenarios = [seq2, seq2_small, reuse_decides]
    rng = random.Random(70_000)
    while len(scenarios) < 53:
        s = random_scenario(rng, 4)
        if sum(len(q.invocations) for q in s.sequence) > MAX_INVOCATIONS:
            continue
        scenarios.append(_zero_loads(s) if len(scenarios) % 2 else s)
    while len(scenarios) < 73:
        s = chained_scenario(rng, rng.randint(1, 4))
        if sum(len(q.invocations) for q in s.sequence) > MAX_INVOCATIONS:
            continue
        scenarios.append(spread_over_modules(s, rng, 2) if len(scenarios) % 2 else s)
    assert sum(1 for s in scenarios[53:] for q in s.sequence if q.dependencies) > 10
    scenarios += [_orders_rank_before_prefetches(), _bound_rounds_up()]
    for k in range(10):
        s = _at_the_guard(rng, 3 + k % 2)
        scenarios.append(_zero_loads(s) if k < 5 else s)
    scenarios += _float_edges(rng)
    decided_by_reconfigs = decided_by_order = 0
    for s in scenarios:
        keyed = _keyed_schedules(s)
        best = min(key for key, _ in keyed)
        winner = next(schedule for key, schedule in keyed if key == best)
        assert brute_force(s) == (best[0], winner)
        first_least_total = next(schedule for key, schedule in keyed if key[0] == best[0])
        decided_by_reconfigs += first_least_total != winner
        decided_by_order += sum(key == best for key, _ in keyed) > 1
    assert decided_by_reconfigs > 0 and decided_by_order > 0


def _within_reach(s):
    """Whether s is small enough for the brute force."""
    return (len(s.sequence) <= MAX_QUERIES and len(s.library) <= MAX_MODULES
            and sum(len(q.invocations) for q in s.sequence) <= MAX_INVOCATIONS)


def test_candidate_schedules_are_legal_on_chains(corpus, random_scenario, chained_scenario):
    """candidate_evaluator and optimal emulate their schedules unchecked, so
    every planner's output must pass validate_schedule: the four candidates
    and optimal's pick on bundled, random and chained scenarios."""
    rng = random.Random(71)
    scenarios = [s for _, s in corpus]
    scenarios += [random_scenario(rng, rng.randint(1, 5)) for _ in range(40)]
    scenarios += [spread_over_modules(chained_scenario(rng, rng.randint(1, 4)), rng, 3)
                  for _ in range(80)]
    reordered = 0
    for s in scenarios:
        schedules = candidate_schedules(s)
        for name, schedule in schedules.items():
            assert validate_schedule(s, schedule) == [], name
        reordered += schedules["reorder"] != schedules["baseline"]
        assert validate_schedule(s, optimal(s).schedule) == []
    assert reordered > 10


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
        s = spread_over_modules(make_chained_scenario(rng, rng.randint(1, 4)), rng, 3)
    planned = candidate_schedules(s)
    assert candidate_schedules(with_scale_factor(s, scale)) == planned
    assert candidate_schedules(with_gaps(s, gap)) == planned


# sha256 over the schedule_to_doc JSON of the four candidates of the
# scenarios below, and over the brute force's schedule and total wherever it
# reaches.  TIMING_DIGEST pins the timing models bit for bit; this pins the
# planners and the reference they are held to, so a refactor that changes
# any planned order or prefetch, or the brute force's pick or total, fails
# here.
PLANNER_DIGEST = "a969c9ba537634d3ac5d0ef0927a1068293ed78ddd0d1ebc07823975bfcc58c5"


def test_planners_are_bit_stable(corpus):
    scenarios = [s for _, s in corpus]
    for seed in range(200):
        rng = random.Random(90_000 + seed)
        if seed % 2:
            scenarios.append(make_random_scenario(rng, rng.randint(1, 5)))
        else:
            scenarios.append(spread_over_modules(make_chained_scenario(rng, rng.randint(1, 4)),
                                                 rng, 3))
    digest = hashlib.sha256()
    searched = 0
    for s in scenarios:
        for name, schedule in candidate_schedules(s).items():
            digest.update(json.dumps([name, schedule_to_doc(s, schedule)]).encode())
        if _within_reach(s):
            total, schedule = brute_force(s)
            digest.update(json.dumps([schedule_to_doc(s, schedule), total]).encode())
            searched += 1
    assert searched > 100
    assert digest.hexdigest() == PLANNER_DIGEST


# sha256 over the schedule_to_doc JSON, total and improvement of optimal's
# outcome on the scenarios below.  PLANNER_DIGEST pins the four candidates
# and the brute force; this pins optimal's own picks, ties included, so a
# refactor of its table that picks another order or prefetch anywhere fails
# here even where the totals agree within the tests' tolerances.
OPTIMAL_DIGEST = "acbd600a28896c0218270f2aaa1dec616f36d57117df48fb576bc0722248c308"


def test_optimal_picks_are_bit_stable(corpus):
    scenarios = [s for _, s in corpus]
    for seed in range(200):
        rng = random.Random(95_000 + seed)
        kind = seed % 4
        if kind == 0:
            s = make_random_scenario(rng, rng.randint(1, 6))
        elif kind == 1:
            s = spread_over_modules(make_chained_scenario(rng, rng.randint(1, 4)), rng, 3)
        else:
            s = _at_the_guard(rng, rng.randint(2, MAX_MODULES))
            if kind == 3:  # zero-time loads and gaps, so that totals tie often
                s = with_gaps(_zero_loads(s), 0.0)
        scenarios.append(s)
    scenarios += _float_edges(random.Random(96_000))
    digest = hashlib.sha256()
    for s in scenarios:
        outcome = optimize(s, "optimal")
        digest.update(json.dumps([schedule_to_doc(s, outcome.schedule), outcome.total_ms,
                                  outcome.improvement_pct]).encode())
    assert digest.hexdigest() == OPTIMAL_DIGEST


def test_optimal_matches_the_oracle(seq2, seq2_small, random_scenario, chained_scenario):
    """Within the brute force's reach, optimal's total equals the brute
    force's within 1e-9, relative to totals above 1 ms, which the float
    edges take to 1e307: on seeded random and chained instances, zero-time
    loads with zero gaps, instances of the largest shape and the float
    edges.
    The schedule is legal, its total is the event loop's, and its
    improvement is measured against the baseline's emulated total."""
    rng = random.Random(75)
    scenarios = [seq2, seq2_small, _orders_rank_before_prefetches(), _bound_rounds_up()]
    while len(scenarios) < 84:
        kind = len(scenarios) % 4
        if kind == 0:
            s = random_scenario(rng, rng.randint(1, 4))
        elif kind == 1:
            s = spread_over_modules(chained_scenario(rng, rng.randint(1, 4)), rng, 3)
        elif kind == 2:
            s = with_gaps(_zero_loads(random_scenario(rng, rng.randint(2, 4))), 0.0)
        else:
            s = _at_the_guard(rng, rng.randint(2, MAX_MODULES))
        if _within_reach(s):
            scenarios.append(s)
    scenarios += _float_edges(rng)
    beats_auto = 0
    for s in scenarios:
        outcome, (best, _) = optimize(s, "optimal"), brute_force(s)
        assert outcome.strategy == "optimal"
        assert abs(outcome.total_ms - best) <= 1e-9 * max(1.0, best)
        assert validate_schedule(s, outcome.schedule) == []
        assert execute_schedule(s, outcome.schedule).total_ms == outcome.total_ms
        assert outcome.improvement_pct == optimizer._improvement(
            optimize(s, "baseline").total_ms, outcome.total_ms)
        beats_auto += outcome.total_ms < optimize(s, "auto").total_ms * (1 - 1e-9)
    assert beats_auto > 5


def test_oracle_is_optimal_under_its_own_name(corpus):
    """"oracle" is a synonym of "optimal": on the bundled scenarios, on
    instances of the brute force's largest shape and on a tie that optimal
    breaks query by query, its outcome is optimal's but for the strategy
    name."""
    rng = random.Random(78)
    scenarios = [s for _, s in corpus] + [_at_the_guard(rng, k) for k in (2, 3, 5, MAX_MODULES)]
    scenarios.append(_orders_rank_before_prefetches())
    for s in scenarios:
        oracle = optimize(s, "oracle")
        assert oracle.strategy == "oracle"
        assert oracle == optimize(s, "optimal").replace(strategy="oracle")


def _long_sequence(rng, n_queries, n_modules):
    """A seeded random sequence of n_queries built in code, one in four of
    its queries chained, with its invocations spread over n_modules modules
    of their own rates and load times."""
    s = make_random_scenario(rng, n_queries)
    chained = make_chained_scenario(rng, n_queries // 4)
    library = tuple(s.library[0].replace(id=f"g{j}", proc_rate=round(rng.uniform(0.5, 4.0), 3),
                                         reconfig_ms=rng.choice((None, rng.uniform(0, 25))))
                    for j in range(n_modules))
    sequence = []
    for k, q in enumerate(s.sequence):
        if k % 4 == 3:
            q = chained.sequence[k // 4].replace(id=q.id, table_id=q.table_id,
                                                 gap_after_ms=q.gap_after_ms)
        sequence.append(q.replace(invocations=tuple(
            inv.replace(accelerator_id=rng.choice(library).id) for inv in q.invocations)))
    return s.replace(library=library, sequence=tuple(sequence))


def test_optimal_is_never_above_any_schedule_on_a_long_sequence():
    """On 2000 queries built in code, optimal is never above a fixed strategy
    or any of 50 random legal schedules, at relative 1e-9."""
    rng = random.Random(76)
    s = _long_sequence(rng, 2000, 5)
    best = optimize(s, "optimal").total_ms
    for strategy in FIXED_STRATEGIES + ("auto",):
        assert best <= optimize(s, strategy).total_ms * (1 + 1e-9), strategy
    orders = [_legal_orders(q) for q in s.sequence]
    modules = [None] + [m.id for m in s.library]
    for _ in range(50):
        schedule = Schedule(tuple(rng.choice(legal) for legal in orders),
                            tuple(rng.choice(modules) for _ in s.sequence[:-1]) + (None,))
        assert best <= event_loop_total(s, schedule) * (1 + 1e-9)
    assert best < optimize(s, "auto").total_ms * (1 - 1e-3)


def test_optimal_work_per_query_does_not_grow_with_the_length(monkeypatch):
    """Planning stays linear in the number of queries: on sequences of
    10**2, 10**3 and 10**4 queries that repeat one seeded block of ten,
    optimal builds one stage term per query and legal order, calls the
    closed form's table exactly once per query, which reads each of those
    terms once, into one summary, and runs the event loop over each query
    twice, for its schedule and for the baseline.  auto builds as many
    stage terms per query, up to the last query, which has no successor to
    reorder for, runs the loop over each query once per candidate, and
    reads no table.  Counted, not timed."""
    rng = random.Random(77)
    block = _long_sequence(rng, 10, 4)
    legal_per_query = sum(len(_legal_orders(q)) for q in block.sequence) / 10
    tables, summaries, builds, runs = [], [], [], []
    table, build, run = optimizer._closed_form_table, optimizer.stage_terms, optimizer._run_queries
    monkeypatch.setattr(optimizer, "_closed_form_table",
                        lambda s, choices, *args: tables.append(None)
                        or summaries.extend(choices) or table(s, choices, *args))
    monkeypatch.setattr(optimizer, "stage_terms", lambda *args: builds.append(None) or build(*args))
    monkeypatch.setattr(optimizer, "_run_queries",
                        lambda s, terms, *args: runs.append(len(terms)) or run(s, terms, *args))
    per_query = {"optimal": [], "auto": []}
    for n in (10**2, 10**3, 10**4):
        sequence = tuple(q.replace(id=f"Q{k}") for k, q in zip(range(n), cycle(block.sequence)))
        for strategy, counts in per_query.items():
            for calls in (tables, summaries, builds, runs):
                calls.clear()
            optimize(block.replace(sequence=sequence), strategy)
            counts.append((len(tables) / n, len(summaries) / n, len(builds) / n, sum(runs) / n))
    exact, auto = per_query["optimal"], per_query["auto"]
    assert legal_per_query > 1
    assert set(exact) == {(1.0, legal_per_query, legal_per_query, 2.0)}
    assert {(calls, built, loop) for calls, built, _, loop in auto} == {(0.0, 0.0, 4.0)}
    assert max(terms for _, _, terms, _ in auto) <= 1.01 * min(terms for _, _, terms, _ in auto)


def test_optimal_guard_names_the_width_limit(seq2):
    """optimal enumerates each query's legal orders, so a query may hold at
    most OPTIMAL_MAX_WIDTH invocations, and the error names the limit."""
    q = seq2.sequence[0]
    wide = seq2.replace(sequence=(q.replace(invocations=q.invocations[:1] * 9),
                                  *seq2.sequence[1:]))
    with pytest.raises(InstanceTooLargeError) as excinfo:
        optimize(wide, "optimal")
    assert OPTIMAL_MAX_WIDTH == 8
    assert str(excinfo.value) == ("query Q0 too wide for the optimal strategy: 9 invocations "
                                  "(limit: 8 invocations per query)")
    widest = seq2.replace(sequence=(q.replace(invocations=q.invocations[:1] * 8),
                                    *seq2.sequence[1:]))
    assert optimize(widest, "optimal").total_ms <= optimize(widest, "auto").total_ms


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
