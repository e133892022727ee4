import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reconfig_sim.costmodel import (
    accel_runtime,
    first_unbounded_query,
    propagate_volumes,
    reconfig_time,
    scaled_stage_terms,
    scan_time,
    stage_terms,
    term_lookup,
    transfer_time,
)
from reconfig_sim.harness import SweepSpec, run_sweep, with_scale_factor
from reconfig_sim.model import AcceleratorModule, Invocation, QuerySpec, RpuConfig, TableDef
from reconfig_sim.optimizer import _legal_orders, candidate_schedules
from reconfig_sim.record import FieldError

from conftest import (largest_bounded_scale_factor, make_chained_scenario, make_random_scenario,
                      rebased, spread_over_modules)

_RPU = RpuConfig(storage_rate=1.0, network_rate=0.2, default_reconfig_ms=15.0)
_MODULE = AcceleratorModule("m", frozenset(), proc_rate=2.0)


def _query(*pairs):
    """A query over table 't' whose invocations carry the given (selectivity,
    multiplier) pairs; predicates are irrelevant to volume propagation."""
    invocations = tuple(
        Invocation("m", "a > 1", sel, frozenset({"a"}),
                   volume_multiplier=mult)
        for sel, mult in pairs)
    return QuerySpec("q", "t", invocations)


def test_stage_times_are_plain_rate_divisions():
    assert scan_time(16.0, _RPU) == 16.0
    assert accel_runtime(16.0, _MODULE) == 8.0
    assert transfer_time(6.4, _RPU) == 6.4 / 0.2


def test_reconfig_time_override_default():
    assert reconfig_time(_MODULE, _RPU) == 15.0
    quick = AcceleratorModule("q", frozenset(), proc_rate=2.0, reconfig_ms=5.0)
    assert reconfig_time(quick, _RPU) == 5.0


def test_propagate_volumes_matches_hand_chain(seq2):
    tables = {t.id: t for t in seq2.tables}
    q0 = seq2.sequence[0]
    inputs, output = propagate_volumes(q0, (0, 1), tables)
    assert inputs == (16.0, 8.0)
    assert output == 6.4
    inputs, output = propagate_volumes(q0, (1, 0), tables)
    assert inputs == (16.0, 12.8)
    assert output == 6.4


def test_zero_selectivity_annihilates_downstream():
    tables = {"t": TableDef("t", 40.0)}
    inputs, output = propagate_volumes(_query((0.0, 1.0), (0.5, 2.0)), (0, 1), tables)
    assert inputs == (40.0, 0.0)
    assert output == 0.0


def test_propagate_volumes_against_running_product():
    tables = {"t": TableDef("t", 10.0)}
    q = _query((0.3, 1.0), (0.7, 2.0), (0.9, 1.0))
    inputs, output = propagate_volumes(q, (2, 0, 1), tables)
    expected_inputs = []
    volume = 10.0
    for idx in (2, 0, 1):
        expected_inputs.append(volume)
        volume = volume * q.invocations[idx].selectivity * q.invocations[idx].volume_multiplier
    assert inputs == tuple(expected_inputs)
    assert output == volume


_stages = st.lists(
    st.tuples(st.floats(0.0, 1.0, allow_nan=False),
              st.floats(0.1, 2.0, allow_nan=False)),
    min_size=1, max_size=5)


@given(st.data(), _stages, st.floats(0.0, 100.0, allow_nan=False))
def test_output_volume_ignores_invocation_order(data, stages, volume):
    tables = {"t": TableDef("t", volume)}
    q = _query(*stages)
    order = tuple(data.draw(st.permutations(range(len(stages)))))
    _, shuffled = propagate_volumes(q, order, tables)
    _, written = propagate_volumes(q, tuple(range(len(stages))), tables)
    assert math.isclose(shuffled, written, rel_tol=1e-9, abs_tol=1e-12)


@given(_stages, st.floats(0.0, 100.0, allow_nan=False), st.floats(0.25, 4.0))
def test_volumes_scale_linearly_and_stay_non_negative(stages, volume, factor):
    q = _query(*stages)
    order = tuple(range(len(stages)))
    base_inputs, base_output = propagate_volumes(q, order, {"t": TableDef("t", volume)})
    _, scaled_output = propagate_volumes(q, order, {"t": TableDef("t", volume * factor)})
    assert math.isclose(scaled_output, base_output * factor,
                        rel_tol=1e-9, abs_tol=1e-12)
    assert all(v >= 0.0 for v in base_inputs)
    assert base_output >= 0.0


def _terms_by_stage(q, order, s):
    """stage_terms written out with one stage function call per term."""
    tables, modules = s.tables_by_id, s.modules_by_id
    inputs, output = propagate_volumes(q, order, tables)
    stages = []
    for idx, volume in zip(order, inputs):
        module = modules[q.invocations[idx].accelerator_id]
        stages.append((q.invocations[idx].accelerator_id, reconfig_time(module, s.rpu),
                       accel_runtime(volume, module)))
    return scan_time(tables[q.table_id].volume, s.rpu), tuple(stages), transfer_time(output, s.rpu)


def _with_edge_stages(s, rng):
    """s with each invocation's selectivity set at random to 0, 1 or kept,
    and its volume_multiplier to 1 or a value above 1 that is no power of
    two, so that the order of the two factors shows in the last bits."""
    sequence = tuple(
        q.replace(invocations=tuple(
            inv.replace(selectivity=rng.choice((0.0, 1.0, inv.selectivity)),
                        volume_multiplier=rng.choice((1.0, round(rng.uniform(1.01, 3.99), 3))))
            for inv in q.invocations))
        for q in s.sequence)
    return s.replace(sequence=sequence)


def test_stage_terms_equal_the_stage_functions_bit_for_bit(corpus, random_scenario,
                                                          chained_scenario):
    """On every legal order, stage_terms equals the reference built from
    propagate_volumes and the four stage functions, bit for bit: on the
    corpus and on random and chained scenarios, as generated and with
    selectivities of 0 and 1 and multipliers above 1 mixed in, over modules
    with and without their own reconfig_ms.  When a load costs its load_ms
    and when nothing is the timing models' rule, which test_emulator checks
    (a resident module's load and a resident prefetch cost nothing)."""
    scenarios = [s for _, s in corpus]
    for seed in range(40):
        rng = random.Random(60_000 + seed)
        for s in (random_scenario(rng, rng.randint(1, 4)),
                  chained_scenario(rng, rng.randint(1, 3))):
            scenarios += [s, _with_edge_stages(s, rng)]
    checked = 0
    seen = set()
    for s in scenarios:
        for q in s.sequence:
            for order in _legal_orders(q):
                terms = stage_terms(q, order, s)
                # repr tells -0.0 from 0.0 and prints each float exactly
                assert repr(terms) == repr(_terms_by_stage(q, order, s))
                checked += 1
            for inv in q.invocations:
                seen.add(("selectivity", inv.selectivity if inv.selectivity in (0.0, 1.0)
                          else "between"))
                seen.add(("multiplier above 1", inv.volume_multiplier > 1))
                seen.add(("own reconfig_ms",
                          s.modules_by_id[inv.accelerator_id].reconfig_ms is not None))
    assert checked > 2000
    assert seen == {("selectivity", 0.0), ("selectivity", 1.0), ("selectivity", "between"),
                    ("multiplier above 1", True), ("multiplier above 1", False),
                    ("own reconfig_ms", True), ("own reconfig_ms", False)}


def test_scaled_stage_terms_equal_stage_terms_on_the_rescaled_scenario(corpus):
    """A scale sweep builds each point's terms in one scaled_stage_terms
    call, from one term_lookup per (query, order) pair of the candidates,
    on its input scenario; each pair's terms must equal stage_terms on the
    with_scale_factor copy bit for bit: on the
    corpus (seq2_small among it, at scale factor 0.25), on 40 seeded random
    and chained scenarios, as generated and with _with_edge_stages' factors
    mixed in, and on some of those rebased to a scale factor of 0.3 first,
    at factors from the least positive double up to the largest the sweep's
    bound allows."""
    scenarios = [s for _, s in corpus]
    for seed in range(40):
        rng = random.Random(70_000 + seed)
        if seed % 2:
            s = make_random_scenario(rng, rng.randint(1, 6))
        else:
            s = spread_over_modules(make_chained_scenario(rng, rng.randint(1, 4)), rng, 3)
        edge = _with_edge_stages(s, rng)
        scenarios += [s, edge]
        if seed % 4 < 2:
            scenarios += [with_scale_factor(s, 0.3), with_scale_factor(edge, 0.3)]
    assert {s.scale_factor for s in scenarios} == {1.0, 0.25, 0.3}
    checked = 0
    for s in scenarios:
        largest = largest_bounded_scale_factor(s)
        run_sweep(s, SweepSpec("scale_factor", (largest,)))
        if largest < sys.float_info.max:
            with pytest.raises(ValueError, match="^scale_factor "):
                run_sweep(s, SweepSpec("scale_factor", (math.nextafter(largest, math.inf),)))
        pairs = list({pair for sched in candidate_schedules(s).values()
                      for pair in enumerate(sched.orders)})
        lookups = [term_lookup(s.sequence[i], order, s) for i, order in pairs]
        for factor in (5e-324, 1e-300, 0.1, 7.5, largest):
            rescaled = with_scale_factor(s, factor)
            built = scaled_stage_terms(lookups, s, factor)
            assert len(built) == len(pairs)
            for (i, order), terms in zip(pairs, built):
                # repr tells -0.0 from 0.0 and prints each float exactly
                assert repr(terms) == repr(
                    stage_terms(rescaled.sequence[i], order, rescaled)), (s, factor, i, order)
                checked += 1
    assert checked > 1000


def _first_unbounded_query_by_stage(s, gap=None):
    """first_unbounded_query's former definition, through the stage
    functions and max."""
    rpu = s.rpu
    longest_load = max(reconfig_time(m, rpu) for m in s.library)
    bound = 0.0
    for i, q in enumerate(s.sequence):
        volume = worst = s.tables_by_id[q.table_id].volume
        for inv in q.invocations:
            worst *= max(1.0, inv.selectivity * inv.volume_multiplier)
        bound += scan_time(volume, rpu) + transfer_time(worst, rpu) + longest_load
        for inv in q.invocations:
            bound += longest_load + accel_runtime(worst, s.modules_by_id[inv.accelerator_id])
        if i < len(s.sequence) - 1:
            bound += q.gap_after_ms if gap is None else gap
        if not math.isfinite(2.0 * bound):
            return i
    return None


def test_first_unbounded_query_equals_the_stage_function_reference(corpus):
    """first_unbounded_query reads the rates and volumes once and writes the
    stage functions out; it must return the index that the reference built
    from the stage functions returns: on the corpus and on 40 seeded random
    and chained scenarios, as generated and with _with_edge_stages' factors
    mixed in, without a gap and with gaps up to ones that overflow, and at
    the scale factors on both sides of the reference's overflow edge, found
    by bisection, where one rounding more or less moves the answer.  Past
    that edge no Scenario can be built, so the points there are rebased
    stand-ins, and with_scale_factor must raise at the index both find."""
    scenarios = [s for _, s in corpus]
    for seed in range(40):
        rng = random.Random(80_000 + seed)
        if seed % 2:
            s = make_random_scenario(rng, rng.randint(1, 6))
        else:
            s = spread_over_modules(make_chained_scenario(rng, rng.randint(1, 4)), rng, 3)
        scenarios += [s, _with_edge_stages(s, rng)]
    where = {}
    for s in scenarios:
        largest = largest_bounded_scale_factor(s, _first_unbounded_query_by_stage)
        factors = [largest, math.nextafter(largest, math.inf), math.nextafter(largest, 0.0)]
        points = [("as given", s)]
        for factor in factors:
            try:
                point = rebased(s, factor)
            except ValueError:  # a volume overflows before the bound does
                continue
            points.append(("edge", point))
            unbounded = _first_unbounded_query_by_stage(point)
            if unbounded is None:
                with_scale_factor(s, factor)
            else:
                with pytest.raises(FieldError) as excinfo:
                    with_scale_factor(s, factor)
                assert excinfo.value.field == f"sequence[{unbounded}]", (s, factor)
        for kind, point in points:
            for gap in (None, 0.0, 2.5, 1e300, 6e307, 1.7e308):
                expected = _first_unbounded_query_by_stage(point, gap)
                assert first_unbounded_query(point, gap) == expected, (point, gap)
                where.setdefault((kind, gap is None), set()).add(expected)
    assert where["edge", True] == where["edge", False] == {None, 0, 1, 2, 3, 4, 5}
    assert where["as given", False] == {None, 0, 1}
