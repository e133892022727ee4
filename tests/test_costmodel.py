import math

from hypothesis import given
from hypothesis import strategies as st

from reconfig_sim.analyzer import parse_predicate
from reconfig_sim.costmodel import (
    accel_runtime,
    propagate_volumes,
    reconfig_time,
    scan_time,
    transfer_time,
)
from reconfig_sim.model import AcceleratorModule, Invocation, QuerySpec, RpuConfig, TableDef

_RPU = RpuConfig(storage_rate=1.0, network_rate=0.2, default_reconfig_ms=15.0)
_MODULE = AcceleratorModule("m", frozenset(), proc_rate=2.0)


def _query(*pairs):
    """A query over table 't' whose invocations carry the given (selectivity,
    multiplier) pairs; predicates are irrelevant to volume propagation."""
    invocations = tuple(
        Invocation("m", parse_predicate("a > 1"), sel, frozenset({"a"}),
                   volume_multiplier=mult)
        for sel, mult in pairs)
    return QuerySpec("q", "t", invocations)


def test_stage_times_are_plain_rate_divisions():
    assert scan_time(16.0, _RPU) == 16.0
    assert accel_runtime(16.0, _MODULE) == 8.0
    assert transfer_time(6.4, _RPU) == 6.4 / 0.2


def test_reconfig_time_resident_override_default():
    assert reconfig_time(_MODULE, "m", _RPU) == 0.0
    assert reconfig_time(_MODULE, None, _RPU) == 15.0
    assert reconfig_time(_MODULE, "other", _RPU) == 15.0
    quick = AcceleratorModule("q", frozenset(), proc_rate=2.0, reconfig_ms=5.0)
    assert reconfig_time(quick, None, _RPU) == 5.0
    assert reconfig_time(quick, "q", _RPU) == 0.0


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
