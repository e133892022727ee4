"""What every record type keeps: fields that cannot be assigned, equality and
hash that hold only within one class, the Name(field=value, ...) repr, and
copies with changed fields."""
import copy
import pickle

import pytest

from reconfig_sim.analyzer import (
    Attribute,
    Comparison,
    Hint,
    Literal,
    OperatorShape,
    Parameter,
    parse_predicate,
)
from reconfig_sim.emulator import Span, TimelineReport
from reconfig_sim.harness import SweepSpec
from reconfig_sim.model import (
    AcceleratorModule,
    Invocation,
    QuerySpec,
    RpuConfig,
    Scenario,
    Schedule,
    TableDef,
)
from reconfig_sim.optimizer import StrategyOutcome


def _records():
    """One record of each of the package's 18 record types."""
    shape = OperatorShape("compare_gt", "int32")
    predicate = parse_predicate("a + 1 > ?p")
    producer = Invocation("m", predicate, 0.5, frozenset({"a"}), frozenset({"b"}))
    reader = Invocation("m", predicate, 0.25, frozenset({"a", "b"}), volume_multiplier=2.0)
    query = QuerySpec("Q0", "t", (producer, reader), 2.0)
    rpu = RpuConfig(1.0, 0.2, 15.0)
    module = AcceleratorModule("m", frozenset({shape}), 2.0, reconfig_ms=3.0)
    table = TableDef("t", 16.0)
    schedule = Schedule(((0, 1),), (None,))
    span = Span("scan", "t", 0.0, 1.0, "Q0")
    return [
        shape, predicate, predicate.lhs, predicate.lhs.lhs, predicate.lhs.rhs, predicate.rhs,
        Hint("m", frozenset({"m"}), 2.0), rpu, module, table, producer, query,
        Scenario(rpu, (table,), (module,), (query,), 0.5), schedule, span,
        TimelineReport((span,), (1.0,), 1.0),
        StrategyOutcome("baseline", schedule, 1.0, 0.0), SweepSpec("gap_ms", (0.0, 1.0)),
    ]


def test_the_records_cover_every_record_type():
    assert len({type(record) for record in _records()}) == 18


def test_assignment_raises_on_every_record():
    for record in _records():
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None


def test_equal_fields_give_equal_hashes():
    for first, second in zip(_records(), _records()):
        assert first == second and hash(first) == hash(second), type(first).__name__
        assert not first != second


def test_equality_and_hash_follow_the_fields():
    rpu = RpuConfig(1.0, 0.2, 15.0)
    assert rpu != RpuConfig(1.0, 0.2, 14.0)
    assert {rpu, RpuConfig(1.0, 0.2, 15.0), RpuConfig(1.0, 0.2, 14.0)} == {
        rpu, RpuConfig(1.0, 0.2, 14.0)}
    assert Schedule(((0,),), (None,)) != (((0,),), (None,))


def test_equality_needs_the_same_record_type():
    assert Attribute("x", "int32") != Parameter("x", "int32")
    assert Literal(1, "int32") != Parameter(1, "int32")
    assert Literal(1, "int32") == Literal(1, "int32")


def test_comparison_equality_ignores_shapes_and_attributes():
    parsed = parse_predicate("a > 1")
    built = Comparison("compare_gt", Attribute("a", "int32"), Literal(1, "int32"))
    assert parsed.shapes == (OperatorShape("compare_gt", "int32"),)
    assert parsed.attributes == ("a",)
    assert built.shapes == () and built.attributes == ()
    assert parsed == built and hash(parsed) == hash(built)
    assert repr(parsed) == repr(built) == (
        "Comparison(kind='compare_gt', lhs=Attribute(name='a', operand_type='int32'), "
        "rhs=Literal(value=1, operand_type='int32'))")


def test_repr_shows_every_field_by_name():
    assert repr(Schedule(((1, 0), (0,)), ("m", None))) == (
        "Schedule(orders=((1, 0), (0,)), prefetches=('m', None))")
    assert repr(Span("scan", "t", 0.0, 1.5, "Q0")) == (
        "Span(lane='scan', label='t', start_ms=0.0, end_ms=1.5, query_id='Q0')")
    with pytest.raises(ValueError) as excinfo:
        Span("accel", "m", 2.0, 1.0, "Q0")
    assert str(excinfo.value) == ("span ends before it starts: Span(lane='accel', label='m', "
                                  "start_ms=2.0, end_ms=1.0, query_id='Q0')")


def test_replace_copies_with_changed_fields(seq2, corpus):
    rpu = seq2.rpu.replace(default_reconfig_ms=0.0)
    assert rpu == RpuConfig(1.0, 0.2, 0.0, 1) and seq2.rpu.default_reconfig_ms == 15.0

    module = seq2.library[0].replace(reconfig_ms=3.0)
    assert module == AcceleratorModule(seq2.library[0].id, seq2.library[0].supported_ops,
                                       seq2.library[0].proc_rate, 3.0)

    scenario = seq2.replace(rpu=rpu, scale_factor=2.0)
    assert scenario == Scenario(rpu, seq2.tables, seq2.library, seq2.sequence, 2.0)

    query = seq2.sequence[0].replace(gap_after_ms=9.0)
    assert query == QuerySpec("Q0", "orders", seq2.sequence[0].invocations, 9.0)
    assert seq2.sequence[0].gap_after_ms == 2.0

    chained = dict(corpus)["corpus/q04"].sequence[0]
    assert chained.replace(id="other").dependencies == ((0, 1),)
    assert chained.replace(invocations=chained.invocations[:1]).dependencies == ()

    for record in (seq2, seq2.rpu, seq2.library[0], seq2.sequence[0]):
        assert record.replace() == record and record.replace() is not record
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)


def test_replace_keeps_what_the_constructor_is_given():
    parsed = parse_predicate("a + 1 > ?p")
    flipped = parsed.replace(kind="compare_lt")
    assert flipped.kind == "compare_lt"
    assert (flipped.shapes, flipped.attributes) == (parsed.shapes, parsed.attributes)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError, match="sweep needs at least one value"):
        SweepSpec("gap_ms", (1.0,)).replace(values=())
    with pytest.raises(ValueError, match="unknown lane: 'disk'"):
        Span("scan", "t", 0.0, 1.0, "Q0").replace(lane="disk")


def test_copy_and_pickle_keep_every_field():
    for record in _records():
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin == record and repr(twin) == repr(record)
            assert [getattr(twin, name) for name in type(record).__slots__] == [
                getattr(record, name) for name in type(record).__slots__]
