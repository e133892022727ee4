"""What every record type keeps: fields that cannot be assigned, equality and
hash that hold only within one class, the Name(field=value, ...) repr, and
copies with changed fields."""
import copy
import json
import math
import pickle
import re

import pytest

from reconfig_sim.analyzer import OperatorShape
from reconfig_sim.emulator import Span, TimelineReport
from reconfig_sim.harness import SweepSpec
from reconfig_sim.model import (
    AcceleratorModule,
    FieldError,
    Invocation,
    QuerySpec,
    RpuConfig,
    Scenario,
    ScenarioError,
    Schedule,
    TableDef,
    load_scenario,
)
from reconfig_sim.optimizer import StrategyOutcome


def _records():
    """One record of each of the package's 12 record types."""
    shape = OperatorShape("compare_gt", "int32")
    producer = Invocation("m", "a + 1 > ?p", 0.5, frozenset({"a"}), frozenset({"b"}))
    reader = Invocation("m", "b > 1", 0.25, frozenset({"a", "b"}), volume_multiplier=2.0)
    query = QuerySpec("Q0", "t", (producer, reader), 2.0)
    rpu = RpuConfig(1.0, 0.2, 15.0)
    module = AcceleratorModule("m", frozenset({shape}), 2.0, reconfig_ms=3.0)
    table = TableDef("t", 16.0)
    schedule = Schedule(((0, 1),), (None,))
    span = Span("scan", "t", 0.0, 1.0, "Q0")
    return [
        shape, rpu, module, table, producer, query,
        Scenario(rpu, (table,), (module,), (query,), 0.5), schedule, span,
        TimelineReport((span,), (1.0,), 1.0),
        StrategyOutcome("baseline", schedule, 1.0, 0.0), SweepSpec("gap_ms", (0.0, 1.0)),
    ]


def test_the_records_cover_every_record_type():
    assert len({type(record) for record in _records()}) == 12


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
    # two records whose fields hold the same values
    assert TableDef("t", 16.0) != Schedule("t", 16.0)
    assert Schedule("t", 16.0) != TableDef("t", 16.0)
    assert TableDef("t", 16.0) == TableDef("t", 16.0)


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
    assert rpu == RpuConfig(1.0, 0.2, 0.0) and seq2.rpu.default_reconfig_ms == 15.0

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


def test_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError, match="sweep needs at least one value"):
        SweepSpec("gap_ms", (1.0,)).replace(values=())
    with pytest.raises(ValueError, match="unknown lane: 'disk'"):
        Span("scan", "t", 0.0, 1.0, "Q0").replace(lane="disk")


_NAN = float("nan")
_INVOCATION = Invocation("m", "a > 1", 0.5, frozenset({"a"}))

# record, the path of such a record in the seq2 document, field, values its
# constructor rejects, the message, values it accepts
SIGN_CHECKS = [
    (RpuConfig(1.0, 0.2, 15.0), "rpu", "storage_rate", (0.0, -1.0, _NAN),
     "must be greater than 0", (1e-300,)),
    (RpuConfig(1.0, 0.2, 15.0), "rpu", "network_rate", (0.0, -1.0, _NAN),
     "must be greater than 0", (1e-300,)),
    (RpuConfig(1.0, 0.2, 15.0), "rpu", "default_reconfig_ms", (-1.0, _NAN),
     "must be at least 0", (0.0,)),
    (AcceleratorModule("m", frozenset(), 2.0), "library[0]", "proc_rate", (0.0, -2.0, _NAN),
     "must be greater than 0", (1e-300,)),
    (AcceleratorModule("m", frozenset(), 2.0), "library[0]", "reconfig_ms", (-1.0, _NAN),
     "must be at least 0", (None, 0.0)),
    (TableDef("t", 16.0), "tables[0]", "volume", (-1.0, -float("inf"), _NAN),
     "must be at least 0", (0.0,)),
    (_INVOCATION, "sequence[0].invocations[0]", "selectivity", (-0.1, 1.5, _NAN),
     "must be within [0, 1]", (0.0, 1.0)),
    (_INVOCATION, "sequence[0].invocations[0]", "volume_multiplier", (0.0, -2.0, _NAN),
     "must be greater than 0", (1e-300,)),
    (QuerySpec("Q0", "t", (_INVOCATION,), 2.0), "sequence[0]", "gap_after_ms", (-1.0, _NAN),
     "must be at least 0", (0.0,)),
    (Scenario(RpuConfig(1.0, 0.2, 15.0), (TableDef("t", 16.0),),
              (AcceleratorModule("m", frozenset(), 2.0),), (QuerySpec("Q0", "t", (_INVOCATION,)),)),
     "document", "scale_factor", (0.0, -1.0, _NAN), "must be greater than 0", (1e-300,)),
]
_SIGN_CHECK_IDS = [f"{type(c[0]).__name__}.{c[2]}" for c in SIGN_CHECKS]


@pytest.mark.parametrize("record, path, field, rejected, message, accepted", SIGN_CHECKS,
                         ids=_SIGN_CHECK_IDS)
def test_constructors_reject_negative_and_nan_values(record, path, field, rejected, message,
                                                      accepted):
    """These are the values that could run an emulated span backwards (the
    scale factor divides and rebases every table volume), and the
    emulator's event loop no longer checks its spans."""
    fields = {name: getattr(record, name) for name in type(record)._fields}
    for value in rejected:
        # replace, and the constructor itself
        for build in (lambda: record.replace(**{field: value}),
                      lambda: type(record)(**{**fields, field: value})):
            with pytest.raises(ValueError) as excinfo:
                build()
            assert str(excinfo.value) == f"{field} {message}, got {value}"
    for value in accepted:
        assert getattr(record.replace(**{field: value}), field) == value


@pytest.mark.parametrize("record, path, field, rejected, message, accepted", SIGN_CHECKS,
                         ids=_SIGN_CHECK_IDS)
def test_the_loader_reports_the_constructor_message(seq2_doc, record, path, field, rejected,
                                                    message, accepted):
    """The loader checks no value range of its own but the scale factor's,
    which it applies before Scenario is built: the constructor rejects the
    value, and the loader names its document path in front of the
    constructor's message, so the two cannot drift apart.  JSON's NaN and
    infinities are the loader's to reject, as not finite."""
    finite = [value for value in rejected if math.isfinite(value)]
    assert finite
    for value in finite:
        doc = copy.deepcopy(seq2_doc)
        target = doc
        for key, index in re.findall(r"(\w+)(?:\[(\d+)\])?", path.removeprefix("document")):
            target = target[key] if not index else target[key][int(index)]
        target[field] = value
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(json.dumps(doc))
        assert str(excinfo.value) == f"{path}.{field}: {message}, got {value}"


def test_constructors_reject_empty_sequences(seq2):
    """A query without invocations and a scenario without queries have no
    timeline; the loader rejects both, and so do the records built in code,
    before either timing model can disagree on them."""
    q = seq2.sequence[0]
    for build, field in ((lambda: q.replace(invocations=()), "invocations"),
                         (lambda: QuerySpec(q.id, q.table_id, ()), "invocations"),
                         (lambda: seq2.replace(sequence=()), "sequence"),
                         (lambda: Scenario(seq2.rpu, seq2.tables, seq2.library, ()), "sequence")):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == f"{field} must be non-empty, got ()"


# field, a value OperatorShape rejects, the problem it names
VOCABULARY_CHECKS = [
    ("kind", "compare_gte", "unknown operator kind 'compare_gte'"),
    ("operand_type", "int8", "unknown operand type 'int8'"),
]


@pytest.mark.parametrize("field, value, problem", VOCABULARY_CHECKS)
def test_operator_shape_rejects_values_outside_the_vocabulary(field, value, problem):
    """OperatorShape alone knows the operator kinds and operand types; the
    loader reports this FieldError at the shape's document path."""
    with pytest.raises(FieldError) as excinfo:
        OperatorShape(**{"kind": "compare_gt", "operand_type": "int32", field: value})
    assert (excinfo.value.field, excinfo.value.problem) == (field, problem)


@pytest.mark.parametrize("field, what", [("tables", "table"), ("library", "module"),
                                         ("sequence", "query")])
def test_scenario_rejects_repeated_ids(seq2, field, what):
    """A scenario built in code with two tables, modules or queries of one
    id would silently use the last; Scenario names the first repeated id,
    as the loader does."""
    first, *rest = getattr(seq2, field)
    with pytest.raises(FieldError) as excinfo:
        seq2.replace(**{field: (first, first.replace(), *rest)})
    assert str(excinfo.value) == f"{field} duplicate {what} id '{first.id}'"
    # the same id again after the first repeat: the first is still named
    with pytest.raises(FieldError) as excinfo:
        seq2.replace(**{field: (*rest, first, *rest, first)})
    assert excinfo.value.problem == f"duplicate {what} id '{rest[0].id}'"


def test_copy_and_pickle_keep_every_field():
    for record in _records():
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin == record and repr(twin) == repr(record)
            assert [getattr(twin, name) for name in type(record).__slots__] == [
                getattr(record, name) for name in type(record).__slots__]
