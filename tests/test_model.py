import copy
import itertools
import json
import pickle
import random

import pytest

from reconfig_sim import emulator, harness
from reconfig_sim.analyzer import Comparison, OperatorShape
from reconfig_sim.model import (
    PREFETCH_TRIGGER,
    QuerySpec,
    Scenario,
    Schedule,
    ScenarioError,
    identity_schedule,
    load_scenario,
    schedule_from_doc,
    schedule_to_doc,
    validate_schedule,
)


def _load(doc):
    return load_scenario(json.dumps(doc))


def test_load_canonical_scenario(seq2):
    assert seq2.rpu.storage_rate == 1.0
    assert seq2.rpu.network_rate == 0.2
    assert seq2.rpu.default_reconfig_ms == 15.0
    assert seq2.rpu.pr_region_count == 1
    assert {t.id: t.volume for t in seq2.tables} == {"orders": 16.0, "lineitem": 6.0}
    acc_a = {m.id: m for m in seq2.library}["accA"]
    assert acc_a.supported_ops == frozenset({OperatorShape("compare_gt", "int32")})
    assert acc_a.reconfig_ms is None
    assert [q.id for q in seq2.sequence] == ["Q0", "Q1"]
    assert seq2.sequence[0].gap_after_ms == 2.0
    assert seq2.sequence[1].gap_after_ms == 0.0
    first = seq2.sequence[0].invocations[0]
    assert first.accelerator_id == "accA"
    assert first.selectivity == 0.5
    assert first.reads == frozenset({"amount"})
    assert first.produces == frozenset()
    assert first.volume_multiplier == 1.0
    assert isinstance(first.predicate, Comparison)
    assert first.predicate.kind == "compare_gt"


def test_equal_string_sets_share_one_object(seq2_doc):
    q0, q1 = seq2_doc["sequence"]
    q0["invocations"][0]["produces"] = ["derived"]
    q0["invocations"][1]["reads"] = ["discount", "amount"]
    q1["invocations"][0]["reads"] = ["amount", "discount"]
    q1["invocations"][0]["produces"] = ["derived"]
    s = _load(seq2_doc)
    (first, second), (third,) = (q.invocations for q in s.sequence)
    assert second.reads is third.reads and third.reads == frozenset({"amount", "discount"})
    assert first.produces is third.produces and first.produces == frozenset({"derived"})
    assert first.reads == frozenset({"amount"}) and second.produces == frozenset()
    # shared within one load only, and a load still equals the next one
    again = _load(seq2_doc)
    assert again == s and again.sequence[1].invocations[0].reads is not third.reads


def test_scale_factor_multiplies_volumes(seq2_small):
    assert seq2_small.scale_factor == 0.25
    assert {t.id: t.volume for t in seq2_small.tables} == {"orders": 4.0, "lineitem": 1.5}


def _drop_network_rate(doc):
    del doc["rpu"]["network_rate"]


def _unknown_top_key(doc):
    doc["extra"] = 1


def _unknown_invocation_key(doc):
    doc["sequence"][0]["invocations"][0]["frob"] = 1


def _empty_sequence(doc):
    doc["sequence"] = []


def _sequence_not_array(doc):
    doc["sequence"] = {}


def _selectivity_above_one(doc):
    doc["sequence"][0]["invocations"][0]["selectivity"] = 1.5


def _selectivity_negative(doc):
    doc["sequence"][0]["invocations"][0]["selectivity"] = -0.1


def _unknown_table(doc):
    doc["sequence"][1]["table"] = "nope"


def _unknown_accelerator(doc):
    doc["sequence"][0]["invocations"][0]["accelerator"] = "nope"


def _two_regions(doc):
    doc["rpu"]["pr_region_count"] = 2


def _bool_region_count(doc):
    doc["rpu"]["pr_region_count"] = True


def _zero_storage_rate(doc):
    doc["rpu"]["storage_rate"] = 0


def _bool_storage_rate(doc):
    doc["rpu"]["storage_rate"] = True


def _negative_volume(doc):
    doc["tables"][0]["volume"] = -1


def _zero_proc_rate(doc):
    doc["library"][0]["proc_rate"] = 0


def _unsupported_comparison(doc):
    doc["sequence"][0]["invocations"][0]["predicate"] = "amount < 100"


def _unsupported_arithmetic(doc):
    doc["sequence"][0]["invocations"][0]["predicate"] = "amount * 2 > amount + 1"


def _unsupported_operand_type(doc):
    doc["sequence"][0]["invocations"][0]["predicate"] = "amount > 1.5"


def _broken_predicate(doc):
    doc["sequence"][0]["invocations"][0]["predicate"] = "amount >"


def _predicate_reads_unknown_attribute(doc):
    doc["sequence"][0]["invocations"][0]["predicate"] = "total > 100"


def _predicate_reads_two_unknown_attributes(doc):
    doc["sequence"][0]["invocations"][0]["predicate"] = "total > other"


def _predicate_repeats_an_unknown_attribute(doc):
    doc["sequence"][0]["invocations"][0]["predicate"] = "total > total"


def _read_and_produced(doc):
    doc["sequence"][0]["invocations"][0]["produces"] = ["amount"]


def _produced_twice(doc):
    doc["sequence"][0]["invocations"][0]["produces"] = ["x"]
    doc["sequence"][0]["invocations"][1]["produces"] = ["x"]


def _read_before_producer(doc):
    doc["sequence"][0]["invocations"][1]["produces"] = ["amount"]


def _duplicate_table(doc):
    doc["tables"][1]["id"] = "orders"


def _duplicate_module(doc):
    doc["library"][1]["id"] = "accA"


def _duplicate_query(doc):
    doc["sequence"][1]["id"] = "Q0"


def _zero_scale(doc):
    doc["scale_factor"] = 0


def _empty_read(doc):
    doc["sequence"][1]["invocations"][0]["reads"] = ["amount", ""]


def _non_string_produce(doc):
    doc["sequence"][1]["invocations"][0]["produces"] = ["derived", 3]


def _unknown_op_kind(doc):
    doc["library"][0]["supported_ops"][0]["kind"] = "compare_gte"


def _unknown_operand_type(doc):
    doc["library"][0]["supported_ops"][0]["operand_type"] = "int8"


@pytest.mark.parametrize("mutate, fragment", [
    (_drop_network_rate, "rpu: missing key 'network_rate'"),
    (_unknown_top_key, "document: unknown key 'extra'"),
    (_unknown_invocation_key, "sequence[0].invocations[0]: unknown key 'frob'"),
    (_empty_sequence, "sequence: must be a non-empty array"),
    (_sequence_not_array, "sequence: must be a non-empty array"),
    (_selectivity_above_one, "sequence[0].invocations[0].selectivity: must be within [0, 1], got 1.5"),
    (_selectivity_negative, "must be within [0, 1], got -0.1"),
    (_unknown_table, "sequence[1].table: unknown table 'nope'"),
    (_unknown_accelerator, "sequence[0].invocations[0].accelerator: unknown accelerator 'nope'"),
    (_two_regions, "rpu.pr_region_count: must be 1"),
    (_bool_region_count, "rpu.pr_region_count: must be 1"),
    (_zero_storage_rate, "rpu.storage_rate: must be greater than 0"),
    (_bool_storage_rate, "rpu.storage_rate: expected a number"),
    (_negative_volume, "tables[0].volume: must be at least 0"),
    (_zero_proc_rate, "library[0].proc_rate: must be greater than 0"),
    (_unsupported_comparison,
     "sequence[0].invocations[0].predicate: accelerator 'accA' does not support: compare_lt/int32"),
    (_unsupported_arithmetic,
     "sequence[0].invocations[0].predicate: accelerator 'accA' does not support: "
     "arith_add/int32, arith_mul/int32"),
    (_unsupported_operand_type,
     "sequence[0].invocations[0].predicate: accelerator 'accA' does not support: compare_gt/float"),
    (_broken_predicate, "invalid predicate: syntax error at column"),
    (_predicate_reads_unknown_attribute,
     "predicate references attributes not in reads or produces: ['total']"),
    (_predicate_reads_two_unknown_attributes,
     "sequence[0].invocations[0]: predicate references attributes not in reads or produces: "
     "['other', 'total']"),
    (_predicate_repeats_an_unknown_attribute,
     "predicate references attributes not in reads or produces: ['total']"),
    (_read_and_produced, "attributes both read and produced: ['amount']"),
    (_produced_twice, "attribute 'x' produced twice (invocations 0 and 1)"),
    (_read_before_producer,
     "invocation 0 reads derived attribute 'amount' before its producer (invocation 1)"),
    (_duplicate_table, "tables: duplicate table id 'orders'"),
    (_duplicate_module, "library: duplicate module id 'accA'"),
    (_duplicate_query, "sequence: duplicate query id 'Q0'"),
    (_zero_scale, "document.scale_factor: must be greater than 0"),
    (_empty_read, "sequence[1].invocations[0].reads[1]: expected a non-empty string"),
    (_non_string_produce, "sequence[1].invocations[0].produces[1]: expected a non-empty string"),
    (_unknown_op_kind, "library[0].supported_ops[0].kind: unknown operator kind 'compare_gte'"),
    (_unknown_operand_type, "library[0].supported_ops[0].operand_type: unknown operand type 'int8'"),
])
def test_document_errors_name_their_path(seq2_doc, mutate, fragment):
    mutate(seq2_doc)
    with pytest.raises(ScenarioError) as excinfo:
        _load(seq2_doc)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("path, value, fragment", [
    (("tables", 0, "volume"), float("nan"), "tables[0].volume: must be finite"),
    (("tables", 0, "volume"), 10 ** 400, "tables[0].volume: must be finite"),
    (("rpu", "storage_rate"), float("inf"), "rpu.storage_rate: must be finite"),
    (("rpu", "default_reconfig_ms"), float("inf"), "rpu.default_reconfig_ms: must be finite"),
    (("sequence", 0, "gap_after_ms"), float("inf"), "sequence[0].gap_after_ms: must be finite"),
    (("scale_factor",), 1e308, "tables[0].volume: not finite at scale_factor"),
], ids=["nan-volume", "huge-int-volume", "inf-storage-rate", "inf-default-reconfig",
        "inf-gap", "overflowing-scale"])
def test_non_finite_numbers_are_rejected(seq2_doc, path, value, fragment):
    # json.dumps writes nan and inf as the NaN and Infinity tokens
    *parents, last = path
    target = seq2_doc
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ScenarioError) as excinfo:
        _load(seq2_doc)
    assert fragment in str(excinfo.value)


def test_invalid_json_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario("{")
    with pytest.raises(ScenarioError, match="document: expected an object"):
        load_scenario("[]")


def test_overlong_integer_literal_is_a_scenario_error(seq2_doc):
    # json.loads raises a plain ValueError, not JSONDecodeError, for an
    # integer literal past the interpreter's int-string digit limit
    seq2_doc["tables"][0]["volume"] = "VOLUME"
    text = json.dumps(seq2_doc).replace('"VOLUME"', "9" * 5001)
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(text)


def test_missing_shape_is_named_once(seq2_doc):
    seq2_doc["sequence"][0]["invocations"][0]["predicate"] = "amount + 1 > amount + 2"
    with pytest.raises(ScenarioError) as excinfo:
        _load(seq2_doc)
    assert str(excinfo.value).endswith("accelerator 'accA' does not support: arith_add/int32")


@pytest.mark.parametrize("literal, message", [
    ("9" * 5000, "integer literal out of int64 range"),
    ("99999999999999999999999999999", "integer literal out of int64 range"),
    ("1e999", "float literal out of range"),
], ids=["5000-digits", "29-digits", "1e999"])
def test_overflowing_predicate_literal_names_its_path(seq2_doc, literal, message):
    seq2_doc["sequence"][1]["invocations"][0]["predicate"] = f"amount > {literal}"
    with pytest.raises(ScenarioError) as excinfo:
        _load(seq2_doc)
    assert str(excinfo.value).startswith(
        "sequence[1].invocations[0].predicate: invalid predicate: "
        f"type error at column 10: {message}")


def test_identity_schedule(seq2):
    sch = identity_schedule(seq2)
    assert sch.orders == ((0, 1), (0,))
    assert sch.prefetches == (None, None)


def test_validate_accepts_identity_everywhere(corpus):
    for name, scenario in corpus:
        assert validate_schedule(scenario, identity_schedule(scenario)) == [], name


def test_validate_rejects_non_bijective_order(seq2):
    bad = Schedule(((0, 0), (0,)), (None, None))
    violations = validate_schedule(seq2, bad)
    assert violations == ["Q0: order [0, 0] is not a bijection over 2 invocations"]


def test_validate_rejects_reader_before_producer(corpus):
    scenarios = dict(corpus)
    s = scenarios["corpus/q04"]
    bad = Schedule(((1, 0), (0,)), (None, None))
    violations = validate_schedule(s, bad)
    assert violations == [
        "Q0: dependency violated, invocation 1 reads output of invocation 0 but runs first"]


def test_validate_rejects_unknown_prefetch(seq2):
    bad = Schedule(((0, 1), (0,)), ("zz", None))
    assert validate_schedule(seq2, bad) == ["Q0: prefetch names unknown module 'zz'"]
    table_named = Schedule(((0, 1), (0,)), ("orders", None))
    assert validate_schedule(seq2, table_named) == ["Q0: prefetch names unknown module 'orders'"]
    assert validate_schedule(seq2, Schedule(((0, 1), (0,)), ("accB", None))) == []


def test_validate_rejects_wrong_shape(seq2):
    short = Schedule(((0, 1),), (None,))
    assert validate_schedule(seq2, short) == ["schedule has 1 orders for 2 queries"]
    lopsided = Schedule(((0, 1), (0,)), (None,))
    assert validate_schedule(seq2, lopsided) == [
        "schedule has 1 prefetch slots for 2 queries"]


def test_schedule_doc_round_trip(seq2):
    sch = Schedule(((1, 0), (0,)), ("accA", None))
    doc = schedule_to_doc(seq2, sch)
    assert doc["queries"][0]["prefetch"] == {"module": "accA", "trigger": PREFETCH_TRIGGER}
    assert doc["queries"][1]["prefetch"] is None
    assert schedule_from_doc(seq2, doc) == sch


@pytest.mark.parametrize("doc, fragment", [
    ({"queries": [{"query": "Q0", "order": [0, 1]},
                  {"query": "Q0", "order": [0]}]}, "duplicate query 'Q0'"),
    ({"queries": [{"query": "Q0", "order": [0, 1]}]}, "missing queries: ['Q1']"),
    ({"queries": [{"query": "Q0", "order": [0, 1]},
                  {"query": "Q1", "order": [0]},
                  {"query": "Q9", "order": [0]}]}, "unknown queries: ['Q9']"),
    ({"queries": [{"query": "Q0", "order": [0, "x"]},
                  {"query": "Q1", "order": [0]}]}, "expected an integer"),
    ({"queries": [{"query": "Q0", "order": [0, 1],
                   "prefetch": {"module": "accA", "trigger": "whenever"}},
                  {"query": "Q1", "order": [0]}]}, "unsupported trigger 'whenever'"),
    ({"queries": [{"query": "Q0", "order": [0, 1], "later": 1},
                  {"query": "Q1", "order": [0]}]}, "unknown key 'later'"),
])
def test_schedule_doc_errors(seq2, doc, fragment):
    with pytest.raises(ScenarioError) as excinfo:
        schedule_from_doc(seq2, doc)
    assert fragment in str(excinfo.value)


# ---------------------------------------------------------------------------
# stored dependency pairs

def _reference_violations(s, sch):
    """validate_schedule as it was before QuerySpec stored its dependency
    pairs: the per-reader producer sets derived again on every call."""
    violations = []
    if len(sch.orders) != len(s.sequence):
        return [f"schedule has {len(sch.orders)} orders for {len(s.sequence)} queries"]
    if len(sch.prefetches) != len(s.sequence):
        return [f"schedule has {len(sch.prefetches)} prefetch slots for {len(s.sequence)} queries"]
    module_ids = {m.id for m in s.library}
    for q, order in zip(s.sequence, sch.orders):
        if sorted(order) != list(range(len(q.invocations))):
            violations.append(f"{q.id}: order {list(order)} is not a bijection over "
                              f"{len(q.invocations)} invocations")
            continue
        producers = {}
        for j, inv in enumerate(q.invocations):
            for attr in inv.produces:
                producers[attr] = j
        position = {idx: pos for pos, idx in enumerate(order)}
        for k, inv in enumerate(q.invocations):
            deps = frozenset(producers[a] for a in inv.reads
                             if a in producers and producers[a] != k)
            for producer in deps:
                if position[producer] > position[k]:
                    violations.append(
                        f"{q.id}: dependency violated, invocation {k} reads output of "
                        f"invocation {producer} but runs first")
    for q, module_id in zip(s.sequence, sch.prefetches):
        if module_id is not None and module_id not in module_ids:
            violations.append(f"{q.id}: prefetch names unknown module '{module_id}'")
    return violations


def _assert_validation_matches_reference(s) -> int:
    """Compare on every permutation of every query; return how many schedules
    had more than one violation, so that their order was compared too."""
    identity = identity_schedule(s)
    several = 0
    for i, q in enumerate(s.sequence):
        for perm in itertools.permutations(range(len(q.invocations))):
            sch = Schedule(identity.orders[:i] + (perm,) + identity.orders[i + 1:],
                           identity.prefetches)
            violations = validate_schedule(s, sch)
            assert violations == _reference_violations(s, sch), (q.id, perm)
            several += len(violations) > 1
    return several


def test_stored_dependencies_match_reference_on_bundled_producers(corpus):
    checked = 0
    for _, s in corpus:
        if any(inv.produces for q in s.sequence for inv in q.invocations):
            _assert_validation_matches_reference(s)
            checked += 1
    assert checked >= 1


def test_stored_dependencies_match_reference_on_chains(chained_scenario):
    rng = random.Random(11)
    several = 0
    for _ in range(40):
        several += _assert_validation_matches_reference(chained_scenario(rng, rng.randint(1, 4)))
    assert several > 100


def test_dependencies_follow_every_way_a_query_spec_is_built(corpus):
    s = dict(corpus)["corpus/q04"]
    loaded = s.sequence[0]
    assert loaded.dependencies == ((0, 1),)
    assert s.sequence[1].dependencies == ()

    built = QuerySpec(loaded.id, loaded.table_id, loaded.invocations, loaded.gap_after_ms)
    replaced = loaded.replace(gap_after_ms=7.0)
    gapped = harness.with_gaps(s, 7.0).sequence[0]
    assert built.dependencies == replaced.dependencies == gapped.dependencies == ((0, 1),)

    assert built == loaded and hash(built) == hash(loaded)
    assert repr(built) == repr(loaded) and "dependencies" not in repr(loaded)
    object.__setattr__(built, "dependencies", ())
    assert built == loaded and hash(built) == hash(loaded)


# lookup maps stored on the scenario

def _assert_maps_index(s):
    assert s.tables_by_id == {t.id: t for t in s.tables}
    assert s.modules_by_id == {m.id: m for m in s.library}
    assert all(s.tables_by_id[t.id] is t for t in s.tables)
    assert all(s.modules_by_id[m.id] is m for m in s.library)


def test_lookup_maps_follow_every_way_a_scenario_is_built(seq2, corpus):
    built = Scenario(seq2.rpu, seq2.tables, seq2.library, seq2.sequence, seq2.scale_factor)
    scaled = harness.with_scale_factor(seq2, 3.0)
    retabled = seq2.replace(tables=tuple(t.replace(volume=1.0) for t in seq2.tables))
    variants = [built, scaled, retabled, seq2.replace(library=seq2.library[:1]),
                harness.with_gaps(seq2, 4.0), copy.copy(seq2), copy.deepcopy(seq2),
                pickle.loads(pickle.dumps(seq2))]
    for s in [loaded for _, loaded in corpus] + variants:
        _assert_maps_index(s)
    assert [t.volume for t in scaled.tables_by_id.values()] == [
        3.0 * t.volume for t in seq2.tables]
    assert [t.volume for t in retabled.tables_by_id.values()] == [1.0] * len(seq2.tables)
    assert list(seq2.replace(library=seq2.library[:1]).modules_by_id) == [seq2.library[0].id]


def test_lookup_maps_are_ignored_by_equality_hash_and_repr(seq2):
    built = Scenario(seq2.rpu, seq2.tables, seq2.library, seq2.sequence, seq2.scale_factor)
    object.__setattr__(built, "tables_by_id", {})
    object.__setattr__(built, "modules_by_id", {})
    assert built == seq2 and hash(built) == hash(seq2) and repr(built) == repr(seq2)
    assert "tables_by_id" not in repr(seq2) and "modules_by_id" not in repr(seq2)


def test_emulation_uses_the_scenario_own_maps(seq2):
    tables, modules = emulator._checked_lookups(seq2, identity_schedule(seq2))
    assert tables is seq2.tables_by_id and modules is seq2.modules_by_id
