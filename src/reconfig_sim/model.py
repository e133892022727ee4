"""Scenario and schedule types plus JSON loading and schedule validation.

A scenario bundles the device parameters, the tables, the accelerator
library, and the query sequence.  All types are immutable records (see
record.Record): assigning to a field raises AttributeError, and
transformations return new values, such as the copies that replace()
makes.  Table volumes are stored already multiplied by the
scenario's scale_factor.  Each QuerySpec carries its (producer, reader)
invocation dependency pairs and each Scenario its tables and modules keyed
by id, derived once when built, so that validating or emulating a schedule
derives neither again.
"""
from __future__ import annotations

import json
import math
from typing import Mapping

from . import analyzer
from .analyzer import (
    ARITH_KINDS,
    COMPARE_KINDS,
    OPERAND_TYPES,
    Comparison,
    OperatorShape,
    PredicateError,
)
from .record import Record, set_field

PREFETCH_TRIGGER = "pr-region-free-after-this-query"
# shared by every invocation without "produces": each frozenset() call makes
# a new 216-byte object, and most invocations produce nothing
_NOTHING_PRODUCED: frozenset[str] = frozenset()


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document; message names the offending path."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ScheduleError(ValueError):
    """A schedule rejected by validate_schedule; carries the violation list."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class RpuConfig(Record):
    """Device rates in volume units per millisecond; one reconfigurable region."""

    __slots__ = ("storage_rate", "network_rate", "default_reconfig_ms", "pr_region_count")

    def __init__(self, storage_rate: float, network_rate: float, default_reconfig_ms: float,
                 pr_region_count: int = 1):
        set_field(self, "storage_rate", storage_rate)
        set_field(self, "network_rate", network_rate)
        set_field(self, "default_reconfig_ms", default_reconfig_ms)
        set_field(self, "pr_region_count", pr_region_count)


class AcceleratorModule(Record):
    __slots__ = ("id", "supported_ops", "proc_rate", "reconfig_ms")

    def __init__(self, id: str, supported_ops: frozenset[OperatorShape], proc_rate: float,
                 reconfig_ms: float | None = None):
        set_field(self, "id", id)
        set_field(self, "supported_ops", supported_ops)
        set_field(self, "proc_rate", proc_rate)
        set_field(self, "reconfig_ms", reconfig_ms)


class TableDef(Record):
    __slots__ = ("id", "volume")

    def __init__(self, id: str, volume: float):
        set_field(self, "id", id)
        set_field(self, "volume", volume)


class Invocation(Record):
    __slots__ = ("accelerator_id", "predicate", "selectivity", "reads", "produces",
                 "volume_multiplier")

    def __init__(self, accelerator_id: str, predicate: Comparison, selectivity: float,
                 reads: frozenset[str], produces: frozenset[str] = _NOTHING_PRODUCED,
                 volume_multiplier: float = 1.0):
        set_field(self, "accelerator_id", accelerator_id)
        set_field(self, "predicate", predicate)
        set_field(self, "selectivity", selectivity)
        set_field(self, "reads", reads)
        set_field(self, "produces", produces)
        set_field(self, "volume_multiplier", volume_multiplier)


class QuerySpec(Record):
    """One query: its table, its invocations in written order, and the gap after it.

    dependencies is derived, not given: the (producer, reader) index pairs
    where invocation reader reads an attribute that invocation producer
    produces, sorted by reader and then producer, and () when no invocation
    produces anything.  Equality, hash and repr ignore it.
    """

    __slots__ = ("id", "table_id", "invocations", "gap_after_ms", "dependencies")
    _fields = __slots__[:4]

    def __init__(self, id: str, table_id: str, invocations: tuple[Invocation, ...],
                 gap_after_ms: float = 0.0):
        set_field(self, "id", id)
        set_field(self, "table_id", table_id)
        set_field(self, "invocations", invocations)
        set_field(self, "gap_after_ms", gap_after_ms)
        pairs = ()
        if any(inv.produces for inv in invocations):
            pairs = tuple((producer, reader) for reader, producers
                          in enumerate(analyzer.invocation_dependencies(self))
                          for producer in sorted(producers))
        set_field(self, "dependencies", pairs)

    def replace(self, **changes) -> QuerySpec:
        """A copy with the given fields changed.  Unless the invocations
        change, the copy keeps these dependency pairs instead of deriving
        them again."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        if "invocations" in changes or len(fields) > len(self._fields):
            return QuerySpec(**fields)  # derives the pairs, or rejects an unknown field
        copy = object.__new__(QuerySpec)
        for name, value in fields.items():
            set_field(copy, name, value)
        set_field(copy, "dependencies", self.dependencies)
        return copy


class Scenario(Record):
    """tables_by_id and modules_by_id are derived, not given: the tables and
    modules keyed by id.  Equality, hash and repr ignore them."""

    __slots__ = ("rpu", "tables", "library", "sequence", "scale_factor",
                 "tables_by_id", "modules_by_id")
    _fields = __slots__[:5]

    def __init__(self, rpu: RpuConfig, tables: tuple[TableDef, ...],
                 library: tuple[AcceleratorModule, ...], sequence: tuple[QuerySpec, ...],
                 scale_factor: float = 1.0):
        set_field(self, "rpu", rpu)
        set_field(self, "tables", tables)
        set_field(self, "library", library)
        set_field(self, "sequence", sequence)
        set_field(self, "scale_factor", scale_factor)
        set_field(self, "tables_by_id", {t.id: t for t in tables})
        set_field(self, "modules_by_id", {m.id: m for m in library})


class Schedule(Record):
    """Per-query invocation permutations plus optional per-query prefetch.

    prefetches[i] names the module to start loading the moment the region
    frees up after query i's last invocation (the only trigger supported),
    or None for no speculative reconfiguration.
    """

    __slots__ = ("orders", "prefetches")

    def __init__(self, orders: tuple[tuple[int, ...], ...], prefetches: tuple[str | None, ...]):
        set_field(self, "orders", orders)
        set_field(self, "prefetches", prefetches)


def identity_schedule(s: Scenario) -> Schedule:
    """The sequence exactly as written: no reordering, no prefetch."""
    return Schedule(
        orders=tuple(tuple(range(len(q.invocations))) for q in s.sequence),
        prefetches=(None,) * len(s.sequence),
    )


# ---------------------------------------------------------------------------
# document loading

def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError("expected an object", path)
    return value


def _check_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], path: str):
    for key in required:
        if key not in obj:
            raise ScenarioError(f"missing key '{key}'", path)
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"unknown key '{key}'", path)


def _number(obj: dict, key: str, path: str, *, minimum=None, exclusive=False) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError("expected a number", f"{path}.{key}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ScenarioError("must be finite, got an integer beyond the float range",
                            f"{path}.{key}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"must be finite, got {value}", f"{path}.{key}")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ScenarioError(f"must be greater than {minimum}, got {value}", f"{path}.{key}")
        if not exclusive and value < minimum:
            raise ScenarioError(f"must be at least {minimum}, got {value}", f"{path}.{key}")
    return value


def _string(obj: dict, key: str, path: str) -> str:
    value = obj[key]
    if not isinstance(value, str) or not value:
        raise ScenarioError("expected a non-empty string", f"{path}.{key}")
    return value


def _array(obj: dict, key: str, path: str, *, non_empty=True) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise ScenarioError("expected an array", f"{path}.{key}")
    if non_empty and not value:
        raise ScenarioError("must be non-empty", f"{path}.{key}")
    return value


def _string_set(obj: dict, key: str, path: str,
                shared: dict[frozenset[str], frozenset[str]]) -> frozenset[str]:
    """The strings as a frozenset, the same object for every equal set in shared."""
    items = _array(obj, key, path, non_empty=False)
    for i, item in enumerate(items):
        if not isinstance(item, str) or not item:
            raise ScenarioError("expected a non-empty string", f"{path}.{key}[{i}]")
    strings = frozenset(items)
    return shared.setdefault(strings, strings)


def _rpu_from_doc(obj, path: str) -> RpuConfig:
    obj = _object(obj, path)
    _check_keys(obj, ("storage_rate", "network_rate", "default_reconfig_ms", "pr_region_count"), (), path)
    count = obj["pr_region_count"]
    if isinstance(count, bool) or not isinstance(count, int) or count != 1:
        raise ScenarioError("must be 1 (single reconfigurable region)", f"{path}.pr_region_count")
    return RpuConfig(
        storage_rate=_number(obj, "storage_rate", path, minimum=0, exclusive=True),
        network_rate=_number(obj, "network_rate", path, minimum=0, exclusive=True),
        default_reconfig_ms=_number(obj, "default_reconfig_ms", path, minimum=0),
        pr_region_count=1,
    )


def _table_from_doc(obj, path: str) -> TableDef:
    obj = _object(obj, path)
    _check_keys(obj, ("id", "volume"), (), path)
    return TableDef(_string(obj, "id", path), _number(obj, "volume", path, minimum=0))


def _module_from_doc(obj, path: str) -> AcceleratorModule:
    obj = _object(obj, path)
    _check_keys(obj, ("id", "supported_ops", "proc_rate"), ("reconfig_ms",), path)
    shapes = set()
    for i, shape_obj in enumerate(_array(obj, "supported_ops", path)):
        shape_path = f"{path}.supported_ops[{i}]"
        shape_obj = _object(shape_obj, shape_path)
        _check_keys(shape_obj, ("kind", "operand_type"), (), shape_path)
        kind = _string(shape_obj, "kind", shape_path)
        operand_type = _string(shape_obj, "operand_type", shape_path)
        if kind not in COMPARE_KINDS | ARITH_KINDS:
            raise ScenarioError(f"unknown operator kind '{kind}'", f"{shape_path}.kind")
        if operand_type not in OPERAND_TYPES:
            raise ScenarioError(f"unknown operand type '{operand_type}'", f"{shape_path}.operand_type")
        shapes.add(OperatorShape(kind, operand_type))
    reconfig_ms = None
    if "reconfig_ms" in obj:
        reconfig_ms = _number(obj, "reconfig_ms", path, minimum=0)
    return AcceleratorModule(
        id=_string(obj, "id", path),
        supported_ops=frozenset(shapes),
        proc_rate=_number(obj, "proc_rate", path, minimum=0, exclusive=True),
        reconfig_ms=reconfig_ms,
    )


def _invocation_from_doc(obj, path: str, modules: Mapping[str, AcceleratorModule],
                         sets: dict[frozenset[str], frozenset[str]]) -> Invocation:
    obj = _object(obj, path)
    _check_keys(obj, ("accelerator", "predicate", "selectivity", "reads"),
                ("volume_multiplier", "produces"), path)
    accelerator_id = _string(obj, "accelerator", path)
    if accelerator_id not in modules:
        raise ScenarioError(f"unknown accelerator '{accelerator_id}'", f"{path}.accelerator")
    text = obj["predicate"]
    if not isinstance(text, str):
        raise ScenarioError("expected a string", f"{path}.predicate")
    try:
        predicate = analyzer.parse_predicate(text)
    except PredicateError as exc:
        raise ScenarioError(f"invalid predicate: {exc}", f"{path}.predicate") from exc
    supported = modules[accelerator_id].supported_ops
    missing = [sh for sh in predicate.shapes if sh not in supported]
    if missing:
        names = ", ".join(sorted({f"{sh.kind}/{sh.operand_type}" for sh in missing}))
        raise ScenarioError(
            f"accelerator '{accelerator_id}' does not support: {names}", f"{path}.predicate")
    selectivity = _number(obj, "selectivity", path)
    if not 0.0 <= selectivity <= 1.0:
        raise ScenarioError(f"must be within [0, 1], got {selectivity}", f"{path}.selectivity")
    multiplier = 1.0
    if "volume_multiplier" in obj:
        multiplier = _number(obj, "volume_multiplier", path, minimum=0, exclusive=True)
    reads = _string_set(obj, "reads", path, sets)
    produces = _string_set(obj, "produces", path, sets) if "produces" in obj else _NOTHING_PRODUCED
    overlap = reads & produces
    if overlap:
        raise ScenarioError(f"attributes both read and produced: {sorted(overlap)}", path)
    unknown = [a for a in predicate.attributes if a not in reads and a not in produces]
    if unknown:
        raise ScenarioError(
            f"predicate references attributes not in reads or produces: {sorted(set(unknown))}",
            path)
    return Invocation(accelerator_id, predicate, selectivity, reads, produces, multiplier)


def _query_from_doc(obj, path: str, tables: Mapping[str, TableDef],
                    modules: Mapping[str, AcceleratorModule],
                    sets: dict[frozenset[str], frozenset[str]]) -> QuerySpec:
    obj = _object(obj, path)
    _check_keys(obj, ("id", "table", "invocations"), ("gap_after_ms",), path)
    table_id = _string(obj, "table", path)
    if table_id not in tables:
        raise ScenarioError(f"unknown table '{table_id}'", f"{path}.table")
    invocations = tuple(
        _invocation_from_doc(inv_obj, f"{path}.invocations[{i}]", modules, sets)
        for i, inv_obj in enumerate(_array(obj, "invocations", path)))
    produced: dict[str, int] = {}
    for k, inv in enumerate(invocations):
        for attr in inv.produces:
            if attr in produced:
                raise ScenarioError(
                    f"attribute '{attr}' produced twice (invocations {produced[attr]} and {k})", path)
            produced[attr] = k
    for k, inv in enumerate(invocations):
        for attr in inv.reads:
            if attr in produced and produced[attr] > k:
                raise ScenarioError(
                    f"invocation {k} reads derived attribute '{attr}' before its producer "
                    f"(invocation {produced[attr]})", path)
    gap = _number(obj, "gap_after_ms", path, minimum=0) if "gap_after_ms" in obj else 0.0
    return QuerySpec(_string(obj, "id", path), table_id, invocations, gap)


def _unique_ids(items, what: str, path: str):
    seen = set()
    for item in items:
        if item.id in seen:
            raise ScenarioError(f"duplicate {what} id '{item.id}'", path)
        seen.add(item.id)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Table volumes in the returned scenario are already multiplied by
    scale_factor.  Unknown keys anywhere in the document are an error.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-string limit
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    doc = _object(doc, "document")
    _check_keys(doc, ("rpu", "tables", "library", "sequence"), ("scale_factor",), "document")

    rpu = _rpu_from_doc(doc["rpu"], "rpu")
    tables = tuple(_table_from_doc(obj, f"tables[{i}]")
                   for i, obj in enumerate(_array(doc, "tables", "document")))
    _unique_ids(tables, "table", "tables")
    library = tuple(_module_from_doc(obj, f"library[{i}]")
                    for i, obj in enumerate(_array(doc, "library", "document")))
    _unique_ids(library, "module", "library")

    scale = 1.0
    if "scale_factor" in doc:
        scale = _number(doc, "scale_factor", "document", minimum=0, exclusive=True)

    table_map = {t.id: t for t in tables}
    module_map = {m.id: m for m in library}
    sequence_doc = doc["sequence"]
    if not isinstance(sequence_doc, list) or not sequence_doc:
        raise ScenarioError("must be a non-empty array", "sequence")
    # one frozenset per distinct reads or produces set: thousands of
    # invocations name a few dozen sets
    sets: dict[frozenset[str], frozenset[str]] = {}
    sequence = tuple(_query_from_doc(obj, f"sequence[{i}]", table_map, module_map, sets)
                     for i, obj in enumerate(sequence_doc))
    _unique_ids(sequence, "query", "sequence")

    scaled = tuple(TableDef(t.id, t.volume * scale) for t in tables)
    for i, t in enumerate(scaled):
        if not math.isfinite(t.volume):
            raise ScenarioError(f"not finite at scale_factor {scale}", f"tables[{i}].volume")
    return Scenario(rpu, scaled, library, sequence, scale)


# ---------------------------------------------------------------------------
# schedules

def validate_schedule(s: Scenario, sch: Schedule) -> list[str]:
    """Return all violations; an empty list means the schedule is executable."""
    if len(sch.orders) != len(s.sequence):
        return [f"schedule has {len(sch.orders)} orders for {len(s.sequence)} queries"]
    if len(sch.prefetches) != len(s.sequence):
        return [f"schedule has {len(sch.prefetches)} prefetch slots for {len(s.sequence)} queries"]
    violations = []
    for q, order in zip(s.sequence, sch.orders):
        if sorted(order) != list(range(len(q.invocations))):
            violations.append(f"{q.id}: order {list(order)} is not a bijection over "
                              f"{len(q.invocations)} invocations")
            continue
        if not q.dependencies:
            continue
        position = {idx: pos for pos, idx in enumerate(order)}
        for producer, reader in q.dependencies:
            if position[producer] > position[reader]:
                violations.append(
                    f"{q.id}: dependency violated, invocation {reader} reads output of "
                    f"invocation {producer} but runs first")
    for q, module_id in zip(s.sequence, sch.prefetches):
        if module_id is not None and module_id not in s.modules_by_id:
            violations.append(f"{q.id}: prefetch names unknown module '{module_id}'")
    return violations


def schedule_to_doc(s: Scenario, sch: Schedule) -> dict:
    queries = []
    for q, order, prefetch in zip(s.sequence, sch.orders, sch.prefetches):
        entry = {"query": q.id, "order": list(order), "prefetch": None}
        if prefetch is not None:
            entry["prefetch"] = {"module": prefetch, "trigger": PREFETCH_TRIGGER}
        queries.append(entry)
    return {"queries": queries}


def schedule_from_doc(s: Scenario, doc: dict) -> Schedule:
    doc = _object(doc, "schedule")
    _check_keys(doc, ("queries",), (), "schedule")
    entries = _array(doc, "queries", "schedule")
    by_id = {}
    for i, entry in enumerate(entries):
        path = f"schedule.queries[{i}]"
        entry = _object(entry, path)
        _check_keys(entry, ("query", "order"), ("prefetch",), path)
        query_id = _string(entry, "query", path)
        order = _array(entry, "order", path)
        for j, idx in enumerate(order):
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise ScenarioError("expected an integer", f"{path}.order[{j}]")
        prefetch = None
        if entry.get("prefetch") is not None:
            p_path = f"{path}.prefetch"
            p_obj = _object(entry["prefetch"], p_path)
            _check_keys(p_obj, ("module",), ("trigger",), p_path)
            if "trigger" in p_obj and p_obj["trigger"] != PREFETCH_TRIGGER:
                raise ScenarioError(f"unsupported trigger '{p_obj['trigger']}'", f"{p_path}.trigger")
            prefetch = _string(p_obj, "module", p_path)
        if query_id in by_id:
            raise ScenarioError(f"duplicate query '{query_id}'", path)
        by_id[query_id] = (tuple(order), prefetch)
    missing = [q.id for q in s.sequence if q.id not in by_id]
    if missing:
        raise ScenarioError(f"missing queries: {missing}", "schedule.queries")
    extra = sorted(set(by_id) - {q.id for q in s.sequence})
    if extra:
        raise ScenarioError(f"unknown queries: {extra}", "schedule.queries")
    return Schedule(
        orders=tuple(by_id[q.id][0] for q in s.sequence),
        prefetches=tuple(by_id[q.id][1] for q in s.sequence),
    )
