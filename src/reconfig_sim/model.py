"""Scenario and schedule types plus JSON loading and schedule validation.

A scenario bundles the device parameters, the tables, the accelerator
library, and the query sequence.  All types are immutable records (see
record.Record): assigning to a field raises AttributeError, and
transformations return new values, such as the copies that replace()
makes.  The constructors own every rule about a record's own fields and
raise FieldError, so a scenario built in code meets the rules a loaded one
does: no negative or NaN rates, volumes, load times, selectivities,
multipliers or gaps, which could run an emulated span backwards, no scale
factor that is not greater than 0, each attribute produced once, by an
invocation written before its readers that does not read it too, and no
two tables, modules or queries of one id.  The loader checks what JSON can
get wrong and what needs other records, and names the document path of
every error, a constructor's included.  Table volumes are stored already
multiplied by the scenario's scale_factor.  An invocation keeps its
predicate as written; the loader parses it once to check its operator
shapes and attributes.  Each QuerySpec derives its (producer, reader)
invocation pairs, the one form of the precedence rule (see
reader_first_pairs), and each Scenario its tables and modules keyed by id,
once when built.
"""
from __future__ import annotations

import json
import math
from typing import Mapping

from . import analyzer
from .analyzer import OperatorShape, PredicateError
from .costmodel import first_unbounded_query
from .record import FieldError, Record, set_field

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

    __slots__ = ("storage_rate", "network_rate", "default_reconfig_ms")

    def __init__(self, storage_rate: float, network_rate: float, default_reconfig_ms: float):
        if not storage_rate > 0:
            raise FieldError("storage_rate", f"must be greater than 0, got {storage_rate}")
        if not network_rate > 0:
            raise FieldError("network_rate", f"must be greater than 0, got {network_rate}")
        if not default_reconfig_ms >= 0:
            raise FieldError("default_reconfig_ms", f"must be at least 0, got {default_reconfig_ms}")
        set_field(self, "storage_rate", storage_rate)
        set_field(self, "network_rate", network_rate)
        set_field(self, "default_reconfig_ms", default_reconfig_ms)


class AcceleratorModule(Record):
    __slots__ = ("id", "supported_ops", "proc_rate", "reconfig_ms")

    def __init__(self, id: str, supported_ops: frozenset[OperatorShape], proc_rate: float,
                 reconfig_ms: float | None = None):
        if not proc_rate > 0:
            raise FieldError("proc_rate", f"must be greater than 0, got {proc_rate}")
        if reconfig_ms is not None and not reconfig_ms >= 0:
            raise FieldError("reconfig_ms", f"must be at least 0, got {reconfig_ms}")
        set_field(self, "id", id)
        set_field(self, "supported_ops", supported_ops)
        set_field(self, "proc_rate", proc_rate)
        set_field(self, "reconfig_ms", reconfig_ms)


class TableDef(Record):
    __slots__ = ("id", "volume")

    def __init__(self, id: str, volume: float):
        if not volume >= 0:
            raise FieldError("volume", f"must be at least 0, got {volume}")
        set_field(self, "id", id)
        set_field(self, "volume", volume)


class Invocation(Record):
    __slots__ = ("accelerator_id", "predicate", "selectivity", "reads", "produces",
                 "volume_multiplier")

    def __init__(self, accelerator_id: str, predicate: str, selectivity: float,
                 reads: frozenset[str], produces: frozenset[str] = _NOTHING_PRODUCED,
                 volume_multiplier: float = 1.0):
        if not 0 <= selectivity <= 1:
            raise FieldError("selectivity", f"must be within [0, 1], got {selectivity}")
        if not volume_multiplier > 0:
            raise FieldError("volume_multiplier", f"must be greater than 0, got {volume_multiplier}")
        if produces and not reads.isdisjoint(produces):
            raise FieldError(None, f"attributes both read and produced: {sorted(reads & produces)}")
        set_field(self, "accelerator_id", accelerator_id)
        set_field(self, "predicate", predicate)
        set_field(self, "selectivity", selectivity)
        set_field(self, "reads", reads)
        set_field(self, "produces", produces)
        set_field(self, "volume_multiplier", volume_multiplier)


class QuerySpec(Record):
    """One query: its table, its invocations in written order (at least
    one), and the gap after it.

    Each attribute is produced by at most one invocation, written before
    every invocation that reads it.  dependencies is derived, not given: the
    (producer, reader) index pairs where invocation reader reads an
    attribute that invocation producer produces, sorted by reader and then
    producer, and () when no invocation produces anything.  Equality, hash
    and repr ignore it.
    """

    __slots__ = ("id", "table_id", "invocations", "gap_after_ms", "dependencies")
    _fields = __slots__[:4]

    def __init__(self, id: str, table_id: str, invocations: tuple[Invocation, ...],
                 gap_after_ms: float = 0.0):
        if not invocations:
            raise FieldError("invocations", f"must be non-empty, got {invocations!r}")
        if not gap_after_ms >= 0:
            raise FieldError("gap_after_ms", f"must be at least 0, got {gap_after_ms}")
        set_field(self, "id", id)
        set_field(self, "table_id", table_id)
        set_field(self, "invocations", invocations)
        set_field(self, "gap_after_ms", gap_after_ms)
        pairs = ()
        if any(inv.produces for inv in invocations):
            # sorted, so that an error names the same attribute under every hash seed
            producers: dict[str, int] = {}
            for k, inv in enumerate(invocations):
                for attr in sorted(inv.produces):
                    if attr in producers:
                        raise FieldError(None, f"attribute '{attr}' produced twice "
                                               f"(invocations {producers[attr]} and {k})")
                    producers[attr] = k
            for reader, inv in enumerate(invocations):
                early = sorted(a for a in inv.reads if producers.get(a, -1) > reader)
                if early:
                    raise FieldError(None, f"invocation {reader} reads derived attribute "
                                           f"'{early[0]}' before its producer "
                                           f"(invocation {producers[early[0]]})")
            pairs = tuple((producer, reader) for reader, inv in enumerate(invocations)
                          for producer in sorted({producers[a] for a in inv.reads
                                                  if a in producers}))
        set_field(self, "dependencies", pairs)

    def _with_gap(self, gap_after_ms: float) -> QuerySpec:
        """This query with another gap, which the caller has checked."""
        copy = object.__new__(QuerySpec)
        set_field(copy, "id", self.id)
        set_field(copy, "table_id", self.table_id)
        set_field(copy, "invocations", self.invocations)
        set_field(copy, "gap_after_ms", gap_after_ms)
        set_field(copy, "dependencies", self.dependencies)
        return copy


class Scenario(Record):
    """A device, its tables and module library, and a sequence of at least
    one query; no two tables, modules or queries share an id.  tables_by_id
    and modules_by_id are derived, not given: the tables and modules keyed
    by id.  Equality, hash and repr ignore them."""

    __slots__ = ("rpu", "tables", "library", "sequence", "scale_factor",
                 "tables_by_id", "modules_by_id")
    _fields = __slots__[:5]

    def __init__(self, rpu: RpuConfig, tables: tuple[TableDef, ...],
                 library: tuple[AcceleratorModule, ...], sequence: tuple[QuerySpec, ...],
                 scale_factor: float = 1.0):
        if not sequence:
            raise FieldError("sequence", f"must be non-empty, got {sequence!r}")
        if not scale_factor > 0:
            raise FieldError("scale_factor", f"must be greater than 0, got {scale_factor}")
        set_field(self, "rpu", rpu)
        set_field(self, "tables", tables)
        set_field(self, "library", library)
        set_field(self, "sequence", sequence)
        set_field(self, "scale_factor", scale_factor)
        set_field(self, "tables_by_id", _by_id(tables, "tables", "table"))
        set_field(self, "modules_by_id", _by_id(library, "library", "module"))
        _by_id(sequence, "sequence", "query")


def _by_id(items, field: str, what: str) -> dict:
    """items keyed by id.  A repeated id is a FieldError of field that names
    the first one; the search for it runs only then."""
    by_id = {item.id: item for item in items}
    if len(by_id) < len(items):
        seen = set()
        for item in items:
            if item.id in seen:
                raise FieldError(field, f"duplicate {what} id '{item.id}'")
            seen.add(item.id)
    return by_id


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


def _record(build, path: str, *fields):
    """build(*fields), its FieldError raised as a ScenarioError at the
    field's path below path ("" for the top level of the document)."""
    try:
        return build(*fields)
    except FieldError as exc:
        raise ScenarioError(exc.problem, ".".join(filter(None, (path, exc.field)))) from exc


def _number(obj: dict, key: str, path: str) -> float:
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
    return _record(RpuConfig, path, _number(obj, "storage_rate", path),
                   _number(obj, "network_rate", path), _number(obj, "default_reconfig_ms", path))


def _table_from_doc(obj, path: str) -> TableDef:
    obj = _object(obj, path)
    _check_keys(obj, ("id", "volume"), (), path)
    return _record(TableDef, path, _string(obj, "id", path), _number(obj, "volume", path))


def _module_from_doc(obj, path: str) -> AcceleratorModule:
    obj = _object(obj, path)
    _check_keys(obj, ("id", "supported_ops", "proc_rate"), ("reconfig_ms",), path)
    shapes = set()
    for i, shape_obj in enumerate(_array(obj, "supported_ops", path)):
        shape_path = f"{path}.supported_ops[{i}]"
        shape_obj = _object(shape_obj, shape_path)
        _check_keys(shape_obj, ("kind", "operand_type"), (), shape_path)
        shapes.add(_record(OperatorShape, shape_path, _string(shape_obj, "kind", shape_path),
                           _string(shape_obj, "operand_type", shape_path)))
    reconfig_ms = _number(obj, "reconfig_ms", path) if "reconfig_ms" in obj else None
    return _record(AcceleratorModule, path, _string(obj, "id", path), frozenset(shapes),
                   _number(obj, "proc_rate", path), reconfig_ms)


def _invocation_from_doc(obj, path: str, modules: Mapping[str, AcceleratorModule],
                         sets: dict[frozenset[str], frozenset[str]]) -> Invocation:
    obj = _object(obj, path)
    _check_keys(obj, ("accelerator", "predicate", "selectivity", "reads"),
                ("volume_multiplier", "produces"), path)
    accelerator_id = _string(obj, "accelerator", path)
    if accelerator_id not in modules:
        raise ScenarioError(f"unknown accelerator '{accelerator_id}'", f"{path}.accelerator")
    predicate = obj["predicate"]
    if not isinstance(predicate, str):
        raise ScenarioError("expected a string", f"{path}.predicate")
    try:
        shapes, attributes = analyzer.parse_predicate(predicate)
    except PredicateError as exc:
        raise ScenarioError(f"invalid predicate: {exc}", f"{path}.predicate") from exc
    supported = modules[accelerator_id].supported_ops
    missing = [sh for sh in shapes if sh not in supported]
    if missing:
        names = ", ".join(sorted({f"{sh.kind}/{sh.operand_type}" for sh in missing}))
        raise ScenarioError(
            f"accelerator '{accelerator_id}' does not support: {names}", f"{path}.predicate")
    selectivity = _number(obj, "selectivity", path)
    multiplier = _number(obj, "volume_multiplier", path) if "volume_multiplier" in obj else 1.0
    reads = _string_set(obj, "reads", path, sets)
    produces = _string_set(obj, "produces", path, sets) if "produces" in obj else _NOTHING_PRODUCED
    unknown = [a for a in attributes if a not in reads and a not in produces]
    if unknown:
        raise ScenarioError(
            f"predicate references attributes not in reads or produces: {sorted(set(unknown))}",
            path)
    return _record(Invocation, path, accelerator_id, predicate, selectivity, reads, produces,
                   multiplier)


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
    gap = _number(obj, "gap_after_ms", path) if "gap_after_ms" in obj else 0.0
    return _record(QuerySpec, path, _string(obj, "id", path), table_id, invocations, gap)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Table volumes in the returned scenario are already multiplied by
    scale_factor.  Unknown keys anywhere in the document are an error, and
    so is a scenario whose total can overflow (costmodel.first_unbounded_query).
    """
    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer past the int-string limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    doc = _object(doc, "document")
    _check_keys(doc, ("rpu", "tables", "library", "sequence"), ("scale_factor",), "document")

    rpu = _rpu_from_doc(doc["rpu"], "rpu")
    tables = tuple(_table_from_doc(obj, f"tables[{i}]")
                   for i, obj in enumerate(_array(doc, "tables", "document")))
    # Scenario owns the unique-id rule, but the queries need these maps first
    table_map = _record(_by_id, "", tables, "tables", "table")
    library = tuple(_module_from_doc(obj, f"library[{i}]")
                    for i, obj in enumerate(_array(doc, "library", "document")))
    module_map = _record(_by_id, "", library, "library", "module")

    scale = 1.0
    if "scale_factor" in doc:
        scale = _number(doc, "scale_factor", "document")
        # Scenario owns this rule, but the tables are scaled before it is
        # built, and a factor that is not positive would first fail there
        # as a table's volume
        if not scale > 0:
            raise ScenarioError(f"must be greater than 0, got {scale}", "document.scale_factor")

    sequence_doc = doc["sequence"]
    if not isinstance(sequence_doc, list) or not sequence_doc:
        raise ScenarioError("must be a non-empty array", "sequence")
    # one frozenset per distinct reads or produces set: thousands of
    # invocations name a few dozen sets
    sets: dict[frozenset[str], frozenset[str]] = {}
    sequence = tuple(_query_from_doc(obj, f"sequence[{i}]", table_map, module_map, sets)
                     for i, obj in enumerate(sequence_doc))

    # the loader has checked every other rule of Scenario: this reports a repeated query id
    s = _record(Scenario, "", rpu, tuple(TableDef(t.id, t.volume * scale) for t in tables),
                library, sequence, scale)
    for i, t in enumerate(s.tables):
        if not math.isfinite(t.volume):
            raise ScenarioError(f"not finite at scale_factor {scale}", f"tables[{i}].volume")
    unbounded = first_unbounded_query(s)
    if unbounded is not None:
        raise ScenarioError("an upper bound on the total is not finite by this query: "
                            "volumes, rates or gaps overflow", f"sequence[{unbounded}]")
    return s


# ---------------------------------------------------------------------------
# schedules

def reader_first_pairs(q: QuerySpec, order: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (producer, reader) pairs of q that order runs reader first: none if it is legal."""
    position = {idx: pos for pos, idx in enumerate(order)}
    return [(producer, reader) for producer, reader in q.dependencies
            if position[producer] > position[reader]]


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
        if not q.dependencies:  # most queries, on every emulation: skip the call
            continue
        for producer, reader in reader_first_pairs(q, order):
            violations.append(f"{q.id}: dependency violated, invocation {reader} reads output of "
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
