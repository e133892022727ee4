import json
import random
import struct
import sys
from itertools import product
from types import SimpleNamespace

import pytest

from reconfig_sim import emulator, harness, model
from reconfig_sim.costmodel import first_unbounded_query, stage_terms
from reconfig_sim.optimizer import _legal_orders


@pytest.fixture
def seq2():
    return harness.load_bundled("seq2")


@pytest.fixture
def seq2_small():
    return harness.load_bundled("seq2_small")


@pytest.fixture
def seq2_doc():
    """The canonical two-query document as a mutable dict, for negative tests."""
    return json.loads(harness.bundled_text("seq2"))


@pytest.fixture(scope="session")
def corpus():
    return [(name, harness.load_bundled(name)) for name in harness.bundled_names()]


def make_random_scenario(rng: random.Random, n_queries: int) -> model.Scenario:
    """A small random scenario; every module filters on the same int column,
    so any invocation order is legal and any module can serve any invocation."""
    n_modules = rng.randint(2, 3)
    library = []
    for j in range(n_modules):
        entry = {
            "id": f"m{j}",
            "supported_ops": [{"kind": "compare_gt", "operand_type": "int32"}],
            "proc_rate": round(rng.uniform(0.5, 4.0), 3),
        }
        if rng.random() < 0.3:
            entry["reconfig_ms"] = round(rng.uniform(0.0, 25.0), 3)
        library.append(entry)
    tables = [{"id": f"t{i}", "volume": round(rng.uniform(0.0, 100.0), 3)}
              for i in range(n_queries)]
    sequence = []
    for i in range(n_queries):
        invocations = [
            {
                "accelerator": f"m{rng.randrange(n_modules)}",
                "predicate": f"col > {rng.randrange(1000)}",
                "selectivity": round(rng.uniform(0.0, 1.0), 4),
                "reads": ["col"],
            }
            for _ in range(rng.randint(1, 3))
        ]
        q = {"id": f"Q{i}", "table": f"t{i}", "invocations": invocations}
        if i < n_queries - 1:
            q["gap_after_ms"] = round(rng.uniform(0.0, 40.0), 3)
        sequence.append(q)
    doc = {
        "rpu": {
            "storage_rate": round(rng.uniform(0.5, 3.0), 3),
            "network_rate": round(rng.uniform(0.1, 1.0), 3),
            "default_reconfig_ms": round(rng.uniform(0.0, 30.0), 3),
            "pr_region_count": 1,
        },
        "tables": tables,
        "library": library,
        "sequence": sequence,
    }
    return model.load_scenario(json.dumps(doc))


@pytest.fixture(scope="session")
def random_scenario():
    return make_random_scenario


def make_chained_scenario(rng: random.Random, n_queries: int) -> model.Scenario:
    """Queries of up to five invocations where later invocations read derived
    attributes of one or more earlier ones, sometimes two from one producer."""
    sequence = []
    for i in range(n_queries):
        invocations, derived = [], []
        for k in range(rng.randint(1, 5)):
            reads = ["col"] + rng.sample(derived, rng.randint(0, min(3, len(derived))))
            inv = {"accelerator": "m", "predicate": f"{rng.choice(reads)} > {rng.randrange(100)}",
                   "selectivity": round(rng.uniform(0.0, 1.0), 3), "reads": reads}
            if rng.random() < 0.6:
                inv["produces"] = [f"d{k}", f"e{k}"][:rng.randint(1, 2)]
                derived += inv["produces"]
            invocations.append(inv)
        sequence.append({"id": f"Q{i}", "table": "t", "invocations": invocations})
    doc = {
        "rpu": {"storage_rate": 1.0, "network_rate": 0.5, "default_reconfig_ms": 5.0,
                "pr_region_count": 1},
        "tables": [{"id": "t", "volume": 10.0}],
        "library": [{"id": "m", "proc_rate": 2.0,
                     "supported_ops": [{"kind": "compare_gt", "operand_type": "int32"}]}],
        "sequence": sequence,
    }
    return model.load_scenario(json.dumps(doc))


@pytest.fixture(scope="session")
def chained_scenario():
    return make_chained_scenario


def spread_over_modules(s: model.Scenario, rng: random.Random, n_modules: int) -> model.Scenario:
    """s with its invocations spread at random over copies of its first module."""
    ids = [f"{s.library[0].id}{j}" for j in range(n_modules)]
    library = tuple(s.library[0].replace(id=module_id) for module_id in ids)
    sequence = tuple(q.replace(invocations=tuple(inv.replace(accelerator_id=rng.choice(ids))
                                                 for inv in q.invocations))
                     for q in s.sequence)
    return s.replace(library=library, sequence=sequence)


def event_loop_total(s: model.Scenario, schedule: model.Schedule, spans: list | None = None
                     ) -> float:
    """The event loop's total for schedule, over its stage terms, without
    validating it; spans, when given, collects the span tuples."""
    terms = [stage_terms(q, order, s) for q, order in zip(s.sequence, schedule.orders)]
    return emulator._run_queries(s, terms, schedule.prefetches, spans=spans)


def reference_total(s: model.Scenario, schedule: model.Schedule) -> float:
    """The total of a legal schedule in closed form, from the records' fields
    alone: it calls nothing in costmodel, emulator or optimizer, so a fault
    in their shared stage costs shows against it.

    Per query: max(scan, residual + first load) plus each invocation's
    accelerator time and each further load, then the transfer and the gap
    after every query but the last.  A load costs nothing when its module
    owns the region, a prefetched one included; a prefetch starts with the
    transfer, when the region frees up, so its residual is what the
    transfer plus gap leave of its load.
    """
    rpu, last = s.rpu, len(s.sequence) - 1
    volumes = {t.id: t.volume for t in s.tables}
    modules = {m.id: m for m in s.library}

    def load_ms(module_id):
        reconfig_ms = modules[module_id].reconfig_ms
        return rpu.default_reconfig_ms if reconfig_ms is None else reconfig_ms

    total, loaded, residual = 0.0, None, 0.0
    for i, (q, order, prefetch) in enumerate(zip(s.sequence, schedule.orders,
                                                 schedule.prefetches)):
        invocations = [q.invocations[k] for k in order]
        volume = volumes[q.table_id]
        first = invocations[0].accelerator_id
        duration = max(volume / rpu.storage_rate,
                       residual + (0.0 if first == loaded else load_ms(first)))
        loaded = first
        for inv in invocations:
            if inv.accelerator_id != loaded:
                loaded = inv.accelerator_id
                duration += load_ms(loaded)
            duration += volume / modules[loaded].proc_rate
            volume *= inv.selectivity * inv.volume_multiplier
        transfer = volume / rpu.network_rate
        gap = q.gap_after_ms if i < last else 0.0
        total += duration + transfer + gap
        residual = 0.0
        if prefetch is not None and prefetch != loaded:
            residual = max(0.0, load_ms(prefetch) - transfer - gap)
            loaded = prefetch
    return total


def brute_force(s: model.Scenario) -> tuple[float, model.Schedule]:
    """The reference optimum, by enumeration: the least (total,
    reconfiguration spans, order ranks, prefetch ranks) over every legal
    order of each query and, after each query but the last, no prefetch or
    a module that starts a legal order of the next query; no other prefetch
    can win.  Totals come from the event loop, and a rank is the position in
    _legal_orders or in None followed by the library, so ties go to the
    first schedule when all order choices are enumerated before all
    prefetch choices.  Returns the total and the schedule."""
    legal = [_legal_orders(q) for q in s.sequence]
    modules = [None] + [m.id for m in s.library]
    starts = [{q.invocations[order[0]].accelerator_id for order in orders}
              for q, orders in zip(s.sequence, legal)]
    prefetch_ranks = [[rank for rank, module in enumerate(modules)
                       if module is None or module in after] for after in starts[1:]] + [[0]]
    best = None
    for order_ranks in product(*(range(len(orders)) for orders in legal)):
        orders = tuple(choices[rank] for choices, rank in zip(legal, order_ranks))
        for ranks in product(*prefetch_ranks):
            schedule = model.Schedule(orders, tuple(modules[rank] for rank in ranks))
            spans: list = []
            total = event_loop_total(s, schedule, spans)
            key = (total, sum(sp[0] == "reconfig" for sp in spans), order_ranks, ranks)
            if best is None or key < best[0]:
                best = key, schedule
    return best[0][0], best[1]


def rebased(s, scale_factor):
    """A stand-in for harness.with_scale_factor(s, scale_factor) that skips
    Scenario's constructor, so it exists where that copy's total is
    unbounded too: the rebased tables, keyed by id as well, and the other
    fields of s that first_unbounded_query and its reference read.  A volume
    that overflows is the ScenarioError of model.rescaled_tables."""
    tables = model.rescaled_tables(s.tables, s.scale_factor, scale_factor)
    return SimpleNamespace(rpu=s.rpu, tables=tables, library=s.library, sequence=s.sequence,
                           tables_by_id={t.id: t for t in tables},
                           modules_by_id=s.modules_by_id)


def largest_bounded_scale_factor(s, unbounded=first_unbounded_query):
    """The largest scale factor a sweep of s accepts: the last at which
    rebasing keeps every volume finite and Scenario's bound (or the given
    stand-in for it) holds on rebased(s, factor), so that a stand-in's edge
    does not depend on the package's.  Both only grow with the factor, so
    this bisects over the bit patterns of the positive doubles, which order
    as the doubles do."""
    def as_float(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    def bounded(bits):
        try:
            return unbounded(rebased(s, as_float(bits))) is None
        except ValueError:
            return False

    low, high = (struct.unpack("<q", struct.pack("<d", f))[0]
                 for f in (1.0, sys.float_info.max))
    if bounded(high):
        return sys.float_info.max
    assert bounded(low)
    while high - low > 1:
        middle = (low + high) // 2
        if bounded(middle):
            low = middle
        else:
            high = middle
    return as_float(low)
