"""Seeded scenario documents for the benchmark, plus the input shares it reports.

The generator varies the properties that decide which strategy wins:

- module reuse between consecutive queries (reordering can only remove a
  reconfiguration when the pair shares a module);
- the hide window, the result transfer plus the gap, against the next
  query's reconfiguration time (prefetching hides the load only when the
  window covers it);
- derived columns (`produces` plus `volume_multiplier`) that pin an
  invocation after its producer and inflate the volume behind it;
- arithmetic and `?param` predicates next to plain comparisons.

A sequence is cut into phases; each phase draws its own reuse, gap and
derived-column regime, so one scenario mixes inputs on both sides of every
crossover.  Each scenario is then rescaled to a fixed cost per query, so
that seeds differ in structure rather than in size.  Everything is plain
JSON-ready data: the package under test sees only the text.
"""
from __future__ import annotations

import random

from checks import reference_total

CMP = ("<", "<=", "=", "!=", ">=", ">")
COMPARE_OPS = [{"kind": kind, "operand_type": operand_type}
               for kind in ("compare_lt", "compare_le", "compare_eq",
                            "compare_ne", "compare_ge", "compare_gt")
               for operand_type in ("int32", "float")]
ARITH_OPS = [{"kind": kind, "operand_type": "int32"}
             for kind in ("arith_add", "arith_sub", "arith_mul")]
COLUMNS = tuple(f"c{i}" for i in range(8))
PHASE_QUERIES = 10
# One device for every scenario, up to the rescaling below: a scan is
# shorter than a typical load, so reconfigurations show in the total, and a
# seed changes the sequence, not the hardware.
DEVICE = {"storage_rate": 6.0, "network_rate": 2.0, "default_reconfig_ms": 20.0,
          "pr_region_count": 1}
# What a scenario's schedule as written (written order, no prefetch) costs
# per query on the reference model, after rescaling.
TARGET_MS_PER_QUERY = 100.0


def _regime(rng: random.Random, phase: int, derived: bool) -> dict:
    # Long and short gaps alternate rather than being drawn: the gap regime
    # moves the total most, and a drawn mix would make totals swing by seed.
    return {
        "reuse_p": rng.choice((0.1, 0.5, 0.9)),
        "long_gaps": phase % 2 == 1,
        "derived_p": rng.choice((0.0, 0.35)) if derived else 0.0,
    }


def _plain_predicate(rng: random.Random) -> tuple[str, list[str]]:
    col = rng.choice(COLUMNS)
    form = rng.randrange(3)
    if form == 0:
        return f"{col} {rng.choice(CMP)} {rng.randrange(1000)}", [col]
    if form == 1:
        return f"{col} {rng.choice(CMP)} {rng.randrange(1000)}.{rng.randrange(10)}", [col]
    return f"{col} {rng.choice(CMP)} ?p{rng.randrange(4)}", [col]


def _arith_predicate(rng: random.Random) -> tuple[str, list[str]]:
    a, b = rng.sample(COLUMNS, 2)
    if rng.random() < 0.5:
        return f"{a} * {b} {rng.choice(CMP)} ?limit", [a, b]
    return f"{a} + {rng.randrange(1, 50)} {rng.choice(CMP)} {b}", [a, b]


def _query(rng: random.Random, i: int, n_invocations: int, modules: list[str],
           arith_capable: set[str], previous: list[str], regime: dict,
           tables: list[str]) -> dict:
    chosen = [rng.choice(modules) for _ in range(n_invocations)]
    if previous and rng.random() < regime["reuse_p"]:
        chosen[rng.randrange(n_invocations)] = rng.choice(previous)
    invocations = []
    derived_reader = None
    for k, module in enumerate(chosen):
        inv = {"accelerator": module}
        if k == derived_reader:
            name = f"d{k - 1}"
            inv["predicate"], inv["reads"] = f"{name} > {rng.randrange(1000)}", [name]
        elif (module in arith_capable and k < n_invocations - 1
              and rng.random() < regime["derived_p"]):
            a, b = rng.sample(COLUMNS, 2)
            inv["predicate"], inv["reads"] = f"d{k} = {a} * {b}", [a, b]
            inv["produces"] = [f"d{k}"]
            inv["volume_multiplier"] = round(rng.uniform(1.05, 1.5), 3)
            derived_reader = k + 1
        elif module in arith_capable and rng.random() < 0.4:
            inv["predicate"], inv["reads"] = _arith_predicate(rng)
        else:
            inv["predicate"], inv["reads"] = _plain_predicate(rng)
        inv["selectivity"] = round(rng.uniform(0.05, 0.95), 3)
        invocations.append(inv)
    return {"id": f"Q{i}", "table": rng.choice(tables), "invocations": invocations}


def scenario(rng: random.Random, n_queries: int, n_modules: int,
             invocation_counts: list[int] | None = None, first_phase: int = 0,
             derived: bool = True) -> dict:
    """One scenario document; invocation_counts fixes invocations per query.

    By default queries have 1 to 4 invocations, each count equally often
    in a shuffled order, so that every seed gives the package as much work.
    """
    # Module rates and load times form the same spread in every scenario, only
    # shuffled: seeds then differ in the sequence, which averages out over many
    # queries, rather than in a few module-wide draws that scale every query.
    rates = [4.0 + 12.0 * (j + 0.5) / n_modules for j in range(n_modules)]
    loads = [None if j % 3 else 10.0 + 30.0 * j / n_modules for j in range(n_modules)]
    rng.shuffle(rates)
    rng.shuffle(loads)
    library, reconfig = [], {}
    for j in range(n_modules):
        entry = {"id": f"m{j}", "supported_ops": COMPARE_OPS + (ARITH_OPS if j % 2 == 0 else []),
                 "proc_rate": round(rates[j], 3)}
        if loads[j] is not None:
            entry["reconfig_ms"] = round(loads[j], 3)
        reconfig[entry["id"]] = entry.get("reconfig_ms", DEVICE["default_reconfig_ms"])
        library.append(entry)
    modules = [m["id"] for m in library]
    arith_capable = {m for j, m in enumerate(modules) if j % 2 == 0}
    n_tables = max(2, n_queries // 10)
    volumes = [40.0 + 120.0 * (i + 0.5) / n_tables for i in range(n_tables)]
    rng.shuffle(volumes)
    tables = [{"id": f"t{i}", "volume": round(v, 3)} for i, v in enumerate(volumes)]
    table_ids = [t["id"] for t in tables]

    # the mean load time sets the scale of the hide window
    gap_scale = sum(reconfig.values()) / len(reconfig)
    if invocation_counts is None:
        invocation_counts = [1 + i % 4 for i in range(n_queries)]
        rng.shuffle(invocation_counts)
    sequence, previous = [], []
    for i in range(n_queries):
        if i % PHASE_QUERIES == 0:
            regime = _regime(rng, first_phase + i // PHASE_QUERIES, derived)
        q = _query(rng, i, invocation_counts[i], modules, arith_capable, previous, regime,
                   table_ids)
        if i < n_queries - 1:
            low, high = (1.0, 2.5) if regime["long_gaps"] else (0.0, 0.5)
            q["gap_after_ms"] = round(rng.uniform(low, high) * gap_scale, 3)
        previous = [inv["accelerator"] for inv in q["invocations"]]
        sequence.append(q)
    return _rescaled({
        "rpu": dict(DEVICE),
        "tables": tables,
        "library": library,
        "sequence": sequence,
    })


def _rescaled(doc: dict) -> dict:
    """The scenario with every volume, load time and gap scaled by one factor.

    That factor scales every term of the closed form, so every schedule's
    total scales by it and the strategies keep their ranking.  It is chosen
    so that the schedule as written costs TARGET_MS_PER_QUERY per query:
    planner totals then differ between seeds by what the planner saves,
    not by how large the drawn queries happen to be.
    """
    seq = doc["sequence"]
    written = reference_total(doc, [range(len(q["invocations"])) for q in seq], [None] * len(seq))
    factor = TARGET_MS_PER_QUERY * len(seq) / written
    doc["rpu"]["default_reconfig_ms"] = round(doc["rpu"]["default_reconfig_ms"] * factor, 3)
    for table in doc["tables"]:
        table["volume"] = round(table["volume"] * factor, 3)
    for entry in doc["library"]:
        if "reconfig_ms" in entry:
            entry["reconfig_ms"] = round(entry["reconfig_ms"] * factor, 3)
    for q in seq:
        if "gap_after_ms" in q:
            q["gap_after_ms"] = round(q["gap_after_ms"] * factor, 3)
    return doc


def oracle_instance(rng: random.Random, index: int) -> dict:
    """Four queries, seven or eight invocations over three or four modules:
    the largest instances the exhaustive oracle accepts.

    The shape follows the index: of every ten, three have 3 modules and 7
    invocations, four have 3 and 8, three have 4 and 8, so the oracle
    searches 512, 1024 or 2000 schedules.  Without derived columns every
    order is legal, so the search sizes, and with them the median instance
    time, are the same for every seed.
    """
    n_modules, n_invocations = ((3, 7), (3, 7), (3, 7), (3, 8), (3, 8), (3, 8), (3, 8),
                                (4, 8), (4, 8), (4, 8))[index % 10]
    counts = [2, 2, 2, n_invocations - 6]
    rng.shuffle(counts)
    return scenario(rng, 4, n_modules, counts, first_phase=index, derived=False)


def input_shares(docs: list[dict]) -> dict[str, float]:
    """Measured shares of the properties the generator varies, over all docs.

    pair_reuse_share: consecutive pairs that share a module.
    hide_window_covers_share: consecutive pairs whose transfer plus gap is at
    least the load time of the next query's first module in baseline order.
    derived_invocation_share: invocations that produce or read a derived column.
    """
    pairs = reused = covered = invocations = derived = 0
    for doc in docs:
        rpu = doc["rpu"]
        volume = {t["id"]: t["volume"] * doc.get("scale_factor", 1.0) for t in doc["tables"]}
        load_ms = {m["id"]: m.get("reconfig_ms", rpu["default_reconfig_ms"]) for m in doc["library"]}
        seq = doc["sequence"]
        for q in seq:
            produced = {a for inv in q["invocations"] for a in inv.get("produces", ())}
            for inv in q["invocations"]:
                invocations += 1
                derived += bool(inv.get("produces") or produced & set(inv["reads"]))
        for left, right in zip(seq, seq[1:]):
            pairs += 1
            reused += bool({i["accelerator"] for i in left["invocations"]}
                           & {i["accelerator"] for i in right["invocations"]})
            out = volume[left["table"]]
            for inv in left["invocations"]:
                out *= inv["selectivity"] * inv.get("volume_multiplier", 1.0)
            window = out / rpu["network_rate"] + left.get("gap_after_ms", 0.0)
            first = right["invocations"][baseline_order(right)[0]]["accelerator"]
            covered += window >= load_ms[first]
    return {
        "input.pair_reuse_share": reused / pairs if pairs else 0.0,
        "input.hide_window_covers_share": covered / pairs if pairs else 0.0,
        "input.derived_invocation_share": derived / invocations,
    }


def baseline_order(q: dict) -> list[int]:
    """Ascending selectivity, producers before readers, ties in written order."""
    invs = q["invocations"]
    producer = {a: j for j, inv in enumerate(invs) for a in inv.get("produces", ())}
    deps = [{producer[a] for a in inv["reads"] if a in producer} for inv in invs]
    order: list[int] = []
    while len(order) < len(invs):
        ready = [k for k in range(len(invs)) if k not in order and deps[k] <= set(order)]
        order.append(min(ready, key=lambda k: (invs[k]["selectivity"], k)))
    return order
