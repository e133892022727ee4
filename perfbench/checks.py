"""Correctness checks that do not rely on the package under test.

The reference model recomputes a schedule's total from the raw scenario
document with the closed form PAPER.md states, so seeded inputs, for which
no recorded digest can exist, are still checked against something other
than the package.  Bundled scenarios are checked byte for byte against
digests recorded at the commit that introduced the benchmark.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text(encoding="utf-8"))

# The outcome-document keys that exist today.  Keys added later (an
# explanation field, say) are ignored rather than reported as a change.
OUTCOME_KEYS = ("strategy", "total_ms", "improvement_pct", "schedule", "hints")

# Emulator, closed form and reference model sum the same terms in different
# orders, and their float round-off grows with sequence length: up to
# 2.7e-9 ms at 5000 generated queries, past the absolute 1e-9 ms that
# harness.verify_corpus allows.  A relative bound keeps the check meaningful
# at every size.
REL_TOL = 1e-9

# CSV rows carry nine significant digits (harness.format_ms).
CSV_REL_TOL = 1e-8

LANES = ("scan", "reconfig", "accel", "transfer")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def expect_digest(key: str, text: str, errors: list[str]):
    if sha256(text) != DIGESTS[key]:
        errors.append(f"{key}: output differs from the recorded digest")


def outcome_today(text: str) -> str:
    """The outcome document cut down to today's keys, in the CLI's layout."""
    doc = json.loads(text)
    return json.dumps({key: doc[key] for key in OUTCOME_KEYS}, indent=2) + "\n"


def schedule_from_outcome(doc: dict) -> tuple[list[list[int]], list[str | None]]:
    entries = doc["schedule"]["queries"]
    orders = [entry["order"] for entry in entries]
    prefetches = [entry["prefetch"]["module"] if entry["prefetch"] else None for entry in entries]
    return orders, prefetches


def legal_violations(doc: dict, orders) -> list[str]:
    """Each order must be a permutation that runs producers before readers."""
    problems = []
    if len(orders) != len(doc["sequence"]):
        return [f"{len(orders)} orders for {len(doc['sequence'])} queries"]
    for q, order in zip(doc["sequence"], orders):
        invs = q["invocations"]
        if sorted(order) != list(range(len(invs))):
            problems.append(f"{q['id']}: order {list(order)} is not a permutation")
            continue
        position = {idx: pos for pos, idx in enumerate(order)}
        producer = {a: j for j, inv in enumerate(invs) for a in inv.get("produces", ())}
        for k, inv in enumerate(invs):
            for attr in inv["reads"]:
                if attr in producer and position[producer[attr]] > position[k]:
                    problems.append(f"{q['id']}: invocation {k} runs before its producer")
    return problems


def reference_total(doc: dict, orders, prefetches) -> float:
    """Closed-form total of a schedule, computed from the scenario document.

    Per query: max(scan, first load) + every filter pass + every further
    load + the transfer, then the gap.  A prefetched module loads under the
    previous transfer plus gap, so only what that window leaves counts.
    """
    rpu = doc["rpu"]
    volume = {t["id"]: t["volume"] * doc.get("scale_factor", 1.0) for t in doc["tables"]}
    modules = {m["id"]: m for m in doc["library"]}

    def load_ms(module_id, resident):
        if module_id == resident:
            return 0.0
        return modules[module_id].get("reconfig_ms", rpu["default_reconfig_ms"])

    seq = doc["sequence"]
    total = 0.0
    resident = None
    pending = None  # (prefetched module, window it loads under)
    for i, q in enumerate(seq):
        invs = [q["invocations"][k] for k in orders[i]]
        first = invs[0]["accelerator"]
        if pending is not None:
            module_id, window = pending
            first_load = max(0.0, load_ms(module_id, None) - window) + load_ms(first, module_id)
        else:
            first_load = load_ms(first, resident)
        v = volume[q["table"]]
        duration = max(v / rpu["storage_rate"], first_load)
        previous = first
        for inv in invs:
            duration += load_ms(inv["accelerator"], previous)
            duration += v / modules[inv["accelerator"]]["proc_rate"]
            v *= inv["selectivity"] * inv.get("volume_multiplier", 1.0)
            previous = inv["accelerator"]
        transfer = v / rpu["network_rate"]
        gap = q.get("gap_after_ms", 0.0) if i < len(seq) - 1 else 0.0
        total += duration + transfer + gap
        resident = previous
        if prefetches[i] is not None and prefetches[i] != resident:
            pending, resident = (prefetches[i], transfer + gap), prefetches[i]
        else:
            pending = None
    return total


def check_schedule(doc: dict, orders, prefetches, total_ms: float, what: str,
                   errors: list[str]):
    """The schedule is legal and its total matches the reference model."""
    problems = legal_violations(doc, orders)
    if problems:
        errors.append(f"{what}: illegal schedule: {problems[:3]}")
        return
    reference = reference_total(doc, orders, prefetches)
    if not close(total_ms, reference):
        errors.append(f"{what}: total {total_ms!r} differs from the reference model {reference!r}")


def device_stats(spans) -> dict[str, float]:
    """Simulated device counters from (lane, start_ms, end_ms, query_id) spans."""
    stats = {"device.reconfigs": 0, "device.reconfigs_speculative": 0}
    busy = dict.fromkeys(LANES, 0.0)
    for lane, start, end, query in spans:
        busy[lane] += end - start
        if lane == "reconfig":
            stats["device.reconfigs"] += 1
            stats["device.reconfigs_speculative"] += query == "speculative"
    stats.update({f"device.{lane}_busy_ms": busy[lane] for lane in LANES})
    return stats


def add_stats(into: dict[str, float], stats: dict[str, float]):
    for key, value in stats.items():
        into[key] = into.get(key, 0) + value
