"""Closed-form stage costs, volume propagation and the bound on a total.

All durations are real-valued milliseconds; volumes and rates use one
consistent unit (volume per millisecond).  Nothing here rounds.  Only this
module reads rates and load times.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .model import AcceleratorModule, QuerySpec, RpuConfig, Scenario, TableDef


# (scan_ms, ((module_id, load_ms, accel_ms), ...), transfer_ms); see stage_terms
StageTerms = tuple[float, tuple[tuple[str, float, float], ...], float]
# (table_volume, ((module_id, load_ms, proc_rate, selectivity,
# volume_multiplier), ...)); see term_lookup
TermLookup = tuple[float, tuple[tuple[str, float, float, float, float], ...]]
# the problem of a FieldError at sequence[first_unbounded_query(s)]
UNBOUNDED_TOTAL = ("an upper bound on the total is not finite by this query: volumes, rates or "
                   "gaps overflow")


def scan_time(table_volume: float, rpu: RpuConfig) -> float:
    return table_volume / rpu.storage_rate


def accel_runtime(input_volume: float, module: AcceleratorModule) -> float:
    return input_volume / module.proc_rate


def reconfig_time(module: AcceleratorModule, rpu: RpuConfig) -> float:
    """Time to load the module into the region, whatever the region holds;
    the timing models decide when a resident module's load costs nothing."""
    if module.reconfig_ms is not None:
        return module.reconfig_ms
    return rpu.default_reconfig_ms


def transfer_time(output_volume: float, rpu: RpuConfig) -> float:
    return output_volume / rpu.network_rate


def propagate_volumes(q: QuerySpec, order: tuple[int, ...], tables: Mapping[str, TableDef]
                      ) -> tuple[tuple[float, ...], float]:
    """Chain volumes through the invocations in the given order: the input
    volume of each scheduled invocation, and the final output volume.

    Each stage scales its input by selectivity times volume_multiplier, so a
    selectivity of zero annihilates everything downstream.
    """
    volume = tables[q.table_id].volume
    inputs = []
    for idx in order:
        inv = q.invocations[idx]
        inputs.append(volume)
        volume = volume * inv.selectivity * inv.volume_multiplier
    return tuple(inputs), volume


def stage_terms(q: QuerySpec, order: tuple[int, ...], s: Scenario) -> StageTerms:
    """The stage costs of running q in the given order, whatever the region
    holds: (scan_ms, ((module_id, load_ms, accel_ms), ...), transfer_ms),
    one triple per scheduled invocation, where load_ms is the module's full
    load.  The volume chains as in propagate_volumes.  A timing model
    decides when a load costs 0 (its module already owns the region) and
    how the terms overlap.
    """
    rpu, modules = s.rpu, s.modules_by_id
    invocations = q.invocations
    volume = s.tables_by_id[q.table_id].volume
    scan_ms = scan_time(volume, rpu)
    stages = []
    for idx in order:
        inv = invocations[idx]
        module = modules[inv.accelerator_id]
        stages.append((module.id, reconfig_time(module, rpu), accel_runtime(volume, module)))
        volume = volume * inv.selectivity * inv.volume_multiplier
    return scan_ms, tuple(stages), transfer_time(volume, rpu)


def term_lookup(q: QuerySpec, order: tuple[int, ...], s: Scenario) -> TermLookup:
    """What stage_terms reads of s for q in the given order, but for the
    device's storage and network rates: (table volume, ((module_id, load_ms,
    proc_rate, selectivity, volume_multiplier), ...)), one entry per
    scheduled invocation.  None of it changes with the scale factor but the
    volume, so a scale sweep looks each pair up once and scaled_stage_terms
    builds the terms of all its pairs at a point in one call.
    """
    rpu, modules = s.rpu, s.modules_by_id
    invocations = q.invocations
    stages = []
    for idx in order:
        inv = invocations[idx]
        module = modules[inv.accelerator_id]
        stages.append((module.id, reconfig_time(module, rpu), module.proc_rate,
                       inv.selectivity, inv.volume_multiplier))
    return s.tables_by_id[q.table_id].volume, tuple(stages)


def scaled_stage_terms(lookups: list[TermLookup], s: Scenario, scale_factor: float
                       ) -> list[StageTerms]:
    """stage_terms(q, order, harness.with_scale_factor(s, scale_factor)) of
    each pair, bit for bit, from the pairs' term_lookup(q, order, s) and
    without the copy, in one call that reads the rates and the old scale
    factor once: each volume rebased as with_scale_factor does, then run
    through stage_terms' own expressions in the same order, written out in
    place of the stage functions.  The caller has checked the factor with
    record.finite_number and the rebased volumes' finiteness, as
    with_scale_factor does.
    """
    storage_rate, network_rate = s.rpu.storage_rate, s.rpu.network_rate
    old_factor = s.scale_factor
    built = []
    for volume, looked_up in lookups:
        volume = volume / old_factor * scale_factor
        scan_ms = volume / storage_rate
        stages = []
        for module_id, load_ms, proc_rate, selectivity, volume_multiplier in looked_up:
            stages.append((module_id, load_ms, volume / proc_rate))
            volume = volume * selectivity * volume_multiplier
        built.append((scan_ms, tuple(stages), volume / network_rate))
    return built


def first_unbounded_query(s: Scenario, gap: float | None = None) -> int | None:
    """The index of the first query at which an upper bound on the total of
    every legal schedule, in both timing models, is not finite, or None.
    A gap, when given, replaces the gap after every query, as in the event
    loop, so the bound is that of harness.with_gaps(s, gap) without the copy.

    Per query the bound adds the scan, the worst-case volume (the table volume
    times the product of max(1, selectivity * volume_multiplier)) transferred
    and run through each invocation's module, the longest module load once
    per invocation and once for a prefetch still running, and the gap to the
    next query.  Twice the bound must be finite, so that the models' own
    sums, in another order, are too.  Rates and volumes are read once per
    call, and the stage functions written out as in scaled_stage_terms.
    Scenario's constructor rejects a scenario for which this is not None,
    and harness.run_sweep a gap sweep's largest gap.
    """
    rpu, last, bound = s.rpu, len(s.sequence) - 1, 0.0
    storage_rate, network_rate = rpu.storage_rate, rpu.network_rate
    longest_load = max(reconfig_time(m, rpu) for m in s.library)
    proc_rates = {m.id: m.proc_rate for m in s.library}
    volumes = {t.id: t.volume for t in s.tables}
    for i, q in enumerate(s.sequence):
        volume = worst = volumes[q.table_id]
        for inv in q.invocations:
            factor = inv.selectivity * inv.volume_multiplier
            worst *= factor if factor > 1.0 else 1.0
        bound += volume / storage_rate + worst / network_rate + longest_load
        for inv in q.invocations:
            bound += longest_load + worst / proc_rates[inv.accelerator_id]
        if i < last:
            bound += q.gap_after_ms if gap is None else gap
        if not math.isfinite(2.0 * bound):
            return i
    return None
