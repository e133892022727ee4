"""Closed-form stage costs and volume propagation.

All durations are real-valued milliseconds; volumes and rates use one
consistent unit (volume per millisecond).  Nothing here rounds.
propagate_volumes returns a plain (input volumes, output volume) pair.
"""
from __future__ import annotations

from typing import Mapping

from .model import AcceleratorModule, QuerySpec, RpuConfig, TableDef


def scan_time(table_volume: float, rpu: RpuConfig) -> float:
    return table_volume / rpu.storage_rate


def accel_runtime(input_volume: float, module: AcceleratorModule) -> float:
    return input_volume / module.proc_rate


def reconfig_time(module: AcceleratorModule, loaded: str | None, rpu: RpuConfig) -> float:
    """Time to place the module into the region; zero when it is already there."""
    if loaded == module.id:
        return 0.0
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
