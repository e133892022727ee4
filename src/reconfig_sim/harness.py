"""Parameter sweeps over bundled or user scenarios, with CSV output.

Sweeps vary either the data volume scale factor or the idle gap between
queries and emulate a set of strategies at every point.  Rows come out in
axis-then-strategy order and numbers are formatted identically on every
run, so repeated sweeps are byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

from .emulator import analytic_total
from .model import Scenario, load_scenario
from .optimizer import FIXED_STRATEGIES, fixed_outcomes

SWEEP_AXES = ("scale_factor", "gap_ms")
STRATEGY_ORDER = FIXED_STRATEGIES + ("auto",)

CSV_HEADER = "axis,value,strategy,total_ms,improvement_pct"

EQUIVALENCE_TOLERANCE_MS = 1e-9


def format_ms(value: float) -> str:
    return format(value, ".9g")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple[float, ...]
    strategies: tuple[str, ...] = STRATEGY_ORDER

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis: {self.axis!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"sweep values must be finite, got {self.values}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        # a gap of zero is meaningful; a scale factor of zero is not
        if self.axis == "scale_factor" and self.values[0] <= 0:
            raise ValueError("scale factors must be positive")
        if self.axis == "gap_ms" and self.values[0] < 0:
            raise ValueError("gaps cannot be negative")
        if not self.strategies:
            raise ValueError("sweep needs at least one strategy")
        unknown = [st for st in self.strategies if st not in STRATEGY_ORDER]
        if unknown:
            raise ValueError(f"unknown strategies: {unknown}")


def with_scale_factor(s: Scenario, scale_factor: float) -> Scenario:
    """The same scenario with its volumes rebased to a new scale factor."""
    if scale_factor <= 0:
        raise ValueError("scale factor must be positive")
    tables = tuple(replace(t, volume=t.volume / s.scale_factor * scale_factor)
                   for t in s.tables)
    for i, t in enumerate(tables):
        if not math.isfinite(t.volume):
            raise ValueError(f"tables[{i}].volume: not finite at scale factor {scale_factor}")
    return replace(s, tables=tables, scale_factor=scale_factor)


def with_gaps(s: Scenario, gap_ms: float) -> Scenario:
    """The same scenario with every inter-query gap set to gap_ms."""
    if gap_ms < 0:
        raise ValueError("gap cannot be negative")
    sequence = list(s.sequence)
    for i in range(len(sequence) - 1):
        sequence[i] = replace(sequence[i], gap_after_ms=gap_ms)
    return replace(s, sequence=tuple(sequence))


def _sweep_point(s: Scenario, spec: SweepSpec, value: float) -> list[str]:
    varied = with_scale_factor(s, value) if spec.axis == "scale_factor" else with_gaps(s, value)
    outcomes = fixed_outcomes(varied)
    return [",".join((spec.axis, format_ms(value), strategy,
                      format_ms(outcomes[strategy].total_ms),
                      format_ms(outcomes[strategy].improvement_pct)))
            for strategy in STRATEGY_ORDER if strategy in spec.strategies]


def run_sweep(s: Scenario, spec: SweepSpec) -> str:
    """Evaluate every (value, strategy) point and return the CSV text.

    improvement_pct in each row compares against the baseline strategy at
    the same axis value.
    """
    rows = [row for v in spec.values for row in _sweep_point(s, spec, v)]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


# ---------------------------------------------------------------------------
# bundled scenarios

def _data_root():
    return resources.files("reconfig_sim") / "data"


def bundled_names() -> list[str]:
    """Names of all bundled scenarios; corpus entries carry a corpus/ prefix."""
    root = _data_root()
    names = sorted(p.name.removesuffix(".json") for p in root.iterdir()
                   if p.name.endswith(".json"))
    names += sorted("corpus/" + p.name.removesuffix(".json")
                    for p in (root / "corpus").iterdir() if p.name.endswith(".json"))
    return names


def bundled_text(name: str) -> str:
    path = _data_root() / (name.removesuffix(".json") + ".json")
    if not path.is_file():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return path.read_text(encoding="utf-8")


def load_bundled(name: str) -> Scenario:
    return load_scenario(bundled_text(name))


def verify_corpus() -> list[tuple[str, list[str]]]:
    """Check every bundled scenario: loads cleanly, the closed form matches
    the event emulation for all four strategies, auto never loses to
    baseline, and result volumes agree across strategies.
    """
    results = []
    for name in bundled_names():
        problems = []
        try:
            s = load_bundled(name)
            outcomes = fixed_outcomes(s)
            for strategy in FIXED_STRATEGIES:
                emulated = outcomes[strategy].total_ms
                closed = analytic_total(s, outcomes[strategy].schedule)
                if abs(emulated - closed) > EQUIVALENCE_TOLERANCE_MS:
                    problems.append(
                        f"{strategy}: emulated {emulated!r} differs from closed form {closed!r}")
            if outcomes["auto"].total_ms > outcomes["baseline"].total_ms:
                problems.append("auto is worse than baseline")
        except Exception as exc:  # surface the failure against its scenario
            problems.append(f"{type(exc).__name__}: {exc}")
        results.append((name, problems))
    return results
