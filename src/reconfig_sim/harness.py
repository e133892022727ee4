"""Parameter sweeps over bundled or user scenarios, with CSV output.

A scale_factor sweep rebases every table volume to each value, as
with_scale_factor does.  A gap_ms sweep sets every inter-query gap to each
value, as with_gaps does.  Rows come out in axis-then-strategy order
and numbers are formatted identically on every run, so repeated sweeps are
byte-identical.
"""
from __future__ import annotations

import math
from importlib import resources

from .costmodel import first_unbounded_query
from .emulator import analytic_total
from .model import Scenario, load_scenario
from .optimizer import FIXED_STRATEGIES, _auto_choice, _improvement, candidate_evaluator, optimize
from .record import Record, set_field

SWEEP_AXES = ("scale_factor", "gap_ms")
STRATEGY_ORDER = FIXED_STRATEGIES + ("auto",)

CSV_HEADER = "axis,value,strategy,total_ms,improvement_pct"

EQUIVALENCE_TOLERANCE_MS = 1e-9


def format_ms(value: float) -> str:
    return format(value, ".9g")


class SweepSpec(Record):
    __slots__ = ("axis", "values", "strategies")

    def __init__(self, axis: str, values: tuple[float, ...],
                 strategies: tuple[str, ...] = STRATEGY_ORDER):
        if axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis: {axis!r}")
        if not values:
            raise ValueError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"sweep values must be finite, got {values}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        # a gap of zero is meaningful; a scale factor of zero is not
        if axis == "scale_factor" and values[0] <= 0:
            raise ValueError("scale factors must be positive")
        if axis == "gap_ms" and values[0] < 0:
            raise ValueError("gaps cannot be negative")
        if not strategies:
            raise ValueError("sweep needs at least one strategy")
        unknown = [st for st in strategies if st not in STRATEGY_ORDER]
        if unknown:
            raise ValueError(f"unknown strategies: {unknown}")
        set_field(self, "axis", axis)
        set_field(self, "values", values)
        set_field(self, "strategies", strategies)


def with_scale_factor(s: Scenario, scale_factor: float) -> Scenario:
    """The same scenario with its volumes rebased to a new scale factor."""
    if not scale_factor > 0:
        raise ValueError("scale factor must be positive")
    tables = tuple(t.replace(volume=t.volume / s.scale_factor * scale_factor)
                   for t in s.tables)
    for i, t in enumerate(tables):
        if not math.isfinite(t.volume):
            raise ValueError(f"tables[{i}].volume: not finite at scale factor {scale_factor}")
    return s.replace(tables=tables, scale_factor=scale_factor)


def with_gaps(s: Scenario, gap_ms: float) -> Scenario:
    """The same scenario with every inter-query gap set to gap_ms."""
    if not math.isfinite(gap_ms):
        raise ValueError(f"gap_ms must be finite, got {gap_ms}")
    if gap_ms < 0:
        raise ValueError("gap cannot be negative")
    *queries, last = s.sequence
    return s.replace(sequence=(*[q.replace(gap_after_ms=gap_ms) for q in queries], last))


def run_sweep(s: Scenario, spec: SweepSpec) -> str:
    """Evaluate every (value, strategy) point and return the CSV text.

    One optimizer.candidate_evaluator on s, on the sweep's axis, plans the
    candidates once and emulates them at every point on s itself.
    improvement_pct in each row compares against the baseline strategy at
    the same axis value.  An axis value at which the loader's bound on the
    total (costmodel.first_unbounded_query) is not finite is a ValueError;
    the scale axis reads that bound, and the volumes' own finiteness, off
    its one copy, at the largest value.
    """
    largest = spec.values[-1]
    # SweepSpec values strictly increase and the bound only grows with the
    # scale factor and with the gap, so the largest value bounds every point
    if spec.axis == "gap_ms":
        unbounded = first_unbounded_query(s, largest)
    else:
        unbounded = first_unbounded_query(with_scale_factor(s, largest))
    if unbounded is not None:
        raise ValueError(f"{spec.axis} {format_ms(largest)}: sequence[{unbounded}]: an upper "
                         "bound on the total is not finite by this query")
    evaluate = candidate_evaluator(s, spec.axis)[1]
    rows = [CSV_HEADER]
    for value in spec.values:
        totals = evaluate(value)
        totals["auto"] = totals[_auto_choice(totals)]
        rows += [",".join((spec.axis, format_ms(value), strategy, format_ms(totals[strategy]),
                           format_ms(_improvement(totals["baseline"], totals[strategy]))))
                 for strategy in STRATEGY_ORDER if strategy in spec.strategies]
    return "\n".join(rows) + "\n"


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
    """Check every bundled scenario: it loads cleanly, the closed form
    matches the event emulation for all four strategies and for optimal's
    schedule, which must be legal, and optimal is not above auto.
    """
    results = []
    for name in bundled_names():
        problems = []
        try:
            s = load_bundled(name)
            schedules, evaluate = candidate_evaluator(s)
            totals = evaluate()
            auto = totals[_auto_choice(totals)]
            best = optimize(s, "optimal")
            totals["optimal"] = best.total_ms
            for strategy, schedule in (*schedules.items(), ("optimal", best.schedule)):
                emulated, closed = totals[strategy], analytic_total(s, schedule)
                if abs(emulated - closed) > EQUIVALENCE_TOLERANCE_MS:
                    problems.append(
                        f"{strategy}: emulated {emulated!r} differs from closed form {closed!r}")
            if best.total_ms - auto > EQUIVALENCE_TOLERANCE_MS:
                problems.append(f"optimal: total {best.total_ms!r} is above auto's {auto!r}")
        except Exception as exc:  # surface the failure against its scenario
            problems.append(f"{type(exc).__name__}: {exc}")
        results.append((name, problems))
    return results
