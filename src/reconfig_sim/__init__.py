"""Timing emulation and schedule optimization for query sequences on a
streaming storage accelerator with a single reconfigurable region."""

from .emulator import analytic_total, emit_trace, execute_schedule
from .harness import SweepSpec, load_bundled, run_sweep, verify_corpus
from .model import ScenarioError, ScheduleError, identity_schedule, load_scenario
from .optimizer import InstanceTooLargeError, optimize

__version__ = "0.1.0"

__all__ = [
    "InstanceTooLargeError",
    "ScenarioError",
    "ScheduleError",
    "SweepSpec",
    "analytic_total",
    "emit_trace",
    "execute_schedule",
    "identity_schedule",
    "load_bundled",
    "load_scenario",
    "optimize",
    "run_sweep",
    "verify_corpus",
]
