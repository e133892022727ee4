"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name from outside the package, so a name it lists that the package no longer
has breaks every traced run.  The tracer is read, not imported."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers() -> dict[str, tuple[str, ...]]:
    """The tracer's LAYERS literal, read from its source text."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no LAYERS")


def test_every_traced_function_resolves_in_the_package():
    layers = _layers()
    missing = [f"{module}.{name}" for module, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"reconfig_sim.{module}"),
                                       name, None))]
    assert missing == []
    assert "propagate_volumes" in layers["costmodel"]
