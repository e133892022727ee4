"""Files outside the package that name what it does.  The benchmark's
tracer (perfbench/tracer.py) wraps package functions by name from outside
the package, so a name it lists that the package no longer has breaks every
traced run; the tracer is read, not imported.  README's command-line
transcripts show what the commands print, so they are run and compared.
Those names, __all__ and the entry point are also all that may hold up a
definition the package itself never reads.  tools/bench_pairs.py, which
runs the benchmark in pairs, is loaded from its file and fed canned result
lines."""
import ast
import importlib
import importlib.util
import json
import shlex
import tomllib
from pathlib import Path

import pytest

import reconfig_sim
from reconfig_sim.cli import cli_dispatch

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
PYPROJECT = ROOT / "pyproject.toml"
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"


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


def _reads(node) -> set[str]:
    """Every bare name and attribute read below node."""
    return {child.id if isinstance(child, ast.Name) else child.attr for child in ast.walk(node)
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)}


def test_every_package_definition_is_read_in_the_package():
    """Helpers that only tests call are deleted: every module-level function
    and class of the package is read somewhere in the package outside its
    own definition, by name or as an attribute, unless __all__, the
    tracer's LAYERS or the reconfig-sim entry point names it.  Read from
    the syntax trees, so a test's import or call does not count."""
    entry = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = entry["reconfig-sim"].partition(":")
    exempt = {(module.removeprefix("reconfig_sim."), name)}
    exempt |= {(module, name) for module, names in _layers().items() for name in names}
    definitions, reads = [], set()
    for path in sorted(Path(reconfig_sim.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            # a definition's own body, a recursive call say, does not hold it up
            read = _reads(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, node.name))
                read.discard(node.name)
            reads |= read
    unread = [f"{module}.{name}" for module, name in definitions
              if name not in reads and name not in reconfig_sim.__all__
              and (module, name) not in exempt]
    assert unread == []
    assert len(definitions) > 100


def _transcripts() -> list[tuple[list[str], list[str]]]:
    """(arguments, printed lines) of each `$ reconfig-sim ...` command in
    README's "Command line" section, a trailing backslash joining lines."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1].split("\n## ")[0]
    transcripts: list[tuple[str, list[str]]] = []
    in_command = False
    for line in section.splitlines():
        if line.startswith("```"):
            in_command = False
        elif in_command and transcripts[-1][0].endswith("\\"):
            transcripts[-1] = (transcripts[-1][0][:-1] + line, [])
        elif line.startswith("$ reconfig-sim "):
            in_command = True
            transcripts.append((line[len("$ reconfig-sim "):], []))
        elif in_command:
            transcripts[-1][1].append(line)
    return [(shlex.split(command), shown) for command, shown in transcripts]


def test_readme_transcripts_match_the_cli(capsys):
    """Each transcript prints the lines README shows, up to a `...` line,
    which elides the rest.  A command README shows no output for (one that
    only writes a file, or one whose output it leaves out) is not run."""
    compared = 0
    for argv, shown in _transcripts():
        if not shown:
            continue
        assert cli_dispatch(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        if "..." in shown:
            shown = shown[:shown.index("...")]
            printed = printed[:len(shown)]
        assert printed == shown, argv
        compared += 1
    assert compared >= 3


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(wall, setup, rss, sim, failed=0):
    """A perfbench/run.py --trace 0 result line of one workload."""
    metrics = {"wall_ref_p50": (wall, "ref"), "setup_s": (setup, "s"),
               "peak_rss_mb": (rss, "MiB"), "sim_total_ms": (sim, "ms")}
    return json.dumps({"correct": failed == 0, "attempted": 40, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def test_bench_pairs_summary_reads_result_lines():
    """The summary gives each side's median [Q1, Q3], the pairs in which the
    change read lower and the median's change per end-to-end metric, counts
    failed operations, and says whether sim_total_ms was bit-identical in
    every pair."""
    bench_pairs = _bench_pairs()
    walls = [(350.0, 335.0), (348.0, 330.0), (352.0, 353.0), (346.0, 334.0), (354.0, 336.0)]
    pairs = [(_result_line(p, 0.037, 36.5, 179520.00464326778),
              _result_line(c, 0.037, 36.6, 179520.00464326778)) for p, c in walls]
    lines = bench_pairs.summary(pairs).splitlines()
    assert lines[0] == "5 pairs"
    rows = {line.split()[0]: line for line in lines[2:6]}
    assert rows["wall_ref_p50"].split() == [
        "wall_ref_p50", "350", "[348,", "352]", "335", "[334,", "336]", "4/5", "-4.3%"]
    assert rows["setup_s"].split()[-2:] == ["0/5", "+0.0%"]
    assert rows["peak_rss_mb"].split()[-2:] == ["0/5", "+0.3%"]
    assert lines[-3:] == ["parent: 0/200 operations failed, 0 of 5 runs not correct",
                          "change: 0/200 operations failed, 0 of 5 runs not correct",
                          "sim_total_ms bit-identical in every pair: yes"]
    pairs[2] = (pairs[2][0], _result_line(353.0, 0.037, 36.6, 179520.0046432678, failed=1))
    lines = bench_pairs.summary(pairs).splitlines()
    assert lines[-2:] == ["change: 1/200 operations failed, 1 of 5 runs not correct",
                          "sim_total_ms bit-identical in every pair: no"]


def test_bench_pairs_refuses_paths_of_different_length(tmp_path):
    bench_pairs = _bench_pairs()
    for name in ("pa", "ch", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("", encoding="utf-8")
    bench_pairs.check_checkouts(tmp_path / "pa", tmp_path / "ch")
    with pytest.raises(SystemExit, match="differ in length"):
        bench_pairs.check_checkouts(tmp_path / "pa", tmp_path / "change")
    with pytest.raises(SystemExit, match="no perfbench/run.py"):
        bench_pairs.check_checkouts(tmp_path / "pa", tmp_path / "xy")
    assert bench_pairs.seed_range("2971-2980") == range(2971, 2981)
    assert bench_pairs.seed_range("7") == range(7, 8)
