"""Files outside the package that name what it does.  The benchmark's
tracer (perfbench/tracer.py) wraps package functions by name from outside
the package, so a name it lists that the package no longer has breaks every
traced run; the tracer is read, not imported.  README's command-line
transcripts show what the commands print, so they are run and compared.
Those names, __all__ and the entry point are also all that may hold up a
definition the package itself never reads.  The dotted package names in
README and in the package's docstrings and comments must exist, and README
names only public ones.  tools/bench_pairs.py, which
runs the benchmark in pairs, is loaded from its file and fed canned result
lines."""
import ast
import importlib
import importlib.util
import io
import json
import re
import shlex
import tokenize
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
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
# module.name of a package module, as docs write it
DOTTED = re.compile(r"\b(analyzer|cli|costmodel|emulator|harness|model|optimizer|record)"
                    r"\.([A-Za-z_]\w*)")


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


def _package_prose() -> list[tuple[str, str]]:
    """(file name, text) of every docstring and comment in the package."""
    prose = []
    for path in sorted(Path(reconfig_sim.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source, str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node):
                prose.append((path.name, ast.get_docstring(node, clean=False)))
        prose += [(path.name, token.string)
                  for token in tokenize.generate_tokens(io.StringIO(source).readline)
                  if token.type == tokenize.COMMENT]
    return prose


def test_docs_name_only_real_package_names():
    """Each module.name that README or a docstring or comment of the package
    writes is an attribute of that module, so a rename or a deletion
    leaves no stale name in the docs."""
    texts = [("README.md", README.read_text(encoding="utf-8"))] + _package_prose()
    named = [(where, module, name) for where, text in texts
             for module, name in DOTTED.findall(text)]
    missing = [f"{where}: {module}.{name}" for where, module, name in named
               if not hasattr(importlib.import_module(f"reconfig_sim.{module}"), name)]
    assert missing == []
    assert len({where for where, _, _ in named}) > 5


def test_readme_names_only_public_package_names():
    """README documents the public names, those in __all__, and FieldError,
    the error the record constructors raise; helpers that the package's
    own docstrings describe stay out of it."""
    named = DOTTED.findall(README.read_text(encoding="utf-8"))
    private = sorted({f"{module}.{name}" for module, name in named
                      if name not in reconfig_sim.__all__ and name != "FieldError"})
    assert private == []
    assert named


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
    change read better, the median's change and a verdict per end-to-end
    metric, counts failed operations, and says whether sim_total_ms was
    bit-identical in every pair."""
    bench_pairs = _bench_pairs()
    walls = [(350.0, 335.0), (348.0, 330.0), (352.0, 353.0), (346.0, 334.0), (354.0, 336.0)]
    pairs = [(_result_line(p, 0.037, 36.5, 179520.00464326778),
              _result_line(c, 0.037, 36.6, 179520.00464326778)) for p, c in walls]
    lines = bench_pairs.summary(pairs, END_TO_END).splitlines()
    assert lines[0] == "5 pairs"
    rows = {line.split()[0]: line for line in lines[2:6]}
    assert rows["wall_ref_p50"].split() == [
        "wall_ref_p50", "350", "[348,", "352]", "335", "[334,", "336]", "4/5", "-4.3%",
        "no", "change"]
    assert rows["setup_s"].split()[-4:-2] == ["0/5", "+0.0%"]
    assert rows["peak_rss_mb"].split()[-4:-2] == ["0/5", "+0.3%"]
    assert lines[-3:] == ["parent: 0/200 operations failed, 0 of 5 runs not correct",
                          "change: 0/200 operations failed, 0 of 5 runs not correct",
                          "sim_total_ms bit-identical in every pair: yes"]
    pairs[2] = (pairs[2][0], _result_line(353.0, 0.037, 36.6, 179520.0046432678, failed=1))
    lines = bench_pairs.summary(pairs, END_TO_END).splitlines()
    assert lines[-2:] == ["change: 1/200 operations failed, 1 of 5 runs not correct",
                          "sim_total_ms bit-identical in every pair: no"]


def _verdicts(rss_pairs, walls=None):
    """Each end-to-end metric's verdict on pairs of peak_rss_mb readings and,
    when given, of wall_ref_p50 readings; the other metrics do not move."""
    walls = walls or [(350.0, 350.0)] * len(rss_pairs)
    pairs = [(_result_line(pw, 0.037, pr, 179520.0), _result_line(cw, 0.037, cr, 179520.0))
             for (pw, cw), (pr, cr) in zip(walls, rss_pairs)]
    rows = _bench_pairs().summary(pairs, END_TO_END).splitlines()[2:6]
    return {row.split()[0]: row.rsplit("  ", 1)[1] for row in rows}


def test_bench_pairs_calls_a_gain_only_on_nine_in_ten_pairs_beyond_the_spread():
    walls = [(350.0 + k % 3, 340.0) for k in range(10)]
    verdicts = _verdicts([(36.5, 36.5)] * 10, walls)
    assert verdicts == {"wall_ref_p50": "gain", "setup_s": "no change",
                        "peak_rss_mb": "no change", "sim_total_ms": "no change"}
    walls[0] = (350.0, 351.0)  # 9 of 10 pairs still win
    assert _verdicts([(36.5, 36.5)] * 10, walls)["wall_ref_p50"] == "gain"
    walls[1] = (351.0, 352.0)
    assert _verdicts([(36.5, 36.5)] * 10, walls)["wall_ref_p50"] == "no change"


def test_bench_pairs_calls_a_median_past_the_bound_worse():
    # +2.7% on a 2% bound; +1.6% stays within it
    assert _verdicts([(36.5, 37.5)] * 5)["peak_rss_mb"] == "worse"
    assert _verdicts([(36.5, 37.1)] * 5)["peak_rss_mb"] == "no change"


def test_bench_pairs_calls_a_spread_wider_than_the_bound_unresolved():
    """The parent's Q3 - Q1 is 2 MiB on a median of 37 MiB, wider than the
    2% bound, and the change reads the same values in another order."""
    parent = [35.0, 36.0, 37.0, 38.0, 39.0]
    verdicts = _verdicts(list(zip(parent, [37.0, 39.0, 35.0, 36.0, 38.0])))
    assert verdicts["peak_rss_mb"] == "unresolved"
    assert verdicts["wall_ref_p50"] == "no change"


def test_bench_pairs_calls_a_wide_spread_no_change_when_every_change_run_is_better():
    """Every change run beats every parent run, but by less than the
    parent's Q3 - Q1, so that it is no gain either."""
    parent = [35.0, 35.0, 35.1, 40.0, 40.0]
    assert _verdicts([(p, 34.9) for p in parent])["peak_rss_mb"] == "no change"


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
