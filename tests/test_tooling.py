"""Files outside the package that name what it does.  The benchmark's
tracer (perfbench/tracer.py) wraps package functions by name from outside
the package, so a name it lists that the package no longer has breaks every
traced run; the tracer is read, not imported.  README's command-line
transcripts show what the commands print, so they are run and compared."""
import ast
import importlib
import shlex
from pathlib import Path

from reconfig_sim.cli import cli_dispatch

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"


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
