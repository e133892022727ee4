"""The public names of the package and the README example that uses them."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reconfig_sim
from reconfig_sim import harness

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = {
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
}


def test_public_names_are_exactly_the_documented_ones():
    assert set(reconfig_sim.__all__) == PUBLIC_NAMES
    assert len(reconfig_sim.__all__) == len(PUBLIC_NAMES)
    assert isinstance(reconfig_sim.__version__, str)


def test_every_public_name_resolves():
    for name in reconfig_sim.__all__:
        assert getattr(reconfig_sim, name) is not None, name


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the two cost about as much as the rest of the import of every CLI
    # command; -S keeps modules that site hooks preload out of the answer
    code = "import sys, reconfig_sim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "scenario.json").write_text(harness.bundled_text("seq2"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    exec(compile(snippet, "README.md (Library use)", "exec"), {})

    strategy, total, *_ = capsys.readouterr().out.split()
    assert strategy == "spec_reconfig"
    assert float(total) == pytest.approx(101.0, abs=1e-9)
