"""The test configuration itself: warnings are errors, yet a failing
property test is reported as one failure and the run goes on."""
import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
