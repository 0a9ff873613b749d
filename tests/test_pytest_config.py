"""The suite's own pytest configuration reports a failing property test."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_negative(x):
    assert x < 0
'''


def test_failing_property_test_prints_its_example(tmp_path):
    # warnings are errors in this suite; a warning raised inside hypothesis's
    # report hook must not turn the failure into an INTERNALERROR
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example: test_negative(" in out
    assert "INTERNALERROR" not in out
    assert "1 failed" in out
