"""The suite's own pytest configuration."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(i):
    assert i < 10


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    """A failing @given test fails like any other under the suite's warning
    filters.  Reporting it makes hypothesis import libcst, whose import-time
    DeprecationWarning, turned into an error, used to abort the session."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
