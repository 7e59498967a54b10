"""The repository's pytest settings, run on a test written for the purpose."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    """Warnings are errors, yet a failing @given test fails as one test and
    shows its falsifying example instead of aborting the session."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in done.stdout
    assert "Falsifying example" in done.stdout
