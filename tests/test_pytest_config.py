"""The repo's pytest configuration reports a failing Hypothesis test instead of aborting the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_given_test_is_reported(tmp_path):
    """Hypothesis's failure report imports libcst, whose import warns that
    ``mypy_extensions.TypedDict`` is deprecated; under ``filterwarnings =
    ["error"]`` alone pytest exits 3 with INTERNALERROR and no falsifying
    example.  The config ignores that one warning, so the run fails normally."""
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
