"""The suite's warning filter must let a failing hypothesis test be named.

Every warning is an error, but with ``mypy_extensions`` installed the
hypothesis plugin's report hook triggers its ``TypedDict`` deprecation
warning when a test fails, and as an error that aborted the whole
session with an INTERNALERROR that never named the test.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(FAILING)
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(PYPROJECT),
            "-p",
            "no:cacheprovider",
            "test_throwaway.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed" in output
    assert "INTERNALERROR" not in output
