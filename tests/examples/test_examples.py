"""End-to-end: every shipped example runs clean."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def example_env():
    """The child imports this checkout's ``repro``: ``src`` goes first on
    its ``PYTHONPATH`` (pytest's own ``pythonpath`` reaches only this
    process)."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_and_reports_ok(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=example_env(),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "OK:" in result.stdout or "OK" in result.stdout
