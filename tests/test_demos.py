"""Smoke test of the demo scripts: each runs to completion against the
package in ``src`` and writes nothing to stderr.  Together they take a few
seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "01_filtering_heavy_tails.py",
    "02_univariate_interval.py",
    "03_sphere_cover_minimax.py",
    "04_oracle_and_subset_search.py",
])
def test_demo_runs_cleanly(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
