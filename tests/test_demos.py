"""The demos run against the current package and exit cleanly."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oldset

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, args",
    [
        ("extremal_sweep.py", ["--max-n", "6"]),
        ("half_graph_tour.py", ["--k", "4"]),
        ("solve_small_graphs.py", []),
    ],
)
def test_demo_runs(script, args):
    # the child imports the same oldset as this process, installed or not
    src = os.path.dirname(os.path.dirname(oldset.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
