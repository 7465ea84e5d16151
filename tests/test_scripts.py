"""The demo scripts under ``scripts/`` that call the public API run to
completion: each runs in a child interpreter on tiny arguments and must
exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

RUNS = [
    ["identity_suite.py", "--depth", "1"],
    ["dichotomy_scan.py", "--alphas", "1", "--depth-grid", "2,4", "--reps", "20"],
    ["spine_slope_demo.py", "--alphas", "1", "--depth", "10", "--reps", "20"],
    *(["band_rates.py", "--estimator", name, "--reps", "50", "--depth", "2", "--seeds", "2"]
      for name in ("importance", "mean_w", "spine_slope", "extinction")),
]


@pytest.mark.parametrize("args", RUNS, ids=lambda args: args[0][:-3] + (
    f"-{args[2]}" if args[1] == "--estimator" else ""))
def test_script_runs(args, tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / args[0]), *args[1:]],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
