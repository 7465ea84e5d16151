"""The benchmark's own artifact checks hold on its workloads.

``perfbench/worker.py`` runs each command of a workload pass through
``brwlab.cli.main`` and ``perfbench/workloads.py`` attaches a check of
exact facts to every artifact; a failed check makes the benchmark report
the outputs incorrect.  This runs the same passes with the same worker,
read-only and in a fresh process per pass as the benchmark does, and
requires every check to come back empty.  A fresh process also keeps
the heavy-tail passes from raising this process's peak memory, which
the subprocess measurements of ``test_cli`` would inherit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKER = REPO / "perfbench" / "worker.py"
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]

# pass 0 of every workload, and the mc_spined pass whose importance run
# (seed 9107629592143383175) fell outside a band of four sample errors
PASSES = [(workload, 321, 0) for workload in WORKLOADS] + [("mc_spined", 321, 3)]


@pytest.mark.parametrize("workload, seed, index", PASSES)
def test_benchmark_pass_checks_hold(workload, seed, index, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), str(index), str(tmp_path), "0"],
        capture_output=True, text=True, cwd=REPO, timeout=300,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == {} and result["failed"] == 0, result["errors"]
    assert result["attempted"] > 0
