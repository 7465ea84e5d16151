"""The summary of ``scripts/bench_pairs.py`` on fixed benchmark results."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _result(wall: float, setup: float, correct: bool = True, failed: int = 0) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run, parsed."""
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_summary_applies_the_gain_rule():
    # wall_s: B lower in 9 of 10 pairs, medians 0.145 and 0.135 apart by
    # more than A's quartile distance 0.146 - 0.144
    a_wall = [0.143, 0.144, 0.145, 0.146, 0.147, 0.142, 0.148, 0.145, 0.144, 0.146]
    b_wall = [0.134, 0.135, 0.133, 0.136, 0.134, 0.143, 0.135, 0.134, 0.136, 0.135]
    # setup_s: B lower in 5 pairs and tied in one
    a_setup = [0.18] * 10
    b_setup = [0.17, 0.19, 0.17, 0.19, 0.17, 0.19, 0.17, 0.19, 0.17, 0.18]
    a = [_result(w, s) for w, s in zip(a_wall, a_setup)]
    b = [_result(w, s) for w, s in zip(b_wall, b_setup)]
    b[3] = _result(b_wall[3], b_setup[3], correct=False, failed=2)
    lines = bench_pairs.summary(a, b)
    assert lines == [
        "wall_s [s]: A 0.145 (quartiles 0.144-0.146), B 0.135 (quartiles 0.134-0.1358), "
        "B lower in 9 of 10 pairs, gain rule met",
        "setup_s [s]: A 0.18 (quartiles 0.18-0.18), B 0.175 (quartiles 0.17-0.19), "
        "B lower in 5 of 10 pairs, gain rule not met",
        "A: 10 of 10 runs correct, 0 failed of 400 attempted",
        "B: 9 of 10 runs correct, 2 failed of 400 attempted",
    ]


def test_summary_needs_both_the_pairs_and_the_gap():
    # lower in every pair but by less than A's quartile distance; then a
    # wide gap won in only 8 of 10 pairs
    a = [_result(w, 1.0) for w in [1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2]]
    b = [_result(w - 0.01, 1.0) for w in [1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2]]
    assert bench_pairs.summary(a, b)[0].endswith("B lower in 10 of 10 pairs, gain rule not met")
    b = [_result(0.5 if i < 8 else 2.0, 1.0) for i in range(10)]
    assert bench_pairs.summary(a, b)[0].endswith("B lower in 8 of 10 pairs, gain rule not met")


def test_failure_lines_name_each_failed_command(tmp_path):
    # the results file of a run with two failed commands, trimmed to what is read
    results = tmp_path / ".perfbench_out" / "results"
    results.mkdir(parents=True)
    argv = ["mc --model coin_pair.json --estimator importance --seed 11",
            "spine --model heavy_tail.json --seed 12"]
    report = {"workload": "mc_spined", "correct": False, "attempted": 40, "failed": 2,
              "errors": {argv[0]: ["band failed: z 4.2"],
                         argv[1]: ["exit code 2", "3 rows, expected 21"]}}
    (results / "mc_spined-seed7-trace0.json").write_text(json.dumps(report))
    assert bench_pairs.failure_lines("B", 3, tmp_path, "mc_spined", 7) == [
        f"B pair 3 FAILED {argv[0]}: band failed: z 4.2",
        f"B pair 3 FAILED {argv[1]}: exit code 2; 3 rows, expected 21",
    ]
    report["errors"] = {}
    (results / "mc_spined-seed7-trace0.json").write_text(json.dumps(report))
    assert bench_pairs.failure_lines("A", 0, tmp_path, "mc_spined", 7) == []
