"""Command-line contract: subcommands, artifact formats, exit codes."""

import contextlib
import csv
import ctypes
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import brwlab.cli as cli_mod
from brwlab import CheckResult, McSummary, classify, load_law
from brwlab.cli import _dispatch

REPO = Path(__file__).resolve().parent.parent
MODEL = str(REPO / "models" / "coin_pair.json")
BINARY = str(REPO / "models" / "binary.json")


def run_cli(args, capsys):
    code = _dispatch(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_json(capsys):
    code, out, _ = run_cli(
        ["classify", "--model", MODEL, "--alpha", "0,1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == MODEL
    assert [p["alpha"] for p in payload["profiles"]] == [0.0, 1.0]
    assert payload["profiles"][1]["classification"] == "NONTRIVIAL"
    assert payload["profiles"][1]["drift"] == pytest.approx(0.26894142136999516)
    assert payload["profiles"][0]["q"] == pytest.approx(0.25, abs=1e-12)
    assert payload["profiles"][1]["q"] == payload["profiles"][0]["q"]


def test_classify_csv(capsys):
    code, out, _ = run_cli(
        ["classify", "--model", MODEL, "--alpha", "1", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["classification"] == "NONTRIVIAL"
    assert float(rows[0]["q"]) == pytest.approx(0.25, abs=1e-12)


def test_classify_alpha_range_syntax(capsys):
    code, out, _ = run_cli(
        ["classify", "--model", MODEL, "--alpha", "0:1:3", "--format", "json"], capsys
    )
    assert code == 0
    assert [p["alpha"] for p in json.loads(out)["profiles"]] == [0.0, 0.5, 1.0]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_green(capsys):
    code, out, _ = run_cli(
        ["verify", "--model", MODEL, "--alpha", "1", "--depth", "2"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(r["pass"] for r in rows)
    assert {r["check"] for r in rows} == {
        "spine_density",
        "tree_density",
        "unit_mean",
        "martingale",
        "inverse_martingale",
        "spine_step_mean",
    }


def test_verify_too_large_is_a_resource_refusal(capsys):
    code, out, err = run_cli(
        ["verify", "--model", MODEL, "--alpha", "1", "--depth", "9"], capsys
    )
    assert code == 2
    assert "TOO_LARGE" in err


def test_verify_failure_exits_three(capsys, monkeypatch):
    broken = CheckResult(
        check="unit_mean",
        alpha=1.0,
        depth=1,
        max_discrepancy=0.5,
        outcomes=2,
        tolerance=1e-10,
        passed=False,
    )
    monkeypatch.setattr(cli_mod, "run_verify", lambda *a, **k: [broken])
    code, out, err = run_cli(
        ["verify", "--model", MODEL, "--alpha", "1", "--depth", "1"], capsys
    )
    assert code == 3
    assert "implementation bug" in err
    assert json.loads(out)[0]["pass"] is False


# ---------------------------------------------------------------------------
# simulate / spine artifacts
# ---------------------------------------------------------------------------

# two distinct NaN objects, so a memo keyed on the values cannot merge them by identity
CSV_CELLS = [0, -7, 2**70, True, False, None, float("inf"), float("-inf"), float("nan"),
             float("nan"), 0.0, -0.0, 5e-324, 0.1, -1.2345678901234567e300]
CSV_STRINGS = ["plain", "a, b", 'say "hi"', "two\nlines", "cr\rcell", "", "; tab\t"]
# three NaN bit patterns (quiet, negative, signalling) beside both zeros
CSV_FLOATS = [0.0, -0.0, 5e-324, 0.1, 1.0, -1.2345678901234567e300, float("inf"),
              float("-inf"),
              *np.array([0x7FF8 << 48, 0xFFF8 << 48, (0x7FF << 52) | 1], dtype=np.uint64)
              .view(np.float64).tolist()]


def _reference_csv(columns: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values())
    for row in zip(*cells):
        writer.writerow([cli_mod._cell(v) for v in row])
    return buf.getvalue()


@given(st.lists(st.tuples(st.sampled_from(CSV_CELLS), st.sampled_from(CSV_CELLS + CSV_STRINGS),
                          st.sampled_from(CSV_FLOATS), st.integers(-2**63, 2**63 - 1),
                          st.booleans()), max_size=8))
@example(rows=[])
def test_csv_text_matches_csv_writer(rows):
    cells, mixed, x, count, flag = map(list, zip(*rows)) if rows else ([],) * 5
    arrays = {"x": np.array(x, dtype=np.float64), "count": np.array(count, dtype=np.int64),
              "flag": np.array(flag, dtype=bool)}
    # a table of arrays is joined without csv.writer
    assert cli_mod._csv_text(arrays) == _reference_csv(arrays)
    # list columns mix 0, False, 0.0 and -0.0, and hold strings that need quoting
    table = {"cell": cells, "note, with comma": mixed, **arrays}
    assert cli_mod._csv_text(table) == _reference_csv(table)
    if not rows:
        assert cli_mod._csv_text(table) == 'cell,"note, with comma",x,count,flag\n'


def test_simulate_csv_layout(capsys):
    code, out, _ = run_cli(
        ["simulate", "--model", MODEL, "--alpha", "1", "--depth", "3", "--reps", "2", "--seed", "7"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "replicate,n,Z_n,log_w"
    assert len(lines) == 1 + 2 * 4  # header + (depth+1) rows per replicate
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "1"] and float(first[3]) == 0.0


def test_simulate_json_sanitizes_nonfinite(capsys):
    # with 20 replicates of the pair law some die by depth 2, so the JSON
    # artifact must spell -Infinity as a string (strict JSON has no Infinity)
    code, out, _ = run_cli(
        [
            "simulate", "--model", MODEL, "--alpha", "1", "--depth", "2",
            "--reps", "20", "--seed", "7", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert any(r["log_w"] == "-Infinity" for r in rows)
    assert all(r["log_w"] != float("-inf") for r in rows)


def test_simulate_cap_hit_writes_partial_and_exits_two(capsys):
    code, out, err = run_cli(
        [
            "simulate", "--model", BINARY, "--alpha", "0", "--depth", "10",
            "--reps", "3", "--seed", "1", "--max-nodes", "40",
        ],
        capsys,
    )
    assert code == 2
    assert "max-nodes" in err
    lines = out.strip().split("\n")
    # replicate 0 is complete through generation 4 (31 nodes), then the run stops
    assert lines[-1].startswith("0,4,16,")


def test_spine_csv_layout(capsys):
    code, out, _ = run_cli(
        ["spine", "--model", MODEL, "--alpha", "1", "--depth", "3", "--reps", "2", "--seed", "7"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "replicate,k,S(v_k),spine_log_weight,log_w"
    assert len(lines) == 1 + 2 * 4
    first = lines[1].split(",")
    assert first == ["0", "0", "0.0", "0.0", "0.0"]


def test_artifacts_identical_across_workers(tmp_path):
    outs = []
    for workers in ("1", "3"):
        path = tmp_path / f"sim_{workers}.csv"
        code = _dispatch(
            [
                "simulate", "--model", MODEL, "--alpha", "1", "--depth", "5",
                "--reps", "12", "--seed", "42", "--workers", workers,
                "--out", str(path),
            ]
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("estimator", [
    ["importance", "--functional", "exp_neg_max:1", "--depth", "4"],
    ["importance", "--functional", "min_z:2", "--depth", "6"],
    ["spine_slope", "--depth", "30"],
])
def test_spined_mc_artifacts_identical_across_workers(tmp_path, estimator):
    outs = []
    for workers in ("1", "3"):
        summary, values = tmp_path / f"mc_{workers}.json", tmp_path / f"values_{workers}.csv"
        code = _dispatch(
            [
                "mc", "--model", MODEL, "--alpha", "1", "--estimator", *estimator,
                "--reps", "60", "--seed", "42", "--workers", workers,
                "--out", str(summary), "--values-out", str(values),
            ]
        )
        assert code == 0
        outs.append((summary.read_bytes(), values.read_bytes()))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def test_mc_mean_w_payload(capsys):
    code, out, _ = run_cli(
        [
            "mc", "--estimator", "mean_w", "--model", MODEL, "--alpha", "1",
            "--depth", "6", "--reps", "300", "--seed", "11", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimator"] == "mean_w"
    assert payload["reference_value"] == 1.0
    assert payload["pass"] is True
    assert set(payload) == {
        "estimator", "estimate", "se", "n", "discarded", "seed",
        "reference_value", "pass", "unreliable", "note",
    }


def test_mc_extinction_needs_no_alpha(capsys):
    code, out, _ = run_cli(
        [
            "mc", "--estimator", "extinction", "--model", MODEL,
            "--depth", "20", "--reps", "200", "--seed", "5", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    # the reference is the depth-20 pgf iterate, about 1.2e-9 under 1/4
    assert json.loads(out)["reference_value"] == pytest.approx(0.25, abs=1e-6)


def test_mc_extinction_depth_past_the_cap_exits_one(capsys):
    code, _, err = run_cli(
        [
            "mc", "--estimator", "extinction", "--model",
            str(REPO / "models" / "critical_coin.json"),
            "--depth", "200000", "--reps", "10", "--seed", "1",
        ],
        capsys,
    )
    assert code == 1
    assert "depth 200000 exceeds caps.max_depth 100000" in err


def test_mc_spine_slope_depth_past_the_cap_exits_one(capsys):
    code, _, err = run_cli(
        [
            "mc", "--estimator", "spine_slope", "--model", MODEL, "--alpha", "1",
            "--depth", "200000", "--reps", "2", "--seed", "1",
        ],
        capsys,
    )
    assert code == 1
    assert "depth 200000 exceeds caps.max_depth 100000" in err


def test_mc_help_keeps_estimator_names_whole(capsys):
    code, out, _ = run_cli(["mc", "--help"], capsys)
    assert code == 0
    words = set(out.replace(",", " ").split())
    for name in cli_mod._ESTIMATORS:
        assert name in words, out


def test_mc_scan_payload(capsys):
    code, out, _ = run_cli(
        [
            "mc", "--estimator", "triviality_scan", "--model", BINARY,
            "--alpha", "1", "--depth-grid", "2,4,6", "--reps", "8", "--seed", "2",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "STABLE"
    assert payload["agrees"] is True
    assert payload["grid"] == [2, 4, 6]
    assert payload["medians"] == [0.0, 0.0, 0.0]
    assert payload["surviving_fractions"] == [1.0, 1.0, 1.0]


def test_mc_importance_requires_functional(capsys):
    code, _, err = run_cli(
        [
            "mc", "--estimator", "importance", "--model", MODEL, "--alpha", "1",
            "--depth", "2", "--reps", "10", "--seed", "1",
        ],
        capsys,
    )
    assert code == 1
    assert "--functional" in err


def test_mc_statistical_failure_keeps_exit_zero(capsys, monkeypatch):
    fake = McSummary(
        estimator="mean_w", estimate=2.0, se=0.01, n=100, discarded=0,
        master_seed=1, reference=1.0, passed=False,
    )
    monkeypatch.setattr(cli_mod, "mc_mean_w", lambda *a, **k: fake)
    code, out, _ = run_cli(
        [
            "mc", "--estimator", "mean_w", "--model", MODEL, "--alpha", "1",
            "--depth", "2", "--reps", "100", "--seed", "1", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["pass"] is False


def test_mc_values_out(capsys, tmp_path):
    values = tmp_path / "values.csv"
    code, out, _ = run_cli(
        [
            "mc", "--estimator", "mean_w", "--model", MODEL, "--alpha", "1",
            "--depth", "3", "--reps", "50", "--seed", "4", "--format", "json",
            "--values-out", str(values),
        ],
        capsys,
    )
    assert code == 0
    lines = values.read_text().strip().split("\n")
    assert lines[0] == "replicate,value"
    assert len(lines) == 51


# ---------------------------------------------------------------------------
# validation failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--model", MODEL, "--alpha", "1", "--depth", "3", "--reps", "2"],
        ["classify", "--model", "/does/not/exist.json", "--alpha", "1"],
        ["classify", "--alpha", "1"],
        ["classify", "--model", MODEL, "--alpha", "zebra"],
        ["mc", "--estimator", "bogus", "--model", MODEL, "--alpha", "1", "--depth", "2", "--reps", "10", "--seed", "1"],
        ["mc", "--estimator", "triviality_scan", "--model", MODEL, "--alpha", "1", "--depth", "2", "--reps", "10", "--seed", "1"],
        ["classify", "--model", MODEL, "--alpha", "1", "--format", "yaml"],
        ["not-a-command"],
        ["classify", "--model", MODEL, "--alpha", "nan"],
        ["classify", "--model", MODEL, "--alpha", "inf"],
        ["classify", "--model", MODEL, "--alpha", "-inf"],
    ],
)
def test_validation_failures_exit_one(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert err


@pytest.mark.parametrize("command", ["classify", "simulate"])
def test_vanishing_tilted_mass_is_a_resource_refusal(command, tmp_path, capsys):
    # exp(-1e308) underflows to 0, so m(1) == 0 and size-biasing is undefined
    far = tmp_path / "far.json"
    far.write_text('{"type": "finite", "atoms": [{"p": 0.5, "x": []}, {"p": 0.5, "x": [1e308, 1e308]}]}')
    args = [command, "--model", str(far), "--alpha", "1"]
    if command == "simulate":
        args += ["--depth", "2", "--reps", "2", "--seed", "1"]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("refused:")


_OVERFLOWING_TILT = [
    ["simulate", "--depth", "3", "--reps", "2"],
    ["spine", "--depth", "3", "--reps", "2"],
    ["mc", "--estimator", "mean_w", "--depth", "3", "--reps", "10"],
    ["mc", "--estimator", "spine_slope", "--depth", "3", "--reps", "10"],
    ["mc", "--estimator", "triviality_scan", "--depth-grid", "1,2", "--reps", "10"],
    ["mc", "--estimator", "importance", "--functional", "one", "--depth", "3", "--reps", "10"],
]


def test_overflowing_tilt_gets_one_refusal_everywhere(capsys):
    # exp(1000) overflows, so m(-1000) has no float value: every command
    # that samples under the tilt refuses the same way; classify reports it
    refusals = set()
    for args in _OVERFLOWING_TILT:
        code, _, err = run_cli([*args, "--model", MODEL, "--alpha=-1000", "--seed", "1"], capsys)
        assert code == 2, (args, err)
        assert err.startswith("refused:") and err.count("\n") == 1, (args, err)
        refusals.add(err)
    assert len(refusals) == 1, refusals
    code, out, _ = run_cli(["classify", "--model", MODEL, "--alpha=-1000"], capsys)
    assert code == 0
    assert json.loads(out)["profiles"][0]["classification"] == "MASS_INFINITE"


_FAR_APART = '{"type":"finite","atoms":[{"p":0.5,"x":[1e308]},{"p":0.5,"x":[-1e308,0]}]}'


@pytest.mark.parametrize("args", [
    ["simulate", "--depth", "3", "--reps", "5"],
    ["spine", "--depth", "3", "--reps", "5"],
    ["mc", "--estimator", "mean_w", "--depth", "3", "--reps", "5"],
    ["mc", "--estimator", "importance", "--functional", "min_z:2", "--depth", "3", "--reps", "5"],
    ["mc", "--estimator", "spine_slope", "--depth", "3", "--reps", "5"],
    ["mc", "--estimator", "triviality_scan", "--depth-grid", "1,2,3", "--reps", "5"],
], ids=lambda args: args[0] if args[0] != "mc" else args[2])
def test_positions_past_float64_are_refused(args, tmp_path, capsys):
    # at alpha 0 the tilt is finite, but 1e308 + 1e308 overflows and
    # inf - inf would write NaN into log W_n: refused before anything grows
    model = tmp_path / "far.json"
    model.write_text(_FAR_APART)
    out = tmp_path / "out"
    code, _, err = run_cli([*args, "--model", str(model), "--alpha", "0", "--seed", "1",
                            "--out", str(out)], capsys)
    assert code == 2, err
    assert err.startswith("refused:") and "float64" in err and err.count("\n") == 1
    assert not out.exists()


_SINKING = '{"type": "finite", "atoms": [{"p": 0.5, "x": [-1, -1]}, {"p": 0.5, "x": [-1]}]}'


def test_overflowing_exp_neg_max_is_a_resource_refusal(tmp_path, capsys):
    # every particle of generation 8 sits at -8, and exp(100 * 8) overflows
    model = tmp_path / "sinking.json"
    model.write_text(_SINKING)
    code, _, err = run_cli(
        ["mc", "--estimator", "importance", "--functional", "exp_neg_max:100", "--model",
         str(model), "--alpha", "0", "--depth", "8", "--reps", "50", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert err.startswith("refused:") and "exp_neg_max:100" in err and err.count("\n") == 1


def test_out_of_memory_is_a_resource_refusal(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "grow_occupation", exhausted)
    code, _, err = run_cli(
        ["simulate", "--model", MODEL, "--alpha", "1", "--depth", "2", "--reps", "2", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert err.startswith("refused:") and err.count("\n") == 1


def test_unwritable_output_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        ["classify", "--model", MODEL, "--alpha", "1", "--out", str(tmp_path / "no" / "out.json")],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: cannot write")


def test_malformed_model_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["classify", "--model", str(bad), "--alpha", "1"], capsys)
    assert code == 1
    assert "not valid JSON" in err
    empty = tmp_path / "empty.json"
    empty.write_text('{"type": "finite", "atoms": []}')
    code, _, err = run_cli(["classify", "--model", str(empty), "--alpha", "1"], capsys)
    assert code == 1


def test_seed_range_is_enforced(capsys):
    code, _, err = run_cli(
        ["simulate", "--model", MODEL, "--alpha", "1", "--depth", "2", "--reps", "2", "--seed", "-3"],
        capsys,
    )
    assert code == 1
    big = str(2**64)
    code, _, err = run_cli(
        ["simulate", "--model", MODEL, "--alpha", "1", "--depth", "2", "--reps", "2", "--seed", big],
        capsys,
    )
    assert code == 1


# ---------------------------------------------------------------------------
# deep scans: occupation growth in a fresh process, timed and measured
# ---------------------------------------------------------------------------

QUAD = str(REPO / "models" / "quad_or_twin.json")

# runs one CLI invocation, then prints its exit code and peak resident MB.
# The peak is this process's VmHWM: ru_maxrss would carry over the peak of
# the pytest process that forked it, across exec
_MEASURED = """
import json, sys
from brwlab.cli import _dispatch
code = _dispatch(sys.argv[1:])
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "rss_mb": kb / 1024}))
"""


def _measured_cli(args: list[str]) -> tuple[dict, str, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _MEASURED, *args], capture_output=True,
                          text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    seconds = time.perf_counter() - start
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr, seconds


def test_deep_scan_decays_in_seconds_and_megabytes(tmp_path):
    # depth 36 of quad_or_twin holds about 10^17 particles per replicate
    out = tmp_path / "scan.json"
    facts, err, seconds = _measured_cli([
        "mc", "--model", QUAD, "--estimator", "triviality_scan", "--alpha", "5",
        "--depth-grid", "2,12,24,36", "--reps", "64", "--max-nodes", str(2**62),
        "--seed", "1", "--out", str(out)])
    assert facts["code"] == 0, err
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "DECAYING" and payload["agrees"] is True
    assert payload["n"] == 64 and payload["discarded"] == 0
    assert seconds < 5.0
    assert facts["rss_mb"] < 150.0


def _boundary_alpha(model: str, lo: float, hi: float) -> float:
    """The root of ``classify(law, alpha).gap`` in ``[lo, hi]``, by bisection
    to adjacent floats: a hand-rounded alpha* lies outside the 1e-9
    boundary band and classifies NONTRIVIAL."""
    law = load_law(model)
    gap = lambda a: classify(law, a).gap  # noqa: E731
    assert gap(lo) * gap(hi) < 0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return min((lo, hi), key=lambda a: abs(gap(a)))
        if (gap(mid) > 0) == (gap(lo) > 0):
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("model, reps, grid", [
    (MODEL, 1000, "10,20,40,60,80"),
    (QUAD, 500, "4,8,16,24,32,38"),
])
def test_boundary_scan_decays_in_seconds_and_megabytes(tmp_path, model, reps, grid):
    # at alpha* W_n -> 0 like n^(-1/2) (Seneta-Heyde norming); the deep
    # generations hold up to about 4 * 10^15 particles per replicate, drawn
    # as counter-stream binomials.  The bounds are the deep scan's above
    alpha = _boundary_alpha(model, 1.0, 5.0)
    out = tmp_path / "scan.json"
    facts, err, seconds = _measured_cli([
        "mc", "--model", model, "--estimator", "triviality_scan", "--alpha", repr(alpha),
        "--depth-grid", grid, "--reps", str(reps), "--max-nodes", str(2**62),
        "--seed", "1", "--out", str(out)])
    assert facts["code"] == 0, err
    payload = json.loads(out.read_text())
    assert payload["classification"] == "TRIVIAL_DRIFT_BOUNDARY"
    assert payload["verdict"] == "DECAYING" and payload["agrees"] is True
    assert payload["n"] == reps and payload["discarded"] == 0
    assert seconds < 5.0
    assert facts["rss_mb"] < 150.0


def test_deep_importance_in_seconds_and_megabytes(tmp_path):
    # spined replicates grow as occupation measures plus one spine
    # particle: depth 16 of quad_or_twin holds about 5 * 10^7 particles
    # per replicate
    out = tmp_path / "importance.json"
    args = ["mc", "--model", QUAD, "--estimator", "importance", "--functional", "one",
            "--alpha", "1", "--depth", "16", "--seed", "1"]
    facts, err, seconds = _measured_cli([*args, "--reps", "64", "--max-nodes", str(2**62),
                                         "--out", str(out)])
    assert facts["code"] == 0, err
    payload = json.loads(out.read_text())
    assert payload["n"] == 64 and payload["discarded"] == 0
    assert seconds < 5.0
    assert facts["rss_mb"] < 150.0
    # a cap of 10^8 nodes refuses the run instead
    facts, err, seconds = _measured_cli([*args, "--reps", "16", "--max-nodes", str(10**8)])
    assert facts["code"] == 2 and err.startswith("refused:"), err
    assert seconds < 5.0
    assert facts["rss_mb"] < 150.0


def test_counts_past_2_62_refuse_with_exit_two():
    facts, err, seconds = _measured_cli([
        "mc", "--model", QUAD, "--estimator", "triviality_scan", "--alpha", "5",
        "--depth-grid", "2,45", "--reps", "16", "--max-nodes", str(2**63 - 1), "--seed", "1"])
    assert facts["code"] == 2
    assert err.startswith("refused:") and "2^62" in err and err.count("\n") == 1
    assert seconds < 5.0


def test_estimator_runs_leave_numpy_ma_unloaded(tmp_path):
    # np.unique and np.median import numpy.ma on their first call, which
    # costs a short run 13-24 ms
    common = ["--model", MODEL, "--alpha", "1", "--reps", "50", "--seed", "3"]
    runs = [
        ["mc", "--estimator", "mean_w", "--depth", "6", *common],
        ["mc", "--estimator", "triviality_scan", "--depth-grid", "2,4,6", *common],
        ["mc", "--estimator", "importance", "--functional", "min_z:2", "--depth", "3", *common],
        ["mc", "--estimator", "importance", "--functional", "exp_neg_max:1", "--depth", "6",
         *common],
    ]
    runs = [[*args, "--out", str(tmp_path / f"{i}.json")] for i, args in enumerate(runs)]
    code = ("import json, sys\nfrom brwlab.cli import _dispatch\n"
            "codes = [_dispatch(args) for args in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True,
                          text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          timeout=120)
    assert proc.stdout, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[0, 0, 0, 0], False]


def test_no_run_loads_numpy_random(tmp_path):
    # every draw, multinomial blocks included, comes from the counter
    # stream, so no run builds a numpy generator nor imports the module,
    # which costs a run 13-15 ms and about 6 MB; the child counts the
    # multinomial calls of each run, to show the binomial path ran
    heavy = str(REPO / "models" / "heavy_tail.json")
    runs = [
        ["mc", "--estimator", "extinction", "--model", MODEL, "--depth", "30", "--reps", "5000"],
        ["mc", "--estimator", "mean_w", "--model", MODEL, "--alpha", "1", "--depth", "12",
         "--reps", "2000"],
        ["mc", "--estimator", "triviality_scan", "--model", QUAD, "--alpha", "5",
         "--depth-grid", "2,12,24", "--reps", "16", "--max-nodes", str(2**62)],
        ["mc", "--estimator", "spine_slope", "--model", MODEL, "--alpha", "1", "--depth", "20",
         "--reps", "100"],
        ["mc", "--estimator", "importance", "--functional", "min_z:2", "--model", MODEL,
         "--alpha", "1", "--depth", "12", "--reps", "500"],
        ["mc", "--estimator", "importance", "--functional", "one", "--model", heavy,
         "--alpha", "0", "--depth", "2", "--reps", "50", "--max-nodes", str(2**62)],
        ["simulate", "--model", MODEL, "--alpha", "1", "--depth", "10", "--reps", "20"],
        ["spine", "--model", MODEL, "--alpha", "1", "--depth", "10", "--reps", "20"],
    ]
    runs = [[*args, "--seed", "3", "--out", str(tmp_path / f"{i}.out")]
            for i, args in enumerate(runs)]
    code = ("import json, sys\nimport brwlab.brw as brw\nfrom brwlab.cli import _dispatch\n"
            "calls = [0]\ndraw = brw.counter_multinomials\n"
            "def counted(*args):\n    calls[0] += 1\n    return draw(*args)\n"
            "brw.counter_multinomials = counted\nresults = []\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    calls[0] = 0\n    results.append([_dispatch(args), calls[0]])\n"
            "print(json.dumps([results, 'numpy.random' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True,
                          text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          timeout=120)
    assert proc.stdout, proc.stderr
    results, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [code for code, _ in results] == [0] * len(runs)
    assert loaded is False
    # mean_w and the deep scan draw multinomial blocks
    assert results[1][1] > 0 and results[2][1] > 0


# ---------------------------------------------------------------------------
# the allocator setting: freed heap top kept between generations and runs
# ---------------------------------------------------------------------------


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt (not glibc)")
def test_extinction_after_mean_w_faults_few_pages(tmp_path):
    # with glibc's default trimming, every large free hands the heap top
    # back, and the extinction run faults 6,100-6,500 pages in afresh; the
    # bound of 2,000 was fixed before measuring the setting (about 220)
    runs = [
        ["mc", "--estimator", "mean_w", "--model", MODEL, "--alpha", "1", "--depth", "12",
         "--reps", "2000"],
        ["mc", "--estimator", "extinction", "--model", MODEL, "--depth", "30", "--reps", "5000"],
    ]
    runs = [[*args, "--seed", "3", "--out", str(tmp_path / f"{i}.json")]
            for i, args in enumerate(runs)]
    code = ("import json, resource, sys\nfrom brwlab.cli import _dispatch\nresults = []\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    code = _dispatch(args)\n"
            "    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "    results.append([code, faults])\n"
            "print(json.dumps(results))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True,
                          text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          timeout=120)
    assert proc.stdout, proc.stderr
    (mean_w_code, _), (code, faults) = json.loads(proc.stdout.strip().splitlines()[-1])
    assert mean_w_code == 0 and code == 0
    assert faults < 2000


def _no_c_library(name):
    raise OSError("no C library handle")


# off glibc the handle lacks the symbol, or there is no handle at all
@pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                         ids=["no_symbol", "no_library"])
def test_dispatch_runs_where_mallopt_lookup_raises(monkeypatch, capsys, cdll):
    monkeypatch.setattr(cli_mod.ctypes, "CDLL", cdll)
    cli_mod._keep_heap_top.cache_clear()
    try:
        code, out, _ = run_cli(["classify", "--model", MODEL, "--alpha", "1"], capsys)
    finally:
        cli_mod._keep_heap_top.cache_clear()
    assert code == 0
    assert json.loads(out)["profiles"][0]["classification"] == "NONTRIVIAL"


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_entry_point_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "brwlab.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("classify", "verify", "simulate", "spine", "mc"):
        assert sub in proc.stdout


# ---------------------------------------------------------------------------
# totality: every argv ends in a documented exit code and message
# ---------------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from(["", "1", "x", None, True]),
)
_LAW_SHAPED = st.fixed_dictionaries(
    {
        "type": st.sampled_from(["finite", "log_divergent", "bogus", 7]),
        "atoms": st.one_of(
            st.lists(
                st.one_of(
                    st.fixed_dictionaries(
                        {"p": _NUMBERS, "x": st.one_of(st.lists(_NUMBERS, max_size=2), _NUMBERS)}
                    ),
                    _NUMBERS,
                ),
                max_size=3,
            ),
            _NUMBERS,
        ),
        "a": _NUMBERS,
        "n_max": st.one_of(st.integers(-5, 300), st.sampled_from([2.5, 1e400, 10**12, "9", None])),
    }
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_VALID_LAWS = [
    {"type": "finite", "atoms": [{"p": 0.2, "x": []}, {"p": 0.8, "x": [0.0, 1.0]}]},
    {"type": "finite", "atoms": [{"p": 1.0, "x": [0.0, 0.0]}]},
    {"type": "finite", "atoms": [{"p": 0.5, "x": [0.0, 1.0]}, {"p": 0.5, "x": [1.0]}]},
    {"type": "log_divergent", "a": 1.5, "n_max": 200},
    json.loads(_SINKING),
]
_VALID = {
    "--model": st.sampled_from([json.dumps(law) for law in _VALID_LAWS]),
    "--alpha": st.sampled_from(["0", "1", "-0.5", "5", "2.5"]),
    "--depth": st.integers(0, 3).map(str),
    "--reps": st.integers(2, 5).map(str),
    "--seed": st.integers(0, 5).map(str),
    "--max-nodes": st.integers(1, 40).map(str),
    "--workers": st.integers(1, 4).map(str),
    "--format": st.sampled_from(["json", "csv"]),
    "--estimator": st.sampled_from(
        ["mean_w", "spine_slope", "extinction", "triviality_scan", "importance"]
    ),
    "--functional": st.sampled_from(
        ["one", "indicator_z:1", "min_z:2", "exp_neg_max:0.5", "exp_neg_max:100",
         "exp_neg_max:300"]
    ),
    "--depth-grid": st.sampled_from(["1,2", "0,3", "2"]),
    "--out": st.just("OUT"),
    "--values-out": st.just("VALUES"),
}
_INVALID = {
    "--model": st.one_of(
        st.builds(json.dumps, _LAW_SHAPED),
        st.builds(json.dumps, _JSON),
        st.sampled_from(["{not json", "", "[]", "null", '{"type": "finite", "atoms": []}']),
        st.text(max_size=8),
    ),
    "--alpha": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1:2", "0:1:0", "-1:1:-2", "", "zebra", "1e400"]),
    ),
    "--depth": st.integers(-2, -1).map(str),
    "--reps": st.integers(-2, 1).map(str),
    "--seed": st.sampled_from(["-1", str(2**64)]),
    "--max-nodes": st.integers(-1, 0).map(str),
    "--workers": st.integers(-1, 0).map(str),
    "--format": st.just("yaml"),
    "--estimator": st.just("bogus"),
    "--functional": st.sampled_from(["min_z:0", "exp_neg_max:nan", "junk"]),
    "--depth-grid": st.sampled_from(["2,1", "1,1", "-1,2", "a", ""]),
    "--out": st.sampled_from(["DIR", "DIR/missing/out"]),
    "--values-out": st.sampled_from(["DIR", "DIR/missing/values"]),
}
_SAMPLER_OPTIONS = ["--alpha", "--depth", "--reps", "--seed", "--max-nodes", "--workers"]
_SUBCOMMAND_OPTIONS = {
    "classify": ["--alpha", "--format", "--out"],
    "verify": ["--alpha", "--depth", "--format", "--out"],
    "simulate": [*_SAMPLER_OPTIONS, "--format", "--out"],
    "spine": [*_SAMPLER_OPTIONS, "--format", "--out"],
    "mc": [flag for flag in _VALID if flag != "--model"],
}


@st.composite
def _invocation(draw):
    """(argv, model file text): at most one flag value is invalid, a few
    flags go missing, and now and then a stray token is inserted."""
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_OPTIONS)))
    flags = ["--model", *_SUBCOMMAND_OPTIONS[command]]
    broken = draw(st.sampled_from([None, None, None, *flags]))
    argv, model_text = [command], ""
    for flag in flags:
        if draw(st.integers(0, 19)) == 0 or (flag.endswith("out") and draw(st.booleans())):
            continue
        if flag == broken:
            value = draw(_INVALID[flag])
        elif flag == "--alpha" and command in ("classify", "verify"):
            value = draw(st.sampled_from(["0", "1,-0.5", "0:1:3"]))
        else:
            value = draw(_VALID[flag])
        if flag == "--model":
            model_text, value = value, "MODEL"
        argv += [flag, value]
    if command == "verify" and "--depth" in argv:
        # enumeration cost grows doubly exponentially with depth
        i = argv.index("--depth") + 1
        argv[i] = str(min(int(argv[i]), 2))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "--depth"])))
    return argv, model_text


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocation=_invocation())
def test_cli_is_total(invocation):
    argv, model_text = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"MODEL": "model.json", "OUT": "out", "VALUES": "values", "DIR": ""}
        for token, name in paths.items():
            argv = [a.replace(token, str(Path(tmp) / name)) for a in argv]
        Path(tmp, "model.json").write_text(model_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _dispatch(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    message = err.getvalue()
    assert "Traceback" not in message
    if code:
        lines = message.strip().split("\n")
        assert len(lines) == 1, message
        assert lines[0].startswith(("error:", "refused:", "TOO_LARGE:")), message
