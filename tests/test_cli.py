"""Command-line contract: subcommands, artifact formats, exit codes."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import brwlab.cli as cli_mod
from brwlab import CheckResult, McSummary
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
