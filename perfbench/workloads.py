"""Workload definitions: the brwlab commands of one pass and their checks.

A pass is a fixed list of ``brwlab`` commands for one workload.  Its
inputs (model files and every ``--seed``) come from the workload seed and
the pass index alone, so the same ``(seed, pass)`` always gives the same
commands; the heavy-tail ``spine`` command's seed follows the pass index
only (see ``_mc_spined``).  Every command writes its artifact with ``--out``; the check
attached to it reads that artifact back and tests exact facts only (exit
code, row counts, flags, exact references), never sample values, so the
checks keep holding when the samplers change their random streams.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("mc_plain", "mc_spined", "verify_exact", "mc_threads")

COIN_PAIR = {"type": "finite", "atoms": [{"p": 0.2, "x": []}, {"p": 0.8, "x": [0.0, 1.0]}]}
QUAD_OR_TWIN = {
    "type": "finite",
    "atoms": [{"p": 0.5, "x": [0.0, 1.0, 1.0, 1.0]}, {"p": 0.5, "x": [1.0, 1.0]}],
}
BINARY = {"type": "finite", "atoms": [{"p": 1.0, "x": [0.0, 0.0]}]}
HEAVY_TAIL = {"type": "log_divergent", "a": 1.5, "n_max": 1_000_000}

# alphas of the exact identity suite in the acceptance gate (criterion c01)
C01_ALPHAS = "0,1,-0.5"
C01_ALPHAS_QUAD = "0,1,-0.5,5"

DISCARD_LIMIT = 0.01
REF_TOL = 1e-12


@dataclass
class Op:
    """One brwlab command and the check of its artifact.

    ``check(code, out_path)`` returns a list of failure messages; an
    empty list means the command succeeded.
    """

    argv: list[str]
    out: Path
    check: Callable[[int, Path], list[str]]


@dataclass
class Pass:
    ops: list[Op]
    models: dict[str, dict]  # file name -> model JSON
    spine_alphas: dict[str, float]  # model file -> alpha used by spined ops
    heavy_tail_csv: Path | None = None
    probe_law: dict | None = None  # law of the ungated oracle probe


# ---------------------------------------------------------------------------
# exact references, computed here independently of brwlab
# ---------------------------------------------------------------------------


def _pgf_iterate(model: dict, depth: int) -> float:
    """P[Z_depth = 0]: the depth-fold generating-function iterate at 0."""
    s = 0.0
    for _ in range(depth):
        s = math.fsum(a["p"] * s ** len(a["x"]) for a in model["atoms"])
    return s


def _generation_size_law(model: dict, depth: int) -> list[float]:
    """Exact distribution of Z_depth for a finite model, by convolution."""
    atoms = model["atoms"]
    top = max(len(a["x"]) for a in atoms)
    brood = [0.0] * (top + 1)
    for a in atoms:
        brood[len(a["x"])] += a["p"]
    dist = [0.0, 1.0]
    for _ in range(depth):
        new = [0.0] * ((len(dist) - 1) * top + 1)
        power = [1.0]  # law of the sum of j broods, j = 0, 1, ...
        for j, pj in enumerate(dist):
            if j:
                power = _convolve(power, brood)
            for k, q in enumerate(power):
                new[k] += pj * q
        dist = new
    return dist


def _convolve(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _alive_min_z_mean(model: dict, depth: int, k: int) -> float:
    """E[min(Z_depth, k); Z_depth > 0], the importance identity's reference."""
    dist = _generation_size_law(model, depth)
    return math.fsum(min(z, k) * p for z, p in enumerate(dist) if z > 0)


def _extinct_outcomes(model: dict, depth: int) -> int:
    """Number of depth-``depth`` enumeration outcomes with no generation-``depth`` node."""
    e = 0
    for _ in range(depth):
        e = sum(e ** len(a["x"]) for a in model["atoms"])
    return e


def expected_verify_outcomes(brwlab, model: dict, depth: int) -> dict[str, int]:
    """Outcomes each of the six identity checks must report."""
    law = brwlab.law_from_json(model)
    count = brwlab.count_outcomes
    spined = brwlab.count_spined_outcomes(law, depth)
    return {
        "spine_density": spined,
        "tree_density": count(law, depth),
        "unit_mean": sum(count(law, n) for n in range(depth + 1)),
        "martingale": sum(count(law, n) for n in range(depth)),
        "inverse_martingale": sum(
            count(law, n) - _extinct_outcomes(model, n) for n in range(depth)
        ),
        "spine_step_mean": spined,
    }


# ---------------------------------------------------------------------------
# artifact checks
# ---------------------------------------------------------------------------


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _guarded(check):
    """Exit code first, then the artifact; a parse failure is a failed check."""

    def run(code: int, out: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            return check(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            return [f"artifact {out.name} unreadable: {e!r}"]

    return run


def _replicate_facts(payload: dict, reps: int) -> list[str]:
    errors = []
    if payload["n"] + payload["discarded"] != reps:
        errors.append(f"n {payload['n']} + discarded {payload['discarded']} != reps {reps}")
    if payload["discarded"] > DISCARD_LIMIT * reps:
        errors.append(f"discarded {payload['discarded']} of {reps} exceeds 1%")
    return errors


def check_mc_summary(reps: int, reference: float):
    @_guarded
    def check(out: Path) -> list[str]:
        payload = _read_json(out)
        errors = _replicate_facts(payload, reps)
        if payload["pass"] is not True:
            errors.append(f"band failed: estimate {payload['estimate']} vs {payload['reference_value']}")
        if abs(payload["reference_value"] - reference) > REF_TOL:
            errors.append(f"reference {payload['reference_value']} != exact {reference}")
        return errors

    return check


def check_scan(reps: int, grid: list[int]):
    @_guarded
    def check(out: Path) -> list[str]:
        payload = _read_json(out)
        errors = _replicate_facts(payload, reps)
        if payload["agrees"] is not True:
            errors.append(f"verdict {payload['verdict']} disagrees with {payload['classification']}")
        if payload["grid"] != grid:
            errors.append(f"grid {payload['grid']} != {grid}")
        return errors

    return check


def check_simulate(reps: int, depth: int):
    @_guarded
    def check(out: Path) -> list[str]:
        header, rows = _read_csv(out)
        if header != ["replicate", "n", "Z_n", "log_w"]:
            return [f"header {header}"]
        return _trajectory_facts(rows, reps, depth, lambda row: row[2] == "1" and float(row[3]) == 0.0)

    return check


def check_spine(reps: int, depth: int, zero_disp: Callable[[], float] | None = None):
    """Rows, the root row, and for a law with zero displacements
    (``zero_disp`` gives its ``log m``) ``spine_log_weight[k] == -k log m``."""

    @_guarded
    def check(out: Path) -> list[str]:
        header, rows = _read_csv(out)
        if header != ["replicate", "k", "S(v_k)", "spine_log_weight", "log_w"]:
            return [f"header {header}"]
        errors = _trajectory_facts(
            rows, reps, depth, lambda row: float(row[2]) == 0.0 and float(row[3]) == 0.0
        )
        if zero_disp is not None:
            log_m = zero_disp()
            bad = [
                row for row in rows
                if not math.isclose(float(row[3]), -int(row[1]) * log_m, rel_tol=1e-12, abs_tol=1e-12)
            ]
            if bad:
                errors.append(f"{len(bad)} rows with spine_log_weight != -k log m")
        return errors

    return check


def _trajectory_facts(rows, reps: int, depth: int, root_ok) -> list[str]:
    if len(rows) != reps * (depth + 1):
        return [f"{len(rows)} rows, expected reps x (depth+1) = {reps * (depth + 1)}"]
    expected = [(str(r), str(n)) for r in range(reps) for n in range(depth + 1)]
    if [(row[0], row[1]) for row in rows] != expected:
        return ["rows out of (replicate, generation) order"]
    if not all(root_ok(row) for row in rows[:: depth + 1]):
        return ["a generation-0 row is not the root"]
    return []


def check_verify(n_alphas: int, expected: dict[str, int]):
    @_guarded
    def check(out: Path) -> list[str]:
        rows = _read_json(out)
        errors = []
        if len(rows) != 6 * n_alphas:
            errors.append(f"{len(rows)} rows, expected {6 * n_alphas}")
        for row in rows:
            if row["pass"] is not True:
                errors.append(f"{row['check']} failed at alpha {row['alpha']}")
            if row["outcomes"] != expected[row["check"]]:
                errors.append(
                    f"{row['check']} reports {row['outcomes']} outcomes, "
                    f"expected {expected[row['check']]}"
                )
        return errors

    return check


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class _PassMaker:
    def __init__(self, workload: str, seed: int, index: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}:{index}")
        self.index = index
        self.dir = workdir
        self.ops: list[Op] = []
        self.models: dict[str, dict] = {}
        self.spine_alphas: dict[str, float] = {}

    def model(self, name: str, payload: dict) -> str:
        self.models[name] = payload
        return str(self.dir / name)

    def seed(self) -> str:
        return str(self.rng.getrandbits(63))

    def op(self, name: str, argv: list[str], check) -> Path:
        out = self.dir / name
        self.ops.append(Op(argv + ["--out", str(out)], out, check))
        return out


def _mean_w(b: _PassMaker, reps: int, workers: int) -> None:
    coin = b.model("coin_pair.json", COIN_PAIR)
    b.op(
        f"mean_w_w{workers}.json",
        ["mc", "--model", coin, "--estimator", "mean_w", "--alpha", "1", "--depth", "12",
         "--reps", str(reps), "--workers", str(workers), "--seed", b.seed()],
        check_mc_summary(reps, 1.0),
    )


def _simulate(b: _PassMaker, reps: int, workers: int) -> None:
    coin = b.model("coin_pair.json", COIN_PAIR)
    b.op(
        f"simulate_w{workers}.csv",
        ["simulate", "--model", coin, "--alpha", "1", "--depth", "10", "--reps", str(reps),
         "--workers", str(workers), "--seed", b.seed()],
        check_simulate(reps, 10),
    )


def _coin_spine(b: _PassMaker, reps: int, workers: int) -> None:
    coin = b.model("coin_pair.json", COIN_PAIR)
    b.spine_alphas["coin_pair.json"] = 1.0
    b.op(
        f"spine_coin_w{workers}.csv",
        ["spine", "--model", coin, "--alpha", "1", "--depth", "12", "--reps", str(reps),
         "--workers", str(workers), "--seed", b.seed()],
        check_spine(reps, 12),
    )


def _mc_plain(b: _PassMaker, ctx) -> None:
    _mean_w(b, 2000, 1)
    coin = b.model("coin_pair.json", COIN_PAIR)
    b.op(
        "extinction.json",
        ["mc", "--model", coin, "--estimator", "extinction", "--depth", "30", "--reps", "5000",
         "--seed", b.seed()],
        check_mc_summary(5000, _pgf_iterate(COIN_PAIR, 30)),
    )
    quad = b.model("quad_or_twin.json", QUAD_OR_TWIN)
    b.op(
        "scan.json",
        ["mc", "--model", quad, "--estimator", "triviality_scan", "--alpha", "5",
         "--depth-grid", "2,7,12", "--reps", "16", "--max-nodes", "8000000", "--seed", b.seed()],
        check_scan(16, [2, 7, 12]),
    )
    _simulate(b, 500, 1)


def _mc_spined(b: _PassMaker, ctx) -> Path:
    coin = b.model("coin_pair.json", COIN_PAIR)
    b.spine_alphas["coin_pair.json"] = 1.0
    b.op(
        "importance.json",
        ["mc", "--model", coin, "--estimator", "importance", "--functional", "min_z:2",
         "--alpha", "1", "--depth", "4", "--reps", "2000", "--seed", b.seed()],
        check_mc_summary(2000, _alive_min_z_mean(COIN_PAIR, 4, 2)),
    )
    _coin_spine(b, 200, 1)
    heavy = b.model("heavy_tail.json", HEAVY_TAIL)
    b.spine_alphas["heavy_tail.json"] = 0.0
    # This command's cost is the size of the largest size-biased brood
    # drawn, a law with tail ~ 1/(log n)^1.5 up to the n_max lump, so it
    # varies 100-fold between seeds and no affordable replicate count
    # averages it out.  Its seed therefore follows the pass index alone:
    # every run sees the same sequence of broods, lumps included.  The cap
    # sits above the n_max + 1 nodes of a lump brood, so none is refused.
    heavy_seed = random.Random(f"heavy_tail:{b.index}").getrandbits(63)
    return b.op(
        "spine_heavy.csv",
        ["spine", "--model", heavy, "--alpha", "0", "--depth", "1", "--reps", "20",
         "--max-nodes", str(HEAVY_TAIL["n_max"] + 2), "--seed", str(heavy_seed)],
        check_spine(20, 1, zero_disp=lambda: ctx.log_mean("heavy_tail.json")),
    )


def random_law(rng: random.Random) -> dict:
    """Three atoms with 0, 1 and 2 children; weights over their sum.

    Displacements lie on a quarter grid, where their sums are exact in
    binary floating point: ``check_spine_step_mean`` keys ray steps by a
    difference of float positions and fails spuriously otherwise (see
    ``ORACLE_PROBE``).
    """
    weights = [rng.randint(1, 9) for _ in range(3)]
    total = sum(weights)
    return {
        "type": "finite",
        "atoms": [
            {"p": w / total, "x": [rng.randint(-8, 8) / 4 for _ in range(k)]}
            for k, w in enumerate(weights)
        ],
    }


# Ungated probe of a known oracle defect, run after every verify_exact
# pass: (0.1 + 0.2) - 0.1 != 0.2 in floating point, so spine_step_mean
# reports a discrepancy on this law although the identity holds.
ORACLE_PROBE = {
    "type": "finite",
    "atoms": [{"p": 0.3, "x": []}, {"p": 0.3, "x": [0.1]}, {"p": 0.4, "x": [0.2, 0.7]}],
}


def _verify_exact(b: _PassMaker, ctx) -> None:
    cases = [
        ("random.json", random_law(b.rng), C01_ALPHAS, 3),
        ("binary.json", BINARY, "1", 10),
        ("coin_pair.json", COIN_PAIR, C01_ALPHAS, 4),
        ("quad_or_twin.json", QUAD_OR_TWIN, C01_ALPHAS_QUAD, 2),
    ]
    for name, model, alphas, depth in cases:
        path = b.model(name, model)
        expected = expected_verify_outcomes(ctx.brwlab, model, depth)
        b.op(
            f"verify_{name}",
            ["verify", "--model", path, "--alpha", alphas, "--depth", str(depth)],
            check_verify(len(alphas.split(",")), expected),
        )


def _mc_threads(b: _PassMaker, ctx) -> None:
    _mean_w(b, 1000, 2)
    _simulate(b, 300, 2)
    _coin_spine(b, 100, 2)


def build_pass(workload: str, seed: int, index: int, workdir: Path, ctx) -> Pass:
    """The commands of pass ``index`` of a workload run with ``seed``.

    ``ctx`` carries the imported ``brwlab`` package and the loaded laws
    that some checks read.
    """
    b = _PassMaker(workload, seed, index, workdir)
    heavy_csv = probe = None
    if workload == "mc_plain":
        _mc_plain(b, ctx)
    elif workload == "mc_spined":
        heavy_csv = _mc_spined(b, ctx)
    elif workload == "verify_exact":
        _verify_exact(b, ctx)
        probe = ORACLE_PROBE
    elif workload == "mc_threads":
        _mc_threads(b, ctx)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Pass(b.ops, b.models, b.spine_alphas, heavy_csv, probe)
