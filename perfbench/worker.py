"""One pass of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED PASS_INDEX WORKDIR TRACE

Set-up (timed as ``setup_s``): import brwlab, write and load the pass's
model files, fill the lazy sampling tables.  Timed phase (``wall_s``):
every command of the pass through ``brwlab.cli.main(argv)``, in order.
Then, untimed: peak resident memory, the artifact checks and, with
TRACE=1, the per-layer metrics of the spans recorded during the timed
phase.  The last stdout line is one JSON object with the results.

Shared hosts change speed by up to 1.6x every few seconds, and a run
lasts seconds, so raw times cannot resolve a 25% change between runs.
A fixed calibration kernel (no brwlab code) therefore runs after
set-up and after every command, and each command's time is
scaled by ``CAL_REF_S`` over the mean of the two calibrations around it,
giving seconds at the reference speed (``op_s``, ``setup_s``).  The raw
times are reported next to them (``raw_op_s``, ``raw_setup_s``).
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import CENSUS, Tracer, layer_metrics  # noqa: E402
from workloads import build_pass  # noqa: E402


CAL_REF_S = 0.03  # calibration time on a 2 GHz Xeon host in its fast phase


def calibrate(np) -> float:
    """Seconds for a fixed interpreter loop plus numpy calls on tiny arrays.

    Of the kernels tried (interpreter loop, numpy calls on tiny, on
    cache-sized and on 8 MB arrays, tuple and list churn), this pair's
    slowdown tracked the slowdown of the brwlab commands most closely.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(120_000):
        acc += i * i
        table[i & 255] = acc
    a = np.arange(12, dtype=np.float64)
    counts = np.array([1, 2, 0, 3] * 3)
    for _ in range(1500):
        np.cumsum(np.repeat(a, counts))
        np.searchsorted(a, 3.5)
    return time.perf_counter() - t0


class Context:
    """What the checks need from the program under test."""

    def __init__(self, brwlab):
        self.brwlab = brwlab
        self.laws: dict[str, object] = {}

    def log_mean(self, model: str) -> float:
        return math.log(self.brwlab.tilted_mass(self.laws[model], 0.0))


def _setup(workload: str, seed: int, index: int, workdir: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import brwlab
    import brwlab.cli
    from brwlab.spine import _spine_tables

    ctx = Context(brwlab)
    plan = build_pass(workload, seed, index, workdir, ctx)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, model in plan.models.items():
        (workdir / name).write_text(json.dumps(model))
        law = brwlab.validate_law(brwlab.load_law(str(workdir / name)))
        if isinstance(law, brwlab.FiniteLaw):
            law._tables
        else:
            law._exact, law._cdf
        if name in plan.spine_alphas:
            _spine_tables(law, plan.spine_alphas[name])
        ctx.laws[name] = law
    return brwlab.cli, ctx, plan


def _run(cli, argv: list[str]) -> int:
    try:
        cli.main(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except Exception:  # an escaped traceback is a failed command, not a crash
        traceback.print_exc()
        return -1
    return 0


def _heavy_tail_bias(ctx: Context, plan) -> dict | None:
    """Mean of exp(-log W_1) over the heavy-tail spine rows (reference 1.0),
    and the ideal-to-truncated mean ratio that biases it."""
    if plan.heavy_tail_csv is None or not plan.heavy_tail_csv.exists():
        return None
    rows = plan.heavy_tail_csv.read_text().splitlines()[1:]
    inv_w = [math.exp(-float(r.split(",")[4])) for r in rows if r.split(",")[1] == "1"]
    exact = ctx.laws["heavy_tail.json"]._exact
    return {
        "inv_w1_sum": math.fsum(inv_w),
        "inv_w1_count": len(inv_w),
        "reference": 1.0,
        "ideal_over_truncated_mean": exact.mean / exact.truncated_mean,
    }


def _oracle_probe(ctx: Context, plan) -> dict | None:
    """spine_step_mean on a law with non-dyadic displacements, ungated."""
    if plan.probe_law is None:
        return None
    brwlab = ctx.brwlab
    res = brwlab.check_spine_step_mean(brwlab.law_from_json(plan.probe_law), 1.0, 2)
    return {"check": res.check, "passed": res.passed, "max_discrepancy": res.max_discrepancy}


def main(argv: list[str]) -> int:
    workload, seed, index, workdir, trace = argv
    seed, index, workdir, trace = int(seed), int(index), Path(workdir), trace == "1"

    t0 = time.perf_counter()
    cli, ctx, plan = _setup(workload, seed, index, workdir)
    raw_setup_s = time.perf_counter() - t0
    np = sys.modules["numpy"]
    cal = calibrate(np)
    setup_s = raw_setup_s * CAL_REF_S / cal

    tracer = Tracer()
    if trace:
        tracer.install()
    codes, raw_op_s, op_s = [], [], []
    for op in plan.ops:
        span = tracer.open("cli.main") if trace else None
        t0 = time.perf_counter()
        codes.append(_run(cli, op.argv))
        seconds = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        cal_after = calibrate(np)
        raw_op_s.append(seconds)
        op_s.append(seconds * CAL_REF_S / ((cal + cal_after) / 2))
        cal = cal_after
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = {}
    for op, code in zip(plan.ops, codes):
        failures = op.check(code, op.out)
        if failures:
            errors[" ".join(op.argv)] = failures
    artifact_bytes = sum(op.out.stat().st_size for op in plan.ops if op.out.exists())
    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "raw_setup_s": raw_setup_s,
        "raw_op_s": raw_op_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(plan.ops),
        "failed": len(errors),
        "errors": errors,
        "artifact_bytes": artifact_bytes,
        "heavy_tail_bias": _heavy_tail_bias(ctx, plan),
        "oracle_probe": _oracle_probe(ctx, plan),
    }
    if trace:
        layers = layer_metrics(tracer.spans, artifact_bytes)
        result["layers"] = layers
        result["census"] = {k: layers[k] for k in CENSUS}
        with open(workdir / "spans.jsonl", "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
