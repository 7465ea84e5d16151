"""brwlab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload mc_plain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the repository root.  A run repeats passes until ``--seconds``
have gone by (at least ``MIN_PASSES``).  Each pass is one fresh process
(``worker.py``) that sets up brwlab and runs the workload's command list
once; pass ``p`` of seed ``s`` always gets the same inputs, and inputs
differ between passes.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the sum over
the workload's commands of each command's median time across passes (so
one expensive input moves one pass, not the sum); ``setup_s``, the median
time to import brwlab, write and load the model files and fill the lazy
tables; and ``peak_rss_mb``, the median peak resident memory of a pass
process.  Times are scaled to a reference host speed (see ``worker.py``).
``--trace 1`` runs each pass untraced and then traced on the same inputs,
replays the first traced pass to check that its census of exact counts
repeats, and reports per-layer medians (raw seconds) plus
``trace_overhead_s``, the traced ``wall_s`` minus the untraced one.

Every command's artifact is checked (see ``workloads.py``); the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``, where
``failed / attempted`` is the error rate.  Run facts, per-pass records
and two ungated defect reports (heavy-tail truncation bias, oracle float
keying) go to ``.perfbench_out/results/``, never into brwlab artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracing import CENSUS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
WORKER_TIMEOUT_S = 120
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed brwlab command)."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _run_pass(workload: str, seed: int, index: int, trace: bool, tag: str) -> dict:
    workdir = OUT / workload / f"seed{seed}-trace{int(trace)}" / f"p{index}{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(index),
           str(workdir), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index}{tag} exceeded {WORKER_TIMEOUT_S}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {index}{tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["stderr"] = proc.stderr[-2000:]
    return result


def _passes(workload: str, seed: int, seconds: float, trace: bool):
    """Worker results as (untraced, traced, replay of traced pass 0)."""
    shutil.rmtree(OUT / workload / f"seed{seed}-trace{int(trace)}", ignore_errors=True)
    untraced, traced, replay = [], [], None
    start = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append(_run_pass(workload, seed, index, False, ""))
        if trace:
            traced.append(_run_pass(workload, seed, index, True, "t"))
            if index == 0:
                replay = _run_pass(workload, seed, index, True, "r")
        index += 1
    return untraced, traced, replay


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": _commit(),
        "seed": seed,
        "src_lines": _src_lines(),
    }


def _heavy_tail_bias(results: list[dict]) -> dict | None:
    parts = [r["heavy_tail_bias"] for r in results if r.get("heavy_tail_bias")]
    if not parts:
        return None
    count = sum(p["inv_w1_count"] for p in parts)
    return {
        "mean_inv_w1": sum(p["inv_w1_sum"] for p in parts) / count,
        "replicates": count,
        "reference": 1.0,
        "ideal_over_truncated_mean": parts[0]["ideal_over_truncated_mean"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "brwlab" / "__init__.py").is_file():
        raise BenchError(f"no brwlab sources under {ROOT / 'src'}")
    untraced, traced, replay = _passes(workload, seed, seconds, trace)
    everything = untraced + traced + ([replay] if replay else [])
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    errors = {k: v for r in everything for k, v in r["errors"].items()}

    def median(results, key):
        return statistics.median(r[key] for r in results)

    def wall(results):
        """Sum over commands of each command's median time across passes."""
        return sum(statistics.median(ops) for ops in zip(*(r["op_s"] for r in results)))

    census_ok = True
    if trace:
        census_ok = replay["census"] == traced[0]["census"]
        metrics = {
            name: _metric(statistics.median(r["layers"][name] for r in traced), layer_unit(name))
            for name in traced[0]["layers"]
        }
        metrics["trace_overhead_s"] = _metric(wall(traced) - wall(untraced), "s")
    else:
        values = {
            "wall_s": wall(untraced),
            "setup_s": median(untraced, "setup_s"),
            "peak_rss_mb": median(untraced, "peak_rss_mb"),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    report = {
        "workload": workload,
        "trace": trace,
        "facts": _facts(seed),
        "correct": failed == 0 and census_ok,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": errors,
        "census_repeats": census_ok,
        "census": {k: traced[0]["census"][k] for k in CENSUS} if trace else None,
        "metrics": metrics,
        "heavy_tail_bias": _heavy_tail_bias(everything),
        "oracle_probe": next((r["oracle_probe"] for r in everything if r["oracle_probe"]), None),
        "passes": [
            {k: r[k] for k in ("setup_s", "op_s", "raw_setup_s", "raw_op_s", "peak_rss_mb",
                               "failed", "artifact_bytes")}
            for r in untraced
        ],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _print_report(report: dict) -> None:
    facts = report["facts"]
    print(f"workload {report['workload']}  seed {facts['seed']}  passes {len(report['passes'])}  "
          f"nproc {facts['nproc']}  python {facts['python']}  numpy {facts['numpy']}  "
          f"commit {facts['commit'][:12]}  src_lines {facts['src_lines']}")
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {report['error_rate']:.6g} ({report['failed']}/{report['attempted']})")
    for argv, failures in report["errors"].items():
        print(f"  FAILED {argv}: {'; '.join(failures)}")
    if report["census"] is not None:
        print(f"  census {'repeats' if report['census_repeats'] else 'DIFFERS'}: {report['census']}")
    bias = report["heavy_tail_bias"]
    if bias:
        print(f"  heavy_tail bias (ungated): mean exp(-log W_1) {bias['mean_inv_w1']:.4f} "
              f"over {bias['replicates']} replicates, reference 1.0; ideal/truncated mean "
              f"{bias['ideal_over_truncated_mean']:.4f}")
    probe = report["oracle_probe"]
    if probe:
        print(f"  oracle probe (ungated): {probe['check']} on a non-dyadic law "
              f"{'passes' if probe['passed'] else 'FAILS'}, discrepancy {probe['max_discrepancy']:.3g}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one table of the end-to-end metrics."""
    rows, code = [], 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = 1
            continue
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    if not trace:
        names = list(END_TO_END)
        print("\n" + f"{'workload':14s}" + "".join(f"{n + ' [' + END_TO_END[n] + ']':>20s}" for n in names)
              + f"{'error_rate':>14s}")
        for workload, res in rows:
            cells = "".join(f"{res['metrics'][n]['value']:20.4f}" for n in names)
            print(f"{workload:14s}{cells}{res['failed'] / res['attempted']:14.4f}")
    return code


def main() -> int:
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the pass process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    _print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
