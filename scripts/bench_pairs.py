"""Run one benchmark workload from two source trees in alternating pairs and
compare their end-to-end metrics.

    python scripts/bench_pairs.py --a ../parent --b . --workload mc_plain \
        --seed 2029 --pairs 10 --seconds 25

First the script copies both trees into two sibling directories, ``a``
and ``b``, of one temporary directory, leaving out ``.git``,
``.perfbench_out`` and every ``__pycache__``, so that where a tree sits
cannot tell the sides apart; the copies go when the script ends.  Each run
is ``perfbench/run.py --workload W --seed S --seconds T`` of a copy,
started from its root, so each side runs its own, unchanged benchmark on
its own sources.  Before each run the script deletes that copy's
``src/brwlab/__pycache__`` and nothing else, so both sides compile brwlab
from source.
Pair ``i`` runs side A first when ``i`` is even and side B first when it
is odd.

For each end-to-end metric the script prints each side's median and
quartiles, the number of pairs in which B read lower, and whether B's gain
meets the rule for claiming one: B lower in at least nine tenths of the
pairs, ties counting for neither, and the medians apart by more than the
interquartile range of A's runs.  Every metric of the benchmark is better
lower.  It also prints per side how many runs read ``correct: true`` and
the totals of commands attempted and failed.  Right after each run it
reads the results file that the run wrote,
``.perfbench_out/results/<workload>-seed<S>-trace0.json`` in the copy, and
prints the side, pair, argv and failure text of every command that failed,
so a failure can be rerun from its own ``--seed``.  From the same file it
takes each command's median ``op_s`` across the run's passes, as
``wall_s`` sums them, and the summary prints per command, numbered in the
order of the workload's pass (``perfbench/workloads.py``), each side's
median of those over its runs, so that a change of ``wall_s`` can be
traced to the commands that moved.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def copy_trees(trees: dict[str, Path], parent: Path) -> dict[str, Path]:
    """Copies of ``trees``, side ``s`` at ``parent / s``, without ``.git``,
    ``.perfbench_out`` or bytecode."""
    ignore = shutil.ignore_patterns(".git", ".perfbench_out", "__pycache__")
    for side, tree in trees.items():
        shutil.copytree(tree, parent / side, ignore=ignore)
    return {side: parent / side for side in trees}


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run of ``tree``, parsed."""
    shutil.rmtree(tree / "src" / "brwlab" / "__pycache__", ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{tree}: benchmark failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def results(tree: Path, workload: str, seed: int) -> dict:
    """The results file that the last run of ``tree`` wrote."""
    path = tree / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def failure_lines(side: str, pair: int, tree: Path, workload: str, seed: int) -> list[str]:
    """One line per command that failed in the last run of ``tree``."""
    errors = results(tree, workload, seed)["errors"]
    return [f"{side} pair {pair} FAILED {argv}: {'; '.join(texts)}"
            for argv, texts in errors.items()]


def command_medians(tree: Path, workload: str, seed: int) -> list[float]:
    """Each command's median ``op_s`` across the passes of the last run of
    ``tree``."""
    passes = results(tree, workload, seed)["passes"]
    return [statistics.median(ops) for ops in zip(*(p["op_s"] for p in passes))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summary(a: list[dict], b: list[dict]) -> list[str]:
    """Report lines for runs ``a[i]`` and ``b[i]`` of pair ``i``."""
    lines = []
    pairs = len(a)
    for name in a[0]["metrics"]:
        unit = a[0]["metrics"][name]["unit"]
        va = [r["metrics"][name]["value"] for r in a]
        vb = [r["metrics"][name]["value"] for r in b]
        qa, qb = quartiles(va), quartiles(vb)
        lower = sum(y < x for x, y in zip(va, vb))
        met = 10 * lower >= 9 * pairs and qa[1] - qb[1] > qa[2] - qa[0]
        lines.append(
            f"{name} [{unit}]: A {qa[1]:.4g} (quartiles {qa[0]:.4g}-{qa[2]:.4g}), "
            f"B {qb[1]:.4g} (quartiles {qb[0]:.4g}-{qb[2]:.4g}), "
            f"B lower in {lower} of {pairs} pairs, gain rule {'met' if met else 'not met'}"
        )
    for i, (ops_a, ops_b) in enumerate(zip(zip(*(r["op_s"] for r in a)),
                                           zip(*(r["op_s"] for r in b)))):
        med_a, med_b = statistics.median(ops_a), statistics.median(ops_b)
        lines.append(f"command {i} op_s [s]: A {med_a:.4g}, B {med_b:.4g} "
                     f"({100 * (med_b / med_a - 1):+.1f}%)")
    for side, runs in (("A", a), ("B", b)):
        correct = sum(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        lines.append(f"{side}: {correct} of {len(runs)} runs correct, "
                     f"{failed} failed of {attempted} attempted")
    return lines


def pairs(sides: dict[str, Path], workload: str, seed: int, count: int,
          seconds: float) -> dict[str, list[dict]]:
    """Each side's runs of ``count`` alternating pairs, failures printed as
    they come."""
    runs: dict[str, list[dict]] = {"a": [], "b": []}
    for i in range(count):
        for side in ("ab" if i % 2 == 0 else "ba"):
            runs[side].append(run(sides[side], workload, seed, seconds))
            runs[side][-1]["op_s"] = command_medians(sides[side], workload, seed)
            for line in failure_lines(side.upper(), i, sides[side], workload, seed):
                print(line, flush=True)
        wall = {s: runs[s][-1]["metrics"]["wall_s"]["value"] for s in "ab"}
        print(f"pair {i}: wall_s A {wall['a']:.4f} B {wall['b']:.4f}", flush=True)
    return runs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="source tree of side A, the parent")
    parser.add_argument("--b", type=Path, required=True, help="source tree of side B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("give at least one pair")
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        runs = pairs(copy_trees(trees, Path(tmp)), args.workload, args.seed, args.pairs,
                     args.seconds)
    print(f"A {trees['a']}\nB {trees['b']}\n{args.workload} seed {args.seed}, "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(summary(runs["a"], runs["b"])))


if __name__ == "__main__":
    main()
