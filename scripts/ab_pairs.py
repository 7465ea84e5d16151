"""Time one brwlab command from two source trees in alternating fresh-process pairs.

    python scripts/ab_pairs.py --a ../parent --b . --pairs 7 -- \
        mc --estimator triviality_scan --model models/coin_pair.json --alpha 2.776335222219809 \
        --reps 1000 --depth-grid 10,20,40,60,80 --max-nodes 4611686018427387904 --seed 1

Each run is a new interpreter with ``PYTHONPATH`` set to the tree's
``src``, started from the current directory, so relative model paths
name the same files for both sides.  No run writes bytecode, so a tree
keeps its ``__pycache__`` state, which the script prints per side: a
cached tree imports faster.  Pair ``i`` runs side A first when
``i`` is even and side B first when it is odd.  The script prints, per
side, the median and interquartile range of wall time, of the time the
child takes to import ``brwlab.cli`` (numpy and click included) and of
peak resident memory (``VmHWM``), the median count of minor page faults
(``ru_minflt`` of ``getrusage(RUSAGE_SELF)``; the child reads all three
itself), how many pairs side B was faster in, and the exit codes; with
``--out`` in the command, each run's artifact is kept as ``<out>.a<i>``
/ ``<out>.b<i>``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHILD = """
import json, resource, sys, time
start = time.perf_counter()
from brwlab.cli import _dispatch
import_s = time.perf_counter() - start
code = _dispatch(sys.argv[1:])
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"code": code, "rss_mb": kb / 1024, "minflt": faults, "import_s": import_s}))
"""


def run(tree: Path, argv: list[str]) -> tuple[float, float, int, int, float]:
    """Wall seconds, peak resident MB, minor page faults, exit code and
    import seconds of one run."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          env=env)
    seconds = time.perf_counter() - start
    if not proc.stdout:
        raise SystemExit(f"{tree}: no result\n{proc.stderr}")
    facts = json.loads(proc.stdout.strip().splitlines()[-1])
    return seconds, facts["rss_mb"], facts["minflt"], facts["code"], facts["import_s"]


def spread(values: list[float]) -> str:
    if len(values) == 1:
        return f"{values[0]:.4g}"
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} (IQR {q1:.4g}-{q3:.4g})"


def with_out(argv: list[str], suffix: str) -> list[str]:
    """``argv`` with the value after ``--out`` suffixed, if there is one."""
    out = list(argv)
    if "--out" in out:
        i = out.index("--out") + 1
        out[i] = f"{out[i]}.{suffix}"
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="source tree of side A")
    parser.add_argument("--b", type=Path, required=True, help="source tree of side B")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="brwlab arguments after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv or args.pairs < 1:
        parser.error("give at least one pair and a brwlab command after --")
    sides = {"a": args.a.resolve(), "b": args.b.resolve()}
    results: dict[str, list[tuple[float, float, int, int, float]]] = {"a": [], "b": []}
    for i in range(args.pairs):
        for side in ("ab" if i % 2 == 0 else "ba"):
            results[side].append(run(sides[side], with_out(argv, f"{side}{i}")))
    for side in "ab":
        cache = (sides[side] / "src" / "brwlab" / "__pycache__").exists()
        wall = [r[0] for r in results[side]]
        rss = [r[1] for r in results[side]]
        import_s = [r[4] for r in results[side]]
        faults = statistics.median(r[2] for r in results[side])
        codes = sorted({r[3] for r in results[side]})
        print(f"{side.upper()} {sides[side]} (src/brwlab/__pycache__ "
              f"{'present' if cache else 'absent'}): wall_s {spread(wall)}, "
              f"import_s {spread(import_s)}, "
              f"peak_mb {spread(rss)}, minor faults {faults:.0f}, exit codes {codes}")
    faster = sum(b[0] < a[0] for a, b in zip(results["a"], results["b"]))
    print(f"B faster in {faster} of {args.pairs} pairs")


if __name__ == "__main__":
    main()
