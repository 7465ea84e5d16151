"""Run a fixed battery of brwlab commands from two source trees and compare
everything they produce, byte for byte.

    python scripts/artifact_cmp.py --a ../parent --b .

The battery covers every subcommand in JSON and in CSV, every ``mc``
estimator with ``--values-out``, heavy-tail ``classify``, ``spine`` and
``importance``, ``classify`` of three heavy-tail laws at the corners of
their domain, an ``importance`` run deep enough that its reference is a
plain-law Monte Carlo, one node-cap refusal each for ``simulate`` and
``spine``, two validation refusals and two ``verify`` refusals (too many
outcomes, an overflowing tilt), the four commands of the benchmark's
mc_plain workload at its sizes, large enough that batches split and
generations draw their uniforms in several chunks, mc_spined's coin_pair
``spine`` and ``importance`` (with ``--values-out``) at its sizes, and
``simulate`` and ``spine`` in JSON and in CSV at alpha 0 and -1 on a law
with negative displacements, ``models/signed.json``.  Each command runs
once per tree, in a new interpreter with ``PYTHONPATH`` set to the tree's
``src``, from a fresh working directory that holds a copy of this
repository's ``models/`` with ``signed.json`` added and, in ``corners/``,
the corner laws, so both sides read the same files under the same
relative paths.  The corner
laws' ``classify`` prints ``m``, the truncated mean that the lump at
``n_max`` enters, to the last digit, and one more child prints
``float.hex`` of every heavy-tail constant of the corner laws and of
``models/heavy_tail.json``, which no command prints to the last bit.
Each run's stdout, stderr, exit code and every file it wrote are
compared.  The script prints one line per command and exits 1, naming the
files that differ, if anything differs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_PAIR = ["--model", "models/coin_pair.json"]
_HEAVY = ["--model", "models/heavy_tail.json", "--alpha", "0"]
_HEAVY_RUN = ["--depth", "2", "--max-nodes", str(10**8), "--seed", "1"]
_SAMPLE = ["--alpha", "1", "--depth", "8", "--reps", "5", "--seed", "1"]
# (a, n_max): a just above one at the largest n_max, a at its limit at the
# smallest, and the first n_max whose truncated mean takes the tail series
_CORNERS = {"near-one": (1.0001, 10**7), "steep": (1000.0, 4), "past-head": (2.5, 4098)}
# displacements of both signs, so positions and weights take negative values
_SIGNED = {"type": "finite", "atoms": [{"p": 0.5, "x": [-1, 1]}, {"p": 0.5, "x": [-0.5]}]}
_MC = {
    "mean_w": ["--alpha", "1", "--depth", "8"],
    "spine_slope": ["--alpha", "1", "--depth", "8"],
    "extinction": ["--depth", "12"],
    "triviality_scan": ["--alpha", "1", "--depth-grid", "2,6,10"],
    "importance": ["--alpha", "1", "--depth", "4", "--functional", "min_z:2"],
}

# mc_plain's commands at the benchmark's sizes (perfbench/workloads.py)
_BENCH_PLAIN = {
    "mean_w": [*_PAIR, "--estimator", "mean_w", "--alpha", "1", "--depth", "12",
               "--reps", "2000"],
    "extinction": [*_PAIR, "--estimator", "extinction", "--depth", "30", "--reps", "5000"],
    "scan": ["--model", "models/quad_or_twin.json", "--estimator", "triviality_scan",
             "--alpha", "5", "--depth-grid", "2,7,12", "--reps", "16", "--max-nodes", "8000000"],
}

BATTERY: dict[str, list[str]] = {
    **{f"classify-{fmt}": ["classify", *_PAIR, "--alpha", "0:3:4", "--format", fmt,
                           "--out", "out"] for fmt in ("json", "csv")},
    **{f"verify-{fmt}": ["verify", *_PAIR, "--alpha", "1,-0.5", "--depth", "3",
                         "--format", fmt, "--out", "out"] for fmt in ("json", "csv")},
    **{f"{cmd}-{fmt}": [cmd, *_PAIR, *_SAMPLE, "--format", fmt, "--out", "out"]
       for cmd in ("simulate", "spine") for fmt in ("json", "csv")},
    **{f"mc-{name}-{fmt}": ["mc", *_PAIR, "--estimator", name, *args, "--reps", "200",
                            "--seed", "7", "--format", fmt, "--out", "out",
                            "--values-out", "values"]
       for name, args in _MC.items() for fmt in ("json", "csv")},
    "heavy-classify": ["classify", *_HEAVY],
    "heavy-spine": ["spine", *_HEAVY, *_HEAVY_RUN, "--reps", "20"],
    **{f"corner-{name}": ["classify", "--model", f"corners/{name}.json", "--alpha", "0"]
       for name in _CORNERS},
    "heavy-importance": ["mc", "--estimator", "importance", *_HEAVY, *_HEAVY_RUN,
                         "--functional", "one", "--reps", "200"],
    "deep-importance": ["mc", "--estimator", "importance", "--model",
                        "models/quad_or_twin.json", "--functional", "one", "--alpha", "1",
                        "--depth", "16", "--reps", "64", "--max-nodes", str(2**62),
                        "--seed", "1"],
    "simulate-cap": ["simulate", *_PAIR, "--alpha", "1", "--depth", "12", "--reps", "5",
                     "--seed", "1", "--max-nodes", "40", "--out", "out"],
    "spine-cap": ["spine", *_PAIR, "--alpha", "1", "--depth", "12", "--reps", "5",
                  "--seed", "1", "--max-nodes", "40", "--out", "out"],
    "verify-too-large": ["verify", *_PAIR, "--alpha", "1", "--depth", "9"],
    "verify-overflow": ["verify", *_PAIR, "--alpha=-1000", "--depth", "2"],
    "simulate-no-seed": ["simulate", *_PAIR, "--alpha", "1", "--depth", "3", "--reps", "2"],
    "mc-bad-estimator": ["mc", *_PAIR, "--estimator", "bogus", "--alpha", "1", "--depth", "2",
                         "--reps", "10", "--seed", "1"],
    **{f"bench-{name}": ["mc", *args, "--seed", "701", "--out", "out", "--values-out", "values"]
       for name, args in _BENCH_PLAIN.items()},
    "bench-simulate": ["simulate", *_PAIR, "--alpha", "1", "--depth", "10", "--reps", "500",
                       "--seed", "701", "--out", "out"],
    # mc_spined's coin_pair commands at the benchmark's sizes
    "bench-spine": ["spine", *_PAIR, "--alpha", "1", "--depth", "12", "--reps", "200",
                    "--seed", "701", "--out", "out"],
    "bench-importance": ["mc", *_PAIR, "--estimator", "importance", "--functional", "min_z:2",
                         "--alpha", "1", "--depth", "4", "--reps", "2000", "--seed", "701",
                         "--out", "out", "--values-out", "values"],
    **{f"signed-{cmd}-{alpha}-{fmt}": [cmd, "--model", "models/signed.json", "--alpha", alpha,
                                       "--depth", "8", "--reps", "20", "--seed", "3",
                                       "--format", fmt, "--out", "out"]
       for cmd in ("simulate", "spine") for alpha in ("0", "-1") for fmt in ("json", "csv")},
}

# prints float.hex of every field of the heavy-tail constants of the laws
# named on its command line
CONSTANTS = """
import json, sys
from brwlab.offspring import _log_family_exact
for path in sys.argv[1:]:
    law = json.load(open(path))
    exact = _log_family_exact(float(law["a"]), int(law["n_max"]))
    print(path, *(f"{name}={float(v).hex()}" for name, v in zip(exact._fields, exact)))
"""
# the child runs as ``python <args>``, the battery as ``python -m brwlab.cli <args>``
CHILDREN: dict[str, list[str]] = {
    "heavy-constants": ["-c", CONSTANTS, "models/heavy_tail.json",
                        *(f"corners/{name}.json" for name in _CORNERS)],
}


def run(tree: Path, argv: list[str], work: Path) -> dict[str, bytes]:
    """Stdout, stderr, exit code and written files of ``python <argv>`` in
    ``work``."""
    shutil.copytree(REPO / "models", work / "models")
    (work / "models" / "signed.json").write_text(json.dumps(_SIGNED))
    (work / "corners").mkdir()
    for name, (a, n_max) in _CORNERS.items():
        law = {"type": "log_divergent", "a": a, "n_max": n_max}
        (work / "corners" / f"{name}.json").write_text(json.dumps(law))
    # no bytecode is written, so the trees are left as they were
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *argv], cwd=work,
                          capture_output=True, env=env)
    found = {"stdout": proc.stdout, "stderr": proc.stderr,
             "exit code": str(proc.returncode).encode()}
    for path in sorted(work.iterdir()):
        if path.name not in ("models", "corners"):
            found[path.name] = path.read_bytes()
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="source tree of side A")
    parser.add_argument("--b", type=Path, required=True, help="source tree of side B")
    args = parser.parse_args()
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    runs = {**{label: ["-m", "brwlab.cli", *argv] for label, argv in BATTERY.items()},
            **CHILDREN}
    differ, compared = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in runs.items():
            found = {}
            for side, tree in trees.items():
                work = Path(tmp, side, label)
                work.mkdir(parents=True)
                found[side] = run(tree, argv, work)
            names = sorted(set(found["a"]) | set(found["b"]))
            bad = [name for name in names if found["a"].get(name) != found["b"].get(name)]
            compared += len(names)
            differ += [f"{label}: {name}" for name in bad]
            code = found["a"]["exit code"].decode()
            print(f"{label}: exit {code}, {len(names)} outputs, "
                  f"{'DIFFER ' + ', '.join(bad) if bad else 'identical'}")
    print(f"{len(runs)} commands, {compared} outputs compared, {len(differ)} differ")
    if differ:
        print("\n".join(differ))
        sys.exit(1)


if __name__ == "__main__":
    main()
