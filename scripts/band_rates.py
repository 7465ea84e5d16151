#!/usr/bin/env python3
"""Count how often a Monte Carlo estimator fails its four-sigma band.

Runs one estimator on one law under master seeds ``first-seed`` ..
``first-seed + seeds - 1`` and prints how many runs failed the band,
with the most extreme z-scores: ``z`` is the distance from the reference
in the band's standard errors, ``z_sample`` in the sample standard
errors.  On a sound implementation a failure should be a
once-per-tens-of-thousands event.  Usage:

    python3 scripts/band_rates.py --estimator importance --functional min_z:2 \\
        --model models/coin_pair.json --alpha 1 --depth 4 --reps 2000 --seeds 3000
"""

from __future__ import annotations

import argparse
from pathlib import Path

from brwlab import (
    McConfig,
    load_law,
    mc_extinction,
    mc_importance_identity,
    mc_mean_w,
    mc_spine_slope,
    parse_functional,
)

REPO = Path(__file__).resolve().parents[1]


def _run(args, law, seed: int):
    cfg = McConfig(replicates=args.reps, depth=args.depth, master_seed=seed)
    if args.estimator == "importance":
        return mc_importance_identity(law, args.alpha, parse_functional(args.functional), cfg)
    if args.estimator == "extinction":
        return mc_extinction(law, cfg)
    run = mc_mean_w if args.estimator == "mean_w" else mc_spine_slope
    return run(law, args.alpha, cfg)


def _z(gap: float, se: float) -> float:
    return gap / se if se else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--estimator", required=True,
                        choices=["importance", "mean_w", "spine_slope", "extinction"])
    parser.add_argument("--model", type=Path, default=REPO / "models" / "coin_pair.json")
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--functional", default="min_z:2")
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--seeds", type=int, default=1000)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    law = load_law(args.model)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        s = _run(args, law, seed)
        gap = s.estimate - s.reference
        runs.append((_z(gap, s.band_se), _z(gap, s.se), seed, s.passed))
    failed = [run for run in runs if not run[3]]
    print(f"{args.estimator} on {args.model.name}, alpha {args.alpha}, depth {args.depth}, "
          f"{args.reps} reps")
    print(f"band failures: {len(failed)} of {len(runs)}")
    print(f"{'seed':>20}{'z':>9}{'z_sample':>10}")
    runs.sort()
    for z, z_sample, seed, _ in runs if len(runs) <= 6 else runs[:3] + runs[-3:]:
        print(f"{seed:>20}{z:>+9.2f}{z_sample:>+10.2f}")


if __name__ == "__main__":
    main()
