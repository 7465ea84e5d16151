#!/usr/bin/env python3
"""Run the exact identity suite over bundled models and print a table.

For every finite-support model and every requested tilt, enumerate all
outcomes to the requested depth and verify the six change-of-measure
identities.  Each row gives a check's maximum discrepancy and the
number of outcomes it enumerated; the seconds each (model, alpha) took go
to stderr, so the table itself stays deterministic.  Usage:

    python3 scripts/identity_suite.py [--alphas 0,1,-0.5] [--depth 2]
    python3 scripts/identity_suite.py --models models/coin_pair.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from brwlab import FiniteLaw, TooLargeError, load_law, run_verify

REPO = Path(__file__).resolve().parents[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", nargs="*", type=Path,
                        default=sorted((REPO / "models").glob("*.json")))
    parser.add_argument("--alphas", default="0,1,-0.5",
                        help="comma-separated tilt parameters")
    parser.add_argument("--depth", type=int, default=2)
    args = parser.parse_args()
    alphas = [float(a) for a in args.alphas.split(",")]

    header = (f"{'model':<18}{'alpha':>8}{'depth':>6}  {'check':<22}"
              f"{'max discrepancy':>18}{'outcomes':>12}  status")
    print(header)
    print("-" * len(header))
    for path in args.models:
        law = load_law(path)
        if not isinstance(law, FiniteLaw):
            print(f"{path.stem:<18}  (skipped: enumeration needs finite support)")
            continue
        for alpha in alphas:
            start = time.perf_counter()
            try:
                results = run_verify(law, alpha, args.depth)
            except TooLargeError as exc:
                print(f"{path.stem:<18}{alpha:>8.2f}{args.depth:>6}  "
                      f"(skipped: {exc})")
                continue
            elapsed = time.perf_counter() - start
            print(f"{path.stem} alpha={alpha:g} depth={args.depth}: {elapsed:.3f} s",
                  file=sys.stderr)
            for res in results:
                status = "ok" if res.passed else "FAIL"
                print(f"{path.stem:<18}{alpha:>8.2f}{args.depth:>6}  "
                      f"{res.check:<22}{res.max_discrepancy:>18.3e}"
                      f"{res.outcomes:>12}  {status}")
    print("\nall identities hold exactly (up to 1e-10) unless a FAIL row appears")


if __name__ == "__main__":
    main()
