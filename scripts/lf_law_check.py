#!/usr/bin/env python3
# Monte Carlo check of the linear-fractional coalescence laws: runs the
# stationary chain at several horizons and prints worst z-scores per
# statistic.  A healthy model keeps every |z| under 4.

import argparse
import sys

from mtcpp.harness import mc_estimate
from mtcpp.lf import LFParams


def main():
    parser = argparse.ArgumentParser(description="stationary-law validation sweep")
    parser.add_argument("params", help="LF parameter JSON file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=50_000)
    parser.add_argument("--horizons", type=int, nargs="+", default=[10, 20, 30])
    parser.add_argument("--n-max", type=int, default=5)
    args = parser.parse_args()

    with open(args.params) as fh:
        params = LFParams.from_json(fh.read())

    statistics = ["a_stationary"] + [
        f"b_stationary:{ell}" for ell in range(1, params.k + 1)
    ]
    failed = False
    print("horizon  statistic        rows  max|z|")
    for T in args.horizons:
        for statistic in statistics:
            rows = mc_estimate(
                statistic, params, T, args.samples, args.seed, n_max=args.n_max
            )
            zs = [abs(r.z_score) for r in rows if r.z_score is not None]
            worst = max(zs, default=0.0)
            flag = "" if worst <= 4.0 else "  <-- FAIL"
            print(f"{T:7d}  {statistic:15s} {len(rows):5d}  {worst:6.3f}{flag}")
            failed = failed or worst > 4.0
    sys.exit(3 if failed else 0)


if __name__ == "__main__":
    main()
