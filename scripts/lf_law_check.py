#!/usr/bin/env python3
# Monte Carlo check of the linear-fractional coalescence laws: runs one
# stationary chain pass per horizon and prints the worst z-score of each
# statistic it scores.  A healthy model keeps every |z| under 4.

import argparse
import itertools
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

    failed = False
    print("horizon  statistic        rows  max|z|")
    for T in args.horizons:
        # one chain pass per horizon gives the rows of every statistic
        rows = mc_estimate("stationary", params, T, args.samples, args.seed, n_max=args.n_max)
        for statistic, group in itertools.groupby(rows, key=lambda r: r.statistic):
            group = list(group)
            zs = [abs(r.z_score) for r in group if r.z_score is not None]
            worst = max(zs, default=0.0)
            flag = "" if worst <= 4.0 else "  <-- FAIL"
            print(f"{T:7d}  {statistic:15s} {len(group):5d}  {worst:6.3f}{flag}")
            failed = failed or worst > 4.0
    sys.exit(3 if failed else 0)


if __name__ == "__main__":
    main()
