#!/usr/bin/env python3
"""Survey eigenvector symmetry classes across random structured tensors.

For each (order, dim) cell this samples centro and skew tensors, runs the
multistart solver and tallies how the found eigenvectors classify; conv
counts the converged starts and kept the pairs the merge kept of them.
The expected picture: centro tensors produce symmetric / skew-symmetric
(or at worst abs-symmetric) eigenvectors at small dimension, and every
nonzero eigenvalue of a skew tensor shows up with its negation.
"""

import argparse
from collections import Counter

import numpy as np

from centrotensor import random_structured, reflect_pair, solve_eigen


def survey_cell(order, dim, kind, trials, starts, rng):
    classes = Counter()
    converged = 0
    pairs_found = 0
    mirrored_ok = 0
    mirrored_total = 0
    for _ in range(trials):
        a = random_structured(order, dim, kind, rng)
        result = solve_eigen(a, starts=starts, seed=rng)
        converged += result.stats.converged
        for pair in result.pairs:
            pairs_found += 1
            classes[pair.classification] += 1
            if kind == "skew" and abs(pair.value) <= 1e-8:
                continue
            mirrored_total += 1
            mirrored = reflect_pair(a, pair, tol=1e-8)
            expected = pair.value if kind == "centro" else -pair.value
            if abs(mirrored.value - expected) <= 1e-8:
                mirrored_ok += 1
    return converged, pairs_found, classes, mirrored_ok, mirrored_total


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=10, help="tensors per cell")
    parser.add_argument("--starts", type=int, default=20)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'kind':6} {'m':>2} {'n':>2} {'conv':>6} {'kept':>6} {'sym':>5} {'skew':>5} "
          f"{'abs':>5} {'other':>6} {'reflect':>9}")
    for kind in ("centro", "skew"):
        for order in (2, 3, 4):
            for dim in (2, 3, 4):
                conv, pairs, classes, mok, mtot = survey_cell(
                    order, dim, kind, args.trials, args.starts, rng
                )
                reflect = f"{mok}/{mtot}" if mtot else "-"
                print(
                    f"{kind:6} {order:>2} {dim:>2} {conv:>6} {pairs:>6} "
                    f"{classes['symmetric']:>5} {classes['skew-symmetric']:>5} "
                    f"{classes['abs-symmetric']:>5} {classes['neither']:>6} {reflect:>9}"
                )


if __name__ == "__main__":
    main()
