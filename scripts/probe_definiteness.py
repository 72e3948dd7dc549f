#!/usr/bin/env python3
"""Empirical probe: how far are random even-order centro tensors from
positive definite?

Positive definiteness of an even-order tensor means f(x) = A x^m > 0 for
every nonzero x.  This script estimates, per trial, the minimum of f over
random unit vectors and the smallest eigenvalue the multistart solver
finds, then reports how large a multiple of the identity tensor must be
added before both probes turn positive.  Purely exploratory; no claim
beyond the sampled evidence.
"""

import argparse

import numpy as np

from centrotensor import (
    DenseTensor,
    add,
    random_structured,
    scale,
    solve_eigen,
)
from centrotensor.core import contract_trailing


def min_form_on_sphere(a, samples, rng):
    # one (samples, dim) block is the same stream as one draw per sample
    xs = rng.normal(size=(samples, a.dim))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    return contract_trailing(a.data, xs, a.order).min()


def probe(order, dim, rng, samples, starts):
    a = random_structured(order, dim, "centro", rng)
    fmin = min_form_on_sphere(a, samples, rng)
    values = solve_eigen(a, starts=starts, seed=rng).values()
    lam_min = min(values) if values else np.nan
    shift = None
    if fmin <= 0.0:
        # on the unit sphere the identity form sum x_i^m dips to n^(1-m/2)
        shift = (0.1 - fmin) * dim ** (order / 2 - 1)
        shifted = add(a, scale(DenseTensor.identity(order, dim), shift))
        if min_form_on_sphere(shifted, samples, rng) <= 0.0:
            shift = np.nan  # sampled estimate was not enough
    return fmin, lam_min, shift


def nan_cell(reduce, values, width):
    """reduce(values) for a NaN-skipping numpy reducer, or '-' when every value is NaN or there are none."""
    return f"{'-':>{width}}" if np.all(np.isnan(values)) else f"{reduce(values):>{width}.4f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=8, help="tensors per cell")
    parser.add_argument("--samples", type=int, default=400, help="unit vectors per tensor")
    parser.add_argument("--starts", type=int, default=30)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print(f"{'m':>2} {'n':>2} {'definite':>9} {'min f':>10} {'min lambda':>11} {'avg shift':>10}")
    for order in (2, 4):
        for dim in (2, 3, 4):
            definite = 0
            fmins, lmins, shifts = [], [], []
            for _ in range(args.trials):
                fmin, lam_min, shift = probe(order, dim, rng, args.samples, args.starts)
                fmins.append(fmin)
                lmins.append(lam_min)
                if shift is not None:
                    shifts.append(shift)
                if fmin > 0.0:
                    definite += 1
            print(
                f"{order:>2} {dim:>2} {definite:>6}/{args.trials:<2} "
                f"{np.min(fmins):>10.4f} {nan_cell(np.nanmin, lmins, 11)} {nan_cell(np.nanmean, shifts, 10)}"
            )


if __name__ == "__main__":
    main()
