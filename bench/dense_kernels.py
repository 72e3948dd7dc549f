"""dense-kernels: few, large numpy contractions with little Python around them.

* the three structure witnesses and ``decompose`` on order-4 tensors of
  dims 36 (centro), 38 (skew) and 40 (general);
* ``shao_product`` of order-3 dim-26 tensors, all four centro/skew
  pairings, so the result (order 5, 11.9M entries) checks the parity table;
* Cauchy ``materialize`` at n=20, m=5, which runs the ``validate_spec``
  multiset loop;
* ``solve_eigen`` at order 5, dim 8, 50 starts, on a centro and a skew
  tensor in turn, with fresh start seeds each round.

The two order-5 tensors come from the fixed panel of eig_survey
(PANEL_SEED), for the same reason as there; the workload seed drives
their start seeds.  Solving each tensor several times makes ``eigenpairs``
the union of what 3-4 solves found, which varies far less with the start
seeds than the pairs of single 50-start solves.
"""

from __future__ import annotations

import numpy as np

from centrotensor import cauchy, eigen, product, structure

import checks
from eig_survey import PANEL_SEED, palindrome
from harness import Op, Workload, rounds_for

ROUND_SECONDS = 2.8
WITNESS_INPUTS = (("centro", 36), ("skew", 38), ("neither", 40))
WITNESSES = ("check_structure", "check_via_J", "check_commutation")
PRODUCT_DIM = 26
PRODUCT_PAIRS = (("centro", "centro"), ("skew", "centro"), ("centro", "skew"), ("skew", "skew"))
CAUCHY_DIM, CAUCHY_ORDER = 20, 5
EIGEN_ORDER, EIGEN_DIM, EIGEN_STARTS = 5, 8, 50
# Median time of one reference_kernel() call on the reference machine.
REFERENCE_S = 0.0024


def reference_kernel():
    """Read-only passes over an 8 MB array and one matrix product into a
    preallocated buffer, no library code.  Allocating nothing keeps its time
    independent of the heap state the operations leave behind."""
    rng = np.random.default_rng(0)
    stream = rng.random(1_000_000)
    left, right, product = rng.random((400, 20)), rng.random((20, 400)), np.empty((400, 400))

    def work():
        stream.dot(stream)
        stream.max()
        stream.sum()
        np.matmul(left, right, out=product)

    return work


def _random(order, dim, kind, rng):
    return structure.random_structured(
        order, dim, "general" if kind == "neither" else kind, int(rng.integers(2**32))
    )


def build(seed: int, seconds: float, tmp) -> Workload:
    rng = np.random.default_rng(seed)
    rounds = rounds_for(seconds, ROUND_SECONDS)
    witness_inputs = [(kind, _random(4, dim, kind, rng)) for kind, dim in WITNESS_INPUTS]
    factors = {kind: _random(3, PRODUCT_DIM, kind, rng) for kind in ("centro", "skew")}
    generating = palindrome(rng, CAUCHY_DIM)
    spec = cauchy.CauchySpec(generating, CAUCHY_ORDER)
    panel = np.random.default_rng(PANEL_SEED)
    eigen_tensors = [(kind, _random(EIGEN_ORDER, EIGEN_DIM, kind, panel)) for kind in ("centro", "skew")]
    eigen_inputs = [eigen_tensors[r % 2] + (int(rng.integers(2**32)),) for r in range(rounds)]
    check_rng = np.random.default_rng([seed, 1])
    ledger = checks.PairLedger()

    def check_verdict(kind, out):
        checks.require(out.verdict == checks.VERDICTS[kind], f"verdict {out.verdict}, built {kind}")

    def check_decompose(tensor, out):
        data = tensor.data
        tol = 1e-12 * checks.scale(data)
        gap = float(np.max(np.abs(out.centro.data + out.skew.data - data)))
        checks.require(gap <= tol, f"decompose parts miss the input by {gap:.3e}")
        checks.require(checks.flip_deviation(out.centro.data)[0] <= tol, "centro part fails flip test")
        checks.require(checks.flip_deviation(out.skew.data)[1] <= tol, "skew part fails flip test")

    def check_product(kind_a, kind_b, out):
        a, b, c = factors[kind_a].data, factors[kind_b].data, out.data
        rows = check_rng.choice(PRODUCT_DIM, size=2, replace=False)
        checks.check_product(a, b, c, rows, f"{kind_a}*{kind_b}")
        expected = checks.expected_parity(kind_a, kind_b, a.ndim)
        checks.check_kind(c, expected, 1e-10 * checks.scale(c), f"{kind_a}*{kind_b} parity")

    def check_cauchy(out):
        checks.check_cauchy(generating, out.data, check_rng, "cauchy n=20 m=5")
        checks.check_kind(out.data, "centro", 1e-12 * checks.scale(out.data), "cauchy n=20 m=5")

    def check_eigen(tensor, out):
        what = f"m={EIGEN_ORDER} n={EIGEN_DIM}"
        checks.check_solver_stats(out.stats.as_dict(), EIGEN_STARTS, len(out.pairs), what)
        for pair in out.pairs:
            checks.check_pair(tensor.data, pair.value, pair.vector, what)
            ledger.add(id(tensor), pair.value, pair.vector)

    ops = []
    for r in range(rounds):
        for kind, tensor in witness_inputs:
            for name in WITNESSES:
                ops.append(Op(
                    name,
                    lambda name=name, tensor=tensor: getattr(structure, name)(tensor),
                    lambda out, kind=kind: check_verdict(kind, out),
                ))
            ops.append(Op(
                "decompose",
                lambda tensor=tensor: structure.decompose(tensor),
                lambda out, tensor=tensor: check_decompose(tensor, out),
            ))
        for kind_a, kind_b in PRODUCT_PAIRS:
            ops.append(Op(
                "shao_product",
                lambda a=factors[kind_a], b=factors[kind_b]: product.shao_product(a, b),
                lambda out, ka=kind_a, kb=kind_b: check_product(ka, kb, out),
            ))
        ops.append(Op("materialize", lambda: cauchy.materialize(spec), check_cauchy))
        kind, tensor, solve_seed = eigen_inputs[r]
        ops.append(Op(
            "solve-m5-n8",
            lambda tensor=tensor, s=solve_seed: eigen.solve_eigen(tensor, starts=EIGEN_STARTS, seed=s),
            lambda out, tensor=tensor: check_eigen(tensor, out),
        ))

    small = _random(4, 4, "centro", rng)
    small_factor = _random(3, 4, "centro", rng)
    small_eigen = _random(EIGEN_ORDER, 2, "centro", rng)

    def warmup():
        for name in WITNESSES:
            getattr(structure, name)(small)
        structure.decompose(small)
        product.shao_product(small_factor, small_factor)
        cauchy.materialize(cauchy.CauchySpec(generating[:4], 3))
        eigen.solve_eigen(small_eigen, starts=5, seed=0)

    def check_inputs():
        for kind, tensor in witness_inputs:
            checks.check_kind(tensor.data, kind, 1e-12 * checks.scale(tensor.data), f"{kind} input")
        for kind, tensor in factors.items():
            checks.check_kind(tensor.data, kind, 1e-12, f"{kind} factor")
        for kind, tensor in eigen_tensors:
            checks.check_kind(tensor.data, kind, 1e-12, f"{kind} eigen input")

    return Workload(ops, warmup, check_inputs, ledger)
