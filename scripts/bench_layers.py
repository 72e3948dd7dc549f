#!/usr/bin/env python3
"""Time library layers at two commits and merge the rows into a BENCH_*.json record.

    python3 scripts/bench_layers.py --base f32523f --head worktree --reps 11 --out BENCH_structure.json

Each commit is exported with ``git archive`` into a temporary directory
and timed in fresh Python processes with one BLAS thread, the two commits
alternating rep by rep so that a drift in machine speed hits both alike.
``--head worktree`` times the checked-out ``src/`` with its uncommitted
changes instead, recorded as ``<HEAD>-dirty``.

A record is ``{layer, case, sizes, seed, best_s, median_s, reps,
best_of, git_rev}``.  One rep times the whole case after a warm-up call,
as the best of as many calls as fit in BEST_OF_S (at most BEST_OF_MAX),
and ``best_of`` is the fewest calls any rep took: a case of about 10 ms
varies call to call by more than the 15% change it should resolve, so it
takes the best of 30 calls, while a case over BEST_OF_S takes one.
``best_s`` and ``median_s`` are over the reps' figures.  ``--out`` merges the new
rows into the file if it exists: a row with the same ``git_rev``, layer
and case is replaced where it stands, and the others are appended.  The
cases:

* ``eigen.solve_eigen`` on the 27-cell panel: centro, skew and palindromic
  Cauchy tensors at orders 2-4 and dims 2-4, 200 starts each, drawn the
  way the eig-survey benchmark draws its panel (in another order, so not
  the same tensors);
* ``eigen.solve_eigen`` at order 5, dim 8, 50 starts on a centro tensor;
  these two cases also record, in ``sizes``, the calls of
  ``eigen._stacked_residual`` in one run and the rows they held, counted
  in an untimed run;
* ``eigen.solve_eigen`` as tier-1's criterion 11 runs it: 100 centro
  tensors of dim 2 and orders 2-5 drawn from one generator seeded 111,
  each solved at 200 starts from that generator (the draws are timed too;
  they are a few percent of the case);
* ``core.contract_trailing`` of an order-5 dim-8 tensor on all four
  trailing slots, for stacks of 50 and 850 vectors; of its Jacobian
  tensor (``eigen._jacobian_tensor``) on three slots for 50 vectors; and
  of an order-4 dim-4 tensor on three slots for 200 vectors, the size of
  the eig-survey panel's residuals;
* ``eigen._newton_steps`` on the Newton stacks of one 200-start solve of
  an order-4 palindromic Cauchy tensor that hold an exactly singular
  system (recorded in the same process, so at the commit being timed);
* ``eigen._dedup`` on the converged stacks of the 27-cell panel's solves,
  five passes, and on the stack of the zero tensor at dim 2 with 2000
  starts, where every converged start is its own pair (the many-component
  worst case); both recorded in the same process, so at the commit being
  timed;
* ``eigen.reflect_pair`` on every pair of one 200-start solve of an
  order-4 dim-4 centro tensor, 20 times over;
* the three structure witnesses (``structure.check_structure``,
  ``check_via_J``, ``check_commutation``), ``structure.decompose`` and
  ``core.entry_scale`` on order-4 tensors of dims 36 (centro), 38 (skew)
  and 40 (general), the sizes the dense-kernels benchmark uses;
* ``product.shao_product`` of those three tensors by the exchange matrix J
  on either side (the exchange-matrix reversal), and of a centro by a skew
  order-3 dim-26 tensor (the contraction path, as dense-kernels runs it);
* ``cauchy.materialize`` at n = 20, m = 5 on a positive palindromic
  generating vector, as dense-kernels runs it;
* ``core.DenseTensor`` public construction (a copy of the caller's
  array, then the hypercube and finiteness checks) from the data of the
  three order-4 tensors and of an order-5 dim-26 array, the 11.9M-entry
  size of the order-3 product.  The library's own results skip both
  (``DenseTensor._adopt``), so this is the cost a caller's array pays.

The order-5 contractions are 20 calls per rep and the order-4 one 200;
the structure and J-product cases call each of the three tensors as often
as their ``calls`` size says.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
# Calls per rep: as many as fit in BEST_OF_S of the warm-up's time, at most BEST_OF_MAX.
BEST_OF_S = 0.3
BEST_OF_MAX = 30


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _palindrome(rng, n: int) -> np.ndarray:
    """Positive palindromic generating vector, as the eig-survey panel draws it."""
    half = rng.uniform(0.5, 2.0, size=(n + 1) // 2)
    return np.concatenate([half, half[: n // 2][::-1]])


def measure() -> list:
    """Time every case, the best of its calls after a warm-up, against the library on sys.path."""
    from centrotensor import cauchy, core, eigen, product, structure

    panel_rng, solve_rng = np.random.default_rng(SEED), np.random.default_rng(SEED + 1)
    panel = []
    for family in ("centro", "skew", "cauchy"):
        for order in (2, 3, 4):
            for dim in (2, 3, 4):
                if family == "cauchy":
                    spec = cauchy.CauchySpec(_palindrome(panel_rng, dim), order)
                    tensor = cauchy.materialize(spec)
                else:
                    seed = int(panel_rng.integers(2**32))
                    tensor = structure.random_structured(order, dim, family, seed)
                panel.append((tensor, int(solve_rng.integers(2**32))))

    def residual_work(fn) -> dict:
        """Calls and rows of eigen._stacked_residual in one untimed run of fn."""
        counts = {"residual_calls": 0, "residual_rows": 0}
        stacked_residual = eigen._stacked_residual

        def counting(data, zs):
            counts["residual_calls"] += 1
            counts["residual_rows"] += len(zs)
            return stacked_residual(data, zs)

        eigen._stacked_residual = counting
        fn()
        eigen._stacked_residual = stacked_residual
        return counts

    def solve_panel():
        return [eigen.solve_eigen(t, starts=200, seed=s) for t, s in panel]

    def solve_big():
        return eigen.solve_eigen(big, starts=50, seed=SEED)

    def criterion_11():
        rng = np.random.default_rng(111)
        for _ in range(100):
            tensor = structure.random_structured(int(rng.integers(2, 6)), 2, "centro", rng)
            eigen.solve_eigen(tensor, starts=200, seed=rng)

    big = structure.random_structured(5, 8, "centro", seed=SEED)
    data = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(8,) * 5)
    jac_data = eigen._jacobian_tensor(data)
    stacks = {s: np.random.default_rng(SEED).normal(size=(s, 8)) for s in (50, 850)}
    small = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(4,) * 4)
    small_stack = np.random.default_rng(SEED).normal(size=(200, 4))

    recorded = []
    newton_steps = eigen._newton_steps

    def recording(jac, rhs):
        if np.any(np.linalg.slogdet(jac)[0] == 0):
            recorded.append((jac.copy(), rhs.copy()))
        return newton_steps(jac, rhs)

    eigen._newton_steps = recording
    pal = cauchy.materialize(cauchy.CauchySpec(np.array([0.7, 1.9, 1.9, 0.7]), 4))
    eigen.solve_eigen(pal, starts=200, seed=SEED)
    eigen._newton_steps = newton_steps
    singular = sum(int(np.sum(np.linalg.slogdet(j)[0] == 0)) for j, _ in recorded)

    merge = eigen._dedup
    converged = []

    def recording_merge(lams, xs, res):
        converged.append((lams.copy(), xs.copy(), res.copy()))
        return merge(lams, xs, res)

    eigen._dedup = recording_merge
    for tensor, seed in panel:
        eigen.solve_eigen(tensor, starts=200, seed=seed)
    eigen.solve_eigen(core.DenseTensor(np.zeros((2, 2))), starts=2000, seed=SEED)
    eigen._dedup = merge
    zero_stack = converged.pop()

    mirror = structure.random_structured(4, 4, "centro", seed=SEED)
    pairs = eigen.solve_eigen(mirror, starts=200, seed=SEED).pairs

    witness_inputs = [
        structure.random_structured(4, dim, kind, seed=SEED)
        for kind, dim in (("centro", 36), ("skew", 38), ("general", 40))
    ]

    exchange = {t.dim: product.exchange_matrix(t.dim) for t in witness_inputs}
    dense_pair = [structure.random_structured(3, 26, kind, seed=SEED) for kind in ("centro", "skew")]
    cauchy_spec = cauchy.CauchySpec(_palindrome(np.random.default_rng(SEED), 20), 5)
    product_data = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(26,) * 5)

    def structure_case(layer, fn, calls):
        sizes = {"order": 4, "dims": [36, 38, 40], "calls": calls * len(witness_inputs)}
        return (layer, "order 4, dims 36/38/40", sizes,
                lambda: [fn(t) for t in witness_inputs for _ in range(calls)])

    cases = [
        ("eigen.solve_eigen", "27-cell panel",
         {"cells": 27, "orders": [2, 4], "dims": [2, 4], "starts": 200,
          **residual_work(solve_panel)},
         solve_panel),
        ("eigen.solve_eigen", "order-5 dim-8 centro",
         {"order": 5, "dim": 8, "starts": 50, **residual_work(solve_big)},
         solve_big),
        ("eigen.solve_eigen", "criterion 11: 100 dim-2 centro solves",
         {"solves": 100, "orders": [2, 5], "dim": 2, "starts": 200, "seed": 111},
         criterion_11),
        ("core.contract_trailing", "m=5 n=8 S=50",
         {"order": 5, "dim": 8, "stack": 50, "calls": 20},
         lambda: [core.contract_trailing(data, stacks[50], 4) for _ in range(20)]),
        ("core.contract_trailing", "m=5 n=8 S=850",
         {"order": 5, "dim": 8, "stack": 850, "calls": 20},
         lambda: [core.contract_trailing(data, stacks[850], 4) for _ in range(20)]),
        ("core.contract_trailing", "m=5 n=8 Jacobian tensor, 3 slots, S=50",
         {"order": 5, "dim": 8, "count": 3, "stack": 50, "calls": 20},
         lambda: [core.contract_trailing(jac_data, stacks[50], 3) for _ in range(20)]),
        ("core.contract_trailing", "m=4 n=4 S=200",
         {"order": 4, "dim": 4, "count": 3, "stack": 200, "calls": 200},
         lambda: [core.contract_trailing(small, small_stack, 3) for _ in range(200)]),
        ("eigen._newton_steps", "palindromic Cauchy m=4 n=4, singular stacks",
         {"stacks": len(recorded), "systems": sum(len(r) for _, r in recorded),
          "singular": singular},
         lambda: [newton_steps(j, r) for j, r in recorded]),
        ("eigen._dedup", "27-cell panel, converged stacks, 5 passes",
         {"stacks": len(converged), "pairs": sum(len(st[0]) for st in converged),
          "kept": sum(len(merge(*st)) for st in converged), "calls": 5 * len(converged)},
         lambda: [merge(*st) for _ in range(5) for st in converged]),
        ("eigen._dedup", "zero tensor dim 2, 2000 starts",
         {"pairs": len(zero_stack[0]), "kept": len(merge(*zero_stack))},
         lambda: merge(*zero_stack)),
        ("eigen.reflect_pair", "order-4 dim-4 centro, every pair 20 times",
         {"order": 4, "dim": 4, "pairs": len(pairs), "calls": 20 * len(pairs)},
         lambda: [eigen.reflect_pair(mirror, p) for _ in range(20) for p in pairs]),
        structure_case("structure.check_structure", structure.check_structure, 5),
        structure_case("structure.check_via_J", structure.check_via_J, 2),
        structure_case("structure.check_commutation", structure.check_commutation, 2),
        structure_case("structure.decompose", structure.decompose, 5),
        structure_case("core.entry_scale", core.entry_scale, 20),
        ("product.shao_product", "A*J and J*A, order 4, dims 36/38/40",
         {"order": 4, "dims": [36, 38, 40], "calls": 4 * len(witness_inputs)},
         lambda: [(product.shao_product(t, exchange[t.dim]), product.shao_product(exchange[t.dim], t))
                  for t in witness_inputs for _ in range(2)]),
        ("product.shao_product", "centro*skew, order 3, dim 26",
         {"order": 3, "dim": 26, "calls": 1},
         lambda: product.shao_product(*dense_pair)),
        ("cauchy.materialize", "n=20 m=5 palindrome",
         {"order": 5, "dim": 20, "calls": 5},
         lambda: [cauchy.materialize(cauchy_spec) for _ in range(5)]),
        structure_case("core.DenseTensor", lambda t: core.DenseTensor(t.data), 5),
        ("core.DenseTensor", "order 5, dim 26",
         {"order": 5, "dim": 26, "calls": 5},
         lambda: [core.DenseTensor(product_data) for _ in range(5)]),
    ]
    out = []
    for layer, case, sizes, fn in cases:
        calls = min(BEST_OF_MAX, max(1, int(BEST_OF_S / _timed(fn))))  # the warm-up
        best = min(_timed(fn) for _ in range(calls))
        out.append({"layer": layer, "case": case, "sizes": sizes, "s": best, "best_of": calls})
    return out


def _child(src: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--measure"],
        env=env, cwd=src.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def merge_records(path: Path, records: list) -> list:
    """The rows of `path`, if it exists, with `records` merged in.

    A row with the git_rev, layer and case of a new one is replaced where
    it stands; the other new rows follow in their order.
    """
    def key(rec):
        return rec["git_rev"], rec["layer"], rec["case"]

    new = {key(rec): rec for rec in records}
    old = json.loads(path.read_text()) if path.exists() else []
    return [new.pop(key(rec), rec) for rec in old] + list(new.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="parent commit")
    parser.add_argument("--head", help="changed commit")
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--out", help="record to merge the rows into, e.g. BENCH_structure.json")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not (args.base and args.head and args.out):
        parser.error("--base, --head and --out are required")

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for name in (args.base, args.head):
            commit = "HEAD" if name == "worktree" else name
            rev = subprocess.run(["git", "rev-parse", "--short", commit], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE, text=True).stdout.strip()
            if name == "worktree":
                trees[rev + "-dirty"] = ROOT / "src"
                continue
            tree = Path(tmp) / rev
            tree.mkdir()
            archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                                     stdout=subprocess.PIPE).stdout
            subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
            trees[rev] = tree / "src"
        # one rep per process, the commits alternating
        runs = {rev: [] for rev in trees}
        for rep in range(args.reps):
            order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
            for rev in order:
                runs[rev].append(_child(trees[rev]))
            print(f"rep {rep + 1}/{args.reps} done", file=sys.stderr, flush=True)
    for rev, per_rep in runs.items():
        for i, first in enumerate(per_rep[0]):
            times = [rep_cases[i]["s"] for rep_cases in per_rep]
            records.append({
                "layer": first["layer"], "case": first["case"], "sizes": first["sizes"],
                "seed": SEED, "best_s": min(times), "median_s": statistics.median(times),
                "reps": len(times), "best_of": min(r[i]["best_of"] for r in per_rep),
                "git_rev": rev,
            })
    Path(args.out).write_text(json.dumps(merge_records(Path(args.out), records), indent=1) + "\n")
    for rec in records:
        print(f"{rec['git_rev']}  {rec['layer']:30s} {rec['case']:45s} "
              f"best {rec['best_s'] * 1e3:9.3f} ms  median {rec['median_s'] * 1e3:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
