#!/usr/bin/env python3
"""Time library layers at two commits and merge the rows into BENCH_layers.json.

    python3 scripts/bench_layers.py --base HEAD --head worktree --reps 11

Each commit is exported with ``git archive`` into a temporary directory
and timed with one BLAS thread, each case in its own fresh Python process
that builds only that case's inputs, so no case runs on the allocator
state that other cases left.  The two commits alternate case by case, so
that a drift in machine speed hits both alike.
``--head worktree`` times the checked-out ``src/`` with its uncommitted
changes instead, recorded as ``<HEAD>-dirty``.  Both commits must be
f2f8568 or later (``serialize.read_tensor``, ``serialize.dumps`` of a
``DenseTensor``).

A record is ``{layer, case, sizes, seed, best_s, median_s, reps,
best_of, git_rev}``.  One rep times the whole case after a warm-up call,
as the best of as many calls as fit in BEST_OF_S (at most BEST_OF_MAX),
and ``best_of`` is the fewest calls any rep took: a case of about 10 ms
varies call to call by more than the 15% change it should resolve, so it
takes the best of 30 calls, while a case over BEST_OF_S takes one.
``best_s`` and ``median_s`` are over the reps' figures.  The new rows are
merged into RECORD: a row with the same ``git_rev``, layer and case is
replaced where it stands, and the others are appended.  The cases:

* ``eigen.solve_eigen`` on the 27-cell panel: centro, skew and palindromic
  Cauchy tensors at orders 2-4 and dims 2-4, 200 starts each, built by
  the eig-survey benchmark's ``Case`` (in another order, so not the same
  tensors);
* ``eigen.solve_eigen`` at order 5, dim 8, 50 starts on a centro tensor;
  these two cases also record, in ``sizes``, the calls of
  ``eigen._stacked_residual`` in one run and the rows they held, counted
  in an untimed run;
* ``eigen.solve_eigen`` as tier-1's criterion 11 runs it: 100 centro
  tensors of dim 2 and orders 2-5 drawn from one generator seeded 111,
  each solved at 200 starts from that generator (the draws are timed too;
  they are a few percent of the case);
* ``eigen.solve_eigen`` on the 15 order-2 cells (centro, skew and
  palindromic Cauchy matrices of dims 2-4) of the eig-survey panel that
  ``bench/run.py --workload eig-survey --seed 1 --seconds 20`` solves,
  built by ``bench/eig_survey.py`` itself, 200 starts each, with their
  residual calls as ``sizes`` like the first two cases: one case of the
  13 cells that take the direct path, one of the two palindromic Cauchy
  n = 4 cells, whose repeated eigenvalue 0 sends them to the multistart
  path;
* ``core.contract_trailing`` of an order-5 dim-8 tensor on all four
  trailing slots, for stacks of 50 and 850 vectors; of its Jacobian
  tensor (``eigen._jacobian_tensor``) on three slots for 50 vectors; and
  of an order-4 dim-4 tensor on three slots for 200 vectors, the size of
  the eig-survey panel's residuals;
* ``eigen._newton_steps`` on the Newton stacks of one 200-start solve of
  an order-4 palindromic Cauchy tensor that hold an exactly singular
  system;
* ``eigen._dedup`` on the converged stacks of the 27-cell panel's solves,
  five passes; on the stacks the solves of all 45 cells of the seed-1
  eig-survey panel above hand it (the 13 direct-path cells hand it none),
  five passes; on the stack of the zero tensor at dim 2 with 2000
  starts, where every converged start is its own pair (the many-component
  worst case); and on 2000 values 1e-6 apart, all at the vector
  (1, 1)/sqrt(2), built in the script, where every pair lies in every
  band and the merge is quadratic in the pairs (no solve hands it such a
  stack);
* ``eigen.reflect_pair`` on every pair of one 200-start solve of an
  order-4 dim-4 centro tensor, 20 times over, and on every pair of the
  solves of the 15 order-2 cells above, 20 times over (as eig-survey
  reflects them, with its REFLECT_TOL and its skew zero values left out);
* the three structure witnesses (``structure.check_structure``,
  ``check_via_J``, ``check_commutation``), ``structure.decompose`` and
  ``core.entry_scale`` on order-4 tensors of dims 36 (centro), 38 (skew)
  and 40 (general), the sizes the dense-kernels benchmark uses;
* ``structure.check_structure`` on the tensors of the 45 cells of the
  seed-1 eig-survey panel above, 100 calls each: the small pairs that
  ``reflect_pair`` compares once per pair through ``reflection_sign``;
* the three structure witnesses on an order-4 dim-16 centro tensor, the
  size of the cli-json benchmark's ``check`` inputs (a 32,768-entry half
  pair, one block), 20 calls each;
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
* ``serialize.dumps`` of an order-4 dim-16 centro tensor, the cli-json
  benchmark's input size (65,536 entries, about 1.4 MB of JSON), passed
  as the ``DenseTensor`` itself, as the CLI writes a tensor;
* ``serialize.dumps`` of an order-2 dim-4 centro ``DenseTensor`` (16
  entries), 1000 calls, a short array;
* ``serialize.dumps`` of ``tensor_to_obj`` of the order-4 dim-16 tensor,
  a dict holding a 65,536-float list, the path the cli-json benchmark's
  set-up writes its files through; and of ``tensor_to_obj`` of an order-2
  dim-16 centro tensor (a 256-float list, what ``inverse --order 2``
  prints for a dim-16 input), 1000 calls;
* ``serialize.read_tensor`` of that tensor's file text, of the text of
  the cli-json benchmark's ``inverse`` input P (an order-4 dim-16 tensor
  whose entries are 65,280 ``0`` and 256 nonzero diagonal values), and of
  an order-2 dim-4 centro tensor's text, 1000 calls;
* ``cli.main`` running ``check`` on that tensor's file with ``-o``: one
  read and parse of the file, the direct witness, one small write.

The order-5 contractions are 20 calls per rep and the order-4 one 200;
the structure and J-product cases call each of the three tensors as often
as their ``calls`` size says.

The ``_newton_steps`` and ``_dedup`` cases time a private function on the
stacks a solve hands it (RECORDINGS).  Those stacks are recorded once, at
the base commit, and both commits are timed on them, so a change to what
the solver hands the function leaves the case's input alone.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_layers.json"
SEED = 0
# Calls per rep: as many as fit in BEST_OF_S of the warm-up's time, at most BEST_OF_MAX.
BEST_OF_S = 0.3
BEST_OF_MAX = 30


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _eig_survey():
    """bench/eig_survey.py, imported only inside a case: it imports the
    centrotensor on sys.path, which in a child is the commit being timed and
    in the parent process none."""
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module("eig_survey")


def _panel() -> list:
    """The 27-cell panel, as eig_survey.Case objects."""
    survey = _eig_survey()
    panel_rng, solve_rng = np.random.default_rng(survey.PANEL_SEED), np.random.default_rng(SEED + 1)
    return [
        survey.Case(panel_rng, solve_rng, family, order, dim)
        for family in survey.FAMILIES for order in survey.ORDERS for dim in survey.DIMS
    ]


def _survey_cells() -> list:
    """The 45 cells (eig_survey.Case) of the eig-survey panel that
    --seed 1 --seconds 20 solves, built as bench/eig_survey.py builds them."""
    survey = _eig_survey()
    panel_rng, solve_rng = np.random.default_rng(survey.PANEL_SEED), np.random.default_rng(1)
    return [
        survey.Case(panel_rng, solve_rng, family, order, survey.DIMS[(block + i + j) % len(survey.DIMS)])
        for block in range(survey.rounds_for(20, survey.BLOCK_SECONDS))
        for i, family in enumerate(survey.FAMILIES)
        for j, order in enumerate(survey.ORDERS)
    ]


def _survey_order2(fallback=None) -> list:
    """The 15 order-2 cells of _survey_cells.  fallback True keeps only the
    palindromic Cauchy n = 4 cells, False only the others."""
    return [
        c for c in _survey_cells()
        if c.order == 2 and fallback in (None, c.family == "cauchy" and c.dim == 4)
    ]


def _observed(lib, name: str, note, run) -> list:
    """note(*args) of each eigen.<name> call during run(), leaving out None."""
    original = getattr(lib.eigen, name)
    notes = []

    def observing(*args):
        got = note(*args)
        if got is not None:
            notes.append(got)
        return original(*args)

    setattr(lib.eigen, name, observing)
    try:
        run()
    finally:
        setattr(lib.eigen, name, original)
    return notes


def _residual_work(lib, fn) -> dict:
    """Calls and rows of eigen._stacked_residual in one untimed run of fn."""
    rows = _observed(lib, "_stacked_residual", lambda data, zs: len(zs), fn)
    return {"residual_calls": len(rows), "residual_rows": sum(rows)}


def _copied(*args) -> tuple:
    return tuple(arg.copy() for arg in args)


def _solves(lib, cases):
    """A function that solves each eig_survey.Case at 200 starts from its solve seed."""
    return lambda: [lib.eigen.solve_eigen(c.tensor, starts=200, seed=c.solve_seed) for c in cases]


def _witness_inputs(lib) -> list:
    """Order-4 tensors of dims 36 (centro), 38 (skew) and 40 (general)."""
    return [
        lib.structure.random_structured(4, dim, kind, seed=SEED)
        for kind, dim in (("centro", 36), ("skew", 38), ("general", 40))
    ]


def _solve_panel(lib):
    fn = _solves(lib, _panel())
    return {"cells": 27, "orders": [2, 4], "dims": [2, 4], "starts": 200, **_residual_work(lib, fn)}, fn


def _solve_order2(fallback: bool):
    def build(lib):
        cells = _survey_order2(fallback)
        fn = _solves(lib, cells)
        dims = sorted({c.dim for c in cells})
        return {"cells": len(cells), "order": 2, "dims": [dims[0], dims[-1]], "starts": 200, "seed": 1,
                **_residual_work(lib, fn)}, fn

    return build


def _solve_big(lib):
    big = lib.structure.random_structured(5, 8, "centro", seed=SEED)

    def fn():
        return lib.eigen.solve_eigen(big, starts=50, seed=SEED)

    return {"order": 5, "dim": 8, "starts": 50, **_residual_work(lib, fn)}, fn


def _criterion_11(lib):
    def fn():
        rng = np.random.default_rng(111)
        for _ in range(100):
            tensor = lib.structure.random_structured(int(rng.integers(2, 6)), 2, "centro", rng)
            lib.eigen.solve_eigen(tensor, starts=200, seed=rng)

    return {"solves": 100, "orders": [2, 5], "dim": 2, "starts": 200, "seed": 111}, fn


def _contraction(sizes: dict, jacobian: bool = False):
    """contract_trailing of a uniform tensor of these sizes (or its Jacobian tensor) on a normal stack."""
    def build(lib):
        m, n = sizes["order"], sizes["dim"]
        data = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(n,) * m)
        if jacobian:
            data = lib.eigen._jacobian_tensor(data)
        xs = np.random.default_rng(SEED).normal(size=(sizes["stack"], n))
        count = sizes.get("count", m - 1)
        return sizes, lambda: [lib.core.contract_trailing(data, xs, count) for _ in range(sizes["calls"])]

    return build


def _singular_newton_stacks(lib) -> list:
    """The Newton stacks of one 200-start solve of an order-4 palindromic
    Cauchy tensor that hold an exactly singular system."""
    pal = lib.cauchy.materialize(lib.cauchy.CauchySpec(np.array([0.7, 1.9, 1.9, 0.7]), 4))

    def singular(jac, rhs):
        return _copied(jac, rhs) if np.any(np.linalg.slogdet(jac)[0] == 0) else None

    return _observed(lib, "_newton_steps", singular, lambda: lib.eigen.solve_eigen(pal, starts=200, seed=SEED))


def _newton_steps(lib, recorded):
    singular = sum(int(np.sum(np.linalg.slogdet(j)[0] == 0)) for j, _ in recorded)
    sizes = {"stacks": len(recorded), "systems": sum(len(r) for _, r in recorded), "singular": singular}
    return sizes, lambda: [lib.eigen._newton_steps(j, r) for j, r in recorded]


def _panel_merge_stacks(lib) -> list:
    """The stacks the 27-cell panel's solves hand eigen._dedup."""
    return _observed(lib, "_dedup", _copied, _solves(lib, _panel()))


def _survey_merge_stacks(lib) -> list:
    """The stacks the solves of the 45 eig-survey cells hand eigen._dedup."""
    return _observed(lib, "_dedup", _copied, _solves(lib, _survey_cells()))


def _dedup_panel(lib, converged):
    merge = lib.eigen._dedup
    sizes = {"stacks": len(converged), "pairs": sum(len(st[0]) for st in converged),
             "kept": sum(len(merge(*st)) for st in converged), "calls": 5 * len(converged)}
    return sizes, lambda: [merge(*st) for _ in range(5) for st in converged]


def _dedup_survey(lib, converged):
    """_dedup_panel on the eig-survey cells' stacks, under its own RECORDINGS key."""
    return _dedup_panel(lib, converged)


def _zero_merge_stacks(lib) -> list:
    """The stack a 2000-start solve of the zero tensor at dim 2 hands eigen._dedup."""
    return _observed(
        lib, "_dedup", _copied,
        lambda: lib.eigen.solve_eigen(lib.core.DenseTensor(np.zeros((2, 2))), starts=2000, seed=SEED),
    )


def _dedup_zero(lib, recorded):
    (zero_stack,) = recorded
    merge = lib.eigen._dedup
    return {"pairs": len(zero_stack[0]), "kept": len(merge(*zero_stack))}, lambda: merge(*zero_stack)


def _dedup_one_vector(lib):
    stack = (np.arange(2000) * 1e-6, np.full((2000, 2), np.sqrt(0.5)), np.zeros(2000))
    merge = lib.eigen._dedup
    return {"pairs": 2000, "kept": len(merge(*stack))}, lambda: merge(*stack)


def _reflect_pair(lib):
    mirror = lib.structure.random_structured(4, 4, "centro", seed=SEED)
    pairs = lib.eigen.solve_eigen(mirror, starts=200, seed=SEED).pairs
    sizes = {"order": 4, "dim": 4, "pairs": len(pairs), "calls": 20 * len(pairs)}
    return sizes, lambda: [lib.eigen.reflect_pair(mirror, p) for _ in range(20) for p in pairs]


def _reflect_order2(lib):
    """The pairs eig-survey reflects, with its tolerance."""
    survey = _eig_survey()
    cells = _survey_order2()
    pairs = [
        (c.tensor, p)
        for c, result in zip(cells, _solves(lib, cells)())
        for p in result.pairs
        if c.kind != "skew" or abs(p.value) > survey.ZERO_VALUE
    ]
    sizes = {"order": 2, "dims": [2, 4], "pairs": len(pairs), "calls": 20 * len(pairs)}
    reflect = lib.eigen.reflect_pair
    return sizes, lambda: [reflect(t, p, tol=survey.REFLECT_TOL) for _ in range(20) for t, p in pairs]


def _per_witness_input(call, calls: int):
    """call(lib, t) on each of the three order-4 tensors, calls times over."""
    def build(lib):
        inputs = _witness_inputs(lib)
        sizes = {"order": 4, "dims": [36, 38, 40], "calls": calls * len(inputs)}
        return sizes, lambda: [call(lib, t) for t in inputs for _ in range(calls)]

    return build


def _survey_witness(lib):
    """check_structure on each of the 45 eig-survey cells' tensors, 100 times over."""
    tensors = [c.tensor for c in _survey_cells()]
    sizes = {"cells": len(tensors), "orders": [2, 4], "dims": [2, 4], "calls": 100 * len(tensors)}
    check = lib.structure.check_structure
    return sizes, lambda: [check(t) for t in tensors for _ in range(100)]


def _cli_witness(name: str):
    """The witness structure.<name> on _cli_tensor, 20 calls."""
    def build(lib):
        tensor, witness = _cli_tensor(lib), getattr(lib.structure, name)
        return {"order": 4, "dim": 16, "calls": 20}, lambda: [witness(tensor) for _ in range(20)]

    return build


def _exchange_products(lib):
    inputs = _witness_inputs(lib)
    exchange = {t.dim: lib.product.exchange_matrix(t.dim) for t in inputs}
    sizes = {"order": 4, "dims": [36, 38, 40], "calls": 4 * len(inputs)}
    shao = lib.product.shao_product
    return sizes, lambda: [(shao(t, exchange[t.dim]), shao(exchange[t.dim], t)) for t in inputs for _ in range(2)]


def _dense_product(lib):
    pair = [lib.structure.random_structured(3, 26, kind, seed=SEED) for kind in ("centro", "skew")]
    return {"order": 3, "dim": 26, "calls": 1}, lambda: lib.product.shao_product(*pair)


def _materialize(lib):
    spec = lib.cauchy.CauchySpec(_eig_survey().palindrome(np.random.default_rng(SEED), 20), 5)
    return {"order": 5, "dim": 20, "calls": 5}, lambda: [lib.cauchy.materialize(spec) for _ in range(5)]


def _cli_tensor(lib):
    """An order-4 dim-16 centro tensor, the size of the cli-json benchmark's inputs."""
    return lib.structure.random_structured(4, 16, "centro", seed=SEED)


def _centro_matrix(dim: int):
    return lambda lib: lib.structure.random_structured(2, dim, "centro", seed=SEED)


def _dumps(make, calls: int, as_obj: bool = False):
    """dumps of the tensor make(lib) builds, or of its tensor_to_obj dict
    (whose entries are a float list), calls times over."""
    def build(lib):
        tensor = make(lib)
        value = lib.serialize.tensor_to_obj(tensor) if as_obj else tensor
        sizes = {"order": tensor.order, "dim": tensor.dim, "calls": calls}
        return sizes, lambda: [lib.serialize.dumps(value) for _ in range(calls)]

    return build


def _read_text(make, calls: int):
    """read_tensor of the text of the tensor make(lib) builds, calls times over."""
    def build(lib):
        tensor = make(lib)
        text = lib.serialize.dumps(tensor) + "\n"
        sizes = {"order": tensor.order, "dim": tensor.dim, "chars": len(text), "calls": calls}
        return sizes, lambda: [lib.serialize.read_tensor(text) for _ in range(calls)]

    return build


def _planted_inverse_input(lib):
    """The cli-json benchmark's inverse input P = M * I, M a diagonally dominant centro matrix."""
    core = lib.core
    m = core.add(lib.structure.random_structured(2, 16, "centro", SEED),
                 core.scale(core.DenseTensor.identity(2, 16), 16.0))
    return lib.product.shao_product(m, core.DenseTensor.identity(4, 16))


def _cli_check(lib):
    cli = importlib.import_module(lib.__name__ + ".cli")
    tmp = tempfile.TemporaryDirectory()
    path = Path(tmp.name) / "A.json"
    path.write_text(lib.serialize.dumps(_cli_tensor(lib)) + "\n")
    sizes = {"order": 4, "dim": 16, "bytes": path.stat().st_size, "calls": 1}

    def fn():
        # refers to tmp, so the directory lasts as long as the case
        if cli.main(["check", str(path), "-o", str(Path(tmp.name) / "out.json")]) != 0:
            raise RuntimeError("check exited nonzero")

    return sizes, fn


def _construction(lib):
    data = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(26,) * 5)
    return {"order": 5, "dim": 26, "calls": 5}, lambda: [lib.core.DenseTensor(data) for _ in range(5)]


_WITNESSES = "order 4, dims 36/38/40"
_CLI_WITNESS = "order-4 dim-16 centro, 20 calls"

# (layer, case, build): build(lib) makes only this case's inputs and
# returns its sizes and the function one call of the case runs.
CASES = [
    ("eigen.solve_eigen", "27-cell panel", _solve_panel),
    ("eigen.solve_eigen", "order-5 dim-8 centro", _solve_big),
    ("eigen.solve_eigen", "criterion 11: 100 dim-2 centro solves", _criterion_11),
    ("eigen.solve_eigen", "order 2: the seed-1 eig-survey panel's 13 direct-path cells", _solve_order2(False)),
    ("eigen.solve_eigen", "order 2: the seed-1 eig-survey panel's 2 palindromic Cauchy n=4 cells",
     _solve_order2(True)),
    ("core.contract_trailing", "m=5 n=8 S=50", _contraction({"order": 5, "dim": 8, "stack": 50, "calls": 20})),
    ("core.contract_trailing", "m=5 n=8 S=850",
     _contraction({"order": 5, "dim": 8, "stack": 850, "calls": 20})),
    ("core.contract_trailing", "m=5 n=8 Jacobian tensor, 3 slots, S=50",
     _contraction({"order": 5, "dim": 8, "count": 3, "stack": 50, "calls": 20}, jacobian=True)),
    ("core.contract_trailing", "m=4 n=4 S=200",
     _contraction({"order": 4, "dim": 4, "count": 3, "stack": 200, "calls": 200})),
    ("eigen._newton_steps", "palindromic Cauchy m=4 n=4, singular stacks", _newton_steps),
    ("eigen._dedup", "27-cell panel, converged stacks, 5 passes", _dedup_panel),
    ("eigen._dedup", "the seed-1 eig-survey panel's merge stacks, 5 passes", _dedup_survey),
    ("eigen._dedup", "zero tensor dim 2, 2000 starts", _dedup_zero),
    ("eigen._dedup", "2000 values 1e-6 apart at one vector", _dedup_one_vector),
    ("eigen.reflect_pair", "order-4 dim-4 centro, every pair 20 times", _reflect_pair),
    ("eigen.reflect_pair", "order 2: the seed-1 eig-survey panel's 15 cells, every pair 20 times",
     _reflect_order2),
    ("structure.check_structure", _WITNESSES, _per_witness_input(lambda lib, t: lib.structure.check_structure(t), 5)),
    ("structure.check_via_J", _WITNESSES, _per_witness_input(lambda lib, t: lib.structure.check_via_J(t), 2)),
    ("structure.check_commutation", _WITNESSES,
     _per_witness_input(lambda lib, t: lib.structure.check_commutation(t), 2)),
    ("structure.check_structure", "the seed-1 eig-survey panel's 45 cells, 100 calls each", _survey_witness),
    ("structure.check_structure", _CLI_WITNESS, _cli_witness("check_structure")),
    ("structure.check_via_J", _CLI_WITNESS, _cli_witness("check_via_J")),
    ("structure.check_commutation", _CLI_WITNESS, _cli_witness("check_commutation")),
    ("structure.decompose", _WITNESSES, _per_witness_input(lambda lib, t: lib.structure.decompose(t), 5)),
    ("core.entry_scale", _WITNESSES, _per_witness_input(lambda lib, t: lib.core.entry_scale(t), 20)),
    ("product.shao_product", "A*J and J*A, order 4, dims 36/38/40", _exchange_products),
    ("product.shao_product", "centro*skew, order 3, dim 26", _dense_product),
    ("cauchy.materialize", "n=20 m=5 palindrome", _materialize),
    ("core.DenseTensor", _WITNESSES, _per_witness_input(lambda lib, t: lib.core.DenseTensor(t.data), 5)),
    ("core.DenseTensor", "order 5, dim 26", _construction),
    ("serialize.dumps", "order-4 dim-16 centro DenseTensor", _dumps(_cli_tensor, 1)),
    ("serialize.dumps", "order-2 dim-4 centro DenseTensor, 1000 calls", _dumps(_centro_matrix(4), 1000)),
    ("serialize.dumps", "tensor_to_obj of an order-4 dim-16 centro tensor (65,536-float list)",
     _dumps(_cli_tensor, 1, as_obj=True)),
    ("serialize.dumps", "tensor_to_obj of an order-2 dim-16 centro tensor (256-float list), 1000 calls",
     _dumps(_centro_matrix(16), 1000, as_obj=True)),
    ("serialize.read_tensor", "order-4 dim-16 centro tensor file", _read_text(_cli_tensor, 1)),
    ("serialize.read_tensor", "cli-json inverse input P, order 4 dim 16", _read_text(_planted_inverse_input, 1)),
    ("serialize.read_tensor", "order-2 dim-4 centro tensor, 1000 calls", _read_text(_centro_matrix(4), 1000)),
    ("cli.main", "check -o on an order-4 dim-16 centro tensor file", _cli_check),
]


# build(lib, stacks) of a case timed on recorded input stacks -> the
# function that records them, record(lib).
RECORDINGS = {
    _newton_steps: _singular_newton_stacks,
    _dedup_panel: _panel_merge_stacks,
    _dedup_survey: _survey_merge_stacks,
    _dedup_zero: _zero_merge_stacks,
}


def record(lib, indices=None) -> dict:
    """The input stacks of each recorded case among `indices` (all by default), by case index."""
    indices = range(len(CASES)) if indices is None else indices
    return {i: RECORDINGS[CASES[i][2]](lib) for i in indices if CASES[i][2] in RECORDINGS}


def measure(indices, stacks: Path) -> list:
    """Time the CASES at these indices in turn, each the best of its calls
    after a warm-up; recorded cases take their input from the file `stacks`,
    a pickled record() made at the base commit."""
    import centrotensor as lib  # the package on sys.path: in a child, the commit being timed

    recorded = pickle.loads(stacks.read_bytes())
    out = []
    for index in indices:
        layer, case, build = CASES[index]
        if build in RECORDINGS:
            sizes, fn = build(lib, recorded[index])
        else:
            sizes, fn = build(lib)
        calls = min(BEST_OF_MAX, max(1, int(BEST_OF_S / _timed(fn))))  # the warm-up
        best = min(_timed(fn) for _ in range(calls))
        out.append({"layer": layer, "case": case, "sizes": sizes, "s": best, "best_of": calls})
    return out


def _run_child(src: Path, args: list) -> str:
    """This script run with args in a fresh process against the library in src; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, *args],
        env=env, cwd=src.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    return proc.stdout


def _child(src: Path, index: int, stacks: Path) -> dict:
    """Case `index` timed in a fresh process against the library in src."""
    (row,) = json.loads(_run_child(src, ["--measure", str(index), "--stacks", str(stacks)]))
    return row


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
    # case indices timed in this process; none given times every case
    parser.add_argument("--measure", nargs="*", type=int, help=argparse.SUPPRESS)
    # the recorded input stacks --measure reads, and the file --record writes them to
    parser.add_argument("--stacks", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        if args.stacks is None:
            parser.error("--measure requires --stacks")
        print(json.dumps(measure(args.measure or range(len(CASES)), args.stacks)))
        return 0
    if args.record is not None:
        import centrotensor as lib

        args.record.write_bytes(pickle.dumps(record(lib)))
        return 0
    if not (args.base and args.head):
        parser.error("--base and --head are required")

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
        # the input stacks of the recorded cases, from the base commit
        stacks = Path(tmp) / "stacks.pickle"
        _run_child(next(iter(trees.values())), ["--record", str(stacks)])
        # one process per case and rep, the commits alternating
        runs = {(rev, i): [] for rev in trees for i in range(len(CASES))}
        for rep in range(args.reps):
            order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
            for i in range(len(CASES)):
                for rev in order:
                    runs[rev, i].append(_child(trees[rev], i, stacks))
            print(f"rep {rep + 1}/{args.reps} done", file=sys.stderr, flush=True)
    for (rev, _), per_rep in runs.items():
        times = [r["s"] for r in per_rep]
        records.append({
            "layer": per_rep[0]["layer"], "case": per_rep[0]["case"], "sizes": per_rep[0]["sizes"],
            "seed": SEED, "best_s": min(times), "median_s": statistics.median(times),
            "reps": len(times), "best_of": min(r["best_of"] for r in per_rep),
            "git_rev": rev,
        })
    RECORD.write_text(json.dumps(merge_records(RECORD, records), indent=1) + "\n")
    for rec in records:
        print(f"{rec['git_rev']}  {rec['layer']:30s} {rec['case']:45s} "
              f"best {rec['best_s'] * 1e3:9.3f} ms  median {rec['median_s'] * 1e3:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
