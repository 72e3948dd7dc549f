#!/usr/bin/env python3
"""Time library layers at a base commit and in the checked-out tree, into BENCH_layers.json.

    python3 scripts/bench_layers.py --base HEAD --reps 11

The base commit's ``src/`` is exported with ``git archive`` into a
temporary directory; the head is the checked-out ``src/`` with its
uncommitted changes, recorded as ``<HEAD>-dirty``.  The base must be
f2f8568 or later (``serialize.read_tensor``, ``serialize.dumps`` of a
``DenseTensor``).  Each case runs in a fresh Python process of its own,
so no case runs on the allocator state that other cases left, with one
BLAS thread.  That process loads both trees' packages side by side, under
two module names, builds the case's inputs once per tree and times the
two trees alternately rep by rep, so that a drift in machine speed hits
both alike; it prints one row per tree.

The cases are the rows of CASES.  A row names the layer it times, as
``<module>.<name>`` of the package, and its build is handed that callable,
so a row times only the function it names.  A row with a ``record``
column times the layer on the input stacks its recorder returns: the
case process records them once, at the base commit, before it times
anything, and both trees are timed on them, so a change to what the
solver hands a private function leaves the case's input alone.  The
eig-survey cells some cases use are built by bench/eig_survey.py with the
base commit's package; the head's layers read only their entries.
A build whose input reaches ``serialize`` makes it with each tree's own
package, since the writer tests ``isinstance(value, DenseTensor)``.

A record is ``{layer, case, sizes, seed, best_s, median_s, reps,
best_of, git_rev}``.  One rep times the whole case as the best of as many
calls as fit in BEST_OF_S of the slower tree's warm-up call (at most
BEST_OF_MAX), the same count for both trees, since the best of fewer
calls reads slower; ``best_of`` is that count: a case of about 10 ms varies
call to call by more than the 15% change it should resolve, so it takes
the best of 30 calls, while a case over BEST_OF_S takes one.  ``best_s``
and ``median_s`` are over the reps' figures.  A run rewrites RECORD whole
as its one comparison, a row per case at the base and then at the head,
written as a JSON array with one row per line; earlier comparisons stay
in git history (``git show <rev>:BENCH_layers.json``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
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


def _calls(fn, args: list):
    """A run that calls fn on each argument tuple of args, in this order."""
    return lambda: [fn(*a) for a in args]


def _eig_survey():
    """bench/eig_survey.py, imported only inside a case: it builds its cells
    with the package named centrotensor, which in a case process is the base
    commit's."""
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module("eig_survey")


def _panel() -> list:
    """The 27-cell panel, as eig_survey.Case objects, built by the eig-survey
    benchmark's Case in another order (so not the same tensors)."""
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
    palindromic Cauchy n = 4 cells, whose repeated eigenvalue 0 sends them
    to the multistart path, False only the others."""
    return [
        c for c in _survey_cells()
        if c.order == 2 and fallback in (None, c.family == "cauchy" and c.dim == 4)
    ]


def _solve_args(cells) -> list:
    """solve_eigen's arguments for each eig_survey.Case: 200 starts from its solve seed."""
    return [(c.tensor, 200, c.solve_seed) for c in cells]


def _observed(module, name: str, note, run) -> list:
    """note(*args) of each module.<name> call during run(), leaving out None."""
    original = getattr(module, name)
    notes = []

    def observing(*args):
        got = note(*args)
        if got is not None:
            notes.append(got)
        return original(*args)

    setattr(module, name, observing)
    try:
        run()
    finally:
        setattr(module, name, original)
    return notes


def _residual_work(lib, fn) -> dict:
    """Calls and rows of eigen._stacked_residual in one untimed run of fn."""
    rows = _observed(lib.eigen, "_stacked_residual", lambda data, zs: len(zs), fn)
    return {"residual_calls": len(rows), "residual_rows": sum(rows)}


def _copied(*args) -> tuple:
    return tuple(arg.copy() for arg in args)


def _witness_inputs(lib) -> list:
    """Order-4 tensors of dims 36 (centro), 38 (skew) and 40 (general), the
    sizes the dense-kernels benchmark uses."""
    return [
        lib.structure.random_structured(4, dim, kind, seed=SEED)
        for kind, dim in (("centro", 36), ("skew", 38), ("general", 40))
    ]


def _structured(kind: str, order: int, dim: int):
    """A maker of the random_structured tensor of this kind, order and dim,
    drawn from SEED; order 4, dim 16 is the size of the cli-json benchmark's
    inputs."""
    return lambda lib: lib.structure.random_structured(order, dim, kind, seed=SEED)


def _centro(order: int, dim: int):
    return _structured("centro", order, dim)


def _solves(cells, **sizes):
    """solve_eigen on each eig_survey.Case that cells() returns, with the
    residual work of one untimed run in its sizes."""
    def build(lib, solve):
        chosen = cells()
        run = _calls(solve, _solve_args(chosen))
        return {"cells": len(chosen), **sizes, **_residual_work(lib, run)}, run

    return build


def _solve_big(lib, solve):
    run = _calls(solve, [(_centro(5, 8)(lib), 50, SEED)])
    return {"order": 5, "dim": 8, "starts": 50, **_residual_work(lib, run)}, run


def _criterion_11(lib, solve):
    """Tier-1's criterion 11: the draws are timed too (a few percent of the case)."""
    def run():
        rng = np.random.default_rng(111)
        for _ in range(100):
            solve(lib.structure.random_structured(int(rng.integers(2, 6)), 2, "centro", rng), starts=200, seed=rng)

    return {"solves": 100, "orders": [2, 5], "dim": 2, "starts": 200, "seed": 111}, run


def _contraction(sizes: dict, jacobian: bool = False):
    """A uniform tensor of these sizes (or its Jacobian tensor) on a normal stack."""
    def build(lib, contract):
        m, n = sizes["order"], sizes["dim"]
        data = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(n,) * m)
        if jacobian:
            data = lib.eigen._jacobian_tensor(data)
        xs = np.random.default_rng(SEED).normal(size=(sizes["stack"], n))
        return sizes, _calls(contract, [(data, xs, sizes.get("count", m - 1))] * sizes["calls"])

    return build


def _screen(sizes: dict):
    """The line search's screen on `stack` Newton states of the centro tensor
    of this order and dim: unit rows with lambda 0 plus normal steps drawn
    from SEED, each best its row's own max|F|."""
    def build(lib, screen):
        n, rows = sizes["dim"], sizes["stack"]
        data = _centro(sizes["order"], n)(lib).data
        rng = np.random.default_rng(SEED)
        z = np.zeros((rows, n + 1))
        z[:, :n] = rng.normal(size=(rows, n))
        z[:, :n] /= np.linalg.norm(z[:, :n], axis=1)[:, None]
        step = rng.normal(size=(rows, n + 1))
        best = np.abs(lib.eigen._stacked_residual(data, z)).max(axis=1)
        return sizes, _calls(screen, [(z, step, best)] * sizes["calls"])

    return build


def _singular_newton_stacks(lib) -> list:
    """The Newton stacks of one 200-start solve of an order-4 palindromic
    Cauchy tensor that hold an exactly singular system."""
    pal = lib.cauchy.materialize(lib.cauchy.CauchySpec(np.array([0.7, 1.9, 1.9, 0.7]), 4))

    def singular(jac, rhs):
        return _copied(jac, rhs) if np.any(np.linalg.slogdet(jac)[0] == 0) else None

    return _observed(lib.eigen, "_newton_steps", singular, lambda: lib.eigen.solve_eigen(pal, starts=200, seed=SEED))


def _newton_steps(lib, steps, recorded):
    singular = sum(int(np.sum(np.linalg.slogdet(j)[0] == 0)) for j, _ in recorded)
    sizes = {"stacks": len(recorded), "systems": sum(len(r) for _, r in recorded), "singular": singular}
    return sizes, _calls(steps, recorded)


def _merge_stacks(solves):
    """A recorder of the stacks that solve_eigen on each argument tuple of
    solves(lib) hands eigen._dedup."""
    return lambda lib: _observed(lib.eigen, "_dedup", _copied, _calls(lib.eigen.solve_eigen, solves(lib)))


def _merge_passes(passes: int):
    """_dedup on each stack, `passes` passes."""
    def build(lib, merge, stacks):
        sizes = {"stacks": len(stacks), "pairs": sum(len(st[0]) for st in stacks),
                 "kept": sum(len(merge(*st)) for st in stacks), "calls": passes * len(stacks)}
        return sizes, _calls(merge, stacks * passes)

    return build


def _one_vector_merge(lib, merge):
    """_dedup on 2000 values 1e-6 apart, all at the vector (1, 1)/sqrt(2):
    every pair lies in every band and the merge is quadratic in the pairs.
    No solve hands the merge such a stack, so the case builds it."""
    stack = (np.arange(2000) * 1e-6, np.full((2000, 2), np.sqrt(0.5)), np.zeros(2000))
    return _merge_passes(1)(lib, merge, [stack])


def _verdict_calls(lib, run) -> int:
    """Calls of structure.check_structure in one untimed run()."""
    return len(_observed(lib.structure, "check_structure", lambda *args: 1, run))


def _reflect_pair(lib, reflect):
    mirror = _centro(4, 4)(lib)
    pairs = lib.eigen.solve_eigen(mirror, starts=200, seed=SEED).pairs
    run = _calls(reflect, [(mirror, p) for _ in range(20) for p in pairs])
    sizes = {"order": 4, "dim": 4, "pairs": len(pairs), "calls": 20 * len(pairs)}
    return {**sizes, "verdict_calls": _verdict_calls(lib, run)}, run


def _reflect_order2(lib, reflect):
    """The pairs eig-survey reflects, with its tolerance and its skew zero values left out."""
    survey = _eig_survey()
    cells = _survey_order2()
    pairs = [
        (c.tensor, p)
        for c, result in zip(cells, _calls(lib.eigen.solve_eigen, _solve_args(cells))())
        for p in result.pairs
        if c.kind != "skew" or abs(p.value) > survey.ZERO_VALUE
    ]
    run = _calls(reflect, [(t, p, survey.REFLECT_TOL) for _ in range(20) for t, p in pairs])
    sizes = {"order": 2, "dims": [2, 4], "pairs": len(pairs), "calls": 20 * len(pairs)}
    return {**sizes, "verdict_calls": _verdict_calls(lib, run)}, run


def _on_witness_inputs(calls: int, data: bool = False):
    """The layer on each of the three order-4 tensors (or their data arrays), calls times over."""
    def build(lib, fn):
        inputs = _witness_inputs(lib)
        sizes = {"order": 4, "dims": [36, 38, 40], "calls": calls * len(inputs)}
        return sizes, _calls(fn, [(t.data if data else t,) for t in inputs for _ in range(calls)])

    return build


def _survey_witness(lib, check):
    """The small pairs that reflect_pair compares once per pair through reflection_sign."""
    tensors = [c.tensor for c in _survey_cells()]
    sizes = {"cells": len(tensors), "orders": [2, 4], "dims": [2, 4], "calls": 100 * len(tensors)}
    return sizes, _calls(check, [(t,) for t in tensors for _ in range(100)])


def _cli_witness(lib, witness):
    """The size of the cli-json benchmark's check inputs: a 32,768-entry half pair, one block."""
    return {"order": 4, "dim": 16, "calls": 20}, _calls(witness, [(_centro(4, 16)(lib),)] * 20)


def _decompose_general(lib, decompose):
    """An order-4 dim-40 general tensor, the size of the dense-kernels
    benchmark's general decompose input, alone."""
    return {"order": 4, "dim": 40, "calls": 5}, _calls(decompose, [(_structured("general", 4, 40)(lib),)] * 5)


def _exchange_products(lib, shao):
    inputs = _witness_inputs(lib)
    exchange = {t.dim: lib.product.exchange_matrix(t.dim) for t in inputs}
    args = [ab for t in inputs for _ in range(2) for ab in ((t, exchange[t.dim]), (exchange[t.dim], t))]
    return {"order": 4, "dims": [36, 38, 40], "calls": len(args)}, _calls(shao, args)


def _dense_product(lib, shao):
    pair = tuple(lib.structure.random_structured(3, 26, kind, seed=SEED) for kind in ("centro", "skew"))
    return {"order": 3, "dim": 26, "calls": 1}, _calls(shao, [pair])


def _materialize(lib, materialize):
    spec = lib.cauchy.CauchySpec(_eig_survey().palindrome(np.random.default_rng(SEED), 20), 5)
    return {"order": 5, "dim": 20, "calls": 5}, _calls(materialize, [(spec,)] * 5)


def _construction(lib, construct):
    """The 11.9M-entry size of the order-3 product.  The library's own results
    skip the copy and the checks (DenseTensor._adopt), so this is the cost a
    caller's array pays."""
    data = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(26,) * 5)
    return {"order": 5, "dim": 26, "calls": 5}, _calls(construct, [(data,)] * 5)


def _dumps(make, calls: int, as_obj: bool = False):
    """The tensor make(lib) builds, or its tensor_to_obj dict (whose entries are a float list)."""
    def build(lib, dumps):
        tensor = make(lib)
        value = lib.serialize.tensor_to_obj(tensor) if as_obj else tensor
        return {"order": tensor.order, "dim": tensor.dim, "calls": calls}, _calls(dumps, [(value,)] * calls)

    return build


def _read_text(make, calls: int):
    """The file text of the tensor make(lib) builds."""
    def build(lib, read):
        tensor = make(lib)
        text = lib.serialize.dumps(tensor) + "\n"
        sizes = {"order": tensor.order, "dim": tensor.dim, "chars": len(text), "calls": calls}
        return sizes, _calls(read, [(text,)] * calls)

    return build


def _planted_inverse_input(lib):
    """The cli-json benchmark's inverse input P = M * I, M a diagonally dominant centro matrix."""
    m = lib.core.add(_centro(2, 16)(lib), lib.core.scale(lib.core.DenseTensor.identity(2, 16), 16.0))
    return lib.product.shao_product(m, lib.core.DenseTensor.identity(4, 16))


def _symmetric_centro_matrix(lib):
    """A cli-json eig input: (E + E^T) / 2 for a 4x4 centro E, drawn from SEED."""
    e = _centro(2, 4)(lib)
    return lib.core.scale(lib.core.add(e, lib.core.DenseTensor(e.data.T)), 0.5)


def _on_file(make, calls: int, verb: tuple = ()):
    """The layer run calls times on the file of the tensor make(lib) builds:
    fn(file), or with a verb main([verb, file, options, -o out]), which must exit 0."""
    def build(lib, fn):
        tmp = tempfile.TemporaryDirectory()
        tensor = make(lib)
        path = Path(tmp.name) / "in.json"
        path.write_text(lib.serialize.dumps(tensor) + "\n")
        arg = [verb[0], str(path), *verb[1:], "-o", str(path.with_name("out.json"))] if verb else str(path)
        sizes = {"order": tensor.order, "dim": tensor.dim, "bytes": path.stat().st_size, "calls": calls}

        def run(_files=tmp):
            # holds tmp, so the directory lasts as long as the case
            got = [fn(arg) for _ in range(calls)]
            if verb and any(got):
                raise RuntimeError(f"{verb[0]} exited nonzero")

        return sizes, run

    return build


# layer: "<module>.<name>" of the package, the callable the case times.
# build(lib, fn) makes only this case's inputs and returns its sizes and
# the function one call of the case runs; with a recorder, record(lib)
# returns the input stacks and build(lib, fn, stacks) times fn on them.
Case = namedtuple("Case", "layer case build record", defaults=(None,))

_WITNESSES = "order 4, dims 36/38/40"
_CLI_WITNESS = "order-4 dim-16 centro, 20 calls"

CASES = [
    Case("eigen.solve_eigen", "27-cell panel", _solves(_panel, orders=[2, 4], dims=[2, 4], starts=200)),
    Case("eigen.solve_eigen", "order-5 dim-8 centro", _solve_big),
    Case("eigen.solve_eigen", "criterion 11: 100 dim-2 centro solves", _criterion_11),
    Case("eigen.solve_eigen", "order 2: the seed-1 eig-survey panel's 13 direct-path cells",
         _solves(lambda: _survey_order2(False), order=2, dims=[2, 4], starts=200, seed=1)),
    Case("eigen.solve_eigen", "order 2: the seed-1 eig-survey panel's 2 palindromic Cauchy n=4 cells",
         _solves(lambda: _survey_order2(True), order=2, dims=[4, 4], starts=200, seed=1)),
    Case("core.contract_trailing", "m=5 n=8 S=50", _contraction({"order": 5, "dim": 8, "stack": 50, "calls": 20})),
    Case("core.contract_trailing", "m=5 n=8 S=850",
         _contraction({"order": 5, "dim": 8, "stack": 850, "calls": 20})),
    Case("core.contract_trailing", "m=5 n=8 Jacobian tensor, 3 slots, S=50",
         _contraction({"order": 5, "dim": 8, "count": 3, "stack": 50, "calls": 20}, jacobian=True)),
    Case("core.contract_trailing", "m=4 n=4 S=200",
         _contraction({"order": 4, "dim": 4, "count": 3, "stack": 200, "calls": 200})),
    Case("eigen._open_trials", "m=4 n=4 S=8", _screen({"order": 4, "dim": 4, "stack": 8, "calls": 1000})),
    Case("eigen._open_trials", "m=4 n=4 S=200", _screen({"order": 4, "dim": 4, "stack": 200, "calls": 200})),
    Case("eigen._open_trials", "m=5 n=8 S=50", _screen({"order": 5, "dim": 8, "stack": 50, "calls": 200})),
    Case("eigen._newton_steps", "palindromic Cauchy m=4 n=4, singular stacks", _newton_steps,
         _singular_newton_stacks),
    Case("eigen._dedup", "27-cell panel, converged stacks, 5 passes", _merge_passes(5),
         _merge_stacks(lambda lib: _solve_args(_panel()))),
    Case("eigen._dedup", "the seed-1 eig-survey panel's merge stacks, 5 passes", _merge_passes(5),
         _merge_stacks(lambda lib: _solve_args(_survey_cells()))),
    Case("eigen._dedup", "zero tensor dim 2, 2000 starts", _merge_passes(1),
         _merge_stacks(lambda lib: [(lib.core.DenseTensor(np.zeros((2, 2))), 2000, SEED)])),
    Case("eigen._dedup", "2000 values 1e-6 apart at one vector", _one_vector_merge),
    Case("eigen.reflect_pair", "order-4 dim-4 centro, every pair 20 times", _reflect_pair),
    Case("eigen.reflect_pair", "order 2: the seed-1 eig-survey panel's 15 cells, every pair 20 times", _reflect_order2),
    Case("structure.check_structure", _WITNESSES, _on_witness_inputs(5)),
    Case("structure.check_via_J", _WITNESSES, _on_witness_inputs(2)),
    Case("structure.check_commutation", _WITNESSES, _on_witness_inputs(2)),
    Case("structure.check_structure", "the seed-1 eig-survey panel's 45 cells, 100 calls each", _survey_witness),
    Case("structure.check_structure", _CLI_WITNESS, _cli_witness),
    Case("structure.check_via_J", _CLI_WITNESS, _cli_witness),
    Case("structure.check_commutation", _CLI_WITNESS, _cli_witness),
    Case("structure.decompose", _WITNESSES, _on_witness_inputs(5)),
    Case("structure.decompose", "order-4 dim-40 general, 5 calls", _decompose_general),
    Case("core.entry_scale", _WITNESSES, _on_witness_inputs(20)),
    Case("product.shao_product", "A*J and J*A, order 4, dims 36/38/40", _exchange_products),
    Case("product.shao_product", "centro*skew, order 3, dim 26", _dense_product),
    Case("cauchy.materialize", "n=20 m=5 palindrome", _materialize),
    Case("core.DenseTensor", _WITNESSES, _on_witness_inputs(5, data=True)),
    Case("core.DenseTensor", "order 5, dim 26", _construction),
    Case("serialize.dumps", "order-4 dim-16 centro DenseTensor", _dumps(_centro(4, 16), 1)),
    Case("serialize.dumps", "order-2 dim-4 centro DenseTensor, 1000 calls", _dumps(_centro(2, 4), 1000)),
    Case("serialize.dumps", "tensor_to_obj of an order-4 dim-16 centro tensor (65,536-float list)",
         _dumps(_centro(4, 16), 1, as_obj=True)),
    Case("serialize.dumps", "tensor_to_obj of an order-2 dim-16 centro tensor (256-float list), 1000 calls",
         _dumps(_centro(2, 16), 1000, as_obj=True)),
    Case("serialize.dumps", "order-4 dim-16 general DenseTensor", _dumps(_structured("general", 4, 16), 1)),
    Case("serialize.dumps", "order-4 dim-16 skew DenseTensor", _dumps(_structured("skew", 4, 16), 1)),
    Case("serialize.read_tensor", "order-4 dim-16 centro tensor file", _read_text(_centro(4, 16), 1)),
    Case("serialize.read_tensor", "order-4 dim-16 general tensor file",
         _read_text(_structured("general", 4, 16), 1)),
    Case("serialize.read_tensor", "order-4 dim-16 skew tensor file", _read_text(_structured("skew", 4, 16), 1)),
    Case("serialize.read_tensor", "cli-json inverse input P, order 4 dim 16", _read_text(_planted_inverse_input, 1)),
    Case("serialize.read_tensor", "order-2 dim-4 centro tensor, 1000 calls", _read_text(_centro(2, 4), 1000)),
    Case("cli.main", "check -o on an order-4 dim-16 centro tensor file", _on_file(_centro(4, 16), 1, ("check",))),
    Case("cli.main", "eig -o on a 4x4 symmetric centro matrix file, 200 starts, 100 calls",
         _on_file(_symmetric_centro_matrix, 100, ("eig", "--starts", "200", "--seed", str(SEED)))),
    Case("cli._load_tensor", "order-4 dim-16 centro tensor file", _on_file(_centro(4, 16), 1)),
]


def layer_callable(lib, layer: str):
    """The package's callable a row's layer names, e.g. eigen.solve_eigen."""
    module, name = layer.split(".")
    return getattr(importlib.import_module(f"{lib.__name__}.{module}"), name)


def load_tree(name: str, src: Path):
    """The centrotensor package in the directory src, loaded as the module
    `name`.  The package imports its own modules relatively, so packages
    loaded under two names share no module state."""
    package = Path(src) / "centrotensor"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    return lib


def time_case(index: int, libs: list, reps: int) -> list:
    """Case `index` timed at each package of libs, the base commit's first:
    one row per package, in that order.

    The case is built once per package, and each package makes one
    warm-up call; the slowest sets the calls of every rep at every
    package.  A recorded case's stacks are recorded once, at libs[0],
    and every package is timed on them.  Rep r times the packages in
    order when r is even and in reverse when it is odd.
    """
    layer, case, build, recorder = CASES[index]
    stacks = (recorder(libs[0]),) if recorder else ()
    cases = [build(lib, layer_callable(lib, layer), *stacks) for lib in libs]
    # the best of fewer calls reads slower, so every package takes the count of the slowest warm-up
    calls = min(BEST_OF_MAX, *(max(1, int(BEST_OF_S / _timed(run))) for _, run in cases))
    times = [[] for _ in libs]
    for rep in range(reps):
        for k in sorted(range(len(libs)), reverse=rep % 2 == 1):
            times[k].append(min(_timed(cases[k][1]) for _ in range(calls)))
    return [{"layer": layer, "case": case, "sizes": sizes, "seed": SEED, "best_s": min(t),
             "median_s": statistics.median(t), "reps": reps, "best_of": calls}
            for (sizes, _), t in zip(cases, times)]


def _run_case(index: int, trees: list, reps: int) -> list:
    """time_case's rows for case `index` at the packages in trees, from a
    fresh process with one BLAS thread."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--case", str(index), *map(str, trees), "--reps", str(reps)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    print(f"case {index + 1}/{len(CASES)} done", file=sys.stderr, flush=True)
    return json.loads(proc.stdout)


def record_text(rows: list) -> str:
    """rows as one JSON array, one compact row per line."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="parent commit, timed against the checked-out src/")
    parser.add_argument("--reps", type=int, default=7)
    # a case process: the case index and the base and head src directories
    parser.add_argument("--case", nargs=3, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")
    if args.case:
        index, *trees = args.case
        libs = [load_tree(f"centrotensor_{side}", src) for side, src in zip(("base", "head"), trees)]
        # bench/eig_survey.py builds its cells with the package named centrotensor
        sys.modules["centrotensor"] = libs[0]
        print(json.dumps(time_case(int(index), libs, args.reps)))
        return 0
    if not args.base:
        parser.error("--base is required")
    revs = []
    for name in (args.base, "HEAD"):
        proc = subprocess.run(["git", "rev-parse", "--short", name], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode:
            parser.error(f"{name}: {proc.stderr.strip()}")
        revs.append(proc.stdout.strip())
    base, head = revs

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", f"--prefix={base}/", base, "src"], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        # one process per case, which prints the case's row at the base and at the head
        rows = [_run_case(index, [Path(tmp) / base / "src", ROOT / "src"], args.reps) for index in range(len(CASES))]
    records = [{**case_rows[k], "git_rev": rev} for k, rev in enumerate((base, head + "-dirty")) for case_rows in rows]
    RECORD.write_text(record_text(records))
    for rec in records:
        print(f"{rec['git_rev']}  {rec['layer']:30s} {rec['case']:45s} "
              f"best {rec['best_s'] * 1e3:9.3f} ms  median {rec['median_s'] * 1e3:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
