"""eig-survey: multistart H-eigenpair solves plus reflection of every pair.

Seeded centro and skew tensors (``random_structured``) and centrosymmetric
Cauchy tensors (palindromic generating vectors, ``materialize``) at orders
2-4 and dims 2-4.  Each operation is one ``solve_eigen`` at 200 starts
followed by ``reflect_pair`` on each pair found, leaving out the zero
eigenvalues of skew tensors as ``scripts/spectrum_survey.py`` does.  Every
operation solves another tensor.  Operation kinds are (family, order)
pairs, nine of them; each mixes the three dims.

The tensors come from a fixed panel (PANEL_SEED); the workload seed
drives the solver's start seeds.  A solve's time depends mostly on the
tensor: in one (family, order, dim) cell it varies up to 10x between
tensors, and tensors drawn from the workload seed spread ``ops_per_s``
by 17-21% between seeds, which hid the machine and the solver.

Operations go in blocks of nine, one per (order, family), with the dims
laid out as a Latin square so that every three blocks cover the whole
27-cell grid.  Whole blocks keep every kind equally represented.
"""

from __future__ import annotations

import numpy as np

from centrotensor import cauchy, eigen, structure

import checks
from harness import Op, Workload, rounds_for

# Nominal time of one block on the reference machine (2 vCPUs); sets the
# block count for a run length, never cuts a block short.
BLOCK_SECONDS = 4.0
FAMILIES = ("centro", "skew", "cauchy")
ORDERS = (2, 3, 4)
DIMS = (2, 3, 4)
STARTS = 200
PANEL_SEED = 0
# Same thresholds as scripts/spectrum_survey.py.
ZERO_VALUE = 1e-8
REFLECT_TOL = 1e-8
# Median time of one reference_kernel() call on the reference machine.
REFERENCE_S = 0.004


def reference_kernel():
    """Newton-step-sized numpy calls on tiny arrays, no library code."""
    rng = np.random.default_rng(0)
    t, x, f = rng.random((4, 4, 4)), rng.random(4), rng.random(5)
    jac = rng.random((5, 5)) + 5.0 * np.eye(5)

    def work():
        for _ in range(150):
            y = t.dot(x).dot(x)
            np.append(y - 0.5 * x**2, x @ x - 1.0)
            np.linalg.solve(jac, -f)
            float(np.max(np.abs(y)))

    return work


def palindrome(rng, n: int, low: float = 0.5, high: float = 2.0) -> np.ndarray:
    """Positive palindromic vector: every index sum is at least order * low."""
    half = rng.uniform(low, high, size=(n + 1) // 2)
    return np.concatenate([half, half[: n // 2][::-1]])


class Case:
    """One input tensor, how it was built, and the seed its solve uses."""

    def __init__(self, panel, rng, family: str, order: int, dim: int):
        self.family, self.order, self.dim = family, order, dim
        if family == "cauchy":
            self.generating = palindrome(panel, dim)
            self.tensor = cauchy.materialize(cauchy.CauchySpec(self.generating, order))
            self.kind = "centro"
        else:
            self.generating = None
            seed = int(panel.integers(2**32))
            self.tensor = structure.random_structured(order, dim, family, seed)
            self.kind = family
        self.solve_seed = int(rng.integers(2**32))

    def label(self) -> str:
        return f"{self.family} m={self.order} n={self.dim}"


def survey(case: Case):
    result = eigen.solve_eigen(case.tensor, starts=STARTS, seed=case.solve_seed)
    mirrored = [
        None
        if case.kind == "skew" and abs(pair.value) <= ZERO_VALUE
        else eigen.reflect_pair(case.tensor, pair, tol=REFLECT_TOL)
        for pair in result.pairs
    ]
    return result, mirrored


def check_survey(case: Case, ledger: checks.PairLedger, out):
    result, mirrored = out
    data, what = case.tensor.data, case.label()
    checks.check_solver_stats(result.stats.as_dict(), STARTS, len(result.pairs), what)
    for pair, mirror in zip(result.pairs, mirrored):
        checks.check_pair(data, pair.value, pair.vector, what)
        checks.check_reflection(data, case.kind, pair.value, pair.vector, what)
        ledger.add(id(case), pair.value, pair.vector)
        if mirror is None:
            continue
        expected = pair.value if case.kind == "centro" else -pair.value
        checks.require(mirror.value == expected, f"{what}: mirrored value {mirror.value!r}")
        jx = np.flip(pair.vector)
        gap = min(np.linalg.norm(mirror.vector - jx), np.linalg.norm(mirror.vector + jx))
        checks.require(gap <= 1e-12, f"{what}: mirrored vector is not +-Jx")
        checks.check_pair(data, mirror.value, mirror.vector, what)


def check_case_input(case: Case):
    what = case.label()
    checks.check_kind(case.tensor.data, case.kind, 1e-12 * checks.scale(case.tensor.data), what)
    if case.generating is not None:
        checks.check_cauchy(case.generating, case.tensor.data, np.random.default_rng(0), what)


def build(seed: int, seconds: float, tmp) -> Workload:
    panel, rng = np.random.default_rng(PANEL_SEED), np.random.default_rng(seed)
    cases = [
        Case(panel, rng, family, order, DIMS[(block + i + j) % len(DIMS)])
        for block in range(rounds_for(seconds, BLOCK_SECONDS))
        for i, family in enumerate(FAMILIES)
        for j, order in enumerate(ORDERS)
    ]
    warm = Case(panel, rng, "centro", 2, 2)
    ledger = checks.PairLedger()
    ops = [
        Op(
            kind=f"{case.family}-m{case.order}",
            run=lambda case=case: survey(case),
            check=lambda out, case=case: check_survey(case, ledger, out),
        )
        for case in cases
    ]

    def check_inputs():
        for case in cases:
            check_case_input(case)

    return Workload(ops, lambda: survey(warm), check_inputs, ledger)
