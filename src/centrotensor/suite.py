"""Batch property suite: every structural identity run as a seeded check.

verify_all draws random instances per check and confirms the library's
structural identities hold at their declared tolerances: predicate
agreement, product and Hadamard parity, the centro/skew split, row-sum
and polynomial reflection, the Cauchy equivalences, inverse round trips
and eigenpair reflections.  Each check yields a pass/fail record with a
counterexample payload on failure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .cauchy import (
    CauchySpec,
    CauchySpecError,
    cauchy_check_JC,
    cauchy_is_centro,
    cauchy_is_skew,
    materialize,
)
from .core import ConsistencyError, DenseTensor, check_count, entry_scale, hadamard
from .eigen import (
    NEITHER_CLASS,
    SYMMETRIC,
    closed_form_dim2,
    closed_form_dim3_even,
    reflect_pair,
    solve_eigen,
)
from .inverse import (
    InverseResult,
    diagonal_left_inverse,
    diagonal_right_inverse,
    recover_order2_left_inverse,
    recover_order2_right_inverse,
)
from .product import _KINDS, shao_product, product_parity
from .serialize import tensor_to_obj
from .structure import (
    check_commutation,
    check_structure,
    check_via_J,
    decompose,
    palindromize,
    random_structured,
    verify_poly_reflection,
    verify_row_sum_symmetry,
)

__all__ = ["CheckResult", "SuiteReport", "CHECK_NAMES", "verify_all"]

DEFAULT_TRIALS = 40


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    trials: int
    detail: str = ""
    counterexample: dict | None = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    trials: int
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "all_passed": self.all_passed,
            "checks": [c.as_dict() for c in self.checks],
        }


class _Failed(Exception):
    """A trial's identity failed: the detail, and the counterexample with
    its tensors as JSON objects."""

    def __init__(self, detail: str, **payload):
        super().__init__(detail)
        self.detail = detail
        self.payload = {
            key: tensor_to_obj(value) if isinstance(value, DenseTensor) else value
            for key, value in payload.items()
        }


def _draw_structured(rng, kind: str) -> DenseTensor:
    order = int(rng.integers(2, 5))
    dim = int(rng.integers(2, 6))
    return random_structured(order, dim, kind, rng)


def _structure_agreement(rng, t):
    a = _draw_structured(rng, ("centro", "skew", "general")[t % 3])
    verdicts = {
        "direct": check_structure(a).verdict,
        "sandwich": check_via_J(a).verdict,
        "commutation": check_commutation(a).verdict,
    }
    if len(set(verdicts.values())) != 1:
        raise _Failed(f"verdicts disagree: {verdicts}", tensor=a)


def _require_parity(report, expected: str, what: str, a, b) -> None:
    """Fail unless report's verdict includes the expected kind of a product of a and b."""
    if not (report.is_centro if expected == "centro" else report.is_skew):
        raise _Failed(f"{what} expected {expected}, verdict {report.verdict}", left=a, right=b)


def _product_parity(rng, t):
    kind_a = _KINDS[int(rng.integers(0, 2))]
    kind_b = _KINDS[int(rng.integers(0, 2))]
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    n = int(rng.integers(2, 5))
    a = random_structured(m, n, kind_a, rng)
    b = random_structured(k, n, kind_b, rng)
    prod = shao_product(a, b)
    expected = product_parity(kind_a, kind_b, m)
    report = check_structure(prod, 1e-10 * entry_scale(prod))
    _require_parity(report, expected, f"product of {kind_a}(m={m}) and {kind_b}(k={k})", a, b)


def _hadamard_parity(rng, t):
    kind_a = _KINDS[int(rng.integers(0, 2))]
    kind_b = _KINDS[int(rng.integers(0, 2))]
    order = int(rng.integers(2, 5))
    dim = int(rng.integers(2, 6))
    a = random_structured(order, dim, kind_a, rng)
    b = random_structured(order, dim, kind_b, rng)
    expected = "centro" if kind_a == kind_b else "skew"
    report = check_structure(hadamard(a, b))
    _require_parity(report, expected, f"entrywise product of {kind_a} and {kind_b}", a, b)


def _decomposition(rng, t):
    a = _draw_structured(rng, "general")
    parts = decompose(a)
    scale_a = entry_scale(a)
    if not check_structure(parts.centro, 1e-13 * scale_a).is_centro:
        raise _Failed("centro part fails its check", tensor=a)
    if not check_structure(parts.skew, 1e-13 * scale_a).is_skew:
        raise _Failed("skew part fails its check", tensor=a)
    err = float(np.max(np.abs(parts.reconstruct().data - a.data)))
    if err > 1e-14 * scale_a:
        raise _Failed(f"reconstruction error {err:.3e}", tensor=a)


def _row_sums(rng, t):
    kind = _KINDS[t % 2]
    a = _draw_structured(rng, kind)
    ok, witness = verify_row_sum_symmetry(a, assume=kind)
    if not ok:
        raise _Failed(f"row-sum reflection failed at row {witness}", tensor=a)


def _poly_reflection(rng, t):
    a = _draw_structured(rng, _KINDS[t % 2])
    if not verify_poly_reflection(a, trials=10, seed=rng):
        raise _Failed("polynomial reflection failed", tensor=a)


def _random_spec(rng, flavor: str):
    order = int(rng.integers(2, 5))
    if flavor == "skew":
        half = rng.uniform(0.2, 3.0, size=int(rng.integers(1, 3)))
        c = np.concatenate([half, -half[::-1]])
        if order % 2 == 0:
            order += 1  # even orders force vanishing pair sums
    else:
        dim = int(rng.integers(2, 6))
        c = rng.uniform(0.2, 3.0, size=dim)
        if flavor == "centro":
            c = palindromize(c)
    return CauchySpec(c, order)


def _cauchy_equivalence(rng, t):
    spec = _random_spec(rng, ("centro", "general", "skew")[t % 3])
    p_centro = cauchy_is_centro(spec)
    p_skew = cauchy_is_skew(spec)
    if spec.dim % 2 == 1 and p_skew:
        raise _Failed("odd-dimension spec classified skew", generating=spec.generating.tolist())
    try:
        tensor = materialize(spec)
    except CauchySpecError:
        return
    report = check_structure(tensor)
    if p_centro != report.is_centro or p_skew != report.is_skew:
        raise _Failed(
            f"vector predicates (centro={p_centro}, skew={p_skew}) disagree "
            f"with tensor verdict {report.verdict}",
            generating=spec.generating.tolist(),
            order=spec.order,
        )
    if cauchy_check_JC(spec) != p_centro:
        raise _Failed(
            "exchange-product test disagrees with the vector predicate",
            generating=spec.generating.tolist(),
            order=spec.order,
        )


def _diagonal_inverse(rng, t):
    order = int(rng.integers(2, 5))
    dim = int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    a = DenseTensor.diagonal(order, palindromize(rng.uniform(0.5, 4.0, size=dim)))
    left = diagonal_left_inverse(a, k)
    right = diagonal_right_inverse(a, k)
    for result in (left, right):
        if result.residual > 1e-13 or not result.centro_verdict:
            detail = f"{result.side} diagonal inverse residual {result.residual:.3e}"
            raise _Failed(detail, tensor=a)


def _well_conditioned_centro_matrix(rng, dim):
    for _ in range(64):
        c = random_structured(2, dim, "centro", rng)
        if np.linalg.cond(c.data) <= 1e3:
            return c
    raise ConsistencyError("could not draw a well-conditioned centro matrix")


def _check_recovery(side, recover, planted, expected):
    result = recover(planted)
    if not isinstance(result, InverseResult):
        raise _Failed(f"{side} recovery reported no inverse: {result.reason}", tensor=planted)
    err = float(np.max(np.abs(result.inverse.data - expected)))
    if err > 1e-9 or not result.centro_verdict:
        raise _Failed(f"{side} recovery error {err:.3e}", tensor=planted)


def _matrix_recovery(rng, t):
    dim = int(rng.integers(2, 5))
    c = _well_conditioned_centro_matrix(rng, dim)
    c_inv = np.linalg.inv(c.data)
    m_left = int(rng.integers(2, 5))
    planted = shao_product(c, DenseTensor.identity(m_left, dim))
    _check_recovery("left", recover_order2_left_inverse, planted, c_inv)
    m_right = 2 * int(rng.integers(1, 3))
    planted = shao_product(DenseTensor.identity(m_right, dim), DenseTensor(c_inv))
    _check_recovery("right", recover_order2_right_inverse, planted, c.data)


def _closed_form_eigen(rng, t):
    m2 = int(rng.integers(2, 6))
    a = random_structured(m2, 2, "centro", rng)
    bound = 1e-12 * entry_scale(a)
    pair_e, pair_u = closed_form_dim2(a)
    if pair_e.residual > bound or pair_u.residual > bound:
        raise _Failed("dimension-2 closed form residual too large", tensor=a)
    m3 = 2 * int(rng.integers(1, 3))
    b = random_structured(m3, 3, "centro", rng)
    pair = closed_form_dim3_even(b)
    if pair.residual > 1e-12 * entry_scale(b) or pair.vector[1] != 0.0:
        raise _Failed("dimension-3 closed form residual too large", tensor=b)


def _eigen_reflection(rng, t):
    order = int(rng.integers(2, 5))
    dim = int(rng.integers(2, 5))
    kind = _KINDS[t % 2]
    a = random_structured(order, dim, kind, rng)
    pairs = solve_eigen(a, starts=12, seed=rng).pairs
    for pair in pairs:
        if kind == "skew" and abs(pair.value) <= 1e-8:
            continue
        try:
            mirrored = reflect_pair(a, pair)
        except ConsistencyError as exc:
            raise _Failed(str(exc), tensor=a) from exc
        expected = pair.value if kind == "centro" else -pair.value
        if abs(mirrored.value - expected) > 1e-9:
            raise _Failed("reflected eigenvalue mismatch", tensor=a)


def _cauchy_eigen_symmetry(rng, t):
    order = int(rng.integers(2, 5))
    dim = int(rng.integers(2, 5))
    spec = CauchySpec(palindromize(rng.uniform(0.2, 3.0, size=dim)), order)
    tensor = materialize(spec)
    for pair in solve_eigen(tensor, starts=12, seed=rng).pairs:
        if abs(pair.value) <= 1e-8:
            continue
        if order % 2 == 0 and pair.classification != SYMMETRIC:
            raise _Failed(
                f"even-order pair classified {pair.classification}",
                generating=spec.generating.tolist(),
                value=pair.value,
            )
        if order % 2 == 1 and pair.classification == NEITHER_CLASS:
            raise _Failed(
                "odd-order pair has non-symmetric magnitude vector",
                generating=spec.generating.tolist(),
                value=pair.value,
            )


# (name, trial, divisor): trial(rng, t) draws instance t and raises _Failed
# if an identity fails on it; a check runs trials // divisor trials.
_CHECKS = (
    ("structure-check-agreement", _structure_agreement, 1),
    ("product-parity", _product_parity, 1),
    ("hadamard-parity", _hadamard_parity, 1),
    ("decomposition-roundtrip", _decomposition, 1),
    ("row-sum-reflection", _row_sums, 1),
    ("poly-reflection", _poly_reflection, 1),
    ("cauchy-equivalence", _cauchy_equivalence, 1),
    ("diagonal-inverse-roundtrip", _diagonal_inverse, 1),
    ("matrix-inverse-recovery", _matrix_recovery, 1),
    ("closed-form-eigen", _closed_form_eigen, 1),
    ("eigen-reflection", _eigen_reflection, 8),
    ("cauchy-eigen-symmetry", _cauchy_eigen_symmetry, 8),
)

CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


def verify_all(seed: int = 0, trials: int = DEFAULT_TRIALS) -> SuiteReport:
    """Run every structural check on `trials` random instances each.

    Eigen-solver-backed checks divide the trial count down since each
    trial runs a multistart solve.  trials=0 produces an empty report.
    """
    trials = check_count(trials, "trials")
    checks = []
    if trials > 0:
        streams = np.random.SeedSequence(seed).spawn(len(_CHECKS))
        for (name, trial, divisor), stream in zip(_CHECKS, streams):
            count = max(1, trials // divisor)
            rng = np.random.default_rng(stream)
            passed, detail, payload = True, "", None
            try:
                for t in range(count):
                    trial(rng, t)
            except _Failed as failure:
                passed, detail, payload = False, failure.detail, failure.payload
            checks.append(
                CheckResult(
                    name=name,
                    passed=passed,
                    trials=count,
                    detail=detail,
                    counterexample=payload if not passed and payload else None,
                )
            )
    return SuiteReport(seed=seed, trials=trials, checks=checks)
