"""Centrosymmetry and skew-centrosymmetry: predicates, split, generators.

A tensor is centrosymmetric when it is invariant under reversing every
index (a[i1..im] = a[n-i1+1 .. n-im+1]) and skew-centrosymmetric when
that reversal negates it.  The zero tensor is the only tensor that is
both, reported with the verdict "both".

Floating-point verdicts need a declared tolerance rule: every check here
compares deviations against an absolute tolerance that defaults to
1e-12 * max(1, largest entry magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DenseTensor,
    add,
    as_generator,
    check_count,
    check_entry_count,
    check_tolerance,
    contract_trailing,
    entry_scale,
    reverse_tensor,
    row_sums,
    scale,
    sub,
)
from .product import exchange_matrix, shao_product

__all__ = [
    "CENTRO",
    "SKEW",
    "BOTH",
    "NEITHER",
    "DEFAULT_TOL_FACTOR",
    "StructureReport",
    "Decomposition",
    "default_tolerance",
    "check_structure",
    "check_via_J",
    "check_commutation",
    "decompose",
    "random_structured",
    "require_centro",
    "reflection_sign",
    "verify_row_sum_symmetry",
    "verify_poly_reflection",
]

CENTRO = "centrosymmetric"
SKEW = "skew-centrosymmetric"
BOTH = "both"
NEITHER = "neither"

DEFAULT_TOL_FACTOR = 1e-12


@dataclass(frozen=True)
class StructureReport:
    """Classification verdict with the size and location of the worst deviation.

    For a passing verdict max_violation is the largest (tolerated)
    deviation of the claimed identity; for "neither" it is the deviation
    of the nearer of the two structures.  worst_index is 1-based.
    """

    verdict: str
    max_violation: float
    worst_index: tuple[int, ...]
    tolerance_used: float

    @property
    def is_centro(self) -> bool:
        return self.verdict in (CENTRO, BOTH)

    @property
    def is_skew(self) -> bool:
        return self.verdict in (SKEW, BOTH)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_violation": self.max_violation,
            "worst_index": list(self.worst_index),
            "tolerance_used": self.tolerance_used,
        }


@dataclass(frozen=True)
class Decomposition:
    """Split of a tensor into a centrosymmetric and a skew part summing to it."""

    centro: DenseTensor
    skew: DenseTensor

    def reconstruct(self) -> DenseTensor:
        return add(self.centro, self.skew)


def default_tolerance(a: DenseTensor) -> float:
    return DEFAULT_TOL_FACTOR * entry_scale(a)


def _tolerance(a: DenseTensor, tol, path: str | None = None) -> float:
    """The checked tolerance, or the default one; a named path needs order >= 2."""
    if path is not None and a.order < 2:
        raise ValueError(f"{path} check requires tensor order >= 2")
    return default_tolerance(a) if tol is None else check_tolerance(tol)


def _argmax_index(dev: np.ndarray) -> tuple[int, ...]:
    flat = int(np.argmax(dev))
    return tuple(int(i) + 1 for i in np.unravel_index(flat, dev.shape))


def _report(centro_dev: np.ndarray, skew_dev: np.ndarray, tol: float) -> StructureReport:
    c_max = float(centro_dev.max())
    s_max = float(skew_dev.max())
    c_ok = c_max <= tol
    s_ok = s_max <= tol
    if c_ok and s_ok:
        combined = np.maximum(centro_dev, skew_dev)
        return StructureReport(BOTH, float(combined.max()), _argmax_index(combined), tol)
    if c_ok:
        return StructureReport(CENTRO, c_max, _argmax_index(centro_dev), tol)
    if s_ok:
        return StructureReport(SKEW, s_max, _argmax_index(skew_dev), tol)
    if c_max <= s_max:
        return StructureReport(NEITHER, c_max, _argmax_index(centro_dev), tol)
    return StructureReport(NEITHER, s_max, _argmax_index(skew_dev), tol)


def check_structure(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify by direct comparison against the index-reversed tensor."""
    tol = _tolerance(a, tol)
    rev = reverse_tensor(a).data
    return _report(np.abs(a.data - rev), np.abs(a.data + rev), tol)


def check_via_J(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify through the exchange-matrix sandwich J*A*J compared to +-A.

    Independent witness path for the same verdicts as check_structure:
    sandwiching with J realizes the full index reversal through the
    product operation instead of direct entry permutation.
    """
    tol = _tolerance(a, tol, "sandwich")
    j = exchange_matrix(a.dim)
    jaj = shao_product(j, shao_product(a, j)).data
    return _report(np.abs(jaj - a.data), np.abs(jaj + a.data), tol)


def check_commutation(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify by whether A commutes (centro) or anticommutes (skew) with J."""
    tol = _tolerance(a, tol, "commutation")
    j = exchange_matrix(a.dim)
    aj = shao_product(a, j).data
    ja = shao_product(j, a).data
    return _report(np.abs(aj - ja), np.abs(aj + ja), tol)


def decompose(a: DenseTensor) -> Decomposition:
    """Split A into (A + A^rev)/2 + (A - A^rev)/2.

    The first part is centrosymmetric and the second skew by
    construction; they reconstruct A up to one rounding step.
    """
    rev = reverse_tensor(a)
    return Decomposition(
        centro=scale(add(a, rev), 0.5),
        skew=scale(sub(a, rev), 0.5),
    )


def random_structured(order: int, dim: int, kind: str = "general", seed=0) -> DenseTensor:
    """Random tensor with uniform[-1,1] free entries, mirrored per kind.

    kind "centro" copies each free entry to its reversed position, "skew"
    copies the negation and zeroes the self-paired central entry (odd
    dim), "general" applies no mirroring.  Deterministic per seed; seed
    may be an int or a numpy Generator.
    """
    if order < 1 or dim < 1:
        raise ValueError("order and dim must be positive")
    if kind not in ("centro", "skew", "general"):
        raise ValueError(f"unknown kind {kind!r}")
    check_entry_count(order, dim)
    rng = as_generator(seed)
    count = dim**order
    draw = rng.uniform(-1.0, 1.0, size=count)
    if kind == "general":
        flat = draw
    else:
        # Index reversal acts on flat row-major offsets as p -> count-1-p,
        # so mirroring pairs offset p with its reflection about the middle.
        idx = np.arange(count)
        rev = count - 1 - idx
        flat = draw[np.minimum(idx, rev)]
        if kind == "skew":
            sign = np.sign(rev - idx).astype(float)
            flat = flat * sign
    return DenseTensor.from_entries(order, dim, flat)


def require_centro(a: DenseTensor) -> None:
    """Raise ValueError unless A classifies centrosymmetric at the default tolerance."""
    if not check_structure(a).is_centro:
        raise ValueError("tensor is not centrosymmetric")


def reflection_sign(a: DenseTensor) -> float:
    """1.0 for a centro tensor (the zero tensor included), -1.0 for a skew one.

    Reversing every index multiplies A by this sign, so f(Jx) = sign * f(x)
    and (sign * lambda, Jx) is an eigenpair whenever (lambda, x) is.  A
    tensor that is neither raises ValueError.  Same verdicts as
    check_structure at the default tolerance, without building its report.
    """
    tol = default_tolerance(a)
    flat = a.entries
    rev = flat[::-1]
    if np.max(np.abs(flat - rev)) <= tol:
        return 1.0
    if np.max(np.abs(flat + rev)) <= tol:
        return -1.0
    raise ValueError("tensor is neither centro nor skew")


def verify_row_sum_symmetry(
    a: DenseTensor, tol: float | None = None, assume: str | None = None
) -> tuple[bool, int | None]:
    """Check the reflection law of row sums: r_i = r_{n-i+1} for a
    centrosymmetric tensor, r_i = -r_{n-i+1} for a skew one.

    For a skew tensor of odd dimension the central row sum must itself
    vanish.  The skew comparison at the centre index c checks that too:
    doubling is exact, so |r_c + r_c| <= tol means |r_c| <= tol/2.  The
    structure kind is taken from check_structure unless `assume` forces
    "centro" or "skew".  Returns (ok, witness) where witness is the first
    failing 1-based row index.
    """
    tol = _tolerance(a, tol)
    if assume is None:
        verdict = check_structure(a, tol).verdict
        if verdict == NEITHER:
            raise ValueError("tensor is neither centro nor skew; pass assume=")
        kinds = {CENTRO: ("centro",), SKEW: ("skew",), BOTH: ("centro", "skew")}[verdict]
    else:
        if assume not in ("centro", "skew"):
            raise ValueError("assume must be 'centro' or 'skew'")
        kinds = (assume,)

    r = row_sums(a)
    r_flip = r[::-1]
    for kind in kinds:
        dev = np.abs(r - r_flip) if kind == "centro" else np.abs(r + r_flip)
        bad = np.nonzero(dev > tol)[0]
        if bad.size:
            return False, int(bad[0]) + 1
    return True, None


def verify_poly_reflection(
    a: DenseTensor, trials: int = 20, seed=0, tol: float = 1e-10
) -> bool:
    """Sample random x and confirm f(Jx) = f(x) (centro) or -f(x) (skew),
    where f is the tensor's homogeneous polynomial.

    Per-sample bound is tol * max(1, |f(x)|).  The tensor must classify
    centro or skew.  All samples come from one (trials, n) draw, the same
    stream as one size-n draw per trial.
    """
    trials = check_count(trials, "trials")
    tol = check_tolerance(tol)
    sign = reflection_sign(a)
    xs = as_generator(seed).uniform(-1.0, 1.0, size=(trials, a.dim))
    fx = contract_trailing(a.data, xs, a.order)
    fjx = contract_trailing(a.data, xs[:, ::-1], a.order)
    return not np.any(np.abs(fjx - sign * fx) > tol * np.maximum(1.0, np.abs(fx)))
