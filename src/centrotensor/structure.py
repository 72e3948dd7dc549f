"""Centrosymmetry and skew-centrosymmetry: predicates, split, generators.

A tensor is centrosymmetric when it is invariant under reversing every
index (a[i1..im] = a[n-i1+1 .. n-im+1]) and skew-centrosymmetric when
that reversal negates it.  The zero tensor is the only tensor that is
both, reported with the verdict "both".  Reversal is that of the flat
entries, so a vector is just an order-1 tensor; palindromize mirrors both.

Floating-point verdicts need a declared tolerance rule: every check here
compares deviations against an absolute tolerance that defaults to
1e-12 * max(1, largest entry magnitude).

Each witness reduces to comparing two same-size arrays x and y: the
centro deviation |x - y| and the skew deviation |x + y|.  Past _BLOCK
entries those are streamed through two reused buffers of _BLOCK
entries, keeping only each deviation's max and first argmax, so the
comparison builds no full-size temporary; a tensor of at most _BLOCK
entries is one block, taken in two whole-array passes.  The direct
check reads the reversed entries as a view instead of copying them.
Max and first argmax are exact, so a report is the one full-size arrays
give.  A deviation that overflows is inf, and the report says so.
decompose walks the same blocks, halving before it adds, so its parts
stay finite for any finite tensor.

The sandwich and commutation witnesses multiply by the exchange matrix
J through shao_product, which recognises J by its entries and applies it
as a reversal instead of contracting (see product): the same bits as the
contractions, without their multiplications by 0.  The direct check
reverses the flat entries in one pass, so the three witnesses still run
three different computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DenseTensor,
    _check_cap,
    _stack_entries,
    add,
    check_count,
    check_entry_count,
    check_tolerance,
    contract_trailing,
    entry_scale,
    row_sums,
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
    "palindromize",
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

# Entries per block of the streamed comparison and split: 256 KB of floats
# per buffer, so the buffers and the input blocks they read stay in cache.
_BLOCK = 2**15

# Relative per-sample bound of verify_poly_reflection: f(x) and f(Jx) sum
# the same products in different orders, so they agree only to rounding.
_POLY_TOL = 1e-10


@dataclass(frozen=True)
class StructureReport:
    """Classification verdict with the size and location of the worst deviation.

    For a passing verdict max_violation is the largest (tolerated)
    deviation of the claimed identity; for "neither" it is the deviation
    of the nearer of the two structures.  worst_index is 1-based.  A
    deviation that overflows makes max_violation inf, which as_dict
    writes as None (JSON null), since JSON has no infinity.
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
            "max_violation": self.max_violation if math.isfinite(self.max_violation) else None,
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


def _tolerance(a: DenseTensor, tol) -> float:
    """The checked tolerance, or the default one."""
    return default_tolerance(a) if tol is None else check_tolerance(tol)


def _compare(x: np.ndarray, y: np.ndarray, tol: float) -> StructureReport:
    """Classify by the deviations |x - y| (centro) and |x + y| (skew).

    y holds as many entries as x and may be a strided view, such as x's
    entries reversed; worst_index unravels over x's shape.  A tensor of
    at most _BLOCK entries is one block, compared in two whole-array
    passes; a larger one goes through two reused buffers of _BLOCK
    entries.  Either way each deviation keeps its max and first argmax,
    so both give the same report.
    """
    c_max, c_at, s_max, s_at = _deviations(x.reshape(-1), y.reshape(-1))
    c_ok, s_ok = c_max <= tol, s_max <= tol
    if c_ok and s_ok:
        # max(|x - y|, |x + y|) first peaks at the earlier first argmax of
        # the deviations whose max is the larger one
        worst = max(c_max, s_max)
        verdict, at = BOTH, min(i for m, i in ((c_max, c_at), (s_max, s_at)) if m == worst)
    elif c_ok:
        verdict, worst, at = CENTRO, c_max, c_at
    elif s_ok:
        verdict, worst, at = SKEW, s_max, s_at
    elif c_max <= s_max:
        verdict, worst, at = NEITHER, c_max, c_at
    else:
        verdict, worst, at = NEITHER, s_max, s_at
    # unravel the flat offset 1-based; np.unravel_index costs more on a few entries
    index = []
    for size in reversed(x.shape):
        at, i = divmod(at, size)
        index.append(i + 1)
    return StructureReport(verdict, worst, tuple(reversed(index)), tol)


@np.errstate(over="ignore")
def _deviations(xf: np.ndarray, yf: np.ndarray) -> tuple[float, int, float, int]:
    """Max and first argmax of |x - y| and of |x + y| for flat x and y.

    Up to _BLOCK entries this is two whole-array passes; past that, the
    deviations stream through _streamed_deviations.
    """
    if xf.size > _BLOCK:
        return _streamed_deviations(xf, yf)
    d, t = np.abs(xf - yf), np.abs(xf + yf)
    i, j = int(np.argmax(d)), int(np.argmax(t))
    return float(d[i]), i, float(t[j]), j


@np.errstate(over="ignore")
def _streamed_deviations(xf: np.ndarray, yf: np.ndarray) -> tuple[float, int, float, int]:
    """_deviations of any size, through two reused buffers of _BLOCK entries."""
    diff, total = np.empty(min(xf.size, _BLOCK)), np.empty(min(xf.size, _BLOCK))
    c_max = s_max = -1.0
    c_at = s_at = 0
    for start in range(0, xf.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        xb, yb = xf[block], yf[block]
        d, t = diff[: xb.size], total[: xb.size]
        np.abs(np.subtract(xb, yb, out=d), out=d)
        np.abs(np.add(xb, yb, out=t), out=t)
        i, j = int(np.argmax(d)), int(np.argmax(t))
        if d[i] > c_max:
            c_max, c_at = float(d[i]), start + i
        if t[j] > s_max:
            s_max, s_at = float(t[j]), start + j
    return c_max, c_at, s_max, s_at


def check_structure(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify by direct comparison against the index-reversed tensor."""
    tol = _tolerance(a, tol)
    return _compare(a.data, a.entries[::-1], tol)


def check_via_J(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify through the exchange-matrix sandwich J*A*J compared to +-A.

    Independent witness path for the same verdicts as check_structure:
    sandwiching with J realizes the full index reversal through the
    product operation instead of direct entry permutation.
    """
    tol = _tolerance(a, tol)
    j = exchange_matrix(a.dim)
    jaj = shao_product(j, shao_product(a, j)).data
    return _compare(jaj, a.data, tol)


def check_commutation(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify by whether A commutes (centro) or anticommutes (skew) with J."""
    tol = _tolerance(a, tol)
    j = exchange_matrix(a.dim)
    aj = shao_product(a, j).data
    ja = shao_product(j, a).data
    return _compare(aj, ja, tol)


def decompose(a: DenseTensor) -> Decomposition:
    """Split A into (A/2 + A^rev/2) + (A/2 - A^rev/2).

    The first part is centrosymmetric and the second skew by
    construction; they reconstruct A up to one rounding step.  Halving
    before adding keeps both parts finite for any finite A, and gives
    the bits of (A +- A^rev)/2 wherever that sum neither overflows nor
    goes subnormal.  The split is written block by block, so the two
    parts are its only full-size allocations, and the halves of finite
    entries are finite, so neither part is scanned again.
    """
    flat, rev = a.entries, a.entries[::-1]
    centro, skew = np.empty(flat.size), np.empty(flat.size)
    half, half_rev = np.empty(min(flat.size, _BLOCK)), np.empty(min(flat.size, _BLOCK))
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        h = np.multiply(flat[block], 0.5, out=half[: flat[block].size])
        hr = np.multiply(rev[block], 0.5, out=half_rev[: h.size])
        np.add(h, hr, out=centro[block])
        np.subtract(h, hr, out=skew[block])
    shape = a.data.shape
    return Decomposition(DenseTensor._adopt(centro.reshape(shape)), DenseTensor._adopt(skew.reshape(shape)))


def random_structured(order: int, dim: int, kind: str = "general", seed=0) -> DenseTensor:
    """Random tensor with uniform[-1,1] free entries, mirrored per kind.

    One flat draw: "general" keeps it, "centro" palindromizes it (the
    flat reversal is the index reversal), "skew" also negates the second
    half and zeroes the self-paired centre of odd dim by multiplying by
    0.0.  Deterministic per seed; seed may be an int or a numpy Generator.
    """
    if kind not in ("centro", "skew", "general"):
        raise ValueError(f"unknown kind {kind!r}")
    check_entry_count(order, dim)
    flat = np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim**order)
    if kind != "general":
        flat = palindromize(flat)
    if kind == "skew":
        half = flat.size // 2
        flat[flat.size - half :] *= -1.0
        flat[half : flat.size - half] *= 0.0
    return DenseTensor._from_flat(order, dim, flat)


def palindromize(c) -> np.ndarray:
    """Mirror the first half of a vector onto the second, making Jc = c."""
    out = np.asarray(c, dtype=float).copy()
    half = out.size // 2
    out[out.size - half :] = out[:half][::-1]
    return out


def require_centro(a: DenseTensor) -> None:
    """Raise ValueError unless A classifies centrosymmetric at the default tolerance."""
    if not check_structure(a).is_centro:
        raise ValueError("tensor is not centrosymmetric")


def reflection_sign(a: DenseTensor) -> float:
    """1.0 for a centro tensor (the zero tensor included), -1.0 for a skew one.

    Reversing every index multiplies A by this sign, so f(Jx) = sign * f(x)
    and (sign * lambda, Jx) is an eigenpair whenever (lambda, x) is.  The
    sign is read from check_structure at the default tolerance; a tensor
    that is neither raises ValueError.
    """
    report = check_structure(a)
    if report.is_centro:
        return 1.0
    if report.is_skew:
        return -1.0
    raise ValueError("tensor is neither centro nor skew")


@np.errstate(over="ignore", invalid="ignore")
def verify_row_sum_symmetry(a: DenseTensor, assume: str) -> tuple[bool, int | None]:
    """Check the reflection law of row sums: r_i = r_{n-i+1} for a
    centrosymmetric tensor, r_i = -r_{n-i+1} for a skew one.

    `assume` names the law, "centro" or "skew", and each deviation is
    compared against tol = default_tolerance(a).  For a skew tensor of odd
    dimension the central row sum must itself vanish.  The skew
    comparison at the centre index c checks that too: doubling is exact,
    so |r_c + r_c| <= tol means |r_c| <= tol/2.  Returns (ok, witness)
    where witness is the first failing 1-based row index.  A row sum that
    overflows float64 raises ValueError naming its row, since no
    reflection law can be read from it.
    """
    if assume not in ("centro", "skew"):
        raise ValueError("assume must be 'centro' or 'skew'")
    r = row_sums(a)
    overflow = np.flatnonzero(~np.isfinite(r))
    if overflow.size:
        raise ValueError(f"row sum {int(overflow[0]) + 1} overflows float64")
    dev = np.abs(r - r[::-1]) if assume == "centro" else np.abs(r + r[::-1])
    bad = np.flatnonzero(dev > default_tolerance(a))
    if bad.size:
        return False, int(bad[0]) + 1
    return True, None


def verify_poly_reflection(a: DenseTensor, trials: int = 20, seed=0) -> bool:
    """Sample random x and confirm f(Jx) = f(x) (centro) or -f(x) (skew),
    where f is the tensor's homogeneous polynomial.

    Per-sample bound is 1e-10 * max(1, |f(x)|) (_POLY_TOL).  The tensor
    must classify centro or skew.  All samples come from one (trials, n) draw,
    the same stream as one size-n draw per trial.  Trials whose contraction
    would hold more than core.DEFAULT_ENTRY_CAP entries (see
    core._stack_entries) are a ResourceLimitError, raised before the draw.
    """
    trials = check_count(trials, "trials")
    _check_cap(
        _stack_entries(trials, a.order, a.dim), f"{trials} trials on order {a.order} dim {a.dim} stack"
    )
    sign = reflection_sign(a)
    xs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(trials, a.dim))
    fx = contract_trailing(a.data, xs, a.order)
    fjx = contract_trailing(a.data, xs[:, ::-1], a.order)
    return not np.any(np.abs(fjx - sign * fx) > _POLY_TOL * np.maximum(1.0, np.abs(fx)))
