"""Centrosymmetry and skew-centrosymmetry: predicates, split, generators.

A tensor is centrosymmetric when it is invariant under reversing every
index (a[i1..im] = a[n-i1+1 .. n-im+1]) and skew-centrosymmetric when
that reversal negates it.  The zero tensor is the only tensor that is
both, reported with the verdict "both".  Reversal is that of the flat
entries, so a vector is just an order-1 tensor; palindromize mirrors both.

Floating-point verdicts need a declared tolerance rule: every check here
compares deviations against an absolute tolerance that defaults to
1e-12 * max(1, largest entry magnitude).  The three witnesses read that
magnitude off their own scan when A is exactly centro or skew, and
otherwise from core.entry_scale: their pair x, y covers every entry of
A, so where max|x - y| is 0, x = y and |x + y| = |2x| exactly (doubling
is exact, subnormals included), and max|x + y| / 2 is the largest
magnitude; where max|x + y| is 0 the same holds with the signs swapped.
A doubled entry that overflows leaves that deviation inf, and the
witness reads the magnitude from entry_scale.

Each witness reduces to comparing two same-size arrays x and y: the
centro deviation |x - y| and the skew deviation |x + y|.  The three pairs
are views of A's entries, so no witness builds a result-size array:

* check_structure compares the flat entries with their reversal;
* check_via_J compares J*A*J with A, where J*A*J is the product's two
  exchange actions (product._exchange_left of _exchange_right) read as
  one flat view with stride -8;
* check_commutation compares A*J with J*A as (n, n^(m-1)) views, which
  reverse each row's trailing entries and the row order respectively.

Each of the three deviation arrays reads the same backwards: its entry at
flat offset p equals the one at N-1-p.  For the flat pairs, x[p] = a[p]
and y[p] = a[N-1-p] (or the other way round), and the entry at N-1-p
swaps the two; for commutation, the entry at row i, column t compares
a[i, T-1-t] with a[n-1-i, t] (T = n^(m-1)), and the one at row n-1-i,
column T-1-t, which is flat offset N-1-p, compares the same two the
other way round.  fl(a - b) = -fl(b - a) and fl(a + b) = fl(b + a), so
the absolute deviations agree bit for bit.  An entry past the first
ceil(N/2) thus equals an earlier one, and each deviation's max and first
argmax lie in the first ceil(N/2) entries, which are all each witness
scans: half the flat entries, or for commutation the first ceil(n/2)
rows, which hold them.  The worst index unravels over A's shape, so the
report is the one the full arrays give.  At dim 1 both exchange views
are the identity, as the contraction by J = [1] is.  The views keep a
-0.0 that shao_product turns into +0.0 (see product), and the absolute
deviations do not see the sign of a zero, so the reports are the ones
the products gave.

The deviations are streamed in C order, in blocks of at most _BLOCK
entries, through two buffers of one block, keeping only each deviation's
max and first argmax, so the comparison builds no full-size temporary:
whole rows at a time while a row fits in a block, pieces of a row past
that.  A pair of at most _BLOCK entries is one block.  Max and first
argmax are exact, so a report is the one full-size arrays give.  A
deviation that overflows is inf, and the report says so.
decompose walks blocks of _BLOCK entries too, the front blocks of
core._pair_blocks and their mirrors, halving before it adds, so its
parts stay finite for any finite tensor.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import (
    DenseTensor,
    _check_cap,
    _pair_blocks,
    _real,
    _stack_entries,
    add,
    check_count,
    check_entry_count,
    check_tolerance,
    contract_trailing,
    entry_scale,
    row_sums,
)
from .product import _exchange_left, _exchange_right

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

# The reflection sign of each tensor reflection_sign has read, keyed by the
# tensor: a DenseTensor is read-only and hashes by identity, and an entry
# goes when its tensor does.
_SIGNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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


def _compare(x: np.ndarray, y: np.ndarray, tol: float | None = None, a: DenseTensor | None = None) -> StructureReport:
    """Classify by the deviations |x - y| (centro) and |x + y| (skew).

    x and y have one shape, 1-D or 2-D, and either may be a strided view,
    such as another array's entries reversed; they are read in C order.
    a is the tensor they are read from, over whose shape worst_index
    unravels the flat offset (over x's without it); a witness passes the
    leading part of its pair.  The deviations stream through _deviations,
    which keeps each one's max and first argmax, so the report is the
    one full-size arrays give.

    A given tol is the witness's checked one.  Without one, x and y must
    hold every entry of a between them, and the tolerance is
    default_tolerance(a) to the bit.  When one deviation is exactly 0,
    x = +-y and the other is twice the largest magnitude, so its half is
    the scale (see the module docstring); otherwise, or when that double
    overflowed, default_tolerance reads a again.
    """
    c_max, c_at, s_max, s_at = _deviations(x, y)
    if tol is None:
        scale = s_max / 2 if c_max == 0.0 else c_max / 2 if s_max == 0.0 else math.inf
        tol = DEFAULT_TOL_FACTOR * max(1.0, scale) if math.isfinite(scale) else default_tolerance(a)
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
    for size in reversed(x.shape if a is None else a.data.shape):
        at, i = divmod(at, size)
        index.append(i + 1)
    return StructureReport(verdict, worst, tuple(reversed(index)), tol)


@np.errstate(over="ignore")
def _deviations(x: np.ndarray, y: np.ndarray) -> tuple[float, int, float, int]:
    """Max and first C-order argmax of |x - y| and of |x + y|.

    The pair is read as rows of its last axis (a 1-D pair is one row) in
    C order, in blocks of at most _BLOCK entries: as many whole rows at a
    time as fit, or, when a row holds more, pieces of _BLOCK entries of
    one row.  Each block's deviations go into the leading corner of two
    buffers of the first block's shape.
    """
    x, y = x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])
    rows, cols = x.shape
    height, width = min(rows, max(1, _BLOCK // cols)), min(cols, _BLOCK)
    diff, total = np.empty((height, width)), np.empty((height, width))
    c_max = s_max = -1.0
    c_at = s_at = 0
    for row in range(0, rows, height):
        for col in range(0, cols, width):
            xb, yb = x[row : row + height, col : col + width], y[row : row + height, col : col + width]
            h, w = xb.shape
            d, t = diff[:h, :w], total[:h, :w]
            np.abs(np.subtract(xb, yb, out=d), out=d)
            np.abs(np.add(xb, yb, out=t), out=t)
            i, j = int(d.argmax()), int(t.argmax())
            if d.item(i) > c_max:
                c_max, c_at = d.item(i), (row + i // w) * cols + col + i % w
            if t.item(j) > s_max:
                s_max, s_at = t.item(j), (row + j // w) * cols + col + j % w
    return c_max, c_at, s_max, s_at


def check_structure(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify by direct comparison against the index-reversed tensor.

    Compares the first ceil(N/2) flat entries with the last ones read
    backwards: the deviations read the same backwards, so the first
    maximum lies there (see the module docstring).
    """
    tol = tol if tol is None else check_tolerance(tol)
    flat = a.entries
    half = (flat.size + 1) // 2
    return _compare(flat[:half], flat[::-1][:half], tol, a)


def check_via_J(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify through the exchange-matrix sandwich J*A*J compared to +-A.

    Independent witness path for the same verdicts as check_structure:
    the sandwich realizes the full index reversal through the product's
    two exchange actions instead of direct entry permutation.  J*A*J is
    a flat view of A's entries with stride -8, and only its first
    ceil(N/2) entries are compared with A's, since the deviations read
    the same backwards (see the module docstring).  Order 1 is a
    ValueError, as for A*J.
    """
    tol = tol if tol is None else check_tolerance(tol)
    jaj = _exchange_left(_exchange_right(a.data)).reshape(-1)
    half = (jaj.size + 1) // 2
    return _compare(jaj[:half], a.entries[:half], tol, a)


def check_commutation(a: DenseTensor, tol: float | None = None) -> StructureReport:
    """Classify by whether A commutes (centro) or anticommutes (skew) with J.

    A*J and J*A are read as (n, n^(m-1)) views of A's entries through the
    product's exchange actions, and only their first ceil(n/2) rows are
    compared, since the deviations read the same backwards (see the
    module docstring).  Order 1 is a ValueError, as for A*J.
    """
    tol = tol if tol is None else check_tolerance(tol)
    aj = _exchange_right(a.data)
    ja = _exchange_left(a.data).reshape(aj.shape)
    half = (a.dim + 1) // 2
    return _compare(aj[:half], ja[:half], tol, a)


def decompose(a: DenseTensor) -> Decomposition:
    """Split A into (A/2 + A^rev/2) + (A/2 - A^rev/2).

    The first part is centrosymmetric and the second skew by
    construction; they reconstruct A up to one rounding step.  Halving
    before adding keeps both parts finite for any finite A, and gives
    the bits of (A +- A^rev)/2 wherever that sum neither overflows nor
    goes subnormal.  Each pair (q, N-1-q) of flat entries is split once,
    in the blocks of core._pair_blocks, from its halves h = a_q/2 and
    hr = a_{N-1-q}/2: entry q of the parts
    is h + hr and h - hr, and entry N-1-q a copy of h + hr (which is
    hr + h) and hr - h, not -(h - hr), which would turn a +0.0 into -0.0.
    The split is written block by block, so the two parts are its only
    full-size allocations, and the halves of finite entries are finite,
    so neither part is scanned again.
    """
    flat, size = a.entries, a.entries.size
    centro, skew = np.empty(size), np.empty(size)
    half, half_rev = np.empty(min(size, _BLOCK)), np.empty(min(size, _BLOCK))
    for start, stop, k in _pair_blocks(size, _BLOCK):
        h = np.multiply(flat[start:stop], 0.5, out=half[: stop - start])
        hr = np.multiply(flat[size - stop : size - start][::-1], 0.5, out=half_rev[: stop - start])
        np.add(h, hr, out=centro[start:stop])
        np.subtract(h, hr, out=skew[start:stop])
        # the mirrors of this block's proper pairs (an odd N's middle entry is its own)
        centro[size - start - k : size - start] = centro[start : start + k][::-1]
        np.subtract(hr[:k], h[:k], out=skew[size - start - k : size - start][::-1])
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
    """Mirror the first half of the flat (row-major) entries onto the second,
    making Jc = c for a vector and a centrosymmetric array of any shape.
    c must be real (see core._real); its mirror is a float copy."""
    out = _real(c, "palindromized values").copy()
    flat, half = out.reshape(-1), out.size // 2
    flat[out.size - half :] = flat[:half][::-1]
    return out


def require_centro(a: DenseTensor) -> None:
    """Raise ValueError unless A classifies centrosymmetric at the default tolerance."""
    if not check_structure(a).is_centro:
        raise ValueError("tensor is not centrosymmetric")


def reflection_sign(a: DenseTensor) -> float:
    """1.0 for a centro tensor (the zero tensor included), -1.0 for a skew one.

    Reversing every index multiplies A by this sign, so f(Jx) = sign * f(x)
    and (sign * lambda, Jx) is an eigenpair whenever (lambda, x) is.  The
    sign is read from check_structure at the default tolerance, once per
    tensor: A is read-only, so its verdict cannot change, and later calls
    look the sign up in a map keyed weakly by A, which mutates nothing of
    A and does not keep it alive.  A tensor that is neither raises
    ValueError, on every call, as its verdict is not kept.
    """
    sign = _SIGNS.get(a)
    if sign is None:
        report = check_structure(a)
        if report.is_centro:
            sign = 1.0
        elif report.is_skew:
            sign = -1.0
        else:
            raise ValueError("tensor is neither centro nor skew")
        _SIGNS[a] = sign
    return sign


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
        _stack_entries(trials, a.order, a.dim), "%s trials on order %s dim %s stack", trials, a.order, a.dim
    )
    sign = reflection_sign(a)
    xs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(trials, a.dim))
    fx = contract_trailing(a.data, xs, a.order)
    fjx = contract_trailing(a.data, xs[:, ::-1], a.order)
    return not np.any(np.abs(fjx - sign * fx) > _POLY_TOL * np.maximum(1.0, np.abs(fx)))
