"""Cauchy tensors built from a generating vector.

An order-m Cauchy tensor over c in R^n has entries
1 / (c_{i1} + ... + c_{im}).  The entry exists only when no m-fold index
sum of c vanishes; construction scans every multiset of m components and
fails loudly on a (near-)zero sum instead of emitting huge entries.

Structure facts encoded here: the tensor is centrosymmetric exactly when
c is a palindrome, skew-centrosymmetric (even n only) exactly when c is
an anti-palindrome, and there is no odd-dimension skew case because the
central entry would have to be zero while being a reciprocal.  Both
predicates are structure.check_structure on the order-1 tensor c, and
structure.palindromize makes palindromes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import DenseTensor, DomainError, check_entry_count, check_tolerance, entry_scale
from .product import exchange_matrix, shao_product
from .structure import check_structure, default_tolerance

__all__ = [
    "CauchySpecError",
    "CauchySpec",
    "NEAR_ZERO_FACTOR",
    "materialize",
    "cauchy_is_centro",
    "cauchy_is_skew",
    "cauchy_check_JC",
]

# An index sum smaller than this (times the component scale) is treated
# as a vanishing denominator.
NEAR_ZERO_FACTOR = 1e-14


class CauchySpecError(DomainError):
    """The generating vector has an m-fold index sum that vanishes or has
    no finite reciprocal."""


@dataclass(frozen=True, eq=False)
class CauchySpec:
    """Generating vector plus tensor order; the tensor itself stays lazy."""

    generating: np.ndarray
    order: int

    def __post_init__(self):
        c = np.ascontiguousarray(self.generating, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("generating vector must be a nonempty 1-D array")
        if not np.all(np.isfinite(c)):
            raise ValueError("generating vector must be finite")
        if self.order < 1:
            raise ValueError("order must be positive")
        c.flags.writeable = False
        object.__setattr__(self, "generating", c)

    @property
    def dim(self) -> int:
        return self.generating.size


def _index_sums(spec: CauchySpec) -> np.ndarray:
    """All m-fold component sums as an order-m array, left to right.

    The order and the n^m entry count are checked before anything is
    built: past numpy's axis limit is a ValueError, past
    DEFAULT_ENTRY_CAP a ResourceLimitError.  A sum that overflows is left
    infinite, without a warning, for materialize to reject.
    """
    check_entry_count(spec.order, spec.dim, "Cauchy tensor")
    with np.errstate(over="ignore"):
        return reduce(np.add.outer, [spec.generating] * spec.order)


def _scan_sums(spec: CauchySpec, sums: np.ndarray) -> None:
    """Reject the first multiset (in combinations order) with a near-zero sum.

    The decision and the reported sum are those of ``c[combo].sum()`` over
    the multiset's sorted indices.  numpy adds eight or more terms
    pairwise while `sums` was built left to right, so the two can differ
    by a few ulps; the vectorized pass therefore only selects candidates:
    every entry within a rounding margin of the threshold, or non-finite
    (a partial sum that overflowed).  Sorted index tuples of candidates in
    row-major order are the multisets in combinations-with-replacement
    order, and each gets the exact test.
    """
    c = spec.generating
    scale = entry_scale(DenseTensor(c))
    threshold = NEAR_ZERO_FACTOR * scale
    # without overflow, any m-term float sum is within (m-1) (eps/2) sum|c_i|
    # of the exact one, so two of them differ by less than m^2 eps scale;
    # the margin is four times that
    bound = threshold + 4 * spec.order**2 * np.finfo(float).eps * scale
    candidates = ((sums < bound) & (sums > -bound)) | ~np.isfinite(sums)
    if not candidates.any():
        return
    index = np.stack(np.nonzero(candidates), axis=1)
    for combo in index[np.all(np.diff(index, axis=1) >= 0, axis=1)].tolist():
        with np.errstate(over="ignore", invalid="ignore"):
            s = float(c[combo].sum())
        if abs(s) < threshold:
            ones_based = tuple(i + 1 for i in combo)
            raise CauchySpecError(
                f"index sum {s!r} for multiset {ones_based} is below "
                f"threshold {threshold!r}; entries do not exist"
            )


def materialize(spec: CauchySpec) -> DenseTensor:
    """Build the dense tensor of reciprocals of m-fold component sums.

    The result is fully symmetric (invariant under any index
    permutation) since each entry depends only on the index multiset.
    A near-zero sum raises CauchySpecError naming the first offending
    multiset (1-based).  Past that scan, a sum whose reciprocal is not
    finite, and then a sum that is not finite itself (it overflowed, so
    its reciprocal would read 0), raises it naming the first such index:
    with components near the float limit the multiset scan can see an
    overflowed sum where another order of the same terms cancels to 0.
    """
    sums = _index_sums(spec)
    _scan_sums(spec, sums)
    try:
        with np.errstate(divide="raise", over="raise"):
            entries = 1.0 / sums
    except FloatingPointError:
        with np.errstate(divide="ignore", over="ignore"):
            bad = ~np.isfinite(1.0 / sums)
        raise _first_bad(sums, bad, "has no finite reciprocal") from None
    # 1/inf is 0 with no floating-point error, and no finite sum has a zero
    # reciprocal, so a zero entry marks a sum that overflowed
    if not entries.all():
        raise _first_bad(sums, ~np.isfinite(sums), "is not finite")
    return DenseTensor(entries)


def _first_bad(sums: np.ndarray, bad: np.ndarray, problem: str) -> CauchySpecError:
    """The error naming the first (row-major) index marked bad, 1-based."""
    index = np.unravel_index(np.argmax(bad), sums.shape)
    return CauchySpecError(
        f"index sum {float(sums[index])!r} at index "
        f"{tuple(int(i) + 1 for i in index)} {problem}; entries do not exist"
    )


def cauchy_is_centro(spec: CauchySpec, tol: float | None = None) -> bool:
    """Vector-level test: centro iff c is a palindrome (check_structure of c)."""
    return check_structure(DenseTensor(spec.generating), tol).is_centro


def cauchy_is_skew(spec: CauchySpec, tol: float | None = None) -> bool:
    """Vector-level test: skew iff c is an anti-palindrome and n is even.

    c is classified by check_structure first, so an invalid tol raises at
    any n.  Odd n returns False unconditionally (the central entry 1/(m c_i)
    would have to vanish).  A passing vector test does not guarantee the
    tensor exists; materialize() still scans for vanishing sums.
    """
    return check_structure(DenseTensor(spec.generating), tol).is_skew and spec.dim % 2 == 0


def cauchy_check_JC(spec: CauchySpec, tol: float | None = None) -> bool:
    """Product-level centro test: both J*C and C*J reproduce C.

    Materializes the tensor, so construction errors propagate.  Agrees
    with cauchy_is_centro on every valid spec.
    """
    c_tensor = materialize(spec)
    tol = default_tolerance(c_tensor) if tol is None else check_tolerance(tol)
    j = exchange_matrix(spec.dim)
    jc = shao_product(j, c_tensor)
    cj = shao_product(c_tensor, j)
    dev = max(
        float(np.max(np.abs(jc.data - c_tensor.data))),
        float(np.max(np.abs(cj.data - c_tensor.data))),
    )
    return dev <= tol
