"""Cauchy tensors built from a generating vector.

An order-m Cauchy tensor over c in R^n has entries
1 / (c_{i1} + ... + c_{im}).  The entry exists only when no m-fold index
sum of c vanishes; construction scans every multiset of m components and
fails loudly on a (near-)zero sum instead of emitting huge entries.

materialize allocates only its result at full size.  It takes the
(m-1)-fold leading sums once (1/n of the result), then walks the result
in blocks of structure._BLOCK entries (whole rows of n): one pass adds
the last component into the block, a min and a max clear it of
candidates, or a mask picks them out for the exact multiset test, and a
last pass takes the reciprocals in place.  Errors keep one priority
whatever block they sit in: the first near-zero multiset, then the first
index whose sum has no finite reciprocal, then the first sum that
overflowed.

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
from .structure import _BLOCK, check_structure, default_tolerance

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


def _lead_sums(spec: CauchySpec) -> np.ndarray:
    """The (m-1)-fold sums of the leading components, flat in row-major order.

    The order and the n^m entry count are checked before anything is
    built: past numpy's axis limit is a ValueError, past
    DEFAULT_ENTRY_CAP a ResourceLimitError.  The sums run left to right
    from -0.0, which adds no bits, so at m = 1 there is one leading sum.
    A sum that overflows is left infinite, without a warning.
    """
    check_entry_count(spec.order, spec.dim, "Cauchy tensor")
    with np.errstate(over="ignore"):
        return reduce(np.add.outer, [spec.generating] * (spec.order - 1), np.array(-0.0)).reshape(-1)


def _summed_blocks(spec: CauchySpec, lead: np.ndarray, out: np.ndarray):
    """Write every m-fold sum into `out` (lead.size rows of n), a block of rows at a time.

    Row r gets lead[r] + c, the left-to-right sum over its row-major
    index.  Each block is scanned before it is yielded as (first flat
    index, block, suspect): a near-zero multiset raises CauchySpecError,
    and suspect marks a block that held a candidate, the only kind that
    can hold a sum with no finite reciprocal.

    Candidates are the entries within a rounding margin of the threshold,
    or non-finite (a partial sum that overflowed).  numpy adds eight or
    more terms pairwise, so an entry and ``c[combo].sum()`` can differ by a
    few ulps; the latter, over the multiset's sorted indices, decides.
    Sorted candidate indices in row-major order are the multisets in
    combinations-with-replacement order, so the blocks, taken in order,
    raise at the first offending multiset.
    """
    c = spec.generating
    scale = entry_scale(DenseTensor(c))
    threshold = NEAR_ZERO_FACTOR * scale
    # without overflow, any m-term float sum is within (m-1) (eps/2) sum|c_i|
    # of the exact one, so two of them differ by less than m^2 eps scale;
    # the margin is four times that
    bound = threshold + 4 * spec.order**2 * np.finfo(float).eps * scale
    shape = (spec.dim,) * spec.order
    step = max(1, _BLOCK // spec.dim)
    for row in range(0, lead.size, step):
        block = out[row : row + step]
        with np.errstate(over="ignore"):
            np.add(lead[row : row + step, None], c, out=block)
        low, high = float(block.min()), float(block.max())
        # the margin is at least 1e-14, so a block clear of it has no
        # candidate and every reciprocal is finite and nonzero
        if bound <= low and high < np.inf or -np.inf < low and high <= -bound:
            flat = ()
        else:
            flat = np.flatnonzero(((block < bound) & (block > -bound)) | ~np.isfinite(block))
        if len(flat):
            index = np.stack(np.unravel_index(row * spec.dim + flat, shape), axis=1)
            for combo in index[np.all(np.diff(index, axis=1) >= 0, axis=1)].tolist():
                with np.errstate(over="ignore", invalid="ignore"):
                    s = float(c[combo].sum())
                if abs(s) < threshold:
                    ones_based = tuple(i + 1 for i in combo)
                    raise CauchySpecError(
                        f"index sum {s!r} for multiset {ones_based} is below "
                        f"threshold {threshold!r}; entries do not exist"
                    )
        yield row * spec.dim, block, len(flat) > 0


def _scan_sums(spec: CauchySpec) -> None:
    """The multiset scan alone, without the reciprocals materialize takes."""
    lead = _lead_sums(spec)
    for _ in _summed_blocks(spec, lead, np.empty((lead.size, spec.dim))):
        pass


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

    Only the result is allocated at full size.  The (m-1)-fold leading
    sums (1/n of the result) are taken once; then, block by block of
    structure._BLOCK entries, the last component is added into the
    result, the block is scanned and its reciprocals are taken in place
    while it is in cache.  Only a block holding a candidate gets the
    entrywise tests for a non-finite reciprocal or sum, and every block is
    scanned before one is reported, which keeps the error priority above.
    """
    lead = _lead_sums(spec)
    out = np.empty((lead.size, spec.dim))
    problems = ("has no finite reciprocal", "is not finite")
    first = {}  # problem -> (flat index, sum) of its first row-major entry
    with np.errstate(divide="ignore", over="ignore"):
        for start, block, suspect in _summed_blocks(spec, lead, out):
            if suspect:
                inverse = 1.0 / block
                for problem, bad in zip(problems, (~np.isfinite(inverse), ~np.isfinite(block))):
                    if problem not in first and bad.any():
                        k = int(np.argmax(bad))
                        first[problem] = (start + k, float(block.flat[k]))
            np.divide(1.0, block, out=block)
    for problem in problems:
        if problem not in first:
            continue
        flat, s = first[problem]
        index = np.unravel_index(flat, (spec.dim,) * spec.order)
        raise CauchySpecError(
            f"index sum {s!r} at index {tuple(int(i) + 1 for i in index)} "
            f"{problem}; entries do not exist"
        )
    return DenseTensor(out.reshape((spec.dim,) * spec.order))


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
