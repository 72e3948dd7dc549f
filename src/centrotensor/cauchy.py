"""Cauchy tensors built from a generating vector.

An order-m Cauchy tensor over c in R^n has entries
1 / (c_{i1} + ... + c_{im}).  The entry exists only when no m-fold index
sum of c vanishes; construction scans every multiset of m components and
fails loudly on a (near-)zero sum instead of emitting huge entries.

materialize allocates only its result at full size.  It takes the
(m-1)-fold leading sums once (1/n of the result), then walks the R =
n^(m-1) rows of the result in blocks of structure._BLOCK entries (whole
rows of n), the front ceil(R/2) rows first and then the back ones, each
in row order (the blocks of core._pair_blocks and their mirrors).  Each
block gets the last component added in, a min and a max clear it of
candidates (sums within a rounding margin of the threshold, or not
finite) or one stacked sum tests their sorted multisets, and its
reciprocals are taken in place.  Then only the blocks that held a
candidate are searched for bad reciprocals.  Errors keep one priority:
the first near-zero multiset, then the first index whose sum has no
finite reciprocal, then the first sum that overflowed.

When c is a bitwise palindrome (core._mirror_flip gives 0), row R-1-r
is row r reversed, bit for bit, so the back rows are filled from the
front ones block by block instead, provided the front held no
candidate: then every entry is a finite nonzero reciprocal.  A front
that held one has the back rows computed and scanned as well: a
multiset sorted in the back half mirrors one of the front whose sum
adds the same terms in another order, which may round to the other side
of the threshold.  The outermost pair of c rejects most other vectors
in one comparison.

Structure facts encoded here: the tensor is centrosymmetric exactly when
c is a palindrome, skew-centrosymmetric (even n only) exactly when c is
an anti-palindrome, and there is no odd-dimension skew case because the
central entry would have to be zero while being a reciprocal.  Both
predicates are structure.check_structure on the order-1 tensor c, at the
default tolerance, and structure.palindromize makes palindromes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (DenseTensor, DomainError, _check_integer, _mirror_flip, _pair_blocks, _real_copy, check_entry_count,
                   entry_scale)
from .product import _exchange_left, _exchange_right
from .structure import _BLOCK, _compare, check_structure

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
        # a copy, so that no caller's array (or view of one) changes the spec
        c = _real_copy(self.generating, "generating vector")
        if c.ndim != 1 or c.size < 1:
            raise ValueError("generating vector must be a nonempty 1-D array")
        if not np.all(np.isfinite(c)):
            raise ValueError("generating vector must be finite")
        order = _check_integer(self.order, "order")
        if order < 1:
            raise ValueError("order must be positive")
        c.flags.writeable = False
        object.__setattr__(self, "generating", c)
        object.__setattr__(self, "order", order)

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


def _check_multisets(c: np.ndarray, index: tuple, threshold: float) -> None:
    """Raise CauchySpecError at the first near-zero multiset among candidate indices.

    index holds the candidates' m index arrays in row-major order.  The
    sorted ones are the multisets, in combinations-with-replacement order,
    and each is summed as ``c[combo].sum()``: numpy adds eight or more
    terms pairwise, so that sum and the tensor's left-to-right one can
    differ by a few ulps, and the former decides.
    """
    combos = np.stack(index, axis=1)
    combos = combos[np.all(np.diff(combos, axis=1) >= 0, axis=1)]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = c[combos].sum(axis=1)
    near = np.abs(sums) < threshold
    if near.any():
        k = int(np.argmax(near))
        ones_based = tuple(int(i) + 1 for i in combos[k])
        raise CauchySpecError(
            f"index sum {float(sums[k])!r} for multiset {ones_based} is below "
            f"threshold {threshold!r}; entries do not exist"
        )


def _fill_block(block, lead, c, bound: float, threshold: float, shape: tuple, first: int, suspects: list) -> None:
    """Write the reciprocals of lead[r] + c into the rows of block, whose
    first row is row `first` of the result, after the multiset scan of
    its candidates; a block that held one appends its row range to suspects."""
    np.add(lead[:, None], c, out=block)
    low, high = float(block.min()), float(block.max())
    if not (bound <= low and high < np.inf or -np.inf < low and high <= -bound):
        flat = np.flatnonzero(((block < bound) & (block > -bound)) | ~np.isfinite(block))
        if flat.size:
            _check_multisets(c, np.unravel_index(first * c.size + flat, shape), threshold)
            suspects.append((first, first + len(block)))
    np.divide(1.0, block, out=block)


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

    Only the result is allocated at full size (see the module docstring).
    Row r of the result gets lead[r] + c, left to right; for a palindromic
    c, the back half of the rows is the front half's mirror.  Every block is
    scanned before a reciprocal is judged, and then only the blocks that
    held a candidate are searched: an entry that is not finite marks a
    sum with no finite reciprocal, and an entry of 0 a sum that
    overflowed, since no finite sum has a zero reciprocal.  Those scans
    prove every entry of a returned tensor finite and nonzero, so it is
    not scanned again.
    """
    c, n, shape = spec.generating, spec.dim, (spec.dim,) * spec.order
    scale = entry_scale(DenseTensor(c))
    threshold = NEAR_ZERO_FACTOR * scale
    # without overflow, any m-term float sum is within (m-1) (eps/2) sum|c_i|
    # of the exact one, so two of them differ by less than m^2 eps scale;
    # the margin is four times that.  It is at least 1e-14, so a block
    # clear of it has no candidate and every reciprocal finite and nonzero.
    bound = threshold + 4 * spec.order**2 * np.finfo(float).eps * scale
    lead = _lead_sums(spec)
    out = np.empty((lead.size, n))
    blocks = _pair_blocks(lead.size, max(1, _BLOCK // n))
    suspects = []  # the row ranges of the blocks that held a candidate
    with np.errstate(divide="ignore", over="ignore"):
        for first, stop, _ in blocks:
            _fill_block(out[first:stop], lead[first:stop], c, bound, threshold, shape, first, suspects)
        # the back rows, in row order: row R-1-r is row r reversed when c is a
        # bitwise palindrome, as lead[R-1-r] sums the same components in the
        # same order; otherwise, or when the front held a candidate (whose
        # multiset may first appear sorted in the back half under a sum of its
        # terms in another order), they are computed and scanned
        mirrored = not suspects and _mirror_flip(c.view(np.uint64), _BLOCK) == 0
        for first, _, k in blocks[::-1]:
            rows = slice(lead.size - first - k, lead.size - first)
            if mirrored:
                out[rows] = out[first : first + k, ::-1][::-1]
            elif k:
                _fill_block(out[rows], lead[rows], c, bound, threshold, shape, rows.start, suspects)
        for problem in ("has no finite reciprocal", "is not finite"):
            for first, stop in suspects:
                block = out[first:stop]
                bad = block == 0 if problem == "is not finite" else ~np.isfinite(block)
                if bad.any():
                    k = first * n + int(np.argmax(bad))
                    index = tuple(int(i) + 1 for i in np.unravel_index(k, shape))
                    raise CauchySpecError(
                        f"index sum {float(lead[k // n] + c[k % n])!r} at index {index} "
                        f"{problem}; entries do not exist"
                    )
    return DenseTensor._adopt(out.reshape(shape))


def cauchy_is_centro(spec: CauchySpec) -> bool:
    """Vector-level test: centro iff c is a palindrome (check_structure of c)."""
    return check_structure(DenseTensor(spec.generating)).is_centro


def cauchy_is_skew(spec: CauchySpec) -> bool:
    """Vector-level test: skew iff c is an anti-palindrome and n is even.

    Odd n returns False unconditionally (the central entry 1/(m c_i)
    would have to vanish).  A passing vector test does not guarantee the
    tensor exists; materialize() still scans for vanishing sums.
    """
    return check_structure(DenseTensor(spec.generating)).is_skew and spec.dim % 2 == 0


def cauchy_check_JC(spec: CauchySpec) -> bool:
    """Product-level centro test: both J*C and C*J reproduce C, at the
    default tolerance of C.

    Materializes the tensor, so construction errors propagate.  J*C and
    C*J are the product's exchange actions, read as views of C's entries
    in (n, n^(m-1)) rows and compared with C's in full.  Agrees with
    cauchy_is_centro on every valid spec.
    """
    c_tensor = materialize(spec)
    c, rows = c_tensor.data, c_tensor.data.reshape(spec.dim, -1)
    return all(
        _compare(view.reshape(rows.shape), rows, None, c_tensor).is_centro
        for view in (_exchange_left(c), _exchange_right(c))
    )
