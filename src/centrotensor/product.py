"""General tensor product and the structure-parity rules it obeys.

The product of an order-m tensor A and an order-k tensor B on a shared
dimension n is the order (m-1)(k-1)+1 tensor

    c[i, a_1, ..., a_{m-1}] = sum over i2..im of
        a[i, i2, ..., im] * b[i2, a_1] * ... * b[im, a_{m-1}],

where each a_j is a (k-1)-fold multi-index.  For k = 2 this is the usual
matrix action on each trailing slot; for k = 1 (B a vector) the result is
the order-1 contraction of A against that vector.  The product is not
associative across mixed orders, so a product of three or more tensors
is a nested shao_product call whose nesting is part of the result.

A factor that is the exchange matrix J of dim >= 2, recognised by its
entries, only reverses indices, so such a product is a reversal instead
of contractions: J*B reverses B's leading index, and A*J reverses every
trailing index of A, which reads each row of A's flat trailing entries
backwards.  Each result entry of the contraction is x*1 plus products
with 0, which is x except that -0.0 sums to +0.0; the reversal adds 0.0
to match, so both ways give the same bits.  (At dim 1 the contraction
keeps -0.0, so dim 1 keeps it.)  Every other factor, other permutation
matrices included, is contracted.

J's action is known here alone, as one view per side: _exchange_left
gives J*B as B's entries with the leading index reversed, and
_exchange_right gives A*J as A's entries in (n, n^(m-1)) rows, each read
backwards.  shao_product adds 0.0 to a view to make its result; the
structure witnesses and cauchy.cauchy_check_JC compare the views with
the tensor directly and build no product.

The contraction takes A's trailing slots one at a time: it moves the
slot to the last axis and multiplies the reshaped entries by B's
flattened entries in one 2-D np.matmul, the bits np.tensordot gives.
At dim 1 that product is an outer product, taken as an entrywise one,
since matmul would sum -0.0 to +0.0 there and tensordot keeps it.

Every result is checked once.  Before contracting, the inputs prove the
result finite when log2(entry_scale(A)) + (m-1) log2(n entry_scale(B))
is below 1022 (see _bounded); only when that bound fails is the result
scanned, and a non-finite entry is a DomainError.  The scan, not numpy's
floating-point flags, decides: an overflow inside a BLAS worker thread
sets no flag on the calling thread.  A reversal by J moves validated
entries, so its result is not scanned either.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DenseTensor, DomainError, _all_finite, check_entry_count, entry_scale

__all__ = [
    "shao_product",
    "product_parity",
    "exchange_matrix",
]

_KINDS = ("centro", "skew")

# log2 of the largest product bound that proves a contraction finite
_FINITE_LOG2 = 1022


def shao_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """General product of tensors sharing one dimension.

    The result is refused like any construction, before anything is
    contracted: an order past numpy's 64 axes is a ValueError, and more
    than core.DEFAULT_ENTRY_CAP entries a ResourceLimitError.  The order
    formula grows multiplicatively, so both are real risks for nested
    products.  A result that overflows float64 raises DomainError, with
    no numpy warning, whatever the number of BLAS threads.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.order < 2:
        raise ValueError("left operand must have order >= 2")
    n = a.dim
    order = (a.order - 1) * (b.order - 1) + 1
    check_entry_count(order, n, "product")
    if _is_exchange(a):
        return DenseTensor._adopt(_exchange_left(b.data) + 0.0)
    if _is_exchange(b):
        return DenseTensor._adopt((_exchange_right(a.data) + 0.0).reshape(a.data.shape))
    # Flatten B's trailing k-1 axes; each contraction of one trailing slot
    # of A then appends one flattened multi-index axis, in slot order.
    b_flat = b.data.reshape(n, n ** (b.order - 1))
    out = a.data
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(a.order - 1):
            out = np.moveaxis(out.reshape(n, n, -1), 1, -1).reshape(-1, n)
            out = np.matmul(out, b_flat) if n > 1 else out * b_flat
    if not _bounded(a, b) and not _all_finite(out):
        raise DomainError("general product overflows float64")
    return DenseTensor._adopt(out.reshape((n,) * order))


def _bounded(a: DenseTensor, b: DenseTensor) -> bool:
    """Whether the inputs alone prove every entry of the contraction finite.

    Each contracted slot multiplies the largest magnitude by at most
    n * entry_scale(b), and entry_scale is at least 1, so no stage
    exceeds the last one's bound scale(a) * (n * scale(b))^(m-1).  A bound
    below 2^1022, half the float range, leaves room for rounding.
    """
    bound = math.log2(entry_scale(a)) + (a.order - 1) * math.log2(a.dim * entry_scale(b))
    return bound < _FINITE_LOG2


def _exchange_left(data: np.ndarray) -> np.ndarray:
    """J*B's entries as a view of B's: the leading index reversed."""
    return data[::-1]


def _exchange_right(data: np.ndarray) -> np.ndarray:
    """A*J's entries as an (n, n^(m-1)) view of A's: each row's flat trailing entries reversed."""
    if data.ndim < 2:
        raise ValueError(f"the exchange action A*J needs a tensor of order >= 2, got order {data.ndim}")
    return data.reshape(data.shape[0], -1)[:, ::-1]


def _is_exchange(t: DenseTensor) -> bool:
    """Whether t is the exchange matrix J of dim >= 2: n nonzeros, all 1.0 on the anti-diagonal."""
    if t.order != 2 or t.dim < 2 or np.count_nonzero(t.data) != t.dim:
        return False
    return bool(np.all(t.data[:, ::-1].diagonal() == 1.0))


def product_parity(kind_a: str, kind_b: str, m: int) -> str:
    """Structure kind of the product of a kind_a tensor (order m) by a kind_b tensor.

    centro*centro is centro for every order; the three mixed/skew cases
    alternate with the parity of m.
    """
    if kind_a not in _KINDS or kind_b not in _KINDS:
        raise ValueError(f"kinds must be one of {_KINDS}")
    if kind_a == "centro" and kind_b == "centro":
        return "centro"
    if kind_a == "skew" and kind_b == "centro":
        return "skew"
    if kind_a == "centro" and kind_b == "skew":
        return "centro" if m % 2 == 1 else "skew"
    return "centro" if m % 2 == 0 else "skew"


def exchange_matrix(n: int) -> DenseTensor:
    """Anti-diagonal permutation matrix J with J[i, n-i+1] = 1; J*J = I."""
    check_entry_count(2, n, "exchange matrix")
    return DenseTensor(np.eye(n)[::-1])
