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

A factor that is an order-2 permutation matrix (one entry 1.0 in each
row and each column, every other entry 0) of dim >= 2 only moves
entries, so such a product is computed as an exact gather instead of
contractions: a left factor P picks the rows of B, and a right factor
permutes every trailing index of A through one take.  Each result entry
of the contraction is x*1 plus products with 0, which is x except that
-0.0 sums to +0.0; the gather adds 0.0 to match, so both ways give the
same bits.  (At dim 1 the contraction keeps -0.0, so dim 1 keeps it.)
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_ENTRY_CAP,
    DenseTensor,
    _check_cap,
    _overflow_is_domain_error,
    check_count,
    check_entry_count,
)

__all__ = [
    "DEFAULT_ENTRY_CAP",
    "shao_product",
    "product_parity",
    "exchange_matrix",
]

_KINDS = ("centro", "skew")


def shao_product(a: DenseTensor, b: DenseTensor, entry_cap: int = DEFAULT_ENTRY_CAP) -> DenseTensor:
    """General product of tensors sharing one dimension.

    Raises ResourceLimitError when the result would hold more than
    entry_cap entries; the order formula grows multiplicatively, so this
    is a real risk for nested products.  A result that overflows float64
    raises DomainError.
    """
    entry_cap = check_count(entry_cap, "entry_cap")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.order < 2:
        raise ValueError("left operand must have order >= 2")
    n = a.dim
    order = (a.order - 1) * (b.order - 1) + 1
    _check_cap(n**order, f"product of orders {a.order} and {b.order}", entry_cap)
    out = _permutation_product(a, b)
    if out is not None:
        return DenseTensor(out.reshape((n,) * order))
    # Flatten B's trailing k-1 axes; each contraction of one trailing slot
    # of A then appends one flattened multi-index axis, in slot order.
    b_flat = b.data.reshape(n, n ** (b.order - 1))
    out = a.data
    with _overflow_is_domain_error("general product"):
        for _ in range(a.order - 1):
            out = np.tensordot(out, b_flat, axes=(1, 0))
    return DenseTensor(out.reshape((n,) * order))


def _permutation(t: DenseTensor) -> np.ndarray | None:
    """sigma with t[i, sigma[i]] = 1 if t is a permutation matrix of dim >= 2, else None."""
    if t.order != 2 or t.dim < 2 or np.count_nonzero(t.data) != t.dim:
        return None
    ones = t.data == 1.0
    if not (np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1)):
        return None
    return np.argmax(ones, axis=1)


def _permutation_product(a: DenseTensor, b: DenseTensor) -> np.ndarray | None:
    """The product as an exact gather when a factor is a permutation matrix, else None."""
    sigma = _permutation(a)
    if sigma is not None:
        out = b.data[sigma]
    else:
        sigma = _permutation(b)
        if sigma is None:
            return None
        # c[i, j_1, ..., j_{m-1}] = a[i, tau[j_1], ..., tau[j_{m-1}]] for
        # tau the inverse of sigma, read through one flat trailing index
        n, tau = a.dim, np.argsort(sigma)
        index = tau
        for _ in range(a.order - 2):
            index = (index[:, None] * n + tau).reshape(-1)
        out = np.take(a.data.reshape(n, -1), index, axis=1)
    out += 0.0
    return out


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
    if n < 1:
        raise ValueError("dimension must be positive")
    check_entry_count(2, n, "exchange matrix")
    return DenseTensor(np.eye(n)[::-1].copy())
