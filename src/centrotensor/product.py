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
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_ENTRY_CAP,
    DenseTensor,
    ResourceLimitError,
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
    is a real risk for nested products.
    """
    entry_cap = check_count(entry_cap, "entry_cap")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.order < 2:
        raise ValueError("left operand must have order >= 2")
    n = a.dim
    order = (a.order - 1) * (b.order - 1) + 1
    if n**order > entry_cap:
        raise ResourceLimitError(
            f"product of orders {a.order} and {b.order} has "
            f"{n**order} entries, exceeding the cap {entry_cap}"
        )
    # Flatten B's trailing k-1 axes; each contraction of one trailing slot
    # of A then appends one flattened multi-index axis, in slot order.
    b_flat = b.data.reshape(n, n ** (b.order - 1))
    out = a.data
    for _ in range(a.order - 1):
        out = np.tensordot(out, b_flat, axes=(1, 0))
    return DenseTensor(out.reshape((n,) * order))


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
