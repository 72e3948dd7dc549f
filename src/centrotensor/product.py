"""General tensor product and the structure-parity rules it obeys.

The product of an order-m tensor A and an order-k tensor B on a shared
dimension n is the order (m-1)(k-1)+1 tensor

    c[i, a_1, ..., a_{m-1}] = sum over i2..im of
        a[i, i2, ..., im] * b[i2, a_1] * ... * b[im, a_{m-1}],

where each a_j is a (k-1)-fold multi-index.  For k = 2 this is the usual
matrix action on each trailing slot; for k = 1 (B a vector) the result is
the order-1 contraction of A against that vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    DEFAULT_ENTRY_CAP,
    DenseTensor,
    ResourceLimitError,
    check_count,
    check_entry_count,
)

__all__ = [
    "ProductShape",
    "DEFAULT_ENTRY_CAP",
    "shao_product",
    "chain_product",
    "product_parity",
    "exchange_matrix",
]

_KINDS = ("centro", "skew")


@dataclass(frozen=True)
class ProductShape:
    """Shape arithmetic for the product of an order-m by an order-k tensor."""

    left_order: int
    right_order: int
    dim: int

    @property
    def result_order(self) -> int:
        return (self.left_order - 1) * (self.right_order - 1) + 1

    @property
    def entry_count(self) -> int:
        return self.dim**self.result_order


def product_shape(a: DenseTensor, b: DenseTensor) -> ProductShape:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.order < 2:
        raise ValueError("left operand must have order >= 2")
    if b.order < 1:
        raise ValueError("right operand must have order >= 1")
    return ProductShape(a.order, b.order, a.dim)


def shao_product(a: DenseTensor, b: DenseTensor, entry_cap: int = DEFAULT_ENTRY_CAP) -> DenseTensor:
    """General product of tensors sharing one dimension.

    Raises ResourceLimitError when the result would hold more than
    entry_cap entries; the order formula grows multiplicatively, so this
    is a real risk for chained products.
    """
    entry_cap = check_count(entry_cap, "entry_cap")
    shape = product_shape(a, b)
    if shape.entry_count > entry_cap:
        raise ResourceLimitError(
            f"product of orders {a.order} and {b.order} has "
            f"{shape.entry_count} entries, exceeding the cap {entry_cap}"
        )
    n = a.dim
    # Flatten B's trailing k-1 axes; each contraction of one trailing slot
    # of A then appends one flattened multi-index axis, in slot order.
    b_flat = b.data.reshape(n, n ** (b.order - 1))
    out = a.data
    for _ in range(a.order - 1):
        out = np.tensordot(out, b_flat, axes=(1, 0))
    return DenseTensor(out.reshape((n,) * shape.result_order))


def chain_product(tensors, entry_cap: int = DEFAULT_ENTRY_CAP) -> DenseTensor:
    """Left-associated product of two or more tensors on one dimension.

    The general product is not associative across mixed orders, so the
    evaluation order is part of the contract.
    """
    tensors = list(tensors)
    if len(tensors) < 2:
        raise ValueError("chain_product needs at least two tensors")
    return reduce(lambda acc, t: shao_product(acc, t, entry_cap), tensors)


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
