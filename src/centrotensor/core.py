"""Dense hypercubic tensors and the contraction/elementwise algebra on them.

An order-m dimension-n tensor is stored as an ndarray of shape (n,)*m in
C order, so the flat entry layout has the last index varying fastest.
Indices are 1-based in documentation and reports, 0-based internally.

All operations are pure: they never mutate their inputs and return fresh
values, so tensors are safe to share across threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseTensor",
    "DomainError",
    "ResourceLimitError",
    "ConsistencyError",
    "flip_vector",
    "reverse_tensor",
    "apply",
    "contract_trailing",
    "poly_eval",
    "hadamard",
    "row_sums",
    "add",
    "sub",
    "scale",
    "entry_scale",
    "check_tolerance",
    "check_count",
    "check_order",
    "check_entry_count",
    "as_generator",
]

# numpy arrays have at most 64 axes
MAX_ORDER = 64
# Largest entry count any construction allocates (512 MB of floats), and
# the default result cap of the general product.
DEFAULT_ENTRY_CAP = 2**26


class DomainError(Exception):
    """An operation is well-posed but has no valid answer for this input."""


class ResourceLimitError(DomainError):
    """A result would exceed the configured memory budget."""


class ConsistencyError(DomainError):
    """An identity that must hold by construction failed verification."""


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Immutable order-m dimension-n real tensor backed by a dense ndarray.

    The public constructor copies what it is given, so no caller's array
    (or view of one) can change a tensor, and from_entries never keeps a
    caller's ndarray either.  Both validate that the data is hypercubic
    (every axis has the same length) and that all entries are finite;
    every downstream check is tolerance-based, so NaN/Inf entries are
    rejected outright.  The finiteness check is one sum over the entries,
    which allocates nothing; only when that sum is not finite (a
    non-finite entry, or finite entries whose sum overflows) are the
    entries tested one by one.

    Each result the library builds is checked once, by how it was built:
    moved or halved entries of a validated tensor, ufuncs run under
    _overflow_is_domain_error, a product bounded a priori.  Those sites
    hand their fresh array to _adopt, which neither copies nor scans it.
    """

    data: np.ndarray

    def __post_init__(self):
        if np.ndim(self.data) < 1:
            raise ValueError("tensor order must be at least 1")
        arr = np.array(self.data, dtype=float, order="C")
        _check_data(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "DenseTensor":
        """Own a fresh C-contiguous hypercubic float array whose entries are proven finite.

        No copy and no scan: the caller must hold the only reference, and
        its construction must prove every entry finite.
        """
        arr.flags.writeable = False
        tensor = object.__new__(cls)
        object.__setattr__(tensor, "data", arr)
        return tensor

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Flat row-major view (last index fastest), read-only."""
        return self.data.reshape(-1)

    @classmethod
    def from_entries(cls, order: int, dim: int, entries) -> "DenseTensor":
        """The tensor with these row-major entries, from a copy of them."""
        return cls._from_flat(order, dim, np.array(entries, dtype=float, order="C"))

    @classmethod
    def _from_flat(cls, order: int, dim: int, flat: np.ndarray) -> "DenseTensor":
        """from_entries on a fresh float array that no caller holds: checked once, adopted uncopied."""
        flat = flat.reshape(-1)
        # For dim >= 2, dim**order has at least order * bit_length / 2 bits,
        # so past 4096 it exceeds any entry count; an absurd order read from
        # JSON would otherwise build (and print) a huge integer.
        if dim > 1 and order * dim.bit_length() > 4096:
            expected = f"{dim}**{order}"
        else:
            expected = dim**order
        if flat.size != expected:
            raise ValueError(
                f"expected {expected} entries for order {order} dim {dim}, got {flat.size}"
            )
        check_order(order)
        data = flat.reshape((dim,) * order)
        _check_data(data)
        return cls._adopt(data)

    @classmethod
    def zeros(cls, order: int, dim: int) -> "DenseTensor":
        check_entry_count(order, dim)
        return cls._adopt(np.zeros((dim,) * order))

    @classmethod
    def diagonal(cls, order: int, diag) -> "DenseTensor":
        """diag[i] where all indices equal i, 0 elsewhere; dim is len(diag)."""
        dim = len(diag)
        check_entry_count(order, dim)
        data = np.zeros((dim,) * order)
        data[(np.arange(dim),) * order] = diag
        _check_data(data)
        return cls._adopt(data)

    @classmethod
    def identity(cls, order: int, dim: int) -> "DenseTensor":
        """Delta tensor: 1 where all indices coincide, 0 elsewhere."""
        check_entry_count(order, dim)
        return cls.diagonal(order, np.ones(dim))

    def __repr__(self):
        return f"DenseTensor(order={self.order}, dim={self.dim})"


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry is finite, by one sum that allocates nothing when it is finite."""
    # NaN and +-inf never add back to a finite value
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    return bool(np.isfinite(total) or np.all(np.isfinite(arr)))


def _check_data(arr: np.ndarray) -> None:
    """Raise ValueError unless arr is hypercubic with finite entries."""
    n = arr.shape[0]
    if n < 1 or any(s != n for s in arr.shape):
        raise ValueError(f"tensor must be hypercubic, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("tensor entries must be finite")


def _check_same_shape(a: DenseTensor, b: DenseTensor):
    if a.order != b.order or a.dim != b.dim:
        raise ValueError(
            f"shape mismatch: order {a.order} dim {a.dim} vs order {b.order} dim {b.dim}"
        )


def _check_vector(a: DenseTensor, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != a.dim:
        raise ValueError(f"vector of length {a.dim} required, got shape {x.shape}")
    return x


def flip_vector(x) -> np.ndarray:
    """Reverse the component order of a vector. Exact involution."""
    x = np.asarray(x, dtype=float)
    return x[::-1].copy()


def reverse_tensor(a: DenseTensor) -> DenseTensor:
    """Replace every index i_j by n-i_j+1.

    On the flat row-major layout the full index reversal is exactly a
    reversal of the entry array, so this is a bit-identical involution.
    """
    return DenseTensor._adopt(a.entries[::-1].copy().reshape(a.data.shape))


def apply(a: DenseTensor, x) -> np.ndarray:
    """Contract all trailing slots with x: result_i = sum a[i,i2..im] x_i2...x_im.

    x may also be a stack of vectors of shape (S, n); row s of the result
    is then A x_s^{m-1}.
    """
    if a.order < 2:
        raise ValueError("apply requires tensor order >= 2")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != a.dim:
        raise ValueError(f"vector of length {a.dim} required, got shape {x.shape}")
    if x.ndim == 1:
        return contract_trailing(a.data, x[None, :], a.order - 1)[0]
    return contract_trailing(a.data, x, a.order - 1)


def contract_trailing(data: np.ndarray, xs: np.ndarray, count: int) -> np.ndarray:
    """Contract the last `count` slots of data with each row of the stack xs.

    data has shape (n,)*k and xs shape (S, n); the result has shape
    (S,) + (n,)*(k-count).  The shared tensor is contracted one slot at a
    time against the whole stack (batched vector-matrix products for the
    first slot, then batched matrix-vector products on partial results),
    so it is never copied per row.  With count 0 the result is a
    read-only broadcast view of data.

    Every row goes through the same one-row product whatever S is: numpy
    sends a one-row matrix product to gemv, which rounds differently from
    the gemm a multi-row product gets, so a single stacked product would
    make a row's last bits depend on the stack height.  Per row, a row's
    result is the same bits alone or in any stack; at order 5, dim 8 and
    50-850 rows the whole contraction takes 1.8-2.6x as long as the same
    chain with one gemm on the first slot (one BLAS thread, OpenBLAS
    0.3.31).
    """
    s, n = xs.shape
    if count == 0:
        return np.broadcast_to(data, (s,) + data.shape)
    out = np.matmul(xs[:, None, :], data.reshape(-1, n).T)[:, 0]
    for k in range(count - 1):
        out = np.matmul(out.reshape(s, n ** (data.ndim - 2 - k), n), xs[:, :, None])
    return out.reshape((s,) + data.shape[: data.ndim - count])


def poly_eval(a: DenseTensor, x) -> float:
    """Evaluate the homogeneous form sum a[i1..im] x_i1...x_im."""
    x = _check_vector(a, x)
    return float(contract_trailing(a.data, x[None, :], a.order)[0])


@contextmanager
def _overflow_is_domain_error(what: str):
    """Raise DomainError, with no warning, for arithmetic in the block that overflows float64."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise DomainError(f"{what} overflows float64") from None


def hadamard(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Entrywise product of same-shape tensors; DomainError if it overflows float64."""
    _check_same_shape(a, b)
    with _overflow_is_domain_error("entrywise product"):
        return DenseTensor._adopt(a.data * b.data)


def row_sums(a: DenseTensor) -> np.ndarray:
    """r_i = sum of all entries whose leading index is i."""
    return a.data.reshape(a.dim, -1).sum(axis=1)


def add(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _check_same_shape(a, b)
    with _overflow_is_domain_error("entrywise sum"):
        return DenseTensor._adopt(a.data + b.data)


def sub(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _check_same_shape(a, b)
    with _overflow_is_domain_error("entrywise difference"):
        return DenseTensor._adopt(a.data - b.data)


def scale(a: DenseTensor, t: float) -> DenseTensor:
    """t * A; a non-finite t is a ValueError, a product that overflows float64 a DomainError."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"scale factor must be finite, got {t!r}")
    with _overflow_is_domain_error("scaled tensor"):
        return DenseTensor._adopt(a.data * t)


def entry_scale(a: DenseTensor) -> float:
    """Tolerance scale: max(1, largest entry magnitude), read without building |A|."""
    return max(1.0, float(a.data.max()), -float(a.data.min()))


def check_tolerance(value, name: str = "tol") -> float:
    """Return a tolerance as a float, raising ValueError unless it is finite and >= 0."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(tol) or tol < 0:
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")
    return tol


def check_count(value, name: str) -> int:
    """Return a count as an int, raising ValueError unless it is an integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return int(value)


def check_order(order: int) -> None:
    """Raise ValueError for an order below 1 or with more axes than a numpy array can hold."""
    if order < 1:
        raise ValueError("tensor order must be at least 1")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the limit of {MAX_ORDER} axes")


def check_entry_count(order: int, dim: int, what: str = "tensor") -> None:
    """Refuse a tensor too big to allocate, before it is allocated.

    An order below 1 or past numpy's axis limit, or a dim below 1, is a
    ValueError; more than DEFAULT_ENTRY_CAP entries is a
    ResourceLimitError.
    """
    check_order(order)
    if dim < 1:
        raise ValueError("dimension must be positive")
    _check_cap(dim**order, f"{what} of order {order} dim {dim}")


def _check_cap(count: int, what: str, cap: int | None = None) -> None:
    """ResourceLimitError if `what` has over cap entries (None: DEFAULT_ENTRY_CAP read per call)."""
    cap = DEFAULT_ENTRY_CAP if cap is None else cap
    if count > cap:
        raise ResourceLimitError(f"{what} has {count} entries, exceeding the cap {cap}")


def as_generator(seed) -> np.random.Generator:
    """A numpy Generator, or a fresh one seeded with `seed` (int, SeedSequence or None)."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
