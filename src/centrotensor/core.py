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
]

# numpy arrays have at most 64 axes
MAX_ORDER = 64
# Largest entry count any construction allocates (512 MB of floats), the
# general product's result included; read on every check, so lowering it
# lowers every cap.
DEFAULT_ENTRY_CAP = 2**26
# Rows per block of contract_trailing's first-stage gemm.  OpenBLAS
# (0.3.31, Haswell kernels on an AVX-512 host) gives a row the same bits at
# every position of an 8-row block, but not of 16-, 32- or 64-row ones.
# On one slot, (8, n) @ (n, n^(m-1)): at (n, m) = (5, 5), (7, 4), (7, 5)
# and (26, 3), rows 12-15 of 16, 24-31 of 32 and 60-63 of 64 differ from
# the same row at position 0, as do rows 120-125 of one gemm on 128 rows.
# On two slots, (8, n^2) @ (n^2, n^(m-2)): 8-row blocks agree at every
# n = 1-8, m = 3-5, with 1 and 2 BLAS threads, while at (7, 5) rows 12-15
# of 16, 24-27 of 32 and 60-63 of 64 differ.  Each block is its own gemm,
# so the stack height moves no bits either: a row's contraction is the same
# bits alone or in any stack, which the eigen solver's stacked starts,
# chunked line search and stacked residuals rely on.
_BLOCK_ROWS = 8


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
        arr = _real_copy(self.data, "tensor entries")
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
        return cls._from_flat(order, dim, _real_copy(entries, "tensor entries"))

    @classmethod
    def _from_flat(cls, order: int, dim: int, flat: np.ndarray) -> "DenseTensor":
        """from_entries on a fresh float array that no caller holds: checked once, adopted uncopied."""
        flat = flat.reshape(-1)
        order, dim = _check_integer(order, "order"), _check_integer(dim, "dim")
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


def _real_copy(values, what: str) -> np.ndarray:
    """A fresh C-ordered float copy of values, raising ValueError on complex
    input, whose imaginary parts numpy would drop with only a warning (an
    array) or refuse with a TypeError (a list)."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real, got complex values")
    return np.array(values, dtype=float, order="C")


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


def _as_vector(x) -> np.ndarray:
    """x as a float array, raising ValueError unless it is 1-D."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"1-D vector required, got shape {x.shape}")
    return x


def flip_vector(x) -> np.ndarray:
    """Reverse the component order of a vector. Exact involution."""
    return _as_vector(x)[::-1].copy()


def reverse_tensor(a: DenseTensor) -> DenseTensor:
    """Replace every index i_j by n-i_j+1.

    On the flat row-major layout the full index reversal is exactly a
    reversal of the entry array, so this is a bit-identical involution.
    """
    return DenseTensor._adopt(a.entries[::-1].copy().reshape(a.data.shape))


def _pair_blocks(size: int, block: int) -> list:
    """The mirror pairing of `size` flat entries, in blocks of `block`.

    Reversal pairs entry q with entry size-1-q, and an odd size's middle
    entry with itself.  Each block [start, stop) of the front ceil(size/2)
    positions comes as (start, stop, k): its first k positions are proper
    pairs, whose mirrors are the positions [size-start-k, size-start) read
    backwards; a block holding the middle entry has one position more.
    """
    front = size - size // 2
    return [(start, min(start + block, front), min(start + block, size // 2) - start)
            for start in range(0, front, block)]


def _mirror_flip(bits: np.ndarray, block: int):
    """0 where every pair (q, N-1-q) of these float64 bits is equal, the
    sign bit where every pair differs in it alone, else None.  The outermost
    pair decides which to test, so most other arrays cost one comparison;
    the rest are compared in the blocks of _pair_blocks."""
    n = bits.size
    if n < 2:
        return None
    flip = bits[0] ^ bits[-1]
    if flip != 0 and flip != np.uint64(1 << 63):
        return None
    for start, _, k in _pair_blocks(n, block):
        if np.any(bits[start : start + k] ^ bits[n - start - k : n - start][::-1] != flip):
            return None
    return flip


def apply(a: DenseTensor, x) -> np.ndarray:
    """Contract all trailing slots with x: result_i = sum a[i,i2..im] x_i2...x_im.

    x may also be a stack of vectors of shape (S, n); row s of the result
    is then A x_s^{m-1}.  A stack whose contraction would hold more than
    DEFAULT_ENTRY_CAP entries (see _stack_entries) is a ResourceLimitError.
    """
    x = _check_stack(a, x)
    return contract_trailing(a.data, x.reshape(-1, a.dim), a.order - 1).reshape(x.shape)


def _check_stack(a: DenseTensor, x) -> np.ndarray:
    """x as a float array after apply's checks: order >= 2, and x one vector
    of length dim or a stack of them within the cap."""
    if a.order < 2:
        raise ValueError("apply requires tensor order >= 2")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != a.dim:
        raise ValueError(f"vector of length {a.dim} required, got shape {x.shape}")
    if x.ndim == 2:
        rows = len(x)
        _check_cap(
            _stack_entries(rows, a.order, a.dim), "stack of %s vectors on order %s dim %s", rows, a.order, a.dim
        )
    return x


def contract_trailing(data: np.ndarray, xs: np.ndarray, count: int) -> np.ndarray:
    """Contract the last `count` slots of data with each row of the stack xs.

    data has shape (n,)*k and xs shape (S, n); the result has shape
    (S,) + (n,)*(k-count).  The shared tensor is contracted against the
    whole stack (matrix products on the last c slots at once, then
    batched matrix-vector products on partial results, one slot each), so
    it is never copied per row.  With count 0 the result is a read-only
    broadcast view of data.

    The first stage takes c = 2 slots (see _first_slots; 1 when count is
    1 or data is a matrix).  Each row's outer product x (x) x (entry
    (j, k) = x_j * x_k, k fastest) is written into a stack zero-padded to
    whole blocks of _BLOCK_ROWS rows, and one batched matrix product of
    shape (ceil(S/8), 8, n^c) @ (n^c, n^(k-c)) contracts it against data: a
    gemm per block, which reuses each panel of data it loads across the
    block's rows where a one-row product (gemv) reloads it per row, and
    which sums the n^2 terms of two slots in one pass.  Every block is the
    same gemm whatever S is, and a row's bits do not depend on its place
    in it (see _BLOCK_ROWS), so a row's result is the same bits alone or
    in any stack.  A lone row still pays for its block's seven zero rows.
    With count 1 the stage is one gemm slot.
    """
    s, n = xs.shape
    if count == 0:
        return np.broadcast_to(data, (s,) + data.shape)
    c = _first_slots(data.ndim, count)
    padded = np.zeros((_whole_blocks(s),) + (n,) * c)
    if c == 1:
        padded[:s] = xs
    else:
        # einsum's loop fills the short rows of x (x) x faster than a broadcast multiply
        np.einsum("si,sj->sij", xs, xs, out=padded[:s])
    first = data.reshape(-1, n**c).T
    out = np.matmul(padded.reshape(-1, _BLOCK_ROWS, n**c), first).reshape(-1, first.shape[1])[:s]
    for k in range(count - c):
        out = np.matmul(out.reshape(s, n ** (data.ndim - 1 - c - k), n), xs[:, :, None])
    return out.reshape((s,) + data.shape[: data.ndim - count])


def _first_slots(order: int, count: int) -> int:
    """Slots contract_trailing's first stage takes at once: two, unless
    count is 1 or they would be every slot of a matrix, whose n^2-entry
    outer products would make each 8-row block 8 times the matrix."""
    return 2 if count >= 2 and order >= 3 else 1


def _whole_blocks(rows: int) -> int:
    """rows rounded up to whole _BLOCK_ROWS blocks: the first stage's padded stack height."""
    return -(-rows // _BLOCK_ROWS) * _BLOCK_ROWS


def _stack_entries(rows: int, order: int, dim: int) -> int:
    """Whole blocks of rows times dim^(order-1) entries (dim at order 1).

    This bounds every array contract_trailing builds on `rows` rows of an
    order-`order` tensor, whatever the count: a padded row holds dim^c
    entries and its first-stage product dim^(order-c), with c from
    _first_slots between 1 and order - 1 (1 at order 1), and each later
    slot shrinks the row.  Callers check it against the cap before they
    draw or allocate a stack.
    """
    return _whole_blocks(rows) * dim ** max(1, order - 1)


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
    """Return a tolerance as a float, raising ValueError unless it is finite and >= 0.

    -0.0 is returned as +0.0, so a report never shows a negative zero.
    """
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(tol) or tol < 0:
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")
    return tol + 0.0


def _check_integer(value, name: str) -> int:
    """Return value as an int, raising ValueError unless it is an int or a numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(value, name: str) -> int:
    """Return a count as an int, raising ValueError unless it is an integer >= 0."""
    value = _check_integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def check_order(order: int) -> int:
    """Return an order as an int, raising ValueError unless it is an integer
    from 1 to the number of axes a numpy array can hold."""
    order = _check_integer(order, "order")
    if order < 1:
        raise ValueError("tensor order must be at least 1")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the limit of {MAX_ORDER} axes")
    return order


def check_entry_count(order: int, dim: int, what: str = "tensor") -> None:
    """Refuse a tensor too big to allocate, before it is allocated.

    An order or dim that is not an integer, an order below 1 or past
    numpy's axis limit, or a dim below 1, is a ValueError; more than
    DEFAULT_ENTRY_CAP entries is a ResourceLimitError.
    """
    order, dim = check_order(order), _check_integer(dim, "dim")
    if dim < 1:
        raise ValueError("dimension must be positive")
    _check_cap(dim**order, "%s of order %s dim %s", what, order, dim)


def _check_cap(count: int, what: str, *parts) -> None:
    """ResourceLimitError if `what % parts` has more than DEFAULT_ENTRY_CAP
    entries, read per call; the message is built only when it is raised."""
    cap = DEFAULT_ENTRY_CAP
    if count > cap:
        raise ResourceLimitError(f"{what % parts} has {count} entries, exceeding the cap {cap}")
