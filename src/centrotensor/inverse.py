"""Left and right inverses of tensors under the general product.

B is a left inverse of A when B*A equals the identity tensor, and a
right inverse when A*B does.  Two families are handled:

* diagonal centrosymmetric tensors, where the inverse diagonal is an
  explicit power or root of the input diagonal, and the residual is read
  from the diagonals of B*A or A*B, the only nonzeros of those products;
* order-2 (matrix) inverses of general centrosymmetric tensors,
  recovered from the slice M[i, j] = a[i, j, j, ..., j] and confirmed by
  multiplying out.

Inverse existence is a legitimate negative answer, so the recovery
routines return a structured NoInverse report instead of raising when
the candidate is singular or the product residual is too large.
Invertibility itself is decided numerically through the condition-number
threshold DEFAULT_COND_THRESHOLD; the no-inverse verdict is therefore a
floating-point judgement, and the conditioning is reported alongside the
result.  The default residual tolerance of the recovery is 1e-10 times
the size of the product's terms, max|A| * max|B| on the left and
max|A| * max|B|^(m-1) on the right, which scaling A leaves alone, as it
leaves the residual.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import serialize
from .core import DenseTensor, DomainError, _check_integer, check_tolerance, entry_scale
from .product import shao_product
from .structure import check_structure, require_centro

__all__ = [
    "NoInverseError",
    "InverseResult",
    "NoInverse",
    "DEFAULT_COND_THRESHOLD",
    "verify_inverse",
    "diagonal_left_inverse",
    "diagonal_right_inverse",
    "recover_order2_left_inverse",
    "recover_order2_right_inverse",
]

DEFAULT_COND_THRESHOLD = 1e12
_DIAGONAL_TOL_FACTOR = 1e-14
_RESIDUAL_TOL_FACTOR = 1e-10


class NoInverseError(DomainError):
    """A diagonal construction is impossible (zero or wrong-sign entry)."""


@dataclass(frozen=True, eq=False)
class InverseResult:
    inverse: DenseTensor
    side: str
    order: int
    residual: float
    centro_verdict: bool
    condition: float | None = None

    def as_dict(self) -> dict:
        return {
            "found": True,
            "side": self.side,
            "order": self.order,
            "residual": self.residual,
            "centro": self.centro_verdict,
            "condition": self.condition,
            "inverse": serialize.tensor_to_obj(self.inverse),
        }


@dataclass(frozen=True)
class NoInverse:
    """Negative answer: why no inverse was returned."""

    side: str
    reason: str
    condition: float | None = None
    residual: float | None = None

    def as_dict(self) -> dict:
        return {"found": False, **asdict(self)}


def verify_inverse(a: DenseTensor, b: DenseTensor, side: str) -> float:
    """Max deviation of the inverse-defining product from the identity.

    side "left" checks B*A (B left-inverts A), side "right" checks A*B.
    """
    if side == "left":
        prod = shao_product(b, a)
    elif side == "right":
        prod = shao_product(a, b)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return _max_deviation(prod.data, 1.0)


def _max_deviation(data: np.ndarray, diag) -> float:
    """max|data - D| for the diagonal tensor D with diagonal diag, read from
    one |data| copy with its diagonal replaced; D and data - D are never built."""
    idx = (np.arange(data.shape[0]),) * data.ndim
    dev = np.abs(data)
    dev[idx] = np.abs(data[idx] - diag)
    return float(dev.max())


def diagonal_left_inverse(a: DenseTensor, k: int = 2) -> InverseResult:
    """Order-k diagonal B with B*A = identity, for diagonal centro A.

    The product's diagonal entries are b_i * a_i^(k-1), so B's diagonal
    is 1 / a_i^(k-1); every diagonal entry of A must be nonzero.
    """
    return _diagonal_inverse(a, k, "left")


def diagonal_right_inverse(a: DenseTensor, k: int = 2) -> InverseResult:
    """Order-k diagonal B with A*B = identity, for diagonal centro A.

    Needs b_i^(m-1) = 1/a_i.  For even order m the exponent m-1 is odd
    and a real root of either sign exists whenever a_i != 0; for odd m
    the diagonal must be strictly positive.
    """
    return _diagonal_inverse(a, k, "right")


def _require_order2(a: DenseTensor) -> None:
    # before any arithmetic; the right recovery's even-order rule refuses order 1
    if a.order < 2:
        raise ValueError(f"inverting needs a tensor of order >= 2, got order {a.order}")


def _diagonal_inverse(a: DenseTensor, k: int, side: str) -> InverseResult:
    k = _check_integer(k, "inverse order")
    if k < 2:
        raise ValueError("inverse order must be >= 2")
    _require_order2(a)
    diag = a.data[(np.arange(a.dim),) * a.order]
    if _max_deviation(a.data, diag) > _DIAGONAL_TOL_FACTOR * entry_scale(a):
        raise ValueError("tensor is not diagonal")
    require_centro(a)
    zero = np.nonzero(diag == 0.0)[0]
    if zero.size:
        raise NoInverseError(f"diagonal entry at index {int(zero[0]) + 1} is zero")
    if side == "right" and a.order % 2 == 1:
        neg = np.nonzero(diag <= 0.0)[0]
        if neg.size:
            raise NoInverseError(
                f"no real inverse: diagonal entry at index {int(neg[0]) + 1} "
                "is not positive and the required root has even degree"
            )
    with np.errstate(over="ignore", divide="ignore"):
        b_diag = 1.0 / diag ** (k - 1) if side == "left" else _signed_root(1.0 / diag, a.order - 1)
    lost = np.nonzero((b_diag == 0.0) | ~np.isfinite(b_diag))[0]
    if lost.size:
        raise NoInverseError(
            f"inverse diagonal entry at index {int(lost[0]) + 1} overflows or underflows float64"
        )
    b = DenseTensor.diagonal(k, b_diag)
    residual = _diagonal_residual(diag, b_diag, a.order, k, side)
    return InverseResult(b, side, k, residual, check_structure(b).is_centro)


def _diagonal_residual(a_diag, b_diag, m: int, k: int, side: str) -> float:
    """verify_inverse of an order-m diagonal A and order-k diagonal B, read
    from their diagonals.

    B*A and A*B are diagonal, with entries b_i * a_i^(k-1) and
    a_i * b_i^(m-1), so only these are compared with 1.  They are
    multiplied left to right, as the contraction multiplies them (its
    other terms are exact zeros), so the residual keeps its bits, and no
    product of order (k-1)(m-1)+1 is built.
    """
    out, factor, count = (b_diag, a_diag, k - 1) if side == "left" else (a_diag, b_diag, m - 1)
    for _ in range(count):
        out = out * factor
    return float(np.max(np.abs(out - 1.0)))


def _signed_root(values: np.ndarray, degree: int) -> np.ndarray:
    # Sign-preserving real degree-th root; callers guarantee positivity
    # when degree is even.
    return np.sign(values) * np.abs(values) ** (1.0 / degree)


def _leading_slice(a: DenseTensor) -> np.ndarray:
    """Matrix M[i, j] = a[i, j, j, ..., j]."""
    idx = np.arange(a.dim)
    return a.data[(slice(None),) + (idx,) * (a.order - 1)].copy()


def recover_order2_left_inverse(
    a: DenseTensor, tol: float | None = None
) -> InverseResult | NoInverse:
    """Recover the unique matrix left inverse of a centro tensor, if any.

    If B*A = identity for a matrix B, then B's matrix inverse shows up
    as the slice a[i, j, j, ..., j]; inverting that slice gives the only
    possible candidate, which is then confirmed by multiplying out.
    """
    _require_order2(a)
    require_centro(a)
    return _recover(a, _leading_slice(a), "left", tol)


def recover_order2_right_inverse(
    a: DenseTensor, tol: float | None = None
) -> InverseResult | NoInverse:
    """Recover the unique matrix right inverse of an even-order centro tensor.

    For even order the slice entries are (m-1)-th powers of the
    candidate's inverse entries, and m-1 odd makes the real root unique
    and sign-preserving.
    """
    if a.order % 2 == 1:
        raise ValueError("right-inverse recovery requires even tensor order")
    require_centro(a)
    candidate_inv = _signed_root(_leading_slice(a), a.order - 1)
    return _recover(a, candidate_inv, "right", tol)


def _default_residual_tol(a: DenseTensor, b: DenseTensor, side: str) -> float:
    """_RESIDUAL_TOL_FACTOR times the scale of the product's terms.

    Each entry of B*A sums terms b * a, and each entry of A*B terms
    a * b^(m-1); scaling A scales B inversely and leaves B*A - I and
    A*B - I alone, so the tolerance must not move with A either.
    Multiplied out from max|A|, the partial products stay between the
    two ends and do not overflow on the way.
    """
    tol = _RESIDUAL_TOL_FACTOR * _max_abs(a.data)
    for _ in range(1 if side == "left" else a.order - 1):
        tol *= _max_abs(b.data)
    return tol


def _max_abs(data: np.ndarray) -> float:
    # max|x| without building |x|
    return max(abs(float(data.max())), abs(float(data.min())))


def _recover(
    a: DenseTensor, candidate_inv: np.ndarray, side: str, tol: float | None
) -> InverseResult | NoInverse:
    if tol is not None:
        tol = check_tolerance(tol)
    cond = float(np.linalg.cond(candidate_inv))
    if not np.isfinite(cond) or cond > DEFAULT_COND_THRESHOLD:
        return NoInverse(
            side,
            f"candidate slice is singular or ill-conditioned (cond {cond:.3e})",
            condition=cond if np.isfinite(cond) else None,
        )
    # a well-conditioned slice of subnormal entries still has an inverse
    # past the float64 range, which LAPACK returns as inf and nan entries
    inv = np.linalg.inv(candidate_inv)
    if not np.all(np.isfinite(inv)):
        return NoInverse(side, "candidate inverse overflows float64", condition=cond)
    b = DenseTensor._adopt(inv)
    if tol is None:
        tol = _default_residual_tol(a, b, side)
    residual = verify_inverse(a, b, side)
    if residual > tol:
        return NoInverse(
            side,
            f"candidate fails the product check (residual {residual:.3e} > tol {tol:.3e})",
            condition=cond,
            residual=residual,
        )
    return InverseResult(b, side, 2, residual, check_structure(b).is_centro, cond)
