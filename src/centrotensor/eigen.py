"""Real H-eigenpairs of small dense tensors.

A pair (lambda, x) with x != 0 is an H-eigenpair of an order-m tensor A
when A x^{m-1} = lambda * x^{[m-1]} componentwise, where x^{[p]} is the
componentwise power.  Both sides scale like t^{m-1} under x -> t*x, so
eigenvectors are canonicalized to unit Euclidean norm with the first
significant component positive.

Contents:

* residual and vector-symmetry classification,
* closed-form pairs for centrosymmetric tensors of dimension 2 (both
  the all-ones and the alternating-sign eigenvector) and of dimension 3
  with even order (the (1, 0, -1) eigenvector),
* a multistart damped-Newton solver for general desk-scale tensors.  All
  starts are drawn in one (starts, n) normal draw (the same stream as one
  size-n draw per start) and step together on stacked arrays: the shared
  tensor is contracted one slot at a time against the whole stack, the
  Jacobians come from one tensor summed once per solve, and each Newton
  step is one stacked linear solve.  When that solve meets an exactly
  singular Jacobian, a stacked slogdet singles those systems out for
  least squares and the rest stay stacked.  Damping stays per start:
  the full step is tried for every start, then the halvings of the
  starts it failed are evaluated in stacked chunks of consecutive
  halvings, as many per chunk as LINE_SEARCH_ENTRIES (rows times
  n^(m-1)) holds, and each start takes its first accepted halving.  Each
  row is contracted on its own (see core.contract_trailing), so neither
  the chunking nor the other starts change a start's bits.  Starts leave
  the active stack as they converge, stall, take a non-finite step or
  run out of iterations; SolverStats counts each way,
* reflection of a pair through the exchange matrix: for a centro tensor
  (lambda, Jx) is again a pair, for a skew tensor (-lambda, Jx) is.

The solver gives no completeness guarantee: multistart Newton can miss
pairs, which is why EigenSet carries solver statistics and why tests
phrase coverage as a success-rate floor rather than totality.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .core import (
    ConsistencyError,
    DenseTensor,
    ResourceLimitError,
    apply,
    as_generator,
    check_count,
    check_tolerance,
    contract_trailing,
    flip_vector,
)
from .structure import reflection_sign, require_centro

__all__ = [
    "SYMMETRIC",
    "SKEW_SYMMETRIC",
    "ABS_SYMMETRIC",
    "NEITHER_CLASS",
    "DEFAULT_CLASS_TOL",
    "DEFAULT_SOLVER_TOL",
    "EigenPair",
    "SolverStats",
    "EigenSet",
    "residual",
    "classify_vector",
    "normalize_eigenvector",
    "closed_form_dim2",
    "closed_form_dim3_even",
    "solve_eigen",
    "reflect_pair",
]

SYMMETRIC = "symmetric"
SKEW_SYMMETRIC = "skew-symmetric"
ABS_SYMMETRIC = "abs-symmetric"
NEITHER_CLASS = "neither"

DEFAULT_CLASS_TOL = 1e-8
DEFAULT_SOLVER_TOL = 1e-10
DEDUP_VALUE_TOL = 1e-8
DEDUP_VECTOR_TOL = 1e-6

# Desk-scale bounds for the dense multistart solver.
MAX_SOLVER_DIM = 8
MAX_SOLVER_ORDER = 5

_SIGN_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float
    classification: str

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "vector": self.vector.tolist(),
            "residual": self.residual,
            "classification": self.classification,
        }


@dataclass(frozen=True)
class SolverStats:
    """Start accounting of one solve.

    Every start ends exactly one way: converged (reached tol and passed
    the residual re-check), rejected (reached tol but failed the
    re-check), stalled (no damped step reduced max|F|), non_finite (the
    Newton step was not finite) or max_iter (still running after
    max_iter steps).  iterations is the number of Newton steps taken,
    summed over starts.
    """

    attempted: int
    converged: int
    deduplicated: int
    rejected: int
    stalled: int
    non_finite: int
    max_iter: int
    iterations: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class EigenSet:
    pairs: list
    stats: SolverStats

    def values(self) -> list:
        return [p.value for p in self.pairs]

    def as_dict(self) -> dict:
        return {
            "pairs": [p.as_dict() for p in self.pairs],
            "stats": self.stats.as_dict(),
        }


def residual(a: DenseTensor, value: float, x) -> float:
    """Max componentwise deviation of A x^{m-1} from value * x^{[m-1]}."""
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("eigenvector must be nonzero")
    return float(np.max(np.abs(apply(a, x) - value * x ** (a.order - 1))))


def classify_vector(x, tol: float = DEFAULT_CLASS_TOL) -> str:
    """Symmetry class of a vector under component reversal.

    Tests Jx = x, Jx = -x, then J|x| = |x|, in that priority.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("cannot classify the zero vector")
    jx = x[::-1]
    if float(np.max(np.abs(x - jx))) <= tol:
        return SYMMETRIC
    if float(np.max(np.abs(x + jx))) <= tol:
        return SKEW_SYMMETRIC
    ax = np.abs(x)
    if float(np.max(np.abs(ax - ax[::-1]))) <= tol:
        return ABS_SYMMETRIC
    return NEITHER_CLASS


def normalize_eigenvector(x) -> np.ndarray:
    """Unit Euclidean norm, first significant component positive."""
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    x = x / nrm
    for comp in x:
        if abs(comp) > _SIGN_EPS:
            if comp < 0:
                x = -x
            break
    return x


def _make_pair(a: DenseTensor, value: float, x: np.ndarray) -> EigenPair:
    x = normalize_eigenvector(x)
    return EigenPair(float(value), x, residual(a, value, x), classify_vector(x))


def closed_form_dim2(a: DenseTensor):
    """Two guaranteed pairs of a centro tensor with dimension 2.

    The leading-slice sum is an eigenvalue with eigenvector (1, 1), and
    the alternating-sign leading-slice sum is one with eigenvector
    (1, -1): each is the first component of A v^{m-1}, as v_1 = 1.
    Returns (symmetric pair, skew-symmetric pair).
    """
    if a.dim != 2:
        raise ValueError("closed form requires dimension 2")
    if a.order < 2:
        raise ValueError("tensor order must be >= 2")
    require_centro(a)
    e, u = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    return _make_pair(a, apply(a, e)[0], e), _make_pair(a, apply(a, u)[0], u)


def closed_form_dim3_even(a: DenseTensor) -> EigenPair:
    """Guaranteed skew-symmetric pair of an even-order centro tensor, dim 3.

    The eigenvector is (1, 0, -1); its eigenvalue is the signed sum of
    the leading-slice entries whose trailing indices avoid the middle,
    each weighted by (-1) to the number of indices hitting the last
    position: the first component of A v^{m-1}, as v_1 = 1.
    """
    if a.dim != 3:
        raise ValueError("closed form requires dimension 3")
    if a.order < 2 or a.order % 2 == 1:
        raise ValueError("closed form requires even tensor order")
    require_centro(a)
    v = np.array([1.0, 0.0, -1.0])
    return _make_pair(a, apply(a, v)[0], v)


def _jacobian_tensor(data: np.ndarray) -> np.ndarray:
    """Tensor B whose contraction B x^{m-2} on its last m-2 slots is the
    Jacobian of x -> A x^{m-1}.

    The Jacobian sums, over which trailing slot of A stays free, the
    contraction of A with x on all the other trailing slots.  Moving each
    free slot to position 2 and summing once per solve leaves one
    contraction per Jacobian instead of m-1.
    """
    return sum(np.moveaxis(data, p, 1) for p in range(1, data.ndim))


def _stacked_residual(data: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """F(x, lambda) = (A x^{m-1} - lambda x^{[m-1]}, |x|^2 - 1) for each row (x, lambda)."""
    m, n = data.ndim, zs.shape[1] - 1
    xs = zs[:, :n]
    fs = np.empty_like(zs)
    fs[:, :n] = contract_trailing(data, xs, m - 1) - zs[:, n, None] * xs ** (m - 1)
    fs[:, n] = np.sum(xs * xs, axis=1) - 1.0
    return fs


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each system of the stack; a singular one falls back to least squares.

    When the stacked solve meets an exactly singular system, one stacked
    slogdet finds every such system (sign 0: LU met a zero pivot, which is
    what makes solve raise), one stacked solve takes the rest (the same
    LAPACK gesv per system, so the same bits) and lstsq only the singular
    ones.
    """
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(jac)[0] == 0
    steps = np.empty_like(rhs)
    regular = ~singular
    steps[regular] = np.linalg.solve(jac[regular], rhs[regular][:, :, None])[:, :, 0]
    for k in np.flatnonzero(singular):
        steps[k] = np.linalg.lstsq(jac[k], rhs[k], rcond=None)[0]
    return steps


# How a start ended, in SolverStats terms.
_RUNNING, _REACHED, _STALLED, _NON_FINITE = 0, 1, 2, 3
# The line search tries the full step and then up to this many halvings.
_HALVINGS = 16
_DAMPS = 0.5 ** np.arange(_HALVINGS + 1)
# Entry budget of one line-search chunk: its rows times n^(m-1), the size
# of the first partial contraction (2^16 entries are 512 KB).  It bounds
# work as well as memory: halvings past a start's first accepted one are
# evaluated for nothing, which costs more than the saved calls once a row
# is large (order 5, dim 8: a row is 4096 entries, so 16 rows a chunk).
LINE_SEARCH_ENTRIES = 2**16


def solve_eigen(
    a: DenseTensor,
    starts: int = 100,
    seed=0,
    tol: float = DEFAULT_SOLVER_TOL,
    max_iter: int = 100,
    class_tol: float = DEFAULT_CLASS_TOL,
) -> EigenSet:
    """Multistart damped Newton on the eigenpair system.

    Solves F(x, lambda) = (A x^{m-1} - lambda x^{[m-1]}, |x|^2 - 1) = 0
    from `starts` random unit starting vectors, stepping all starts
    together on stacked arrays.  Each start's step is halved while it
    fails to decrease that start's sup-norm of F; convergence is declared
    at max|F| <= tol.  Converged pairs are canonicalized, re-verified
    against the residual bound, sorted by (value, components) and
    deduplicated: two pairs merge when their values differ by at most
    DEDUP_VALUE_TOL and their vectors agree up to sign within
    DEDUP_VECTOR_TOL.

    Raises ResourceLimitError, before any start is drawn, when the first
    contraction or the Jacobian stack would hold more than
    core.DEFAULT_ENTRY_CAP entries; the line search is chunked.
    An empty result is legal; completeness is not guaranteed.
    """
    n, m = a.dim, a.order
    if m < 2:
        raise ValueError("eigen solving requires tensor order >= 2")
    if n > MAX_SOLVER_DIM or m > MAX_SOLVER_ORDER:
        raise ValueError(
            f"solver is desk-scale only (dim <= {MAX_SOLVER_DIM}, order <= {MAX_SOLVER_ORDER})"
        )
    starts = check_count(starts, "starts")
    max_iter = check_count(max_iter, "max_iter")
    tol = check_tolerance(tol, "tol")
    class_tol = check_tolerance(class_tol, "class_tol")
    stack = starts * max(n ** (m - 1), (n + 1) ** 2)
    if stack > core.DEFAULT_ENTRY_CAP:
        raise ResourceLimitError(
            f"{starts} starts on order {m} dim {n} stack {stack} entries, "
            f"exceeding the cap {core.DEFAULT_ENTRY_CAP}"
        )
    rng = as_generator(seed)
    data = a.data
    jac_tensor = _jacobian_tensor(data)
    chunk_rows = max(1, LINE_SEARCH_ENTRIES // n ** (m - 1))
    diag = np.arange(n)

    # One draw of shape (starts, n) consumes the same stream as `starts`
    # draws of size n, so a seed means the same starts as a per-start loop.
    # Row s of zs holds start s's unknowns (x, lambda).
    zs = np.empty((starts, n + 1))
    xs = zs[:, :n]
    xs[:] = rng.normal(size=(starts, n))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    xp = xs ** (m - 1)
    zs[:, n] = np.sum(xp * contract_trailing(data, xs, m - 1), axis=1) / np.sum(xp * xp, axis=1)
    fs = _stacked_residual(data, zs)
    best = np.max(np.abs(fs), axis=1)
    state = np.where(best <= tol, _REACHED, _RUNNING)
    iterations = 0
    for _ in range(max_iter):
        live = np.flatnonzero(state == _RUNNING)
        if not live.size:
            break
        iterations += live.size
        z = zs[live]
        x, lam = z[:, :n], z[:, n]
        jac = np.zeros((live.size, n + 1, n + 1))
        jac[:, :n, :n] = contract_trailing(jac_tensor, x, m - 2)
        jac[:, diag, diag] -= lam[:, None] * (m - 1) * x ** (m - 2)
        jac[:, :n, n] = -(x ** (m - 1))
        jac[:, n, :n] = 2.0 * x
        step = _newton_steps(jac, -fs[live])
        pending = live
        finite = np.isfinite(step).all(axis=1)
        if not finite.all():
            state[live[~finite]] = _NON_FINITE
            pending, z, step = live[finite], z[finite], step[finite]
        halving = 0
        while pending.size and halving <= _HALVINGS:
            # the full step alone, then as many halvings per chunk as the
            # entry budget holds (at least one)
            chunk = 1 if halving == 0 else min(
                _HALVINGS + 1 - halving, max(1, chunk_rows // pending.size)
            )
            damp = _DAMPS[halving : halving + chunk]
            z_new = z[:, None, :] + damp[:, None] * step[:, None, :]
            f_new = _stacked_residual(data, z_new.reshape(-1, n + 1)).reshape(z_new.shape)
            norm_new = np.abs(f_new).max(axis=2)
            better = norm_new < best[pending, None]
            accepted = better.any(axis=1)
            # the first accepted halving of each start wins
            rows = np.flatnonzero(accepted)
            first = np.argmax(better[rows], axis=1)
            won = pending[rows]
            norm_won = norm_new[rows, first]
            zs[won], fs[won], best[won] = z_new[rows, first], f_new[rows, first], norm_won
            state[won[norm_won <= tol]] = _REACHED
            keep = ~accepted
            pending, z, step = pending[keep], z[keep], step[keep]
            halving += chunk
        state[pending] = _STALLED

    reached = np.flatnonzero(state == _REACHED)
    xs, lams = zs[reached, :n], zs[reached, n]
    # normalize_eigenvector's rule on the stack: unit rows, first
    # significant component positive (a unit row always has one)
    norms = np.linalg.norm(xs, axis=1)
    nonzero = norms > 0.0
    xs, lams = xs[nonzero] / norms[nonzero, None], lams[nonzero]
    lead = xs[np.arange(len(xs)), np.argmax(np.abs(xs) > _SIGN_EPS, axis=1)]
    xs[lead < 0] *= -1.0
    res = np.max(np.abs(apply(a, xs) - lams[:, None] * xs ** (m - 1)), axis=1)
    ok = res <= tol
    xs, lams, res = xs[ok], lams[ok], res[ok]
    converged = len(lams)

    order = np.lexsort(tuple(xs.T[::-1]) + (lams,))
    kept_lams = np.empty(converged)
    kept_xs = np.empty((converged, n))
    kept_res = np.empty(converged)
    count = 0
    for i in order:
        lam, x = lams[i], xs[i]
        close = (np.abs(lam - kept_lams[:count]) <= DEDUP_VALUE_TOL) & (
            np.minimum(
                np.linalg.norm(x - kept_xs[:count], axis=1),
                np.linalg.norm(x + kept_xs[:count], axis=1),
            )
            <= DEDUP_VECTOR_TOL
        )
        match = np.flatnonzero(close)
        if not match.size:
            match = [count]
            count += 1
        elif res[i] >= kept_res[match[0]]:
            continue
        kept_lams[match[0]], kept_xs[match[0]], kept_res[match[0]] = lam, x, res[i]

    pairs = [
        EigenPair(float(lam), x, float(r), classify_vector(x, class_tol))
        for lam, x, r in zip(kept_lams[:count], kept_xs[:count], kept_res[:count])
    ]
    stats = SolverStats(
        attempted=starts,
        converged=converged,
        deduplicated=converged - count,
        rejected=len(reached) - converged,
        stalled=int(np.sum(state == _STALLED)),
        non_finite=int(np.sum(state == _NON_FINITE)),
        max_iter=int(np.sum(state == _RUNNING)),
        iterations=iterations,
    )
    return EigenSet(pairs=pairs, stats=stats)


def reflect_pair(a: DenseTensor, pair: EigenPair, tol: float = DEFAULT_SOLVER_TOL) -> EigenPair:
    """Mirror an eigenpair through the exchange matrix.

    For a centro tensor the reflected vector keeps the eigenvalue; for a
    skew tensor it carries the negated one.  The returned pair is
    re-verified, and a failure raises ConsistencyError since it would
    contradict an identity that holds exactly in real arithmetic.
    """
    tol = check_tolerance(tol)
    value = reflection_sign(a) * pair.value
    mirrored = _make_pair(a, value, flip_vector(pair.vector))
    if mirrored.residual > tol:
        raise ConsistencyError(
            f"reflected pair has residual {mirrored.residual:.3e} > tol {tol:.3e}; "
            "the structure reflection identity failed"
        )
    return mirrored
