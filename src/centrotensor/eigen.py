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
* at order 2, LAPACK's real eigenpairs (np.linalg.eig) when every
  eigenvalue lies more than ORDER2_GAP * entry_scale(A) from every other
  and each real pair passes the residual check; stats stay per start
  (see solve_eigen),
* a multistart damped-Newton solver for general desk-scale tensors.  All
  starts are drawn in one (starts, n) normal draw (the same stream as one
  size-n draw per start) and step together on stacked arrays: the shared
  tensor is contracted against the whole stack, its last two slots at
  once on each row's outer product x (x) x and any others one at a time
  (core.contract_trailing).  F is _stacked_residual and J is _jacobians,
  the one place J's layout is written, from one tensor summed once per
  solve.  Each Newton step is one stacked linear solve, _newton_steps,
  and one line search, _damped_step.  _newton_steps takes non-finite
  systems too, each of which gets a NaN step and is never solved, and a
  stacked slogdet singles out exactly singular Jacobians for least
  squares while the rest stay stacked.  Damping stays per start, and
  only trials that can be accepted are contracted: F's last entry
  |x|^2 - 1 needs no contraction, so it is computed for the full step
  and all its halvings of every start in one stacked pass, components
  outermost, and each trial whose |x|^2 - 1 is not below that start's
  best max|F| is closed (_open_trials).  The first open damping of every
  start is contracted in one stacked call, the next open ones of the
  starts it failed in calls of as many rows as LINE_SEARCH_ENTRIES (rows
  times n^(m-1)) holds, and each start takes its first accepted damping:
  a call's trials come in start order, so a start's first hit is a hit
  whose start differs from the one before.  A row's contraction does not
  depend on the stack it is in (see core._BLOCK_ROWS), so neither the
  grouping of the trials nor the other starts change a start's bits.
  Componentwise powers are left-to-right products (_power), not libm
  pow: orders up to 3 keep the bits x ** k gave, orders 4 and 5 can
  differ in the last bits.  Starts leave the active stack as they
  converge, stall, take a non-finite step or run out of iterations;
  SolverStats counts each way.  Converged pairs joined by a chain of
  close pairs are one pair, whatever their order, and the kept pairs are
  classified as one stack.  The Newton path and the order-2 direct path
  build their EigenSet in one place, _solved,
* reflection of a pair through the exchange matrix: for a centro tensor
  (lambda, Jx) is again a pair, for a skew tensor (-lambda, Jx) is; the
  sign is read once per tensor (structure.reflection_sign).

Beyond simple-spectrum matrices the solver gives no completeness
guarantee: multistart Newton can miss pairs, which is why EigenSet
carries solver statistics and why tests phrase coverage as a
success-rate floor rather than totality.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .core import (
    ConsistencyError,
    DenseTensor,
    _check_cap,
    _stack_entries,
    apply,
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
# Order-2 eigenvalues within this times entry_scale(A) of each other count
# as repeated, and send the solve to the multistart path.
ORDER2_GAP = 1e-6

# Desk-scale bounds for the dense multistart solver.
MAX_SOLVER_DIM = 8
MAX_SOLVER_ORDER = 5
# Newton steps a start may take before it ends max_iter.
MAX_ITER = 100

_SIGN_EPS = 1e-10
_FLOAT_MAX = float(np.finfo(float).max)


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
    re-check), stalled (no damped step reduced max|F|), non_finite (its
    Jacobian, residual or Newton step was not finite) or max_iter (still
    running after MAX_ITER steps).  iterations is the number of Newton
    systems solved, summed over starts: one for each start in each pass
    it enters, the pass in which it stalls or its system or step is not
    finite included (such a system gets a NaN step, unsolved).  On the
    order-2 direct path (see solve_eigen) every start is converged, or
    stalled when the matrix has no real eigenvalue, and iterations is 0.
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
    """Max componentwise deviation of A x^{m-1} from value * x^{[m-1]}.

    x must be one vector of length dim, not a stack of them.  A vector of
    another shape, a zero or non-finite vector, or a non-finite value,
    raises ValueError.
    """
    x = _finite_vector(core._check_vector(a, x), "eigenvector")
    if not math.isfinite(value):
        raise ValueError(f"eigenvalue must be finite, got {value!r}")
    x = core._check_stack(a, x)
    return float(np.max(_residuals(a, np.asarray(value, dtype=float), x)))


def _residuals(a: DenseTensor, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The residual of each pair (lams[s], xs[s]), or of one pair (lam, x),
    for float vectors of length dim that the caller has checked (apply's
    checks, which residual() runs); a row's bits do not depend on the stack
    (see core._BLOCK_ROWS), and a lone vector's are apply's."""
    m = a.order
    axs = contract_trailing(a.data, xs.reshape(-1, a.dim), m - 1).reshape(xs.shape)
    return np.max(np.abs(axs - lams[..., None] * _power(xs, m - 1)), axis=-1)


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """The componentwise power x^{[k]} as the left-to-right product x * x * ... * x.

    numpy sends x ** k for k > 2 to libm pow, ten or more times the cost of a
    multiply; x ** 2 is x * x, so k <= 2 keeps its bits.  k = 0 gives ones
    and k = 1 gives x itself, so no caller may write into the result.
    """
    if k == 0:
        return np.ones_like(x)
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _finite_vector(x, what: str) -> np.ndarray:
    """x as a float array; one that is not 1-D, zero or not finite raises ValueError."""
    x = core._as_vector(x)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    if not x.any():
        raise ValueError(f"{what} must be nonzero")
    return x


_CLASSES = (SYMMETRIC, SKEW_SYMMETRIC, ABS_SYMMETRIC, NEITHER_CLASS)


def _classify_rows(xs: np.ndarray) -> list:
    """classify_vector of each row of xs, in one pass over the stack."""
    jxs, axs = xs[:, ::-1], np.abs(xs)
    # deviations from Jx = x, Jx = -x and J|x| = |x|, then a row of zeros
    # that every tolerance accepts, so argmax falls back to NEITHER_CLASS
    dev = np.zeros((len(_CLASSES),) + xs.shape)
    np.subtract(xs, jxs, out=dev[0])
    np.add(xs, jxs, out=dev[1])
    np.subtract(axs, axs[:, ::-1], out=dev[2])
    label = (np.abs(dev, out=dev).max(axis=2) <= DEFAULT_CLASS_TOL).argmax(axis=0)
    return [_CLASSES[k] for k in label.tolist()]


def classify_vector(x) -> str:
    """Symmetry class of a vector under component reversal.

    Tests Jx = x, Jx = -x, then J|x| = |x|, in that priority, each to
    within the fixed DEFAULT_CLASS_TOL.  A vector that is not 1-D, zero or
    not finite raises ValueError.
    """
    return _classify_rows(_finite_vector(x, "classified vector")[None, :])[0]


def normalize_eigenvector(x) -> np.ndarray:
    """Unit Euclidean norm, first significant component positive.

    A vector that is not 1-D, zero or not finite raises ValueError.
    """
    x = core._as_vector(x)
    with np.errstate(over="ignore", under="ignore"):
        nrm = float(np.linalg.norm(x))
    if not 0.0 < nrm < math.inf:
        # the squares of finite nonzero entries overflowed or underflowed:
        # scale to max |x| = 1 first
        x = _finite_vector(x, "normalized vector")
        x = x / np.max(np.abs(x))
        nrm = float(np.linalg.norm(x))
    x = x / nrm
    return -x if x[(np.abs(x) > _SIGN_EPS).argmax()] < 0 else x


def _canonical_rows(xs: np.ndarray) -> np.ndarray:
    """normalize_eigenvector's rule on a stack: unit rows, first significant
    component positive (a unit row always has one); a zero row becomes NaN."""
    xs = _unit_rows(xs)
    lead = xs[np.arange(len(xs)), np.argmax(np.abs(xs) > _SIGN_EPS, axis=1)]
    xs[lead < 0] *= -1.0
    return xs


def _eigenpairs(a: DenseTensor, lams: np.ndarray, xs: np.ndarray, res=None, scale=1.0) -> list:
    """The EigenPair of each pair (lams[s], xs[s]) of A, for canonical rows xs:
    its residual (unless res gives it) and class; value and residual times scale."""
    if res is None:
        res = _residuals(a, lams, xs)
    values, residuals = (lams * scale).tolist(), (res * scale).tolist()
    return [EigenPair(*p) for p in zip(values, xs, residuals, _classify_rows(xs))]


def _closed_form_pairs(a: DenseTensor, vs: list, even: bool) -> list:
    """The pairs ((A v^{m-1})_1, v) of a centro tensor for fixed vectors v
    with v_1 = 1, in one apply; dim len(v), order >= 2 and, if even, even."""
    if a.dim != len(vs[0]):
        raise ValueError(f"closed form requires dimension {len(vs[0])}")
    if a.order < 2 or (even and a.order % 2 == 1):
        rule = "closed form requires even tensor order" if even else "tensor order must be >= 2"
        raise ValueError(rule)
    require_centro(a)
    vs = np.array(vs)
    return _eigenpairs(a, apply(a, vs)[:, 0], _canonical_rows(vs))


def closed_form_dim2(a: DenseTensor):
    """Two guaranteed pairs of a centro tensor with dimension 2.

    The leading-slice sum is an eigenvalue with eigenvector (1, 1), and
    the alternating-sign leading-slice sum is one with eigenvector
    (1, -1): each is the first component of A v^{m-1}, as v_1 = 1.
    Returns (symmetric pair, skew-symmetric pair).
    """
    return tuple(_closed_form_pairs(a, [[1.0, 1.0], [1.0, -1.0]], even=False))


def closed_form_dim3_even(a: DenseTensor) -> EigenPair:
    """Guaranteed skew-symmetric pair of an even-order centro tensor, dim 3.

    The eigenvector is (1, 0, -1); its eigenvalue is the signed sum of
    the leading-slice entries whose trailing indices avoid the middle,
    each weighted by (-1) to the number of indices hitting the last
    position: the first component of A v^{m-1}, as v_1 = 1.
    """
    return _closed_form_pairs(a, [[1.0, 0.0, -1.0]], even=True)[0]


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
    fs[:, :n] = contract_trailing(data, xs, m - 1) - zs[:, n, None] * _power(xs, m - 1)
    fs[:, n] = np.sum(xs * xs, axis=1) - 1.0
    return fs


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each system of the stack; a non-finite one gets a NaN step, unsolved
    (lstsq can spin on it), and a singular one falls back to least squares.

    A stack whose sum is finite (so every entry is) is tried as one solve.
    Otherwise, or when that solve meets an exactly singular system, one
    slogdet over the finite systems finds the singular ones (sign 0: LU met
    a zero pivot, which is what makes solve raise), one stacked solve takes
    the rest (the same gesv per system, so the same bits), lstsq the singular.
    """
    if np.isfinite(jac.sum() + rhs.sum()):
        try:
            return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            pass
    finite = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    singular = np.zeros_like(finite)
    singular[finite] = np.linalg.slogdet(jac[finite])[0] == 0
    regular = finite & ~singular
    steps = np.full_like(rhs, np.nan)
    steps[regular] = np.linalg.solve(jac[regular], rhs[regular][:, :, None])[:, :, 0]
    for k in np.flatnonzero(singular):
        steps[k] = np.linalg.lstsq(jac[k], rhs[k], rcond=None)[0]
    return steps


# How a start ended, in SolverStats terms.
_RUNNING, _REACHED, _STALLED, _NON_FINITE = 0, 1, 2, 3
# The line search tries the full step and then up to this many halvings.
_HALVINGS = 16
_DAMPS = 0.5 ** np.arange(_HALVINGS + 1)
# Entry budget of one line-search call after the first: its rows times
# n^(m-1), which bounds every array of the residual contraction
# (core._stack_entries; 2^16 entries are 512 KB).  The first call holds
# one open damping of each start; a later one as many of each start's next
# open dampings as the budget holds (at least one), so it bounds work as
# well as memory: open dampings past a start's first accepted one are
# evaluated for nothing.  It bounds the screen's trial stack too.
LINE_SEARCH_ENTRIES = 2**16


def _open_trials(z: np.ndarray, step: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Which trials z[s] + _DAMPS[k] * step[s] could beat best[s], as a
    (starts, dampings) mask; only these need the residual contraction.

    F's last entry |x|^2 - 1 needs no contraction, and max|F| is at least
    its magnitude, so a trial whose |x|^2 - 1 is not below best cannot be
    accepted.  The trials' components and their squares, the bits the
    search contracts, fill one C-contiguous (n, dampings, starts) stack,
    components outermost, and its sum over the components adds one
    (dampings, starts) slice at a time, in component order (numpy adds
    pairwise only along the innermost axis of a reduction, so the layout
    fixes the order).  _stacked_residual's np.sum may add them in another
    order (numpy adds 8 or more pairwise).  Two orders of n nonnegative
    terms differ by at most about 2(n-1) units of rounding (2^-53) of the
    sum, and the subtraction of 1 and the comparison round once each, so
    a trial stays open unless |x|^2 - 1 clears best by the slack
    n * 2^-50 * (|x|^2 + 1 + best), four times all of that.  A trial whose
    |x|^2 overflows is closed: its residual cannot beat best either.  The
    stack holds as many starts at a time as LINE_SEARCH_ENTRIES allows (at
    least one), so the screen's memory past its (dampings, starts) arrays
    stays within that budget; a start's bits do not depend on its block.
    """
    n = z.shape[1] - 1
    sq = np.empty((_DAMPS.size, len(z)))
    rows = max(1, LINE_SEARCH_ENTRIES // (n * _DAMPS.size))
    for lo in range(0, len(z), rows):
        block = slice(lo, lo + rows)
        xs = np.empty((n, _DAMPS.size, len(z[block])))
        np.multiply(step.T[:n, None, block], _DAMPS[:, None], out=xs)
        xs += z.T[:n, None, block]
        xs *= xs
        xs.sum(axis=0, out=sq[:, block])
    return (np.abs(sq - 1.0) < best + n * 2.0**-50 * (sq + 1.0 + best)).T


# Entry budget of one stacked comparison of the merge: its rows times n,
# the size of one difference stack (2^16 entries are 512 KB).
_DEDUP_BLOCK_ENTRIES = 2**16


def _close_rows(lam, x, lams, xs) -> np.ndarray:
    """The dedup rule between (lam, x) and (lams, xs), broadcast over leading
    axes: values within DEDUP_VALUE_TOL and the vector gap up to sign,
    min(|x - xs|, |x + xs|), within DEDUP_VECTOR_TOL.  Symmetric bit for
    bit: x - y, x + y differ from y - x, y + x at most in sign, which the
    squares in the norm drop.  The gaps are taken only when some value is
    close, so pairs of other values that share a merge band (at dim 2 every
    symmetric and skew-symmetric vector has |x_j| = 1/sqrt(2)) cost only
    the value test."""
    close = np.abs(lam - lams) <= DEDUP_VALUE_TOL
    if close.any():
        gap = np.minimum(np.linalg.norm(x - xs, axis=-1), np.linalg.norm(x + xs, axis=-1))
        close &= gap <= DEDUP_VECTOR_TOL
    return close


def _dedup(lams: np.ndarray, xs: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Indices of the pairs the merge keeps, in (value, components) order.

    Two pairs are one eigenpair when a chain of pairs joins them, each
    step close under _close_rows.  Each such component keeps its
    least-residual pair, the first in (value, components) order on a tie.

    A component grows from its first unlabelled pair, the seed, a block
    of members at a time.  Take the coordinate j where |x_j| spreads
    widest as every pair's key.  A pair close to a member has its key
    within DEDUP_VECTOR_TOL of the member's, sign flips included, give or
    take the rounding of the gap; twice the tolerance covers that.  So
    each block searches only the unlabelled pairs whose key lies in the
    band [low - 2 * DEDUP_VECTOR_TOL, high + 2 * DEDUP_VECTOR_TOL], where
    low and high are the least and greatest member key so far: a lookup
    in the one order of all pairs by key, so pairs sharing one value cost
    a search each, not a scan of the stack.  Rounding to nearest is
    monotone, so the rounded band ends hold every key inside the exact
    band; the upper end is taken one float up, as a key equal to it
    belongs in (past 2^35 the margin is under half an ulp of the key, and
    high + 2 * DEDUP_VECTOR_TOL rounds to high).  The band holds pairs of
    every value: _close_rows, which tests the value first, turns away the
    others.  Many values at one vector would put every pair in every
    band, but a tensor's eigenvector fixes its eigenvalue.  Each
    comparison holds at most _DEDUP_BLOCK_ENTRIES entries (or one row
    pair), so memory stays linear in the pairs.
    """
    order = np.lexsort(tuple(xs.T[::-1]) + (lams,))
    lams, xs, res = lams[order], xs[order], res[order]
    total, n = xs.shape
    axs = np.abs(xs)
    key = axs[:, np.argmax(axs.max(axis=0, initial=0.0) - axs.min(axis=0, initial=1.0))]
    by_key = np.argsort(key, kind="stable")
    sorted_key = key[by_key]
    margin = 2 * DEDUP_VECTOR_TOL
    kept = []
    free = np.ones(total, dtype=bool)
    rows = max(1, _DEDUP_BLOCK_ENTRIES // n)
    for seed in range(total):
        if not free[seed]:
            continue
        free[seed] = False
        members, done = np.array([seed]), 0
        low = high = float(key[seed])
        while done < len(members):
            block = members[done : done + rows, None]
            done += len(block)
            band = np.searchsorted(sorted_key, [low - margin, math.nextafter(high + margin, math.inf)])
            near = by_key[band[0] : band[1]]
            near = near[free[near]]
            if not near.size:
                continue
            joined = np.zeros(len(near), dtype=bool)
            width = max(1, rows // len(block))
            for c in range(0, len(near), width):
                part = near[c : c + width]
                close = _close_rows(lams[block], xs[block], lams[part], xs[part])
                joined[c : c + width] = close.any(axis=0)
            if joined.any():
                new = near[joined]
                free[new] = False
                members = np.concatenate((members, new))
                low, high = min(low, float(key[new].min())), max(high, float(key[new].max()))
        kept.append(min(members.tolist(), key=lambda p: (res[p], p)))
    return order[sorted(kept)]


def _matrix_solve(a: DenseTensor, starts: int, start_rows, tol: float, scale: float):
    """LAPACK's real eigenpairs of the matrix A as the solve of `starts`
    unit starts, or None when a repeated or clustered eigenvalue, a failed
    residual check or an overflowing value leaves the answer to the
    multistart path.

    The pairs come in value order, which is what the merge would return:
    every value lies more than ORDER2_GAP * entry_scale(A) >= ORDER2_GAP
    from every other (entry_scale is at least 1), and the merge joins only
    values within DEDUP_VALUE_TOL < ORDER2_GAP, so it keeps every pair, and
    its (value, components) order is value order.

    Stats stay per start: with a real pair every start converges and all
    but one start per pair are deduplicated, without one every start
    stalls.  Fewer starts than pairs keep the pairs nearest the starts,
    the only case that reads them (start_rows()).
    """
    values, vectors = np.linalg.eig(a.data)
    gaps = np.abs(values[:, None] - values)
    np.fill_diagonal(gaps, np.inf)
    if not gaps.min() > ORDER2_GAP * core.entry_scale(a):
        return None
    # dgeev gives a real eigenvalue an imaginary part of exactly 0
    real = values.imag == 0
    lams, vs = values.real[real], _canonical_rows(vectors.real.T[real])
    res = _residuals(a, lams, vs)
    if not np.all((res <= tol) & np.isfinite(lams * scale)):
        return None
    kept = np.argsort(lams, kind="stable")
    if starts < len(kept):
        # a pair's nearness: its largest |cos| with a start
        xs = start_rows()
        near = np.abs(np.sum(xs[:, None, :] * vs[kept], axis=2)).max(axis=0, initial=0.0)
        kept = kept[np.sort(np.argsort(-near, kind="stable")[:starts])]
    state = np.full(starts, _REACHED if lams.size else _STALLED)
    return _solved(a, state, lams[kept], vs[kept], res[kept], scale)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_eigen(
    a: DenseTensor,
    starts: int = 100,
    seed=0,
    tol: float = DEFAULT_SOLVER_TOL,
) -> EigenSet:
    """Multistart damped Newton on the eigenpair system.

    Solves F(x, lambda) = (A x^{m-1} - lambda x^{[m-1]}, |x|^2 - 1) = 0
    from `starts` random unit starting vectors, stepping all starts
    together on stacked arrays.  Each start takes the first of its full
    step and up to 16 halvings that decreases that start's sup-norm of F,
    and stalls if none does; a trial whose |x|^2 - 1 alone is not below
    that norm is never contracted (_open_trials).  Convergence is declared
    at max|F| <= tol.  A start whose Jacobian, residual or step is not
    finite (near the float limit) ends non_finite, with no warning.
    Converged pairs are canonicalized, re-verified against the residual
    bound and deduplicated: two pairs are close when their values differ
    by at most DEDUP_VALUE_TOL and their vectors agree up to sign within
    DEDUP_VECTOR_TOL, and the pairs a chain of close pairs joins keep
    only their least-residual one (see _dedup), so the result does not
    depend on the order of the starts.  The kept pairs come sorted by
    (value, components), each labelled by classify_vector at the fixed
    DEFAULT_CLASS_TOL; memory stays linear in starts.

    At order 2 the equation is A x = lambda x, and one np.linalg.eig call
    (on A / s when the rescale below applies) answers instead when the
    spectrum is simple: every eigenvalue, complex ones included, lies more
    than ORDER2_GAP * entry_scale(A) from every other, and each real one
    (imaginary part exactly 0) has a canonical unit eigenvector with
    residual at most tol and a value finite once scaled back.  The result
    is then LAPACK's real pairs in value order, with no merge: their
    values lie more than ORDER2_GAP * entry_scale(A) >= ORDER2_GAP apart,
    and ORDER2_GAP > DEDUP_VALUE_TOL, so the merge would keep every pair
    in value order.  The start block is drawn and normalized only where it
    is read (the Newton path, and the pick below when starts < pairs), or
    drawn on every path when seed is a caller's generator, which so
    advances alike (see _start_rows).  The stats still count per start:
    with a real pair every start is converged and deduplicated is starts
    minus the pairs; without one every start is stalled; iterations is 0.
    With fewer starts than pairs, the pairs whose eigenvectors have the
    largest |cos| with a start are kept, so converged - deduplicated is
    the pair count for every starts.  Any other matrix (a repeated or
    clustered eigenvalue, a failed residual, an overflowing value) takes
    the Newton path, bit for bit as before.

    tol bounds the residual of A itself, unless A's entries are large
    enough that a residual could overflow (entry_scale(A) * m * n^(m-1)
    above the largest float64).  The solve then runs on A / s, for s the
    power of two at or below entry_scale(A), which the homogeneous
    equation allows: (lambda, x) is a pair of A exactly when
    (lambda / s, x) is a pair of A / s.  tol then bounds the residual of
    A / s, so a returned pair's residual on A is at most tol * s.  Values
    and residuals are reported for A, and a pair whose value overflows
    when scaled back counts as rejected.

    Raises ResourceLimitError, before any start is drawn, when the
    contractions (core._stack_entries, which bounds every array of
    core.contract_trailing), the Jacobian stack or the line search's
    screen (_open_trials: its sums and mask, 2 * _DAMPS.size entries a
    start) would hold more than core.DEFAULT_ENTRY_CAP entries; the
    screen's trial stack and the line search's calls after the first of
    each step hold at most LINE_SEARCH_ENTRIES entries.
    The check counts these Newton arrays at order 2 too, where the direct
    path holds none of them: it runs before np.linalg.eig picks the path,
    and a repeated eigenvalue sends an order-2 solve to Newton, so one
    rule covers both paths.  At the default cap it refuses a solve the
    direct path would take only from about 0.8 million starts (dim 8) to
    2 million (dim 2).
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
    tol = check_tolerance(tol, "tol")
    # _stack_entries bounds every array of the contractions
    stack = max(_stack_entries(starts, m, n), starts * (n + 1) ** 2, starts * 2 * _DAMPS.size)
    _check_cap(stack, "%s starts on order %s dim %s stack", starts, m, n)
    scale = 1.0
    if core.entry_scale(a) * m * n ** (m - 1) > _FLOAT_MAX:
        scale = 2.0 ** (math.frexp(core.entry_scale(a))[1] - 1)
        # dividing by a power of two keeps every entry finite
        a = DenseTensor._adopt(a.data / scale)
    start_rows = _start_rows(seed, starts, n)
    result = _matrix_solve(a, starts, start_rows, tol, scale) if m == 2 else None
    return _multistart(a, start_rows(), tol, scale) if result is None else result


def _start_rows(seed, starts: int, n: int):
    """A function that returns the solve's (starts, n) block of unit start rows.

    One draw of shape (starts, n) consumes the same stream as `starts`
    draws of size n, so a seed means the same starts as a per-start loop.
    A None, integer or SeedSequence seed makes a fresh generator that no
    caller sees: here it only becomes a SeedSequence, which raises as
    np.random.default_rng would, and the block is drawn on the first call.
    Any other seed, such as a caller's Generator, BitGenerator or
    RandomState (whose stream default_rng shares, so the caller sees the
    draw), has its block drawn here, on every path.  The rows are
    normalized on each call.
    """
    if seed is None or isinstance(seed, (int, np.integer, np.random.SeedSequence)):
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        return lambda: _unit_rows(np.random.default_rng(seed).normal(size=(starts, n)))
    drawn = np.random.default_rng(seed).normal(size=(starts, n))
    return lambda: _unit_rows(drawn)


def _unit_rows(xs: np.ndarray) -> np.ndarray:
    """Each row over its Euclidean norm, summed as np.linalg.norm(xs, axis=1) sums it."""
    return xs / np.sqrt(np.add.reduce(xs * xs, axis=1))[:, None]


def _jacobians(jac_tensor: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Jacobian of F (see _stacked_residual) at each row (x, lambda) of z,
    for jac_tensor the _jacobian_tensor of A: the x-block B x^{m-2} less
    lambda (m-1) x^{[m-2]} on its diagonal, the column -x^{[m-1]} and the
    row 2x, with 0 in the corner."""
    m, n = jac_tensor.ndim, z.shape[1] - 1
    x, lam = z[:, :n], z[:, n]
    jac = np.zeros((len(z), n + 1, n + 1))
    jac[:, :n, :n] = contract_trailing(jac_tensor, x, m - 2)
    # x^{[m-2]} once; p * x is _power(x, m - 1) bit for bit
    p = _power(x, m - 2)
    # the x-block's diagonal as a view: entry (i, i) is flat entry i * (n + 2)
    jac.reshape(len(z), -1)[:, : n * (n + 2) : n + 2] -= lam[:, None] * (m - 1) * p
    jac[:, :n, n] = -(p * x)
    jac[:, n, :n] = 2.0 * x
    return jac


def _damped_step(data: np.ndarray, z: np.ndarray, step: np.ndarray, best: np.ndarray):
    """The line search of one Newton step of each row of z: the first trial
    z[s] + _DAMPS[k] * step[s] whose max|F| is below best[s] wins.

    Only open trials (_open_trials) are contracted: the first open damping
    of every row in one stacked call, then the next open ones of the rows
    it failed in calls of as many rows as LINE_SEARCH_ENTRIES holds.
    Returns (taken, z, F, max|F|) by row: whether the row took a damping,
    and its unknowns, residual and max|F| after the step.  z and best are
    the caller's to give, as they become the z and max|F| returned: a row
    that takes no damping keeps its own, and its F is left unset.
    """
    m, n = data.ndim, z.shape[1] - 1
    chunk_rows = max(1, LINE_SEARCH_ENTRIES // n ** (m - 1))
    opened = _open_trials(z, step, best)
    taken, fs = np.zeros(len(z), dtype=bool), np.empty_like(z)
    pending = opened.any(axis=1).nonzero()[0]
    take = 1
    while pending.size:
        # each pending row's next `take` open dampings, in damping order;
        # with one each, argmax spares the cumsum and the first-hit filter
        # (a tenth of the eig-survey panel's solve time)
        if take == 1:
            rows, cols = pending, opened[pending].argmax(axis=1)
        else:
            ahead = opened[pending]
            ahead &= np.cumsum(ahead, axis=1) <= take
            sel, cols = np.nonzero(ahead)
            rows = pending[sel]
        opened[rows, cols] = False
        z_new = z[rows] + _DAMPS[cols, None] * step[rows]
        f_new = _stacked_residual(data, z_new)
        norm_new = np.abs(f_new).max(axis=1)
        hits = (norm_new < best[rows]).nonzero()[0]
        if take > 1:
            # the first trial of each row that beats its best wins: rows
            # ascend, so it is each hit whose row differs from the last one's
            first = np.ones(hits.size, dtype=bool)
            np.not_equal(rows[hits[1:]], rows[hits[:-1]], out=first[1:])
            hits = hits[first]
        won = rows[hits]
        taken[won], opened[won] = True, False
        z[won], fs[won], best[won] = z_new[hits], f_new[hits], norm_new[hits]
        pending = opened.any(axis=1).nonzero()[0]
        take = max(1, chunk_rows // max(1, pending.size))
    return taken, z, fs, best


def _solved(a: DenseTensor, state: np.ndarray, lams, xs, res, scale: float, rejected=0, iterations=0):
    """The EigenSet of the kept pairs (lams, xs, res) of A, values and residuals
    times scale, with the stats of the starts' ends `state`: a start that
    reached tol is converged unless it is one of the `rejected`."""
    # starts per end, in the order of the end codes
    running, reached, stalled, non_finite = np.bincount(state, minlength=4).tolist()
    converged = reached - rejected
    stats = SolverStats(
        len(state), converged, converged - len(lams), rejected, stalled, non_finite, running, iterations
    )
    return EigenSet(pairs=_eigenpairs(a, lams, xs, res, scale), stats=stats)


def _multistart(a: DenseTensor, starts_xs: np.ndarray, tol: float, scale: float) -> EigenSet:
    """Damped Newton from each unit start of the stack, as solve_eigen describes."""
    (starts, n), m = starts_xs.shape, a.order
    data = a.data
    jac_tensor = _jacobian_tensor(data)

    # Row s of zs holds start s's unknowns (x, lambda).
    zs = np.empty((starts, n + 1))
    xs = zs[:, :n]
    xs[:] = starts_xs
    xp = _power(xs, m - 1)
    zs[:, n] = np.sum(xp * contract_trailing(data, xs, m - 1), axis=1) / np.sum(xp * xp, axis=1)
    fs = _stacked_residual(data, zs)
    best = np.max(np.abs(fs), axis=1)
    state = np.where(best <= tol, _REACHED, _RUNNING)
    # the running stack: row k of z, f and best is start live[k]; a start
    # leaves it as it ends, and a converged one leaves its unknowns in zs
    live = np.flatnonzero(state == _RUNNING)
    z, f, best = zs[live], fs[live], best[live]
    iterations = 0
    for _ in range(MAX_ITER):
        if not live.size:
            break
        iterations += live.size
        step = _newton_steps(_jacobians(jac_tensor, z), -f)
        finite = np.isfinite(step).all(axis=1)
        if not finite.all():
            state[live[~finite]] = _NON_FINITE
            live, z, step, best = live[finite], z[finite], step[finite], best[finite]
        taken, z, f, best = _damped_step(data, z, step, best)
        # a start that takes no damping keeps its best, above tol, and stalls
        state[live[~taken]] = _STALLED
        at_tol = best <= tol
        state[live[at_tol]] = _REACHED
        zs[live[at_tol]] = z[at_tol]
        going = taken & ~at_tol
        live, z, f, best = live[going], z[going], f[going], best[going]

    reached = np.flatnonzero(state == _REACHED)
    # a zero row's NaN residual fails the re-check
    xs, lams = _canonical_rows(zs[reached, :n]), zs[reached, n]
    res = _residuals(a, lams, xs)
    ok = (res <= tol) & np.isfinite(lams * scale)
    xs, lams, res = xs[ok], lams[ok], res[ok]
    kept = _dedup(lams, xs, res)
    return _solved(a, state, lams[kept], xs[kept], res[kept], scale, len(reached) - len(lams), iterations)


def reflect_pair(a: DenseTensor, pair: EigenPair, tol: float = DEFAULT_SOLVER_TOL) -> EigenPair:
    """Mirror an eigenpair through the exchange matrix.

    For a centro tensor the reflected vector keeps the eigenvalue; for a
    skew tensor it carries the negated one.  The sign comes from
    structure.reflection_sign, which scans each tensor once, so
    reflecting every pair of a solve pays one structure verdict; a tensor
    that is neither centro nor skew raises ValueError.  The returned pair
    is re-verified, and a failure raises ConsistencyError since it would
    contradict an identity that holds exactly in real arithmetic.
    """
    tol = check_tolerance(tol)
    value = reflection_sign(a) * pair.value
    # pair.vector is the caller's: apply's checks, as residual() runs them
    xs = core._check_stack(a, normalize_eigenvector(flip_vector(pair.vector))[None, :])
    mirrored = _eigenpairs(a, np.array([value]), xs)[0]
    if not mirrored.residual <= tol:
        raise ConsistencyError(
            f"reflected pair has residual {mirrored.residual:.3e} > tol {tol:.3e}; "
            "the structure reflection identity failed"
        )
    return mirrored
