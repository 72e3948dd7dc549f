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
  step is one stacked linear solve, _newton_steps.  It takes non-finite
  systems too, each of which gets a NaN step and is never solved, and a
  stacked slogdet singles out exactly singular Jacobians for least
  squares while the rest stay stacked.  Damping stays per start:
  the full step is tried for every start, then the halvings of the
  starts it failed are evaluated in stacked chunks of consecutive
  halvings, as many per chunk as LINE_SEARCH_ENTRIES (rows times
  n^(m-1)) holds, and each start takes its first accepted halving.  Each
  row is contracted on its own (see core.contract_trailing), so neither
  the chunking nor the other starts change a start's bits.  Componentwise
  powers are left-to-right products (_power), not libm pow: orders up to
  3 keep the bits x ** k gave, orders 4 and 5 can differ in the last
  bits.  Starts leave the active stack as they converge, stall, take a
  non-finite step or run out of iterations; SolverStats counts each way.
  Converged pairs joined by a chain of close pairs are one pair, whatever
  their order, and the kept pairs are classified as one stack,
* reflection of a pair through the exchange matrix: for a centro tensor
  (lambda, Jx) is again a pair, for a skew tensor (-lambda, Jx) is.

The solver gives no completeness guarantee: multistart Newton can miss
pairs, which is why EigenSet carries solver statistics and why tests
phrase coverage as a success-rate floor rather than totality.
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
    steps taken, summed over starts.
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

    A zero or non-finite vector, or a non-finite value, raises ValueError.
    """
    x = _finite_vector(x, "eigenvector")
    if not math.isfinite(value):
        raise ValueError(f"eigenvalue must be finite, got {value!r}")
    return float(np.max(_residuals(a, np.asarray(value, dtype=float), x)))


def _residuals(a: DenseTensor, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The residual of each pair (lams[s], xs[s]), or of one pair (lam, x);
    apply contracts each row on its own, so its bits do not depend on the stack."""
    return np.max(np.abs(apply(a, xs) - lams[..., None] * _power(xs, a.order - 1)), axis=-1)


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
    """x as a float array; a zero or non-finite vector raises ValueError."""
    x = np.asarray(x, dtype=float)
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
    within the fixed DEFAULT_CLASS_TOL.  A zero or non-finite vector
    raises ValueError.
    """
    return _classify_rows(_finite_vector(x, "classified vector")[None, :])[0]


def normalize_eigenvector(x) -> np.ndarray:
    """Unit Euclidean norm, first significant component positive.

    A zero or non-finite vector raises ValueError.
    """
    x = np.asarray(x, dtype=float)
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
    xs = xs / np.linalg.norm(xs, axis=1)[:, None]
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
# Entry budget of one line-search chunk: its rows times n^(m-1), the size
# of the first partial contraction (2^16 entries are 512 KB).  It bounds
# work as well as memory: halvings past a start's first accepted one are
# evaluated for nothing, which costs more than the saved calls once a row
# is large (order 5, dim 8: a row is 4096 entries, so 16 rows a chunk).
LINE_SEARCH_ENTRIES = 2**16


# Entry budget of one stacked comparison of the merge: its rows times n,
# the size of one difference stack (2^16 entries are 512 KB).
_DEDUP_BLOCK_ENTRIES = 2**16


def _vector_gap(x, xs) -> np.ndarray:
    """min(|x - xs|, |x + xs|), broadcast over leading axes.  Symmetric bit
    for bit: x - y, x + y differ from y - x, y + x at most in sign, which
    the squares in the norm drop."""
    return np.minimum(np.linalg.norm(x - xs, axis=-1), np.linalg.norm(x + xs, axis=-1))


def _close_rows(lam, x, lams, xs) -> np.ndarray:
    """The dedup rule between (lam, x) and (lams, xs), broadcast over leading axes."""
    return (np.abs(lam - lams) <= DEDUP_VALUE_TOL) & (_vector_gap(x, xs) <= DEDUP_VECTOR_TOL)


def _dedup(lams: np.ndarray, xs: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Indices of the pairs the merge keeps, in (value, components) order.

    Two pairs are one eigenpair when a chain of pairs joins them, each
    step close under _close_rows.  Each such component keeps its
    least-residual pair, the first in (value, components) order on a tie.

    A component grows from its first unlabelled pair, the seed, a block
    of members at a time.  A pair can join only from the block's value
    windows, and only if its vector gap to the seed is within the
    component's reach (its members' largest gap to the seed) plus twice
    the tolerance: the triangle inequality allows one, the other covers
    rounding.  Each comparison holds at most _DEDUP_BLOCK_ENTRIES entries
    (or one row pair), so memory stays linear in the pairs.
    """
    order = np.lexsort(tuple(xs.T[::-1]) + (lams,))
    lams, xs, res = lams[order], xs[order], res[order]
    total, n = xs.shape
    # no pair outside [lo[p], hi[p]) is within DEDUP_VALUE_TOL of pair p
    lo = np.searchsorted(lams, lams - 2.0 * DEDUP_VALUE_TOL)
    hi = np.searchsorted(lams, lams + 2.0 * DEDUP_VALUE_TOL, side="right")
    free = np.ones(total, dtype=bool)
    rows = max(1, _DEDUP_BLOCK_ENTRIES // n)
    kept = []
    for seed in range(total):
        if not free[seed]:
            continue
        free[seed] = False
        members, done, reach = np.array([seed]), 0, 0.0
        while done < len(members):
            block = members[done : done + rows, None]
            done += len(block)
            # every pair before the seed is labelled
            start, stop = max(seed, lo[block].min()), hi[block].max()
            gap = _vector_gap(xs[seed], xs[start:stop])
            near = start + np.flatnonzero(free[start:stop] & (gap <= reach + 2 * DEDUP_VECTOR_TOL))
            joined = np.zeros(len(near), dtype=bool)
            width = max(1, rows // len(block))
            for c in range(0, len(near), width):
                part = near[c : c + width]
                close = _close_rows(lams[block], xs[block], lams[part], xs[part])
                joined[c : c + width] = close.any(axis=0)
            new = near[joined]
            if new.size:
                free[new] = False
                members = np.concatenate((members, new))
                reach = max(reach, gap[new - start].max())
        kept.append(min(members.tolist(), key=lambda p: (res[p], p)))
    return order[sorted(kept)]


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
    together on stacked arrays.  Each start's step is halved while it
    fails to decrease that start's sup-norm of F; convergence is declared
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

    tol bounds the residual of A itself, unless A's entries are large
    enough that a residual could overflow (entry_scale(A) * m * n^(m-1)
    above the largest float64).  The solve then runs on A / s, for s the
    power of two at or below entry_scale(A), which the homogeneous
    equation allows: (lambda, x) is a pair of A exactly when
    (lambda / s, x) is a pair of A / s.  tol then bounds the residual of
    A / s, so a returned pair's residual on A is at most tol * s.  Values
    and residuals are reported for A, and a pair whose value overflows
    when scaled back counts as rejected.

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
    tol = check_tolerance(tol, "tol")
    stack = starts * max(n ** (m - 1), (n + 1) ** 2)
    _check_cap(stack, f"{starts} starts on order {m} dim {n} stack")
    scale = 1.0
    if core.entry_scale(a) * m * n ** (m - 1) > _FLOAT_MAX:
        scale = 2.0 ** (math.frexp(core.entry_scale(a))[1] - 1)
        # dividing by a power of two keeps every entry finite
        a = DenseTensor._adopt(a.data / scale)
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
    xp = _power(xs, m - 1)
    zs[:, n] = np.sum(xp * contract_trailing(data, xs, m - 1), axis=1) / np.sum(xp * xp, axis=1)
    fs = _stacked_residual(data, zs)
    best = np.max(np.abs(fs), axis=1)
    state = np.where(best <= tol, _REACHED, _RUNNING)
    iterations = 0
    for _ in range(MAX_ITER):
        live = np.flatnonzero(state == _RUNNING)
        if not live.size:
            break
        iterations += live.size
        z = zs[live]
        x, lam = z[:, :n], z[:, n]
        jac = np.zeros((live.size, n + 1, n + 1))
        jac[:, :n, :n] = contract_trailing(jac_tensor, x, m - 2)
        # x^{[m-2]} once; p * x is _power(x, m - 1) bit for bit
        p = _power(x, m - 2)
        jac[:, diag, diag] -= lam[:, None] * (m - 1) * p
        jac[:, :n, n] = -(p * x)
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
    # a zero row's NaN residual fails the re-check
    xs, lams = _canonical_rows(zs[reached, :n]), zs[reached, n]
    res = _residuals(a, lams, xs)
    ok = (res <= tol) & np.isfinite(lams * scale)
    xs, lams, res = xs[ok], lams[ok], res[ok]
    converged = len(lams)

    kept = _dedup(lams, xs, res)
    pairs = _eigenpairs(a, lams[kept], xs[kept], res[kept], scale)
    stats = SolverStats(
        attempted=starts,
        converged=converged,
        deduplicated=converged - len(pairs),
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
    x = normalize_eigenvector(flip_vector(pair.vector))
    mirrored = _eigenpairs(a, np.array([value]), x[None, :])[0]
    if not mirrored.residual <= tol:
        raise ConsistencyError(
            f"reflected pair has residual {mirrored.residual:.3e} > tol {tol:.3e}; "
            "the structure reflection identity failed"
        )
    return mirrored
