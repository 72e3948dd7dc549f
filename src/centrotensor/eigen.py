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
  run out of iterations; SolverStats counts each way.  The converged
  pairs are merged by a walk that jumps from change to change (_Merge),
  and the kept pairs are classified as one stack,
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
    return _residual(a, value, x)


def _residual(a: DenseTensor, value: float, x: np.ndarray) -> float:
    return float(np.max(np.abs(apply(a, x) - value * x ** (a.order - 1))))


def _finite_vector(x, what: str) -> np.ndarray:
    """x as a float array; a zero or non-finite vector raises ValueError."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    if not x.any():
        raise ValueError(f"{what} must be nonzero")
    return x


_CLASSES = (SYMMETRIC, SKEW_SYMMETRIC, ABS_SYMMETRIC, NEITHER_CLASS)


def _classify_rows(xs: np.ndarray, tol: float) -> list:
    """classify_vector of each row of xs, in one pass over the stack."""
    jxs, axs = xs[:, ::-1], np.abs(xs)
    # deviations from Jx = x, Jx = -x and J|x| = |x|, then a row of zeros
    # that every tolerance accepts, so argmax falls back to NEITHER_CLASS
    dev = np.zeros((len(_CLASSES),) + xs.shape)
    np.subtract(xs, jxs, out=dev[0])
    np.add(xs, jxs, out=dev[1])
    np.subtract(axs, axs[:, ::-1], out=dev[2])
    label = (np.abs(dev, out=dev).max(axis=2) <= tol).argmax(axis=0)
    return [_CLASSES[k] for k in label.tolist()]


def classify_vector(x, tol: float = DEFAULT_CLASS_TOL) -> str:
    """Symmetry class of a vector under component reversal.

    Tests Jx = x, Jx = -x, then J|x| = |x|, in that priority.  A zero or
    non-finite vector raises ValueError.
    """
    return _classify_rows(_finite_vector(x, "classified vector")[None, :], tol)[0]


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


def _make_pair(a: DenseTensor, value: float, x) -> EigenPair:
    x = normalize_eigenvector(x)
    label = _classify_rows(x[None, :], DEFAULT_CLASS_TOL)[0]
    return EigenPair(float(value), x, _residual(a, value, x), label)


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


# Entry budget of one stacked comparison of the merge: its rows times n,
# the size of one difference stack (2^16 entries are 512 KB).
_DEDUP_BLOCK_ENTRIES = 2**16
# Pairs matching no slot that one stacked pass compares with each other,
# to open that many slots at most.
_DEDUP_RUN = 16


def _close_rows(lam, x, lams, xs) -> np.ndarray:
    """The dedup rule between (lam, x) and (lams, xs), broadcast over leading axes.

    Symmetric bit for bit: |a - b| is |b - a|, and x - y, x + y differ
    from y - x, y + x at most in sign, which the squares in the norm drop.
    """
    return (np.abs(lam - lams) <= DEDUP_VALUE_TOL) & (
        np.minimum(np.linalg.norm(x - xs, axis=-1), np.linalg.norm(x + xs, axis=-1))
        <= DEDUP_VECTOR_TOL
    )


def _dedup(lams: np.ndarray, xs: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Indices of the pairs the greedy merge keeps, slot by slot; see _Merge."""
    merge = _Merge(lams, xs, res)
    done = 0
    while True:
        changes = merge.res[done:] < merge.slot_res[merge.first[done:]]
        if not changes.any():
            return merge.order[merge.kept[: merge.count]]
        p = done + int(np.argmax(changes))
        if merge.first[p] == merge.total:
            slots, reps, done = merge.openings(p)
        else:
            slots, reps, done = merge.replacements(p)
        merge.take(slots, reps, done)


class _Merge:
    """solve_eigen's greedy merge of converged pairs, walked change by change.

    The merge visits the pairs sorted by (value, components).  A pair
    close to a slot's representative (_close_rows) joins the first such
    slot and replaces its representative when its residual is strictly
    smaller; a pair close to none opens a new slot.  Most pairs change
    nothing, so the walk keeps first[q], the first slot pair q matches
    under the current representatives, and jumps to the next pair that
    opens or replaces.  Openings and replacements come in runs, which
    one stacked pass each confirms (openings, replacements); take then
    compares only the changed slots with the pairs still to come.  So the
    numpy calls grow with those runs, not with the pairs, and no stacked
    comparison holds more than _DEDUP_BLOCK_ENTRIES entries (or one row
    per slot), so memory stays linear in the pairs.

    A pair is compared only within its value window: no pair from
    window[p] on is within DEDUP_VALUE_TOL of pair p (the margin of 2
    covers the rounding of lams + tol).  first[q] is `total` when pair q
    matches no slot, and slot_res[total] is +inf, so such a pair always
    changes the state.
    """

    def __init__(self, lams, xs, res):
        self.order = np.lexsort(tuple(xs.T[::-1]) + (lams,))
        self.lams, self.xs, self.res = lams[self.order], xs[self.order], res[self.order]
        self.total, self.dim = xs.shape
        self.window = np.searchsorted(self.lams, self.lams + 2.0 * DEDUP_VALUE_TOL, side="right")
        self.first = np.full(self.total, self.total)
        self.slot_res = np.full(self.total + 1, np.inf)
        self.kept = np.empty(self.total, dtype=int)
        self.count = 0

    def openings(self, p):
        """Confirm the run of new slots that pair p, matching none, starts.

        Up to the first pair that would replace an existing
        representative, only the pairs matching no slot can change the
        state (a new slot comes after every existing one), and the first
        _DEDUP_RUN of them are compared with each other.  One close to
        none before it opens a slot; one close to an earlier opener joins
        the first such, and changes nothing if its residual is no
        smaller.  The run holds up to the first pair that does anything
        else.  Returns the new slots, their representatives and the
        position the merge has reached.
        """
        matched = self.first[p:]
        below = self.res[p:] < self.slot_res[matched]
        replaces = below & (matched < self.total)
        span = int(np.argmax(replaces)) if replaces.any() else len(matched)
        new = p + np.flatnonzero(matched[:span] == self.total)
        done = p + span if len(new) <= _DEDUP_RUN else int(new[_DEDUP_RUN])
        new = new[:_DEDUP_RUN]
        lams, xs, res = self.lams[new], self.xs[new], self.res[new]
        earlier = np.triu(_close_rows(lams[:, None], xs[:, None], lams, xs), 1)
        opens = ~earlier.any(axis=0)
        hosts = earlier & opens[:, None]
        settled = opens | (hosts.any(axis=0) & (res >= res[np.argmax(hosts, axis=0)]))
        if not settled.all():
            done = int(new[np.argmax(~settled)])
        reps = new[opens & (new < done)]
        return np.arange(self.count, self.count + len(reps)), reps, done

    def replacements(self, p):
        """Confirm the run of replacements that pair p starts.

        Up to the next pair matching no slot, the pairs of p's value
        window are predicted to stay in the slot they match now, and each
        slot to take every pair whose residual is a strict running
        minimum of its own, starting from its representative's.  Each
        pair is compared with the representative every such slot has
        when the merge reaches it, and the prediction holds up to the
        first pair that would leave its slot: it no longer matches it, or
        it now matches a lower one.  p's own replacement always holds.
        Returns the slots that changed (ascending), their new
        representatives and the position the merge has reached.
        """
        matched = self.first[p : self.window[p]]
        stray = matched == self.total
        span = int(np.argmax(stray)) if stray.any() else len(matched)
        residuals = self.res[p : p + span]
        below = residuals < self.slot_res[matched[:span]]
        slots = np.flatnonzero(np.bincount(matched[:span][below]))
        span = min(span, max(1, _DEDUP_BLOCK_ENTRIES // (len(slots) * self.dim)))
        matched, residuals, rest = matched[:span], residuals[:span], slice(p, p + span)
        positions = np.arange(p, p + span)
        mine = matched == slots[:, None]
        # each slot's residuals in merge order, against the lowest before each
        own = np.where(mine, residuals, np.inf)
        own = np.concatenate((self.slot_res[slots, None], own), axis=1)
        took = np.where(own[:, 1:] < np.minimum.accumulate(own, axis=1)[:, :-1], positions, -1)
        # rep[k, i]: the representative of slots[k] when the merge reaches pair p + i
        rep = np.maximum.accumulate(np.concatenate((self.kept[slots, None], took), axis=1), axis=1)
        at = rep[:, :-1]
        close = _close_rows(self.lams[at], self.xs[at], self.lams[rest], self.xs[rest])
        leaves = (mine.any(axis=0) & ~np.any(close & mine, axis=0)) | np.any(
            close & (slots[:, None] < matched), axis=0
        )
        reached = int(np.argmax(leaves)) if leaves.any() else span
        reps = rep[:, reached]
        moved = reps != self.kept[slots]
        return slots[moved], reps[moved], p + reached

    def take(self, slots, reps, done):
        """Give `slots` (ascending) the representatives `reps`, and update
        first for the pairs from `done` on.

        Only the changed slots are compared with those pairs, within the
        new representatives' value windows.  A pair that matched a changed
        slot and no longer does looks for its first match among the later
        slots.
        """
        self.count = max(self.count, int(slots[-1]) + 1)
        self.kept[slots], self.slot_res[slots] = reps, self.res[reps]
        end = int(self.window[reps].max())
        step = max(1, _DEDUP_BLOCK_ENTRIES // (len(slots) * self.dim))
        for lo in range(done, end, step):
            rest = slice(lo, min(end, lo + step))
            matched = self.first[rest]
            close = _close_rows(
                self.lams[reps, None], self.xs[reps, None], self.lams[rest], self.xs[rest]
            )
            joined = np.where(close.any(axis=0), slots[np.argmax(close, axis=0)], self.total)
            own = np.minimum(np.searchsorted(slots, matched), len(slots) - 1)
            lost = (slots[own] == matched) & ~close[own, np.arange(len(matched))]
            was = matched[lost]
            self.first[rest] = np.minimum(joined, np.where(lost, self.total, matched))
            if lost.any():
                self._rematch_lost(lo + np.flatnonzero(lost), was)

    def _rematch_lost(self, lost, was):
        """Lower first[q] of each pair q in lost to the first slot after
        was[q] whose representative it matches, comparing in blocks."""
        slot = int(was.min()) + 1
        while lost.size and slot < self.count:
            width = max(1, _DEDUP_BLOCK_ENTRIES // (lost.size * self.dim))
            block = np.arange(slot, min(self.count, slot + width))
            reps = self.kept[block]
            hits = _close_rows(
                self.lams[lost, None], self.xs[lost, None], self.lams[reps], self.xs[reps]
            )
            hits &= block > was[:, None]
            found = hits.any(axis=1)
            hit = block[np.argmax(hits[found], axis=1)]
            self.first[lost[found]] = np.minimum(self.first[lost[found]], hit)
            lost, was = lost[~found], was[~found]
            slot += width


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_eigen(
    a: DenseTensor,
    starts: int = 100,
    seed=0,
    tol: float = DEFAULT_SOLVER_TOL,
    class_tol: float = DEFAULT_CLASS_TOL,
) -> EigenSet:
    """Multistart damped Newton on the eigenpair system.

    Solves F(x, lambda) = (A x^{m-1} - lambda x^{[m-1]}, |x|^2 - 1) = 0
    from `starts` random unit starting vectors, stepping all starts
    together on stacked arrays.  Each start's step is halved while it
    fails to decrease that start's sup-norm of F; convergence is declared
    at max|F| <= tol.  A start whose Jacobian, residual or step is not
    finite (near the float limit) ends non_finite, with no warning.
    Converged pairs are canonicalized, re-verified against the residual
    bound, sorted by (value, components) and deduplicated: two pairs
    merge when their values differ by at most DEDUP_VALUE_TOL and their
    vectors agree up to sign within DEDUP_VECTOR_TOL.  Visited in that
    order, a pair joins the first kept slot it matches and replaces the
    slot's pair when its residual is strictly smaller, or opens a slot.
    The merge costs a few stacked passes per run of such changes (a new
    slot or a replacement), not a numpy round per start; each pass holds
    at most _DEDUP_BLOCK_ENTRIES entries, or one row per slot, so memory
    stays linear in starts (see _Merge).

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
    class_tol = check_tolerance(class_tol, "class_tol")
    stack = starts * max(n ** (m - 1), (n + 1) ** 2)
    if stack > core.DEFAULT_ENTRY_CAP:
        raise ResourceLimitError(
            f"{starts} starts on order {m} dim {n} stack {stack} entries, "
            f"exceeding the cap {core.DEFAULT_ENTRY_CAP}"
        )
    scale = 1.0
    if core.entry_scale(a) * m * n ** (m - 1) > _FLOAT_MAX:
        scale = 2.0 ** (math.frexp(core.entry_scale(a))[1] - 1)
        a = DenseTensor(a.data / scale)
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
    for _ in range(MAX_ITER):
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
        # lstsq can spin on a non-finite row, so such a row is never solved;
        # one makes the sum non-finite, the cheap test for all rows at once
        rhs = -fs[live]
        if np.isfinite(jac.sum() + rhs.sum()):
            step = _newton_steps(jac, rhs)
        else:
            solvable = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
            step = np.full_like(rhs, np.nan)
            step[solvable] = _newton_steps(jac[solvable], rhs[solvable])
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
    ok = (res <= tol) & np.isfinite(lams * scale)
    xs, lams, res = xs[ok], lams[ok], res[ok]
    converged = len(lams)

    kept = _dedup(lams, xs, res)
    xs, lams, res = xs[kept], lams[kept], res[kept]
    pairs = [
        EigenPair(float(lam * scale), x, float(r * scale), label)
        for lam, x, r, label in zip(lams, xs, res, _classify_rows(xs, class_tol))
    ]
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
    mirrored = _make_pair(a, value, flip_vector(pair.vector))
    if not mirrored.residual <= tol:
        raise ConsistencyError(
            f"reflected pair has residual {mirrored.residual:.3e} > tol {tol:.3e}; "
            "the structure reflection identity failed"
        )
    return mirrored
