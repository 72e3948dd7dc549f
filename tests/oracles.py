"""Brute-force reference implementations used as independent oracles.

Everything here walks index tuples explicitly or loops one vector at a
time, and never calls into the library's vectorized paths, so agreement
is meaningful.
"""

import itertools
import json
from fractions import Fraction
from functools import reduce

import numpy as np

from centrotensor.cauchy import NEAR_ZERO_FACTOR, CauchySpecError
from centrotensor.core import DenseTensor, check_entry_count, entry_scale
from centrotensor.eigen import _DAMPS, DEDUP_VALUE_TOL, DEDUP_VECTOR_TOL, ORDER2_GAP
from centrotensor.structure import BOTH, CENTRO, NEITHER, SKEW, StructureReport


def brute_apply(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A x^{m-1})_i by explicit summation."""
    m, n = data.ndim, data.shape[0]
    out = np.zeros(n)
    for idx in itertools.product(range(n), repeat=m):
        term = data[idx]
        for j in idx[1:]:
            term *= x[j]
        out[idx[0]] += term
    return out


def brute_poly(data: np.ndarray, x: np.ndarray) -> float:
    """Full homogeneous form by explicit summation."""
    total = 0.0
    for idx in itertools.product(range(data.shape[0]), repeat=data.ndim):
        term = data[idx]
        for j in idx:
            term *= x[j]
        total += term
    return total


def brute_reverse(data: np.ndarray) -> np.ndarray:
    """Entry-by-entry index reversal."""
    n = data.shape[0]
    out = np.zeros_like(data)
    for idx in itertools.product(range(n), repeat=data.ndim):
        out[tuple(n - 1 - i for i in idx)] = data[idx]
    return out


def brute_shao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General product straight from its defining sum."""
    m, k, n = a.ndim, b.ndim, a.shape[0]
    result_order = (m - 1) * (k - 1) + 1
    out = np.zeros((n,) * result_order)
    alpha_space = list(itertools.product(range(n), repeat=k - 1))
    for i in range(n):
        for alphas in itertools.product(alpha_space, repeat=m - 1):
            total = 0.0
            for trail in itertools.product(range(n), repeat=m - 1):
                term = a[(i,) + trail]
                for t, alpha in zip(trail, alphas):
                    term *= b[(t,) + alpha]
                total += term
            out[(i,) + tuple(j for alpha in alphas for j in alpha)] = total
    return out


def brute_row_sums(data: np.ndarray) -> np.ndarray:
    n = data.shape[0]
    out = np.zeros(n)
    for idx in itertools.product(range(n), repeat=data.ndim):
        out[idx[0]] += data[idx]
    return out


def _contract_row(data: np.ndarray, x: np.ndarray, count: int) -> np.ndarray:
    """Contract the last `count` slots of data with x, the last two at once.

    core.contract_trailing's chain on one row: the outer product x (x) x
    (x alone when count is 1 or data is a matrix) as row 0 of a
    zero-padded 8-row block in one block-batched matrix product on the
    last two slots, then matrix-vector products, so the same BLAS calls
    and the same bits as that row inside any stack.
    """
    if count == 0:
        return data
    n = len(x)
    c = 2 if count >= 2 and data.ndim >= 3 else 1
    block = np.zeros((1, 8, n**c))
    block[0, 0] = np.multiply.outer(x, x).reshape(-1) if c == 2 else x
    out = np.matmul(block, data.reshape(-1, n**c).T)[0, 0]
    for k in range(count - c):
        out = np.matmul(out.reshape(n ** (data.ndim - 1 - c - k), n), x)
    return out.reshape(data.shape[: data.ndim - count])


def _as_integers(values: np.ndarray):
    """Integers z (an object array) and a shift s with values == z / 2**s exactly."""
    ratios = [v.as_integer_ratio() for v in np.ravel(values).tolist()]
    shift = max(q.bit_length() - 1 for _, q in ratios)
    z = np.empty(len(ratios), dtype=object)
    z[:] = [p << (shift - q.bit_length() + 1) for p, q in ratios]
    return z.reshape(np.shape(values)), shift


def exact_contract_row(data: np.ndarray, x: np.ndarray, count: int):
    """The last `count` slots of data contracted with x in exact arithmetic.

    Entries and components are integers over a power of two, contracted
    one slot at a time in Python integers, so no step rounds.  Returns two
    flat lists of Fractions: each result entry, and the sum of the
    magnitudes of the terms it adds (the same contraction of |data| and
    |x|).
    """
    dz, dshift = _as_integers(data)
    xz, xshift = _as_integers(x)
    value, size = dz, np.abs(dz)
    for _ in range(count):
        value, size = value.dot(xz), size.dot(np.abs(xz))
    den = 1 << (dshift + count * xshift)
    return (
        [Fraction(v, den) for v in np.ravel(value).tolist()],
        [Fraction(v, den) for v in np.ravel(size).tolist()],
    )


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x^{[k]} as the left-to-right product x * x * ... * x, ones for k = 0."""
    out = np.ones_like(x) if k == 0 else x
    for _ in range(k - 1):
        out = out * x
    return out


def _normalize(x: np.ndarray) -> np.ndarray:
    x = x / np.sqrt(np.sum(x * x))
    for comp in x:
        if abs(comp) > 1e-10:
            if comp < 0:
                x = -x
            break
    return x


def loop_solve_eigen(
    data: np.ndarray,
    starts: int = 100,
    seed=0,
    tol: float = 1e-10,
    max_iter: int = 100,
    value_tol: float = 1e-8,
    vector_tol: float = 1e-6,
):
    """Multistart damped Newton, one start at a time.

    The per-start loop the library solver replaced: same starts, damping
    rule, residual re-check and deduplication.  Each row is computed with
    the solver's expressions (its contraction chain, Jacobian tensor,
    left-to-right powers, and sums in place of dot products), so a start
    ends on the same bits and the comparison tests control flow, not
    rounding.  An order-2 input takes the solver's direct path first
    (loop_matrix_solve).  Returns the kept (value, unit vector, residual)
    triples and the converged count.
    """
    n, m = data.shape[0], data.ndim
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draws = []
    for _ in range(starts):
        x = rng.normal(size=n)
        draws.append(x / np.sqrt(np.sum(x * x)))
    if m == 2:
        direct = loop_matrix_solve(data, draws, tol, value_tol, vector_tol)
        if direct is not None:
            return direct

    # the Jacobian of x -> A x^{m-1} sums, over which trailing slot stays
    # free, A contracted on the others: one tensor with each free slot moved
    # to position 2, contracted on its last m-2 slots
    jac_tensor = sum(np.moveaxis(data, p, 1) for p in range(1, m))

    def residual_vec(x, lam):
        return np.append(_contract_row(data, x, m - 1) - lam * _power(x, m - 1), np.sum(x * x) - 1.0)

    raw = []
    converged = 0
    for x in draws:
        xp = _power(x, m - 1)
        lam = float(np.sum(xp * _contract_row(data, x, m - 1)) / np.sum(xp * xp))
        f = residual_vec(x, lam)
        best = float(np.max(np.abs(f)))
        ok = best <= tol
        for _ in range(max_iter):
            if ok:
                break
            jac = np.zeros((n + 1, n + 1))
            jac[:n, :n] = _contract_row(jac_tensor, x, m - 2)
            jac[:n, :n] -= lam * (m - 1) * np.diag(_power(x, m - 2))
            jac[:n, n] = -_power(x, m - 1)
            jac[n, :n] = 2.0 * x
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(jac, -f, rcond=None)[0]
            if not np.all(np.isfinite(step)):
                break
            damp = 1.0
            accepted = False
            while damp >= 2.0**-16:
                x_new = x + damp * step[:n]
                lam_new = lam + damp * step[n]
                f_new = residual_vec(x_new, lam_new)
                norm_new = float(np.max(np.abs(f_new)))
                if norm_new < best:
                    x, lam, f, best = x_new, lam_new, f_new, norm_new
                    accepted = True
                    break
                damp *= 0.5
            if not accepted:
                break
            ok = best <= tol
        if not ok:
            continue
        if not np.any(x):
            continue
        x = _normalize(x)
        res = float(np.max(np.abs(_contract_row(data, x, m - 1) - lam * _power(x, m - 1))))
        if res <= tol:
            converged += 1
            raw.append((float(lam), x, res))

    return loop_merge(raw, value_tol, vector_tol), converged


def loop_merge(raw: list, value_tol: float, vector_tol: float) -> list:
    """The (value, vector, residual) triples a union-find merge of raw keeps,
    in (value, components) order."""
    raw = sorted(raw, key=lambda item: (item[0], tuple(item[1])))
    edges = [
        (i, j)
        for i, (lam, x, _) in enumerate(raw)
        for j, (klam, kx, _) in enumerate(raw[:i])
        if abs(lam - klam) <= value_tol
        and min(np.linalg.norm(x - kx), np.linalg.norm(x + kx)) <= vector_tol
    ]
    return [raw[i] for i in least_per_component([r for _, _, r in raw], edges)]


def loop_matrix_solve(data, draws, tol, value_tol, vector_tol):
    """The order-2 path, one eigenvalue and one start at a time: LAPACK's
    real pairs when every eigenvalue lies more than ORDER2_GAP times the
    entry scale from every other and each real pair passes tol, else None.
    With fewer starts than kept pairs, the pairs with the largest |cos| to
    a start stay.  Returns (kept triples, converged count) like the loop."""
    n = data.shape[0]
    values, vectors = np.linalg.eig(data)
    gap = min((abs(values[i] - values[j]) for i in range(n) for j in range(n) if i != j),
              default=np.inf)
    if not gap > ORDER2_GAP * max(1.0, float(np.max(np.abs(data)))):
        return None
    raw = []
    for k in range(n):
        if values[k].imag != 0:
            continue
        lam, x = float(values[k].real), _normalize(np.real(vectors[:, k]))
        res = float(np.max(np.abs(_contract_row(data, x, 1) - lam * x)))
        if not res <= tol:
            return None
        raw.append((lam, x, res))
    kept = loop_merge(raw, value_tol, vector_tol)
    if len(draws) < len(kept):
        near = [max((abs(float(np.sum(x * v))) for x in draws), default=0.0) for _, v, _ in kept]
        chosen = sorted(sorted(range(len(kept)), key=lambda i: -near[i])[: len(draws)])
        kept = [kept[i] for i in chosen]
    return kept, len(draws) if raw else 0


def least_per_component(res, edges) -> list:
    """Union-find over `edges`, pairs of positions: the least-residual
    position of each connected component, the first on a tie, ascending."""
    parent = list(range(len(res)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in edges:
        a, b = root(i), root(j)
        parent[max(a, b)] = min(a, b)
    best = {}
    for i in range(len(res)):
        r = root(i)
        if r not in best or res[i] < res[best[r]]:
            best[r] = i
    return sorted(best.values())


def component_dedup(lams: np.ndarray, xs: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Brute-force union-find over every pair of converged pairs.

    Two pairs are joined when their values differ by at most
    DEDUP_VALUE_TOL and their vectors agree up to sign within
    DEDUP_VECTOR_TOL; each connected component keeps its least-residual
    pair, the first in (value, components) order on a tie.  Returns the
    kept indices in (value, components) order.
    """
    order = np.lexsort(tuple(xs.T[::-1]) + (lams,))
    lams, xs, res = lams[order], xs[order], res[order]
    edges = []
    for i in range(len(lams)):
        close = (np.abs(lams[i] - lams) <= DEDUP_VALUE_TOL) & (
            np.minimum(np.linalg.norm(xs[i] - xs, axis=1), np.linalg.norm(xs[i] + xs, axis=1))
            <= DEDUP_VECTOR_TOL
        )
        edges += [(i, int(j)) for j in np.flatnonzero(close)]
    return order[least_per_component(res, edges)].astype(int)


def full_structure_report(x: np.ndarray, y: np.ndarray, tol: float) -> StructureReport:
    """Structure report from the full-size deviations |x - y| and |x + y|.

    The whole-array comparison the library's streamed blocks replaced;
    y must have x's shape.
    """

    def argmax_index(dev):
        return tuple(int(i) + 1 for i in np.unravel_index(int(np.argmax(dev)), dev.shape))

    centro_dev, skew_dev = np.abs(x - y), np.abs(x + y)
    c_max = float(centro_dev.max())
    s_max = float(skew_dev.max())
    c_ok = c_max <= tol
    s_ok = s_max <= tol
    if c_ok and s_ok:
        combined = np.maximum(centro_dev, skew_dev)
        return StructureReport(BOTH, float(combined.max()), argmax_index(combined), tol)
    if c_ok:
        return StructureReport(CENTRO, c_max, argmax_index(centro_dev), tol)
    if s_ok:
        return StructureReport(SKEW, s_max, argmax_index(skew_dev), tol)
    if c_max <= s_max:
        return StructureReport(NEITHER, c_max, argmax_index(centro_dev), tol)
    return StructureReport(NEITHER, s_max, argmax_index(skew_dev), tol)


def loop_newton_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One solve per system of the stack, least squares for a singular one
    and a NaN step, unsolved, for one with a non-finite entry.

    The per-system fallback the library's stacked singular split replaced.
    """
    steps = np.full_like(rhs, np.nan)
    for k in range(len(rhs)):
        if not (np.isfinite(jac[k]).all() and np.isfinite(rhs[k]).all()):
            continue
        try:
            steps[k] = np.linalg.solve(jac[k], rhs[k])
        except np.linalg.LinAlgError:
            steps[k] = np.linalg.lstsq(jac[k], rhs[k], rcond=None)[0]
    return steps


def loop_open_trials(z: np.ndarray, step: np.ndarray, best: np.ndarray) -> np.ndarray:
    """The line search's screen summed one vector component at a time on
    (starts, dampings) arrays: which trials z[s] + _DAMPS[k] * step[s] have
    ||x|^2 - 1| below best[s] by more than the slack
    n * 2^-50 * (|x|^2 + 1 + best[s]).

    The component loop the library's one stacked pass replaced.
    """
    n = z.shape[1] - 1
    sq, xj = np.zeros((2, len(z), _DAMPS.size))
    for j in range(n):
        np.multiply(_DAMPS, step[:, j, None], out=xj)
        xj += z[:, j, None]
        xj *= xj
        sq += xj
    best = best[:, None]
    return np.abs(sq - 1.0) < best + n * 2.0**-50 * (sq + 1.0 + best)


def loop_validate_spec(spec) -> None:
    """Scan all multisets of m components; reject any near-zero sum.

    The per-multiset loop the library's vectorized Cauchy scan replaced.
    """
    c = spec.generating
    threshold = NEAR_ZERO_FACTOR * max(1.0, float(np.max(np.abs(c))))
    for combo in itertools.combinations_with_replacement(range(spec.dim), spec.order):
        s = float(c[list(combo)].sum())
        if abs(s) < threshold:
            ones_based = tuple(i + 1 for i in combo)
            raise CauchySpecError(
                f"index sum {s!r} for multiset {ones_based} is below "
                f"threshold {threshold!r}; entries do not exist"
            )


def _index_sums(spec) -> np.ndarray:
    """All m-fold component sums as an order-m array, left to right.

    The order and the n^m entry count are checked before anything is
    built: past numpy's axis limit is a ValueError, past
    DEFAULT_ENTRY_CAP a ResourceLimitError.  A sum that overflows is left
    infinite, without a warning, for materialize to reject.
    """
    check_entry_count(spec.order, spec.dim, "Cauchy tensor")
    with np.errstate(over="ignore"):
        return reduce(np.add.outer, [spec.generating] * spec.order)


def _scan_sums(spec, sums: np.ndarray) -> None:
    """Reject the first multiset (in combinations order) with a near-zero sum.

    The decision and the reported sum are those of ``c[combo].sum()`` over
    the multiset's sorted indices.  numpy adds eight or more terms
    pairwise while `sums` was built left to right, so the two can differ
    by a few ulps; the vectorized pass therefore only selects candidates:
    every entry within a rounding margin of the threshold, or non-finite
    (a partial sum that overflowed).  Sorted index tuples of candidates in
    row-major order are the multisets in combinations-with-replacement
    order, and each gets the exact test.
    """
    c = spec.generating
    scale = entry_scale(DenseTensor(c))
    threshold = NEAR_ZERO_FACTOR * scale
    # without overflow, any m-term float sum is within (m-1) (eps/2) sum|c_i|
    # of the exact one, so two of them differ by less than m^2 eps scale;
    # the margin is four times that
    bound = threshold + 4 * spec.order**2 * np.finfo(float).eps * scale
    candidates = ((sums < bound) & (sums > -bound)) | ~np.isfinite(sums)
    if not candidates.any():
        return
    index = np.stack(np.nonzero(candidates), axis=1)
    for combo in index[np.all(np.diff(index, axis=1) >= 0, axis=1)].tolist():
        with np.errstate(over="ignore", invalid="ignore"):
            s = float(c[combo].sum())
        if abs(s) < threshold:
            ones_based = tuple(i + 1 for i in combo)
            raise CauchySpecError(
                f"index sum {s!r} for multiset {ones_based} is below "
                f"threshold {threshold!r}; entries do not exist"
            )


def full_materialize(spec) -> DenseTensor:
    """Build the dense tensor of reciprocals of m-fold component sums.

    The whole-array build that materialize's streamed blocks replaced.

    The result is fully symmetric (invariant under any index
    permutation) since each entry depends only on the index multiset.
    A near-zero sum raises CauchySpecError naming the first offending
    multiset (1-based).  Past that scan, a sum whose reciprocal is not
    finite, and then a sum that is not finite itself (it overflowed, so
    its reciprocal would read 0), raises it naming the first such index:
    with components near the float limit the multiset scan can see an
    overflowed sum where another order of the same terms cancels to 0.
    """
    sums = _index_sums(spec)
    _scan_sums(spec, sums)
    try:
        with np.errstate(divide="raise", over="raise"):
            entries = 1.0 / sums
    except FloatingPointError:
        with np.errstate(divide="ignore", over="ignore"):
            bad = ~np.isfinite(1.0 / sums)
        raise _first_bad(sums, bad, "has no finite reciprocal") from None
    # 1/inf is 0 with no floating-point error, and no finite sum has a zero
    # reciprocal, so a zero entry marks a sum that overflowed
    if not entries.all():
        raise _first_bad(sums, ~np.isfinite(sums), "is not finite")
    return DenseTensor(entries)


def _first_bad(sums: np.ndarray, bad: np.ndarray, problem: str) -> CauchySpecError:
    """The error naming the first (row-major) index marked bad, 1-based."""
    index = np.unravel_index(np.argmax(bad), sums.shape)
    return CauchySpecError(
        f"index sum {float(sums[index])!r} at index "
        f"{tuple(int(i) + 1 for i in index)} {problem}; entries do not exist"
    )


def format_value_oracle(value) -> str:
    """The JSON writer formatting one value per call, recursively.

    The per-item formatter the library's float-list pass and its numpy
    float-array kernel replaced.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = ", ".join(format_value_oracle(v) for v in value)
        return f"[{items}]"
    if isinstance(value, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {format_value_oracle(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def index_mirror_structured(order: int, dim: int, kind: str, seed) -> np.ndarray:
    """random_structured's entries, mirrored through full-size index arrays.

    The mirror the library's palindromize-based generator replaced:
    offset p pairs with count-1-p, and skew entries carry the sign of
    (count-1-p) - p, so an odd count's self-paired centre is the draw
    times 0.0.  Returns the entries shaped (dim,) * order.
    """
    count = dim**order
    draw = np.random.default_rng(seed).uniform(-1.0, 1.0, size=count)
    if kind == "general":
        flat = draw
    else:
        idx = np.arange(count)
        rev = count - 1 - idx
        flat = draw[np.minimum(idx, rev)]
        if kind == "skew":
            flat = flat * np.sign(rev - idx).astype(float)
    return flat.reshape((dim,) * order)


def reflection_within(c: np.ndarray, sign: float, tol) -> bool:
    """max |c - sign * Jc| <= tol, tol defaulting to 1e-12 * max(1, max |c_i|).

    The vector test the Cauchy predicates ran before they classified c
    as an order-1 tensor; an overflowing deviation is inf and fails.
    """
    c = np.asarray(c, dtype=float)
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(c))))
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(c - sign * c[::-1]))) <= tol
