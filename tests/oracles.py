"""Brute-force reference implementations used as independent oracles.

Everything here walks index tuples explicitly or loops one vector at a
time, and never calls into the library's vectorized paths, so agreement
is meaningful.
"""

import itertools
import json

import numpy as np

from centrotensor.cauchy import NEAR_ZERO_FACTOR, CauchySpecError
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


def _apply_raw(data: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    out = data
    for _ in range(order - 1):
        out = out.dot(x)
    return out


def _apply_jacobian(data: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """Jacobian of x -> A x^{m-1}: sum over which trailing slot stays free."""
    total = None
    for t in range(1, order):
        part = data
        for _ in range(order - 1 - t):
            part = part.dot(x)
        for _ in range(t - 1):
            part = np.tensordot(part, x, axes=(1, 0))
        total = part if total is None else total + part
    return total


def _normalize(x: np.ndarray) -> np.ndarray:
    x = x / float(np.linalg.norm(x))
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
    rule, residual re-check and deduplication.  Returns the kept
    (value, unit vector, residual) triples and the converged count.
    """
    n, m = data.shape[0], data.ndim
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def residual_vec(x, lam):
        return np.append(_apply_raw(data, x, m) - lam * x ** (m - 1), x @ x - 1.0)

    raw = []
    converged = 0
    for _ in range(starts):
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        xp = x ** (m - 1)
        lam = float(xp @ _apply_raw(data, x, m)) / float(xp @ xp)
        f = residual_vec(x, lam)
        best = float(np.max(np.abs(f)))
        ok = best <= tol
        for _ in range(max_iter):
            if ok:
                break
            jac = np.zeros((n + 1, n + 1))
            jac[:n, :n] = _apply_jacobian(data, x, m)
            jac[:n, :n] -= lam * (m - 1) * np.diag(x ** (m - 2))
            jac[:n, n] = -(x ** (m - 1))
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
        res = float(np.max(np.abs(_apply_raw(data, x, m) - lam * x ** (m - 1))))
        if res <= tol:
            converged += 1
            raw.append((float(lam), x, res))

    raw.sort(key=lambda item: (item[0], tuple(item[1])))
    kept = []
    for lam, x, res in raw:
        merged = False
        for i, (klam, kx, kres) in enumerate(kept):
            if abs(lam - klam) <= value_tol and (
                min(np.linalg.norm(x - kx), np.linalg.norm(x + kx)) <= vector_tol
            ):
                if res < kres:
                    kept[i] = (lam, x, res)
                merged = True
                break
        if not merged:
            kept.append((lam, x, res))
    return kept, converged


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
    """One solve per system of the stack, least squares for a singular one.

    The per-system fallback the library's stacked singular split replaced.
    """
    steps = np.empty_like(rhs)
    for k in range(len(rhs)):
        try:
            steps[k] = np.linalg.solve(jac[k], rhs[k])
        except np.linalg.LinAlgError:
            steps[k] = np.linalg.lstsq(jac[k], rhs[k], rcond=None)[0]
    return steps


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


def format_value_oracle(value) -> str:
    """The JSON writer formatting one value per call, recursively.

    The per-item formatter the library's float-list pass replaced.
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
