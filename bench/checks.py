"""Output checks that do not trust the library under test.

Every expected value here is recomputed with plain numpy (``np.einsum``
for contractions, ``np.flip`` for index reversal) or is a property the
method must have; nothing is compared against a stored copy of earlier
output.  A failed check raises CheckFailure, which counts the operation
as failed and the run as incorrect.
"""

from __future__ import annotations

import json
import string

import numpy as np

# The solver accepts a pair at max|F| <= 1e-10; the einsum recomputation
# sums in another order, so it gets two decades of headroom.
PAIR_TOL = 1e-8
# Pairs are the same when values and (sign-free) vectors agree this closely,
# the library's own deduplication thresholds.
SAME_VALUE_TOL = 1e-8
SAME_VECTOR_TOL = 1e-6
# The library's verdict strings, by the kind names used here.
VERDICTS = {"centro": "centrosymmetric", "skew": "skew-centrosymmetric",
            "neither": "neither", "both": "both"}


def expected_parity(kind_a: str, kind_b: str, m: int) -> str:
    """The paper's parity table for the product of an order-m tensor by
    another: centro*centro is centro, skew*centro is skew, and centro*skew
    and skew*skew alternate with the parity of m."""
    if kind_b == "centro":
        return kind_a
    if kind_a == "centro":
        return "centro" if m % 2 == 1 else "skew"
    return "centro" if m % 2 == 0 else "skew"


class CheckFailure(Exception):
    """An operation's output broke a required property."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def scale(data: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(data))))


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def tensor_from_json(obj) -> np.ndarray:
    order, dim = obj["order"], obj["dim"]
    entries = np.asarray(obj["entries"], dtype=float)
    require(entries.size == dim**order, f"expected {dim**order} entries, got {entries.size}")
    return entries.reshape((dim,) * order)


def flip_deviation(data: np.ndarray) -> tuple[float, float]:
    """(max |T - flip(T)|, max |T + flip(T)|), flip reversing every axis.

    Works one leading slice at a time so a large tensor needs no full-size
    temporary.
    """
    n = data.shape[0]
    centro = skew = 0.0
    for i in range(n):
        own, mirror = data[i], np.flip(data[n - 1 - i])
        centro = max(centro, float(np.max(np.abs(own - mirror))))
        skew = max(skew, float(np.max(np.abs(own + mirror))))
    return centro, skew


def flip_kind(data: np.ndarray, tol: float) -> str:
    centro, skew = flip_deviation(data)
    if centro <= tol and skew <= tol:
        return "both"
    if centro <= tol:
        return "centro"
    if skew <= tol:
        return "skew"
    return "neither"


def check_kind(data: np.ndarray, kind: str, tol: float, what: str):
    found = flip_kind(data, tol)
    require(found == kind, f"{what}: flip test says {found}, expected {kind}")


def contract(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x^{m-1}: every trailing slot contracted with x."""
    slots = string.ascii_letters[1 : data.ndim]
    subscripts = "a" + slots + "," + ",".join(slots) + "->a"
    return np.einsum(subscripts, data, *([x] * (data.ndim - 1)))


def pair_residual(data: np.ndarray, value: float, x: np.ndarray) -> float:
    return float(np.max(np.abs(contract(data, x) - value * x ** (data.ndim - 1))))


def check_pair(data: np.ndarray, value: float, x, what: str):
    x = np.asarray(x, dtype=float)
    require(abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12, f"{what}: eigenvector not unit norm")
    res = pair_residual(data, value, x)
    require(res <= PAIR_TOL * scale(data), f"{what}: residual {res:.3e} for value {value!r}")


def check_reflection(data: np.ndarray, kind: str, value: float, x, what: str):
    """(lambda, Jx) is a pair of a centro tensor, (-lambda, Jx) of a skew one."""
    mirrored = value if kind == "centro" else -value
    res = pair_residual(data, mirrored, np.flip(np.asarray(x, dtype=float)))
    require(res <= PAIR_TOL * scale(data), f"{what}: mirrored residual {res:.3e}")


def check_solver_stats(stats: dict, starts: int, pairs: int, what: str):
    require(stats["attempted"] == starts, f"{what}: attempted {stats['attempted']} != {starts}")
    require(0 <= stats["converged"] <= starts, f"{what}: converged {stats['converged']}")
    require(
        stats["converged"] - stats["deduplicated"] == pairs,
        f"{what}: converged - deduplicated != {pairs} pairs",
    )


def product_slice(a: np.ndarray, b: np.ndarray, i: int) -> np.ndarray:
    """Leading slice i of the general product A*B, by its defining sum.

    c[i, g_1, ..., g_{m-1}] = sum a[i, j_1..j_{m-1}] b[j_1, g_1] ... b[j_{m-1}, g_{m-1}]
    with each g a (k-1)-fold multi-index.
    """
    m, k = a.ndim, b.ndim
    letters = iter(string.ascii_letters)
    slots = [next(letters) for _ in range(m - 1)]
    groups = ["".join(next(letters) for _ in range(k - 1)) for _ in range(m - 1)]
    subscripts = "".join(slots) + "," + ",".join(s + g for s, g in zip(slots, groups))
    return np.einsum(subscripts + "->" + "".join(groups), a[i], *([b] * (m - 1)), optimize=True)


def check_product(a: np.ndarray, b: np.ndarray, result: np.ndarray, rows, what: str):
    n, m, k = a.shape[0], a.ndim, b.ndim
    order = (m - 1) * (k - 1) + 1
    require(result.shape == (n,) * order, f"{what}: shape {result.shape}")
    tol = 1e-12 * n ** (m - 1) * scale(a) * scale(b) ** (m - 1)
    for i in rows:
        dev = float(np.max(np.abs(result[i].reshape(-1) - product_slice(a, b, i).reshape(-1))))
        require(dev <= tol, f"{what}: slice {i + 1} deviates by {dev:.3e}")


def check_cauchy(generating: np.ndarray, tensor: np.ndarray, rng, what: str, samples: int = 200):
    """Entries equal 1/(c_{i1}+...+c_{im}) at sampled index tuples."""
    n, m = generating.size, tensor.ndim
    require(tensor.shape == (n,) * m, f"{what}: shape {tensor.shape}")
    idx = rng.integers(0, n, size=(samples, m))
    expected = 1.0 / generating[idx].sum(axis=1)
    got = tensor[tuple(idx.T)]
    rel = float(np.max(np.abs(got - expected) / np.abs(expected)))
    require(rel <= 1e-12, f"{what}: relative entry error {rel:.3e}")


class PairLedger:
    """Distinct verified eigenpairs, per input tensor."""

    def __init__(self):
        self._pairs = {}

    def add(self, key, value: float, x):
        x = np.asarray(x, dtype=float)
        kept = self._pairs.setdefault(key, [])
        for other_value, other_x in kept:
            if abs(other_value - value) <= SAME_VALUE_TOL and min(
                np.linalg.norm(x - other_x), np.linalg.norm(x + other_x)
            ) <= SAME_VECTOR_TOL:
                return
        kept.append((value, x))

    def count(self) -> int:
        return sum(len(pairs) for pairs in self._pairs.values())
