import re
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrotensor import (
    ABS_SYMMETRIC,
    NEITHER_CLASS,
    SKEW_SYMMETRIC,
    SYMMETRIC,
    CauchySpec,
    ConsistencyError,
    DenseTensor,
    EigenPair,
    classify_vector,
    closed_form_dim2,
    closed_form_dim3_even,
    materialize,
    normalize_eigenvector,
    palindromize,
    random_structured,
    reflect_pair,
    residual,
    solve_eigen,
)
from centrotensor import core, eigen, structure
from oracles import component_dedup, loop_newton_steps, loop_open_trials, loop_solve_eigen


ORACLE_CELLS = [
    (m, n, kind) for m in (2, 3, 4, 5) for n in (2, 3, 4, 8) for kind in ("centro", "skew")
]
ENDS = ("converged", "rejected", "stalled", "non_finite", "max_iter", "iterations")


def palindromic_cauchy(order):
    return materialize(CauchySpec(np.array([0.7, 1.9, 1.9, 0.7]), order))


def oracle_tensor(m, n, kind):
    """The tensor of an oracle cell; "cauchy" is palindromic_cauchy(m), dim 4."""
    return palindromic_cauchy(m) if kind == "cauchy" else random_structured(m, n, kind, seed=100 * m + n)


# A palindromic Cauchy matrix has equal rows i and n-1-i, so a repeated
# eigenvalue 0, and takes the multistart path at order 2.
FALLBACK_CELLS = [(2, 4, "cauchy")]


def matrix_panel():
    """(name, matrix): centro, skew, general and palindromic Cauchy matrices
    at n in {2, 3, 4, 5, 6, 8}, seeds 0-4."""
    panel = []
    for n in (2, 3, 4, 5, 6, 8):
        for seed in range(5):
            for kind in ("centro", "skew", "general"):
                panel.append((f"{kind}-{n}-{seed}", random_structured(2, n, kind, seed=seed)))
            half = np.random.default_rng(seed).uniform(0.5, 2.0, size=(n + 1) // 2)
            spec = CauchySpec(np.concatenate([half, half[: n // 2][::-1]]), 2)
            panel.append((f"cauchy-{n}-{seed}", materialize(spec)))
    return panel


MATRIX_PANEL = matrix_panel()


def simple_spectrum(a):
    """Whether every eigenvalue of the matrix lies more than ORDER2_GAP *
    entry_scale(A) from every other, complex ones included."""
    values = np.linalg.eig(a.data)[0]
    gaps = [abs(u - v) for i, u in enumerate(values) for v in values[i + 1 :]]
    return min(gaps, default=np.inf) > eigen.ORDER2_GAP * core.entry_scale(a)


def converged_stacks(monkeypatch, tensor, starts, seed):
    """The (values, vectors, residuals) stack the multistart path hands its
    merge; a matrix goes there too (the direct path calls no merge)."""
    stacks = []
    merge = eigen._dedup

    def recording(lams, xs, res):
        stacks.append((lams.copy(), xs.copy(), res.copy()))
        return merge(lams, xs, res)

    monkeypatch.setattr(eigen, "_dedup", recording)
    with monkeypatch.context() as patch:
        patch.setattr(eigen, "ORDER2_GAP", np.inf)
        solve_eigen(tensor, starts=starts, seed=seed)
    monkeypatch.setattr(eigen, "_dedup", merge)
    (stack,) = stacks
    return stack


def pair_stack(pairs, n):
    """The (values, vectors, residuals) stack of a list of pairs."""
    return (
        np.array([p.value for p in pairs]),
        np.array([p.vector for p in pairs]).reshape(len(pairs), n),
        np.array([p.residual for p in pairs]),
    )


# Offsets that put two values one ulp inside, at and one ulp outside the
# value tolerance, and vector steps that chain: a step of 0.6e-6 is within
# the vector tolerance, two are not.
BELOW, ABOVE = np.nextafter(1e-8, 0.0), np.nextafter(1e-8, 1.0)
VALUE_OFFSETS = [0.0, 1e-9, 2e-9, 0.5e-8, BELOW, 1e-8, ABOVE, 3e-8]
RESIDUALS = [0.0, 1e-12, 2e-12, 3e-12, 5e-12]
# The merge's stacked comparisons at their default size, and at one entry
# per comparison.
BUDGETS = {"default": {}, "small-blocks": {"_DEDUP_BLOCK_ENTRIES": 1}}


@st.composite
def merge_stacks(draw):
    n = draw(st.integers(1, 4))
    size = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    bases = rng.normal(size=(draw(st.integers(1, 3)), n))
    bases /= np.linalg.norm(bases, axis=1)[:, None]
    steps = rng.normal(size=bases.shape)
    steps /= np.linalg.norm(steps, axis=1)[:, None]
    lams, xs, res = [], [], []
    for _ in range(size):
        b = draw(st.integers(0, len(bases) - 1))
        lam = draw(st.sampled_from([0.0, 1.0, -0.5])) + draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.sampled_from(VALUE_OFFSETS)
        )
        x = bases[b] + draw(st.integers(-3, 3)) * 0.6e-6 * steps[b] + draw(
            st.sampled_from([0.0, 1e-7, 4e-7])
        ) * steps[(b + 1) % len(bases)]
        lams.append(lam)
        xs.append(x * draw(st.sampled_from([1.0, -1.0])))
        res.append(draw(st.sampled_from(RESIDUALS)))
    return np.array(lams), np.array(xs).reshape(size, n), np.array(res)


def assert_order_free(stack, kept):
    """No two kept pairs are close, the kept pairs are in strict (value,
    components) order, and every pair chains to exactly one kept pair."""
    lams, xs, _ = stack
    close = (np.abs(lams[:, None] - lams) <= eigen.DEDUP_VALUE_TOL) & (
        np.minimum(
            np.linalg.norm(xs[:, None] - xs, axis=-1), np.linalg.norm(xs[:, None] + xs, axis=-1)
        )
        <= eigen.DEDUP_VECTOR_TOL
    )
    assert not (close[np.ix_(kept, kept)] & ~np.eye(len(kept), dtype=bool)).any()
    keys = [(lams[k], *xs[k]) for k in kept]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # each pair's component, labelled by its least member
    label = np.arange(len(lams))
    while True:
        spread = np.where(close, label, len(lams)).min(axis=1, initial=len(lams))
        if np.array_equal(spread, label):
            break
        label = spread
    assert sorted(label[kept].tolist()) == sorted(set(label.tolist()))


class TestResidual:
    def test_exact_pair(self, sym_matrix):
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert residual(sym_matrix, 3.0, x) <= 1e-15

    def test_identity_tensor_any_unit_vector(self, rng):
        ident = DenseTensor.identity(4, 3)
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert residual(ident, 1.0, x) <= 1e-15

    def test_wrong_value_measures_gap(self, sym_matrix):
        assert residual(sym_matrix, 0.0, np.array([1.0, 0.0])) == 2.0

    def test_zero_vector_rejected(self, sym_matrix):
        with pytest.raises(ValueError):
            residual(sym_matrix, 1.0, np.zeros(2))

    @pytest.mark.parametrize("x", [np.ones(3), np.ones(1), np.ones((2, 3))])
    def test_wrong_length_rejected(self, sym_matrix, x):
        with pytest.raises(ValueError, match="vector of length 2 required, got shape"):
            residual(sym_matrix, 1.0, x)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2), (3, 2), ()])
    def test_stack_of_vectors_rejected(self, sym_matrix, shape):
        # rows of the right length once passed, as the largest residual of the stack
        with pytest.raises(ValueError, match=rf"^vector of length 2 required, got shape {re.escape(str(shape))}$"):
            residual(sym_matrix, 1.0, np.ones(shape))
        dim3 = random_structured(3, 3, "centro", seed=0)
        with pytest.raises(ValueError, match=r"^vector of length 3 required, got shape \(2, 3\)$"):
            residual(dim3, 1.0, np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_or_vector_rejected(self, sym_matrix, bad):
        with pytest.raises(ValueError, match="finite"):
            residual(sym_matrix, bad, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            residual(sym_matrix, 1.0, np.array([bad, 1.0]))


class TestPower:
    """eigen._power, the solver's componentwise power, is the left-to-right
    product x * x * ... * x, and x ** k where numpy multiplies too (k <= 2)."""

    # ordinary, signed zero, subnormal, NaN, overflowing and underflowing entries
    ENTRIES = np.array(
        [0.7, -1.3, 3.0, 0.0, -0.0, 5e-324, -2.2e-310, np.nan, 1e200, -1e200, 1e-200, -1.5e103]
    )

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("shape", [(12,), (3, 4)])
    def test_left_to_right_product_bit_for_bit(self, k, shape):
        x = self.ENTRIES.reshape(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the errstate solve_eigen runs under: overflow is inf, silently
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                got = eigen._power(x, k)
                want = reduce(np.multiply, [x] * k) if k else np.ones_like(x)
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes()
        if k >= 2:
            assert np.isinf(got.ravel()[[8, 9]]).all()
        if k >= 3:
            assert np.isinf(got.ravel()[11])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_equals_numpy_power_up_to_square(self, k):
        with np.errstate(over="ignore"):
            got, want = eigen._power(self.ENTRIES, k), self.ENTRIES**k
        assert got.tobytes() == want.tobytes()

    def test_first_power_is_the_input(self):
        # callers must not write into the result
        assert eigen._power(self.ENTRIES, 1) is self.ENTRIES


# vectors that are not 1-D: scalars, stacks of rows and columns
NOT_1D = [np.array(1.0), 2.0, np.ones((2, 2)), np.ones((1, 2)), np.ones((2, 1)), [[1.0, -1.0]]]


class TestClassifyVector:
    def test_examples(self):
        assert classify_vector([1.0, 2.0, 1.0]) == SYMMETRIC
        assert classify_vector([1.0, 0.0, -1.0]) == SKEW_SYMMETRIC
        assert classify_vector([1.0, -2.0, 2.0, 1.0]) == ABS_SYMMETRIC
        assert classify_vector([1.0, 2.0, 3.0]) == NEITHER_CLASS

    def test_priority_symmetric_wins_for_constant(self):
        assert classify_vector([2.0, 2.0]) == SYMMETRIC

    def test_literal_tolerance_one_float_either_side(self):
        # DEFAULT_CLASS_TOL is 1e-8, and x - Jx is exactly (0, t, -t, 0)
        assert classify_vector([0.5, 1e-8, 0.0, 0.5]) == SYMMETRIC
        assert classify_vector([0.5, 1.0000000000000002e-08, 0.0, 0.5]) == NEITHER_CLASS

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            classify_vector([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            classify_vector([bad, 1.0])

    @pytest.mark.parametrize("x", NOT_1D)
    def test_what_is_not_1d_rejected(self, x):
        with pytest.raises(ValueError, match=rf"^1-D vector required, got shape {re.escape(str(np.shape(x)))}$"):
            classify_vector(x)


class TestNormalize:
    def test_unit_norm_and_sign(self):
        x = normalize_eigenvector([0.0, -3.0, 4.0])
        assert np.isclose(np.linalg.norm(x), 1.0)
        assert x[1] > 0  # first significant component made positive

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_eigenvector([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            normalize_eigenvector([bad, 1.0])

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 5e-324])
    def test_norm_overflow_and_underflow_are_scaled_away(self, scale):
        x = normalize_eigenvector([-scale, scale])
        assert np.allclose(x, [1.0, -1.0] / np.sqrt(2.0), rtol=0, atol=1e-15)

    def test_sign_follows_first_significant_component(self):
        assert normalize_eigenvector([1e-11, -2.0]).tolist() == [-5e-12, 1.0]
        assert normalize_eigenvector([0.0, 0.0, 4.0]).tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("x", NOT_1D)
    def test_what_is_not_1d_rejected(self, x):
        with pytest.raises(ValueError, match=rf"^1-D vector required, got shape {re.escape(str(np.shape(x)))}$"):
            normalize_eigenvector(x)


class TestClosedFormDim2:
    def test_against_matrix_eigendecomposition(self, sym_matrix):
        pair_e, pair_u = closed_form_dim2(sym_matrix)
        w = np.sort(np.linalg.eigvalsh(sym_matrix.data))
        assert np.allclose(sorted([pair_e.value, pair_u.value]), w)
        assert pair_e.value == 3.0 and pair_e.classification == SYMMETRIC
        assert pair_u.value == 1.0 and pair_u.classification == SKEW_SYMMETRIC
        assert pair_e.residual <= 1e-15 and pair_u.residual <= 1e-15

    def test_order3_all_ones(self):
        a = DenseTensor(np.ones((2, 2, 2)))
        pair_e, pair_u = closed_form_dim2(a)
        assert pair_e.value == 4.0
        assert pair_u.value == 0.0
        assert pair_u.residual <= 1e-15

    def test_identity_matrix(self):
        pair_e, pair_u = closed_form_dim2(DenseTensor.identity(2, 2))
        assert pair_e.value == 1.0 and pair_u.value == 1.0

    def test_random_centro_residuals(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 6))
            a = random_structured(m, 2, "centro", rng)
            bound = 1e-12 * max(1.0, float(np.max(np.abs(a.data))))
            pair_e, pair_u = closed_form_dim2(a)
            assert pair_e.residual <= bound
            assert pair_u.residual <= bound

    def test_rejects_wrong_inputs(self, skew_matrix):
        with pytest.raises(ValueError):
            closed_form_dim2(DenseTensor.identity(2, 3))
        with pytest.raises(ValueError):
            closed_form_dim2(skew_matrix)
        with pytest.raises(ValueError, match="^tensor order must be >= 2$"):
            closed_form_dim2(DenseTensor(np.array([1.0, 1.0])))


class TestClosedFormDim3Even:
    def test_hand_example(self):
        a = DenseTensor(np.array([[5.0, 7.0, 2.0], [-3.0, 9.0, -3.0], [2.0, 7.0, 5.0]]))
        pair = closed_form_dim3_even(a)
        assert pair.value == 3.0  # corner gap 5 - 2
        assert pair.vector[1] == 0.0
        assert pair.classification == SKEW_SYMMETRIC
        assert pair.residual <= 1e-15

    def test_equal_corners_give_zero_value(self):
        a = DenseTensor(np.array([[5.0, 7.0, 5.0], [-3.0, 9.0, -3.0], [5.0, 7.0, 5.0]]))
        pair = closed_form_dim3_even(a)
        assert pair.value == 0.0
        assert pair.residual == 0.0

    def test_random_even_orders(self, rng):
        for m in (2, 4):
            for _ in range(15):
                a = random_structured(m, 3, "centro", rng)
                pair = closed_form_dim3_even(a)
                assert pair.residual <= 1e-12 * max(1.0, float(np.max(np.abs(a.data))))
                assert pair.vector[1] == 0.0

    def test_rejects_odd_order_and_wrong_dim(self):
        with pytest.raises(ValueError):
            closed_form_dim3_even(random_structured(3, 3, "centro", seed=0))
        with pytest.raises(ValueError):
            closed_form_dim3_even(random_structured(2, 2, "centro", seed=0))


class TestJacobian:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (4, 3), (5, 2)])
    def test_matches_central_differences(self, m, n, rng):
        data = rng.uniform(-1, 1, size=(n,) * m)
        xs = rng.uniform(0.3, 1.0, size=(3, n))
        jacs = core.contract_trailing(eigen._jacobian_tensor(data), xs, m - 2)
        h = 1e-6

        def contract(v):
            out = data
            for _ in range(m - 1):
                out = out.dot(v)
            return out

        for x, jac in zip(xs, jacs):
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                numeric = (contract(x + e) - contract(x - e)) / (2 * h)
                assert np.max(np.abs(jac[:, j] - numeric)) <= 1e-7

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (4, 3), (5, 2)])
    def test_whole_jacobian_matches_central_differences(self, m, n, rng):
        # all n+1 unknowns (x, lambda): the x-block with its lambda
        # diagonal, the -x^{[m-1]} column and the 2x row
        data = rng.uniform(-1, 1, size=(n,) * m)
        zs = np.concatenate([rng.uniform(0.3, 1.0, size=(3, n)), rng.uniform(-1, 1, size=(3, 1))], axis=1)
        jacs = eigen._jacobians(eigen._jacobian_tensor(data), zs)
        assert jacs.shape == (3, n + 1, n + 1)
        h = 1e-6
        for k in range(n + 1):
            e = np.zeros(n + 1)
            e[k] = h
            numeric = (eigen._stacked_residual(data, zs + e) - eigen._stacked_residual(data, zs - e)) / (2 * h)
            assert np.max(np.abs(jacs[:, :, k] - numeric)) <= 1e-7


class TestSolveEigen:
    def test_finds_both_matrix_pairs(self, sym_matrix):
        result = solve_eigen(sym_matrix, starts=50, seed=2)
        values = np.array(sorted(result.values()))
        assert np.allclose(values, [1.0, 3.0], atol=1e-9)
        assert result.stats.attempted == 50
        assert result.stats.converged == result.stats.deduplicated + len(result.pairs)

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (5, 3)])
    def test_reported_residual_is_the_pair_residual(self, m, n):
        # the solver checks its pairs as one stack, residual() one at a time;
        # a row's bits are the same alone or in an 8-row gemm block, so they agree
        a = random_structured(m, n, "centro", seed=m)
        pairs = solve_eigen(a, starts=40, seed=0).pairs
        assert len(pairs) >= 2
        assert [p.residual for p in pairs] == [residual(a, p.value, p.vector) for p in pairs]

    def test_identity_tensor_only_unit_eigenvalue(self):
        result = solve_eigen(DenseTensor.identity(4, 3), starts=30, seed=0)
        assert result.pairs
        assert all(abs(p.value - 1.0) <= 1e-10 for p in result.pairs)

    def test_pairs_verify_against_closed_form_or_residual(self, rng):
        a = random_structured(3, 2, "centro", seed=77)
        closed = closed_form_dim2(a)
        closed_values = {round(p.value, 8) for p in closed}
        result = solve_eigen(a, starts=60, seed=3)
        assert result.pairs
        for pair in result.pairs:
            assert pair.residual <= 1e-10
        found = {round(p.value, 8) for p in result.pairs}
        assert closed_values <= found

    def test_deduplication_invariant(self, monkeypatch):
        # 54 of 60 starts converge to 6 pairs, so both the merge and the
        # pairwise loop below have work to do
        tensor = random_structured(3, 3, "centro", seed=2)
        stack = converged_stacks(monkeypatch, tensor, 60, 4)
        assert_order_free(stack, eigen._dedup(*stack))
        result = solve_eigen(tensor, starts=60, seed=4)
        pairs = result.pairs
        assert result.stats.converged > len(pairs) >= 2
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                close_value = abs(pairs[i].value - pairs[j].value) <= 1e-8
                close_vector = min(
                    np.linalg.norm(pairs[i].vector - pairs[j].vector),
                    np.linalg.norm(pairs[i].vector + pairs[j].vector),
                ) <= 1e-6
                assert not (close_value and close_vector)

    @given(stack=merge_stacks())
    @settings(max_examples=100, deadline=None)
    def test_deduplication_invariant_on_merge_stacks(self, stack):
        assert_order_free(stack, eigen._dedup(*stack))

    def test_deduplication_invariant_on_hand_stacks(self):
        # a and b are 1.2e-6 apart, c is close to both and d to b and c
        xs = np.array([[1.0, t] for t in (0.0, 1.2e-6, 0.6e-6, 1.2e-6)])
        stack = (np.arange(4) * 1e-9, xs, np.array([5e-12, 5e-12, 3e-12, 1e-12]))
        assert_order_free(stack, eigen._dedup(*stack))

    @pytest.mark.parametrize(
        "tensor,starts,seed",
        [(random_structured(m, n, kind, seed=100 * m + n), 20, 10 * m + n)
         for m, n, kind in ORACLE_CELLS]
        + [(palindromic_cauchy(order), 200, 0) for order in (2, 3, 4)]
        + [(DenseTensor(np.zeros((3, 3, 3))), 120, 1)],
        ids=[f"{m}-{n}-{kind}" for m, n, kind in ORACLE_CELLS]
        + [f"cauchy-m{order}" for order in (2, 3, 4)]
        + ["zero"],
    )
    def test_deduplication_invariant_on_solver_stacks(self, tensor, starts, seed, monkeypatch):
        stack = converged_stacks(monkeypatch, tensor, starts, seed)
        assert_order_free(stack, eigen._dedup(*stack))

    def test_vectors_are_canonical(self):
        result = solve_eigen(random_structured(4, 3, "general", seed=9), starts=40, seed=6)
        for pair in result.pairs:
            assert np.isclose(np.linalg.norm(pair.vector), 1.0, atol=1e-9)
            lead = pair.vector[np.abs(pair.vector) > 1e-10][0]
            assert lead > 0

    @pytest.mark.parametrize("t", [-1.0, 0.5, 2.0])
    def test_residual_scaling_contract(self, t):
        a = random_structured(3, 3, "centro", seed=12)
        result = solve_eigen(a, starts=30, seed=7, tol=1e-10)
        assert result.pairs
        for pair in result.pairs:
            scaled = residual(a, pair.value, t * pair.vector)
            assert scaled <= abs(t) ** (a.order - 1) * 1e-10

    def test_empty_result_is_legal(self):
        # order-2 skew tensors of even dim can lack real eigenpairs
        a = DenseTensor(np.array([[0.0, -1.0], [1.0, 0.0]]))
        result = solve_eigen(a, starts=25, seed=1)
        assert result.pairs == [] or all(p.residual <= 1e-10 for p in result.pairs)

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            solve_eigen(DenseTensor.zeros(2, 9))
        with pytest.raises(ValueError):
            solve_eigen(DenseTensor.zeros(6, 2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starts": -1},
            {"starts": 2.5},
            {"starts": "3"},
            *({"tol": bad} for bad in (float("nan"), float("inf"), -1e-3)),
        ],
    )
    def test_rejects_invalid_counts_and_tolerances(self, kwargs, sym_matrix):
        with pytest.raises(ValueError):
            solve_eigen(sym_matrix, **kwargs)

    # the largest of the first contraction, starts rounded up to whole
    # 8-row blocks times n^(m-1) entries, the Jacobian stack, starts times
    # (n+1)^2, and the line search's screen, starts times 2 * 17: 8 and 9
    # starts sit on either side of a block edge, at n = 2 the screen is
    # the largest, and at m = 2, n = 8 the Jacobian stack is (648 against
    # a block of 64 and a screen of 272; zero matrices take the Newton
    # fallback)
    @pytest.mark.parametrize(
        "m,n,starts,entries",
        [(2, 2, 10, 340), (3, 2, 11, 374), (2, 8, 8, 648), (4, 3, 10, 432), (5, 8, 10, 65536),
         (5, 8, 8, 32768), (5, 8, 9, 65536)],
    )
    def test_stack_over_the_cap_is_refused_before_drawing(self, m, n, starts, entries, monkeypatch):
        a = DenseTensor.zeros(m, n)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", entries - 1)
        with pytest.raises(core.ResourceLimitError, match=f"{entries} entries, exceeding"):
            solve_eigen(a, starts=starts, seed=rng)
        assert rng.bit_generator.state == state
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", entries)
        assert solve_eigen(a, starts=starts, seed=rng).stats.attempted == starts

    def test_zero_starts_is_empty(self, sym_matrix):
        result = solve_eigen(sym_matrix, starts=0)
        assert result.pairs == []
        assert result.stats.as_dict()["attempted"] == 0

    @pytest.mark.parametrize("kind", ["centro", "skew", "general"])
    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (4, 2), (5, 3)])
    def test_every_start_ends_one_way(self, kind, m, n):
        stats = solve_eigen(random_structured(m, n, kind, seed=m * n), starts=40, seed=m).stats
        ends = stats.converged + stats.rejected + stats.stalled + stats.non_finite
        assert ends + stats.max_iter == stats.attempted == 40
        assert stats.iterations <= 40 * 100

    def test_max_iter_end_is_counted(self, monkeypatch):
        monkeypatch.setattr(eigen, "MAX_ITER", 1)
        stats = solve_eigen(random_structured(3, 4, "centro", seed=1), starts=30).stats
        assert stats.max_iter > 0
        assert stats.iterations <= 30

    def test_non_finite_end_is_counted(self, monkeypatch):
        # entries near the float maximum overflow F, so every Newton step is
        # NaN once the solve no longer rescales such a tensor
        monkeypatch.setattr(eigen, "_FLOAT_MAX", np.inf)
        with np.errstate(all="ignore"):
            stats = solve_eigen(DenseTensor(np.full((2, 2, 2), 1e308)), starts=5).stats
        assert (stats.non_finite, stats.iterations) == (5, 5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_limit_tensor_is_solved_rescaled(self):
        # A / 2^1023 has the pairs (0, (1, -1)/sqrt 2) and (c, (1, 1)/sqrt 2)
        # with c * 2^1023 past the float maximum, so only the first is A's
        result = solve_eigen(DenseTensor.from_entries(2, 2, [1e308] * 4), starts=5)
        scale = 2.0**1023
        assert [p.classification for p in result.pairs] == [SKEW_SYMMETRIC]
        pair = result.pairs[0]
        assert np.allclose(pair.vector, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-8)
        assert abs(pair.value) <= eigen.DEFAULT_SOLVER_TOL * scale
        assert pair.residual <= eigen.DEFAULT_SOLVER_TOL * scale
        assert result.stats.non_finite == 0
        assert result.stats.rejected > 0

    def test_failed_recheck_counts_as_rejected(self, sym_matrix, monkeypatch):
        reached = solve_eigen(sym_matrix, starts=30, seed=0).stats.converged
        assert reached > 0
        # skew the residual re-check alone, so every start that reached tol fails it
        residuals = eigen._residuals
        monkeypatch.setattr(eigen, "_residuals", lambda a, lams, xs: residuals(a, lams, xs) + 1.0)
        stats = solve_eigen(sym_matrix, starts=30, seed=0).stats
        assert (stats.converged, stats.rejected) == (0, reached)

    def test_stats_dict_keeps_key_order(self, sym_matrix):
        keys = list(solve_eigen(sym_matrix, starts=5).stats.as_dict())
        assert keys == [
            "attempted",
            "converged",
            "deduplicated",
            "rejected",
            "stalled",
            "non_finite",
            "max_iter",
            "iterations",
        ]

    @pytest.mark.parametrize("starts", [0, 1, 7])
    def test_generator_state_matches_per_start_draws(self, starts):
        a = random_structured(3, 4, "centro", seed=5)
        used, reference = np.random.default_rng(9), np.random.default_rng(9)
        solve_eigen(a, starts=starts, seed=used)
        for _ in range(starts):
            reference.normal(size=a.dim)
        assert used.bit_generator.state == reference.bit_generator.state

    def test_deterministic_per_seed(self, sym_matrix):
        r1 = solve_eigen(sym_matrix, starts=20, seed=42)
        r2 = solve_eigen(sym_matrix, starts=20, seed=42)
        assert [p.value for p in r1.pairs] == [p.value for p in r2.pairs]
        assert all(
            np.array_equal(p.vector, q.vector) for p, q in zip(r1.pairs, r2.pairs)
        )


class TestReflectPair:
    def test_symmetric_vector_is_fixed(self, sym_matrix):
        pair_e, _ = closed_form_dim2(sym_matrix)
        mirrored = reflect_pair(sym_matrix, pair_e)
        assert mirrored.value == pair_e.value
        assert np.allclose(mirrored.vector, pair_e.vector, atol=1e-15)

    def test_skew_tensor_negates_value(self, skew_matrix):
        pair = EigenPair(1.0, np.array([1.0, 0.0]), 0.0, NEITHER_CLASS)
        mirrored = reflect_pair(skew_matrix, pair)
        assert mirrored.value == -1.0
        assert mirrored.vector.tolist() == [0.0, 1.0]

    def test_skew_symmetric_eigenvector_reflects_to_itself(self):
        a = random_structured(2, 3, "centro", seed=21)
        pair = closed_form_dim3_even(a)
        mirrored = reflect_pair(a, pair)
        assert mirrored.value == pair.value
        # canonical form of the flipped vector coincides with the original
        assert np.allclose(mirrored.vector, pair.vector, atol=1e-15)

    def test_unclassified_tensor_rejected(self):
        a = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            reflect_pair(a, EigenPair(1.0, np.array([1.0, 0.0]), 0.0, NEITHER_CLASS))

    def test_non_finite_value_fails_loudly(self, sym_matrix):
        # nan > tol is False, so a residual of nan once passed the re-check
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for value in (np.nan, np.inf):
            with pytest.raises(ConsistencyError):
                reflect_pair(sym_matrix, EigenPair(value, x, 0.0, SYMMETRIC))

    def test_vector_of_wrong_length_rejected(self, sym_matrix):
        # a length that is a multiple of dim must not pass as a stack of rows
        for x in ([0.5, 0.5, 0.5, 0.5], [1.0], [1.0, 0.0, 0.0]):
            pair = EigenPair(3.0, np.array(x), 0.0, SYMMETRIC)
            with pytest.raises(ValueError, match=r"^vector of length 2 required, got shape \(1, \d\)$"):
                reflect_pair(sym_matrix, pair)

    @pytest.mark.parametrize("x", NOT_1D)
    def test_vector_that_is_not_1d_rejected(self, sym_matrix, x):
        pair = EigenPair(3.0, np.asarray(x), 0.0, SYMMETRIC)
        with pytest.raises(ValueError, match=rf"^1-D vector required, got shape {re.escape(str(np.shape(x)))}$"):
            reflect_pair(sym_matrix, pair)

    def test_fake_pair_fails_loudly(self, sym_matrix):
        fake = EigenPair(5.0, np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5]), 0.0, NEITHER_CLASS)
        with pytest.raises(ConsistencyError):
            reflect_pair(sym_matrix, fake)

    def test_centro_reflection_on_random_tensors(self, rng):
        for _ in range(20):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            a = random_structured(order, dim, "centro", rng)
            for pair in solve_eigen(a, starts=12, seed=rng).pairs:
                mirrored = reflect_pair(a, pair, tol=1e-10)
                assert mirrored.value == pair.value
                assert mirrored.residual <= 1e-10

    def test_skew_pairing_on_random_tensors(self, rng):
        for _ in range(20):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            a = random_structured(order, dim, "skew", rng)
            for pair in solve_eigen(a, starts=12, seed=rng).pairs:
                if abs(pair.value) <= 1e-8:
                    continue
                mirrored = reflect_pair(a, pair, tol=1e-10)
                assert mirrored.value == -pair.value
                assert mirrored.residual <= 1e-10

    def test_every_pair_of_one_solve_pays_one_verdict(self, monkeypatch):
        a = random_structured(3, 4, "centro", seed=34)
        pairs = solve_eigen(a, starts=200, seed=3).pairs
        assert len(pairs) > 1
        calls, check = [], structure.check_structure

        def counted(*args, **kwargs):
            calls.append(args[0])
            return check(*args, **kwargs)

        monkeypatch.setattr(structure, "check_structure", counted)
        for pair in pairs:
            assert reflect_pair(a, pair).value == pair.value
        assert calls == [a]

    def test_alternating_centro_and_skew_keep_their_signs(self):
        # eigenvalues 3 and 1, and +-sqrt(3)
        centro = DenseTensor(np.array([[2.0, 1.0], [1.0, 2.0]]))
        skew = DenseTensor(np.array([[2.0, 1.0], [-1.0, -2.0]]))
        centro_pair = solve_eigen(centro, starts=10, seed=0).pairs[-1]
        skew_pair = solve_eigen(skew, starts=10, seed=0).pairs[-1]
        assert centro_pair.value > 2.0 and skew_pair.value > 1.0
        for _ in range(3):
            assert reflect_pair(centro, centro_pair).value == centro_pair.value
            assert reflect_pair(skew, skew_pair).value == -skew_pair.value


class TestCauchyEigenvectorSymmetry:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_symmetry_classes_by_order_parity(self, order, rng):
        for _ in range(8):
            dim = int(rng.integers(2, 5))
            spec = CauchySpec(palindromize(rng.uniform(0.2, 3.0, size=dim)), order)
            tensor = materialize(spec)
            for pair in solve_eigen(tensor, starts=14, seed=rng).pairs:
                if abs(pair.value) <= 1e-8:
                    continue
                if order % 2 == 0:
                    assert pair.classification == SYMMETRIC
                else:
                    assert pair.classification != NEITHER_CLASS


class TestMatrixDichotomy:
    def test_simple_real_eigenvectors_of_centro_matrices(self, rng):
        # For matrices, geometric simplicity pins eigenvectors to the
        # symmetric or skew-symmetric class; checked with the dense
        # eigendecomposition as oracle.
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a = random_structured(2, n, "centro", rng)
            values, vectors = np.linalg.eig(a.data)
            for idx, lam in enumerate(values):
                if abs(lam.imag) > 1e-10:
                    continue
                gaps = [abs(lam - mu) for j, mu in enumerate(values) if j != idx]
                if gaps and min(gaps) < 1e-6:
                    continue
                vec = np.real(vectors[:, idx])
                vec = vec / np.linalg.norm(vec)
                assert classify_vector(vec) in (SYMMETRIC, SKEW_SYMMETRIC)


class TestAgainstLoopOracle:
    """The batched solver against the per-start loop it replaced."""

    @staticmethod
    def _matches(pair_value, pair_vector, value, vector):
        gap = min(np.linalg.norm(pair_vector - vector), np.linalg.norm(pair_vector + vector))
        return abs(pair_value - value) <= 1e-8 and gap <= 1e-6

    @pytest.mark.parametrize("m,n,kind", ORACLE_CELLS + FALLBACK_CELLS)
    def test_same_pair_set_and_converged_count(self, m, n, kind):
        a = oracle_tensor(m, n, kind)
        result = solve_eigen(a, starts=20, seed=10 * m + n)
        kept, converged = loop_solve_eigen(a.data, starts=20, seed=10 * m + n)
        assert result.stats.converged == converged
        assert len(result.pairs) == len(kept)
        for value, vector, _ in kept:
            assert any(self._matches(p.value, p.vector, value, vector) for p in result.pairs)
        for p in result.pairs:
            assert any(self._matches(p.value, p.vector, value, vector) for value, vector, _ in kept)
        # the oracle runs the solver's contraction chain on each start, so
        # the kept pairs are the same bits, in the same order
        assert [(p.value, p.residual, p.vector.tobytes()) for p in result.pairs] == [
            (value, res, vector.tobytes()) for value, vector, res in kept
        ]


class TestStartsAreIndependent:
    """A start's result depends neither on the other starts nor on how the
    line search chunks its halvings."""

    @pytest.mark.parametrize("m,n,kind", ORACLE_CELLS + FALLBACK_CELLS)
    def test_stacked_solve_counts_as_one_start_solves(self, m, n, kind):
        a = oracle_tensor(m, n, kind)
        stacked = solve_eigen(a, starts=30, seed=np.random.default_rng(10 * m + n)).stats
        draws = np.random.default_rng(10 * m + n)
        singles = [solve_eigen(a, starts=1, seed=draws).stats for _ in range(30)]
        assert {end: getattr(stacked, end) for end in ENDS} == {
            end: sum(getattr(one, end) for one in singles) for end in ENDS
        }

    @pytest.mark.parametrize(
        "tensor",
        [
            random_structured(5, 8, "centro", seed=508),
            random_structured(5, 8, "skew", seed=508),
            palindromic_cauchy(2),
            palindromic_cauchy(3),
            palindromic_cauchy(4),
        ],
        ids=["centro-m5-n8", "skew-m5-n8", "cauchy-m2", "cauchy-m3", "cauchy-m4"],
    )
    def test_one_halving_per_chunk_changes_no_bit(self, tensor, monkeypatch):
        calls = []

        def counting(data, zs):
            calls.append(len(zs))
            return residual_of(data, zs)

        residual_of = eigen._stacked_residual
        monkeypatch.setattr(eigen, "_stacked_residual", counting)
        default = solve_eigen(tensor, starts=50, seed=3)
        default_calls = len(calls)
        monkeypatch.setattr(eigen, "LINE_SEARCH_ENTRIES", 1)
        chunked = solve_eigen(tensor, starts=50, seed=3)
        # a 1-entry budget contracts at most one open damping per start per
        # call, so it makes at least as many calls as the default budget
        assert max(calls[default_calls:]) <= 50
        assert len(calls) - default_calls >= default_calls
        assert chunked.stats == default.stats
        assert len(chunked.pairs) == len(default.pairs)
        for p, q in zip(chunked.pairs, default.pairs):
            assert (p.value, p.residual) == (q.value, q.residual)
            assert np.array_equal(p.vector, q.vector)

    def test_singular_split_matches_per_system_solves(self, monkeypatch):
        stacks = []

        def recording(jac, rhs):
            stacks.append((jac.copy(), rhs.copy()))
            return newton_steps(jac, rhs)

        newton_steps = eigen._newton_steps
        monkeypatch.setattr(eigen, "_newton_steps", recording)
        for order in (2, 3, 4):
            solve_eigen(palindromic_cauchy(order), starts=40, seed=order)
        # a regular system, a zero one and one with two equal rows
        handmade = np.stack([np.eye(3) + 0.5, np.zeros((3, 3)), np.ones((3, 3))])
        stacks.append((handmade, np.arange(9.0).reshape(3, 3)))
        # a NaN system, an inf one whose LU meets a zero pivot, a regular
        # system and a singular one: the first two get NaN steps unsolved
        inf_singular = np.zeros((3, 3))
        inf_singular[0, 0] = np.inf
        mixed = np.stack([np.full((3, 3), np.nan), inf_singular, np.eye(3) + 0.5, np.ones((3, 3))])
        stacks.append((mixed, np.arange(12.0).reshape(4, 3)))
        singular = 0
        for jac, rhs in stacks:
            finite = np.isfinite(jac).all(axis=(1, 2))
            singular += int(np.sum(np.linalg.slogdet(jac[finite])[0] == 0))
            np.testing.assert_array_equal(newton_steps(jac, rhs), loop_newton_steps(jac, rhs))
        assert singular > 0
        assert np.linalg.slogdet(inf_singular)[0] == 0


class TestOrder2DirectPath:
    """At order 2 a matrix with a simple spectrum takes LAPACK's real pairs;
    any other takes the multistart path, bit for bit."""

    @staticmethod
    def _multistart(a, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eigen, "ORDER2_GAP", np.inf)
            return solve_eigen(a, **kwargs)

    @staticmethod
    def _bits(result):
        return [(p.value, p.residual, p.vector.tobytes(), p.classification) for p in result.pairs]

    def test_direct_path_on_the_matrix_panel(self):
        direct = []
        for name, a in MATRIX_PANEL:
            result = solve_eigen(a, starts=20, seed=7)
            if not simple_spectrum(a):
                fallback = self._multistart(a, starts=20, seed=7)
                assert result.stats == fallback.stats, name
                assert self._bits(result) == self._bits(fallback), name
                continue
            direct.append(name)
            values, vectors = np.linalg.eig(a.data)
            real = np.flatnonzero(values.imag == 0)
            assert result.stats.iterations == 0, name
            assert sorted(p.value for p in result.pairs) == sorted(values.real[real].tolist()), name
            for p in result.pairs:
                (k,) = real[values.real[real] == p.value]
                v = vectors[:, k].real
                assert min(np.linalg.norm(p.vector - v), np.linalg.norm(p.vector + v)) <= 1e-14
                assert p.residual == residual(a, p.value, p.vector) <= eigen.DEFAULT_SOLVER_TOL
            # the merge keeps every pair of the path, in the path's order
            assert eigen._dedup(*pair_stack(result.pairs, a.dim)).tolist() == list(range(len(result.pairs)))
        # the palindromic Cauchy matrices at n >= 4 have a repeated eigenvalue 0
        assert len(direct) == 100
        assert not [name for name in direct if name.startswith("cauchy") and int(name.split("-")[1]) >= 4]

    def test_pairs_just_past_the_gap_are_what_the_merge_keeps(self):
        # values 0 and 1.5 * ORDER2_GAP, eigenvectors (1, 0) and (1, 1.5 * ORDER2_GAP) / norm
        a = DenseTensor(np.array([[0.0, 1.0], [0.0, 1.5 * eigen.ORDER2_GAP]]))
        result = solve_eigen(a, starts=20, seed=0)
        assert result.stats.iterations == 0
        stack = pair_stack(result.pairs, 2)
        kept = eigen._dedup(*stack)
        assert len(result.pairs) == 2
        assert [(p.value, p.vector.tobytes(), p.residual) for p in result.pairs] == [
            (stack[0][k], stack[1][k].tobytes(), stack[2][k]) for k in kept
        ]

    @pytest.mark.parametrize("x", [[1.0, 0.0], [-0.6, 0.8]])
    def test_merge_keeps_values_past_the_gap_whatever_their_vectors(self, x):
        # the direct path's values lie more than ORDER2_GAP apart, so its
        # value order is the merge's only if the merge keeps two such pairs
        # even with equal or sign-flipped vectors
        gap = np.nextafter(eigen.ORDER2_GAP, np.inf)
        x = np.array(x)
        for xs in (np.array([x, x]), np.array([x, -x])):
            assert eigen._dedup(np.array([0.0, gap]), xs, np.zeros(2)).tolist() == [0, 1]

    @pytest.mark.parametrize("which", ["0", "1", "n-1", "n", "200"])
    def test_stats_count_per_start(self, which):
        for name, a in MATRIX_PANEL:
            if not simple_spectrum(a):
                continue
            starts = {"n-1": a.dim - 1, "n": a.dim}[which] if which[0] == "n" else int(which)
            result = solve_eigen(a, starts=starts, seed=3)
            stats = result.stats
            real = int(np.sum(np.linalg.eig(a.data)[0].imag == 0))
            assert stats.attempted == starts
            assert stats.converged - stats.deduplicated == len(result.pairs) == min(starts, real), name
            assert (stats.converged, stats.stalled) == ((starts, 0) if real else (0, starts)), name
            assert (stats.rejected, stats.non_finite, stats.max_iter, stats.iterations) == (0, 0, 0, 0)
            # with fewer starts than pairs, the per-start loop keeps the same ones
            kept, converged = loop_solve_eigen(a.data, starts=starts, seed=3)
            assert converged == stats.converged
            assert [(p.value, p.residual, p.vector.tobytes()) for p in result.pairs] == [
                (value, res, vector.tobytes()) for value, vector, res in kept
            ], name

    @pytest.mark.parametrize("inside", [True, False])
    def test_gap_between_real_eigenvalues(self, inside):
        gap = (0.9 if inside else 1.1) * eigen.ORDER2_GAP
        a = DenseTensor(np.diag([1.0, 1.0 + gap]))
        result = solve_eigen(a, starts=20, seed=0)
        assert (result.stats.iterations > 0) == inside
        if not inside:
            assert result.values() == [1.0, 1.0 + gap]

    @pytest.mark.parametrize("inside", [True, False])
    def test_gap_between_complex_eigenvalues(self, inside):
        # 1 +- i t, 2t apart, with no real eigenvalue: the direct path
        # stalls every start
        t = (0.45 if inside else 0.55) * eigen.ORDER2_GAP
        result = solve_eigen(DenseTensor(np.array([[1.0, -t], [t, 1.0]])), starts=20, seed=0)
        assert (result.stats.iterations > 0) == inside
        if not inside:
            assert (result.pairs, result.stats.stalled) == ([], 20)

    def test_pair_over_tol_takes_the_multistart_path(self):
        a = random_structured(2, 5, "general", seed=3)
        direct = solve_eigen(a, starts=20, seed=0)
        worst = max(p.residual for p in direct.pairs)
        assert direct.stats.iterations == 0 and worst > 0
        assert solve_eigen(a, starts=20, seed=0, tol=worst).stats.iterations == 0
        assert solve_eigen(a, starts=20, seed=0, tol=worst / 2).stats.iterations > 0

    def test_value_overflowing_its_scale_takes_the_multistart_path(self):
        # both solved on A / 2^1023; only the all-1e308 matrix has a value,
        # 2e308, past the float maximum once scaled back
        finite = solve_eigen(DenseTensor(np.diag([1e308, 5e307])), starts=5)
        assert (finite.values(), finite.stats.iterations) == ([5e307, 1e308], 0)
        overflow = solve_eigen(DenseTensor.from_entries(2, 2, [1e308] * 4), starts=5)
        assert (len(overflow.pairs), overflow.stats.rejected) == (1, 3)
        assert overflow.stats.iterations > 0

    def test_generator_advances_as_on_the_multistart_path(self, sym_matrix):
        used, reference = np.random.default_rng(9), np.random.default_rng(9)
        assert solve_eigen(sym_matrix, starts=7, seed=used).stats.iterations == 0
        self._multistart(sym_matrix, starts=7, seed=reference)
        assert used.bit_generator.state == reference.bit_generator.state
        # a BitGenerator seed is the caller's stream too
        used, reference = np.random.PCG64(9), np.random.PCG64(9)
        assert solve_eigen(sym_matrix, starts=7, seed=used).stats.iterations == 0
        self._multistart(sym_matrix, starts=7, seed=reference)
        assert used.state == reference.state != np.random.PCG64(9).state

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", [1, -2]])
    def test_invalid_seed_raises_as_default_rng(self, sym_matrix, seed):
        with pytest.raises((TypeError, ValueError)) as expected:
            np.random.default_rng(seed)
        for a in (sym_matrix, random_structured(3, 2, "centro", seed=0)):
            with pytest.raises(expected.type, match=str(expected.value)):
                solve_eigen(a, starts=7, seed=seed)


def all_trials(z, step):
    """Every damped trial z[s] + _DAMPS[k] * step[s], as the line search forms it."""
    return z[:, None, :] + eigen._DAMPS[:, None] * step[:, None, :]


def trial_norms(data, z, step):
    """max|F| of every damped trial, and |F|'s last entry ||x|^2 - 1|."""
    trials = all_trials(z, step)
    f = np.abs(eigen._stacked_residual(data, trials.reshape(-1, z.shape[1])))
    return f.max(axis=1).reshape(trials.shape[:2]), f[:, -1].reshape(trials.shape[:2])


def ulp_steps(values, steps):
    """values moved by each of `steps` ulps, one column per step."""
    out = np.repeat(values[:, None], len(steps), axis=1)
    for col, k in enumerate(steps):
        for _ in range(abs(k)):
            out[:, col] = np.nextafter(out[:, col], np.inf if k > 0 else -np.inf)
    return out


class TestOpenTrials:
    """The line search's screen closes only trials that cannot beat their
    start's best, and the search contracts only open trials."""

    @staticmethod
    def _assert_sound(data, z, step, best):
        opened = eigen._open_trials(z, step, best)
        full, last = trial_norms(data, z, step)
        # brute force: a trial whose full residual beats best is open
        assert opened[full < best[:, None]].all()
        # and the screen does its job: a trial clearly ruled out is closed
        assert not opened[last > best[:, None] * (1 + 1e-12) + 1e-12].any()
        return opened

    @staticmethod
    def _random_panel(m, n):
        """Random rows of an order-m dim-n centro tensor, and bests at, above
        and below each start's own trial residuals."""
        rng = np.random.default_rng(10 * m + n)
        data = random_structured(m, n, "centro", seed=m + n).data
        z = rng.normal(size=(60, n + 1)) * rng.uniform(0.1, 2.0, size=(60, 1))
        step = rng.normal(size=(60, n + 1)) * rng.uniform(0.01, 3.0, size=(60, 1))
        full, _ = trial_norms(data, z, step)
        bests = (full[:, 0], full.min(axis=1), np.median(full, axis=1), 2 * full.max(axis=1))
        return data, z, step, bests

    @staticmethod
    def _edge_panel(n):
        """Rows on the zero tensor with lambda = 0, where max|F| is ||x|^2 - 1|
        as np.sum gives it, and bests a few ulps either side of one trial's
        ||x|^2 - 1|, which put that trial right at the screen's edge; |x|^2
        above and below 1 gives both signs of |x|^2 - 1."""
        rng = np.random.default_rng(n)
        data = np.zeros((n,) * 3)
        z = rng.normal(size=(400, n + 1)) * rng.uniform(0.3, 1.5, size=(400, 1))
        step = rng.normal(size=(400, n + 1)) * rng.uniform(1e-6, 1.0, size=(400, 1))
        z[:, n] = step[:, n] = 0.0
        _, last = trial_norms(data, z, step)
        gaps = np.sum(all_trials(z, step)[..., :n] ** 2, axis=2) - 1.0
        assert (gaps > 0).any() and (gaps < 0).any()
        edge = last[np.arange(len(z)), rng.integers(0, eigen._DAMPS.size, size=len(z))]
        return data, z, step, ulp_steps(edge, [-3, -1, 0, 1, 2, 3]).T

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_random_rows(self, m, n):
        data, z, step, bests = self._random_panel(m, n)
        for best in bests:
            self._assert_sound(data, z, step, best)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_within_ulps_of_best(self, n):
        data, z, step, bests = self._edge_panel(n)
        for best in bests:
            self._assert_sound(data, z, step, best)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_random_rows_match_the_loop_oracle(self, m, n):
        _, z, step, bests = self._random_panel(m, n)
        for best in bests:
            assert np.array_equal(eigen._open_trials(z, step, best), loop_open_trials(z, step, best))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_within_ulps_of_best_match_the_loop_oracle(self, n):
        _, z, step, bests = self._edge_panel(n)
        for best in bests:
            assert np.array_equal(eigen._open_trials(z, step, best), loop_open_trials(z, step, best))

    @pytest.mark.parametrize("budget", [1, 7 * 8 * 17])
    def test_blocks_of_starts_change_no_bit(self, budget, monkeypatch):
        # one start, or seven, per block of the screen's trial stack
        _, z, step, bests = self._edge_panel(8)
        monkeypatch.setattr(eigen, "LINE_SEARCH_ENTRIES", budget)
        for best in bests:
            assert np.array_equal(eigen._open_trials(z, step, best), loop_open_trials(z, step, best))

    @pytest.mark.parametrize(
        "tensor",
        [
            random_structured(5, 8, "centro", seed=508),
            random_structured(4, 4, "skew", seed=404),
            palindromic_cauchy(2),
            palindromic_cauchy(4),
        ],
        ids=["centro-m5-n8", "skew-m4-n4", "cauchy-m2", "cauchy-m4"],
    )
    @pytest.mark.parametrize("budget", [2**16, 1])
    def test_search_contracts_each_open_trial_at_most_once(self, tensor, budget, monkeypatch):
        screened, contracted = [], []

        def recording_screen(z, step, best):
            opened = screen(z, step, best)
            screened.append({row.tobytes() for row in all_trials(z, step)[opened]})
            return opened

        def recording_residual(data, zs):
            contracted.append((len(screened), [row.tobytes() for row in zs]))
            return residual_of(data, zs)

        screen, residual_of = eigen._open_trials, eigen._stacked_residual
        monkeypatch.setattr(eigen, "_open_trials", recording_screen)
        monkeypatch.setattr(eigen, "_stacked_residual", recording_residual)
        monkeypatch.setattr(eigen, "LINE_SEARCH_ENTRIES", budget)
        solve_eigen(tensor, starts=40, seed=5)
        # the first call is the starts' own residual, before any screen
        assert contracted[0][0] == 0
        rows = {}
        for step_no, batch in contracted[1:]:
            for row in batch:
                assert row in screened[step_no - 1]
                rows[step_no, row] = rows.get((step_no, row), 0) + 1
        assert max(rows.values()) == 1


class TestMergeAgainstLoop:
    """The component merge keeps exactly the pairs a brute-force union-find keeps."""

    @pytest.fixture(params=list(BUDGETS))
    def budgets(self, request, monkeypatch):
        for name, value in BUDGETS[request.param].items():
            monkeypatch.setattr(eigen, name, value)

    @pytest.mark.parametrize("budget", list(BUDGETS))
    @given(stack=merge_stacks())
    @settings(max_examples=100, deadline=None)
    def test_random_stacks(self, budget, stack):
        with pytest.MonkeyPatch.context() as patch:
            for name, value in BUDGETS[budget].items():
                patch.setattr(eigen, name, value)
            np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_and_one_row_stacks(self, n):
        for size in (0, 1):
            stack = (np.zeros(size), np.ones((size, n)), np.zeros(size))
            assert eigen._dedup(*stack).tolist() == list(range(size))

    def test_non_transitive_chain(self, budgets):
        # a ~ b and b ~ c, but a and c are 1.2e-6 apart: one component,
        # which keeps its least-residual pair
        xs = np.array([[1.0, 0.0], [1.0, 0.6e-6], [1.0, 1.2e-6]])
        for res, least in (([3e-12, 2e-12, 1e-12], 2), ([1e-12, 2e-12, 3e-12], 0),
                           ([2e-12, 1e-12, 3e-12], 1)):
            stack = (np.zeros(3), xs, np.array(res))
            assert eigen._dedup(*stack).tolist() == [least]
            np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))

    def test_ties_keep_the_first_pair(self, budgets):
        stack = (np.zeros(4), np.tile([0.6, 0.8], (4, 1)), np.full(4, 1e-12))
        assert eigen._dedup(*stack).tolist() == [0]

    def test_replacement_cascade_keeps_the_last(self, budgets):
        xs = np.array([[1.0, k * 1e-8] for k in range(6)])
        stack = (np.zeros(6), xs, np.arange(6.0, 0.0, -1.0) * 1e-12)
        assert eigen._dedup(*stack).tolist() == [5]

    def test_replacement_pulls_a_later_slots_pairs_down(self, budgets):
        # a and b are 1.2e-6 apart, but c is close to both and d to b and
        # c: one component, kept as d (a greedy merge kept d and b, which
        # are close)
        xs = np.array([[1.0, t] for t in (0.0, 1.2e-6, 0.6e-6, 1.2e-6)])
        stack = (np.arange(4) * 1e-9, xs, np.array([5e-12, 5e-12, 3e-12, 1e-12]))
        assert eigen._dedup(*stack).tolist() == [3]
        np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))

    def test_pair_losing_its_slot_finds_a_later_one(self, budgets):
        # c ~ a ~ d ~ b chain although c and d are 1.5e-6 apart: one
        # component, kept as c (a greedy merge kept c and d)
        xs = np.array([[1.0, t] for t in (0.0, 1.5e-6, -0.6e-6, 0.9e-6)])
        stack = (np.arange(4) * 1e-9, xs, np.array([5e-12, 5e-12, 3e-12, 4e-12]))
        assert eigen._dedup(*stack).tolist() == [2]
        np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))

    def test_sign_flipped_vectors_merge(self, budgets):
        x = np.array([0.6, 0.8])
        stack = (np.zeros(2), np.stack([x, -x]), np.array([2e-12, 1e-12]))
        assert eigen._dedup(*stack).tolist() == [1]

    def test_value_gap_one_ulp_either_side_of_the_tolerance(self, budgets):
        x = np.tile([0.6, 0.8], (2, 1))
        for gap, merged in ((BELOW, True), (1e-8, True), (ABOVE, False)):
            stack = (np.array([0.0, gap]), x, np.array([2e-12, 1e-12]))
            assert eigen._dedup(*stack).tolist() == ([1] if merged else [0, 1])
            np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))

    def test_vector_gap_one_rounding_below_the_tolerance(self, budgets):
        # x0 + DEDUP_VECTOR_TOL rounds down to y0 at these x0: the pairs
        # are close by a gap that rounding took below the tolerance, and
        # the first pair's band must hold the second
        for x0 in (0.25, 0.3, 0.4):
            y0 = x0 + eigen.DEDUP_VECTOR_TOL
            assert y0 - x0 < eigen.DEDUP_VECTOR_TOL
            stack = (np.zeros(2), np.array([[x0, 0.9], [y0, 0.9]]), np.array([2e-12, 1e-12]))
            assert eigen._dedup(*stack).tolist() == [1]
            np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))

    def test_vector_gap_at_the_literal_tolerance(self, budgets):
        # DEDUP_VECTOR_TOL is 1e-6: (1, 0) and (1, t) are exactly t apart,
        # and merge at t = 1e-6 but not one float past it
        for t, kept in ((1e-6, [1]), (1.0000000000000002e-06, [0, 1])):
            stack = (np.zeros(2), np.array([[1.0, 0.0], [1.0, t]]), np.array([2e-12, 1e-12]))
            assert eigen._dedup(*stack).tolist() == kept

    @pytest.mark.parametrize("xs,res,kept", [
        # keys of 2^34 to 2^36: past 2^35 half an ulp of the key exceeds
        # the band's margin, so the band's upper end rounds to the key
        pytest.param([[2.0**e, 0.0], [2.0**e, 5e-7], [2.0**e + 2.0**20, 0.0]], [2e-12, 1e-12, 1e-12],
                     [1, 2], id=f"key-2^{e}")
        for e in (34, 35, 36)
    ] + [
        # tiny keys whose sign-flipped close pairs are one tolerance apart
        # in key up to rounding: a band margin of one tolerance misses them
        pytest.param([[4.42948953569236e-07], [-1.442948953569236e-06]], [0.0, 0.0], [1], id="tiny-keys-2"),
        pytest.param([[4.584091892388889e-08], [-1.045840918923889e-06], [2.0458409189238893e-06],
                      [-3.0458409189238894e-06]], [0.0] * 4, [3, 1, 2], id="tiny-keys-4"),
    ])
    def test_band_edge_stacks(self, xs, res, kept, budgets):
        stack = (np.zeros(len(xs)), np.array(xs), np.array(res))
        assert eigen._dedup(*stack).tolist() == kept
        np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))

    @pytest.mark.parametrize("m,n,kind", ORACLE_CELLS)
    def test_oracle_cell_stacks(self, m, n, kind, monkeypatch):
        a = random_structured(m, n, kind, seed=100 * m + n)
        stack = converged_stacks(monkeypatch, a, 20, 10 * m + n)
        np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_palindromic_cauchy_continuum(self, order, budgets, monkeypatch):
        stack = converged_stacks(monkeypatch, palindromic_cauchy(order), 200, 0)
        kept = eigen._dedup(*stack)
        np.testing.assert_array_equal(kept, component_dedup(*stack))
        # a continuum of near-solutions: most converged starts are kept
        assert len(kept) >= 80

    def test_zero_tensor(self, budgets, monkeypatch):
        zero = DenseTensor(np.zeros((3, 3, 3)))
        stack = converged_stacks(monkeypatch, zero, 120, 1)
        kept = eigen._dedup(*stack)
        np.testing.assert_array_equal(kept, component_dedup(*stack))
        assert len(kept) == len(stack[0]) == 120

    def test_two_thousand_pairs_at_one_value(self, budgets, monkeypatch):
        # the zero matrix's 2000 converged starts, all at value 0, and 2000
        # pairs at value 0 in chains of 0.6e-6 steps (within the vector
        # tolerance, two are not), some with their sign flipped
        zero = converged_stacks(monkeypatch, DenseTensor(np.zeros((2, 2))), 2000, 0)
        assert not zero[0].any()
        rng = np.random.default_rng(5)
        bases = rng.normal(size=(400, 3))
        steps = rng.normal(size=(400, 3))
        steps /= np.linalg.norm(steps, axis=1)[:, None]
        xs = np.concatenate([bases + k * 0.6e-6 * steps for k in range(5)])
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        xs *= rng.choice([1.0, -1.0], size=(len(xs), 1))
        chains = (np.zeros(len(xs)), xs, rng.choice(RESIDUALS, size=len(xs)))
        # and three vectors, some sign-flipped, each at 200 values 0.9e-8
        # apart: each ladder is one component spanning 179 value
        # tolerances, and every band holds pairs at the seed's vector that
        # only the value test keeps apart
        ladder = np.arange(200) * 0.9 * eigen.DEDUP_VALUE_TOL
        lams = np.concatenate([0.5 * b + ladder for b in range(3)])
        xs = np.repeat(bases[:3] / np.linalg.norm(bases[:3], axis=1)[:, None], len(ladder), axis=0)
        xs *= rng.choice([1.0, -1.0], size=(len(xs), 1))
        ladders = (lams, xs, rng.choice(RESIDUALS, size=len(xs)))
        for stack in (zero, chains, ladders):
            np.testing.assert_array_equal(eigen._dedup(*stack), component_dedup(*stack))
        assert len(eigen._dedup(*ladders)) == 3


class TestMergeMemory:
    def test_peak_is_linear_in_starts(self):
        # every converged start of the zero tensor is its own pair, the
        # worst case for the merge; a starts x starts array would make the
        # peak grow 16x from 500 to 2000 starts
        zero = DenseTensor(np.zeros((2, 2)))
        peaks = {}
        for starts in (500, 2000):
            tracemalloc.start()
            result = solve_eigen(zero, starts=starts, seed=0)
            peaks[starts] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert result.stats.converged == starts
            assert len(result.pairs) >= 0.99 * starts
        assert peaks[2000] < 6 * peaks[500]
