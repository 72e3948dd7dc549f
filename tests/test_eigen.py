import tracemalloc

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
from centrotensor import core, eigen
from oracles import component_dedup, loop_newton_steps, loop_solve_eigen


ORACLE_CELLS = [
    (m, n, kind) for m in (2, 3, 4, 5) for n in (2, 3, 4, 8) for kind in ("centro", "skew")
]
ENDS = ("converged", "rejected", "stalled", "non_finite", "max_iter", "iterations")


def palindromic_cauchy(order):
    return materialize(CauchySpec(np.array([0.7, 1.9, 1.9, 0.7]), order))


def converged_stacks(monkeypatch, tensor, starts, seed):
    """The (values, vectors, residuals) stack solve_eigen hands its merge."""
    stacks = []
    merge = eigen._dedup

    def recording(lams, xs, res):
        stacks.append((lams.copy(), xs.copy(), res.copy()))
        return merge(lams, xs, res)

    monkeypatch.setattr(eigen, "_dedup", recording)
    solve_eigen(tensor, starts=starts, seed=seed)
    monkeypatch.setattr(eigen, "_dedup", merge)
    (stack,) = stacks
    return stack


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_or_vector_rejected(self, sym_matrix, bad):
        with pytest.raises(ValueError, match="finite"):
            residual(sym_matrix, bad, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            residual(sym_matrix, 1.0, np.array([bad, 1.0]))


class TestClassifyVector:
    def test_examples(self):
        assert classify_vector([1.0, 2.0, 1.0]) == SYMMETRIC
        assert classify_vector([1.0, 0.0, -1.0]) == SKEW_SYMMETRIC
        assert classify_vector([1.0, -2.0, 2.0, 1.0]) == ABS_SYMMETRIC
        assert classify_vector([1.0, 2.0, 3.0]) == NEITHER_CLASS

    def test_priority_symmetric_wins_for_constant(self):
        assert classify_vector([2.0, 2.0]) == SYMMETRIC

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            classify_vector([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            classify_vector([bad, 1.0])


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
        # each row is contracted on its own, so the bits agree
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
        tensor = random_structured(3, 3, "centro", seed=5)
        stack = converged_stacks(monkeypatch, tensor, 60, 4)
        assert_order_free(stack, eigen._dedup(*stack))
        result = solve_eigen(tensor, starts=60, seed=4)
        pairs = result.pairs
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

    # per start: max(n^(m-1), (n+1)^2) entries, the first contraction or
    # the Jacobian stack, whichever is larger
    @pytest.mark.parametrize("m,n,per_start", [(2, 2, 9), (4, 3, 27), (5, 8, 4096)])
    def test_stack_over_the_cap_is_refused_before_drawing(self, m, n, per_start, monkeypatch):
        a = DenseTensor.zeros(m, n)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 10 * per_start - 1)
        with pytest.raises(core.ResourceLimitError, match=f"{10 * per_start} entries, exceeding"):
            solve_eigen(a, starts=10, seed=rng)
        assert rng.bit_generator.state == state
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 10 * per_start)
        assert solve_eigen(a, starts=10, seed=rng).stats.attempted == 10

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
        monkeypatch.setattr(eigen, "apply", lambda a, xs: core.apply(a, xs) + 1.0)
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

    @pytest.mark.parametrize("kind", ["centro", "skew"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_same_pair_set_and_converged_count(self, m, n, kind):
        a = random_structured(m, n, kind, seed=100 * m + n)
        result = solve_eigen(a, starts=20, seed=10 * m + n)
        kept, converged = loop_solve_eigen(a.data, starts=20, seed=10 * m + n)
        assert result.stats.converged == converged
        assert len(result.pairs) == len(kept)
        for value, vector, _ in kept:
            assert any(self._matches(p.value, p.vector, value, vector) for p in result.pairs)
        for p in result.pairs:
            assert any(self._matches(p.value, p.vector, value, vector) for value, vector, _ in kept)


class TestStartsAreIndependent:
    """A start's result depends neither on the other starts nor on how the
    line search chunks its halvings."""

    @pytest.mark.parametrize("m,n,kind", ORACLE_CELLS)
    def test_stacked_solve_counts_as_one_start_solves(self, m, n, kind):
        a = random_structured(m, n, kind, seed=100 * m + n)
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
        # the default budget put several halvings in one chunk
        assert len(calls) - default_calls > default_calls
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
        singular = 0
        for jac, rhs in stacks:
            singular += int(np.sum(np.linalg.slogdet(jac)[0] == 0))
            np.testing.assert_array_equal(newton_steps(jac, rhs), loop_newton_steps(jac, rhs))
        assert singular > 0


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
