import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrotensor import (
    CENTRO,
    CauchySpec,
    DenseTensor,
    DomainError,
    add,
    apply,
    check_structure,
    decompose,
    exchange_matrix,
    flip_vector,
    hadamard,
    materialize,
    poly_eval,
    random_structured,
    reverse_tensor,
    row_sums,
    scale,
    shao_product,
    sub,
)
from centrotensor import structure
from oracles import brute_apply, brute_poly, brute_reverse, brute_row_sums


@st.composite
def tensors(draw, max_order=4, max_dim=4, min_order=1):
    order = draw(st.integers(min_order, max_order))
    dim = draw(st.integers(1, max_dim))
    count = dim**order
    entries = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False, allow_infinity=False, width=64),
            min_size=count,
            max_size=count,
        )
    )
    return DenseTensor.from_entries(order, dim, entries)


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DenseTensor(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            DenseTensor.from_entries(1, 2, [1.0, np.inf])

    def test_rejects_order_zero(self):
        # 0-d data is refused before it is copied: it is not an order-1 tensor
        with pytest.raises(ValueError, match="^tensor order must be at least 1$"):
            DenseTensor(3.0)
        with pytest.raises(ValueError, match="^tensor order must be at least 1$"):
            DenseTensor.from_entries(0, 1, [5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 13, 26])
    def test_rejects_a_non_finite_entry_anywhere(self, bad, at):
        entries = np.linspace(-1.0, 1.0, 27)
        entries[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^tensor entries must be finite$"):
                DenseTensor(entries.reshape(3, 3, 3))

    @pytest.mark.parametrize(
        "entries",
        [[1e308] * 8, [1e308, 1e308, -1e308, -1e308, 1e308, -1e308, 1e308, 1e308]],
    )
    def test_accepts_finite_entries_whose_sum_overflows(self, entries):
        # the sums are inf and NaN, so the entries are tested one by one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert DenseTensor.from_entries(3, 2, entries).entries.tolist() == entries

    def test_finiteness_check_allocates_nothing(self):
        # the public constructor copies first, so the check is timed on the
        # path that adopts a fresh array after checking it
        data = np.random.default_rng(0).uniform(-1.0, 1.0, size=2**20)
        DenseTensor._from_flat(2, 2**10, data)  # warm-up
        tracemalloc.start()
        try:
            DenseTensor._from_flat(2, 2**10, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an entrywise isfinite mask is 1/8 of the data
        assert peak < 0.01 * data.nbytes

    def test_rejects_non_hypercubic(self):
        with pytest.raises(ValueError):
            DenseTensor(np.zeros((2, 3)))

    def test_from_entries_rejects_dim_zero(self):
        with pytest.raises(ValueError, match=r"^tensor must be hypercubic, got shape \(0, 0\)$"):
            DenseTensor.from_entries(2, 0, [])

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError):
            DenseTensor.from_entries(2, 2, [1.0, 2.0, 3.0])

    def test_identity_pattern(self):
        ident = DenseTensor.identity(3, 2)
        assert ident.data[0, 0, 0] == 1.0
        assert ident.data[1, 1, 1] == 1.0
        assert ident.entries.sum() == 2.0

    def test_data_is_immutable(self):
        a = DenseTensor.zeros(2, 2)
        with pytest.raises(ValueError):
            a.data[0, 0] = 1.0


class TestOwnership:
    """A tensor owns its data: no caller's array can change it."""

    @pytest.mark.parametrize("build", ["constructor", "from_entries"])
    def test_caller_writes_do_not_reach_the_tensor(self, build):
        base = np.array([1.0, 2.0, 2.0, 1.0])
        if build == "constructor":
            a = DenseTensor(base.reshape(2, 2))
        else:
            a = DenseTensor.from_entries(2, 2, base)
        base[0] = np.nan
        assert base.flags.writeable
        assert a.data.tolist() == [[1.0, 2.0], [2.0, 1.0]]
        report = check_structure(a)
        assert (report.verdict, report.max_violation) == (CENTRO, 0.0)

    def test_constructor_allocates_one_copy(self):
        data = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2**9, 2**9))
        DenseTensor(data)  # warm-up
        tracemalloc.start()
        try:
            DenseTensor(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.nbytes <= peak < 1.01 * data.nbytes


# Python objects and numpy's small bookkeeping around a traced call
_SLACK = 64 * 1024


class TestResultsAllocateOnlyThemselves:
    """Each internal construction site adopts its fresh result: no copy, no mask.

    The traced peak of a call is its results' bytes, plus the two _BLOCK
    buffers where the site streams, plus what is named per case, plus _SLACK.
    """

    @staticmethod
    def _traced(fn):
        fn()  # warm-up
        tracemalloc.start()
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        parts = (out.centro, out.skew) if hasattr(out, "centro") else (out,)
        for part in parts:
            assert part.data.flags.c_contiguous and not part.data.flags.writeable
        return peak, sum(part.data.nbytes for part in parts)

    def test_entrywise_and_reversal_sites(self):
        a = random_structured(4, 24, "general", seed=1)
        b = random_structured(4, 24, "general", seed=2)
        for fn in (
            lambda: reverse_tensor(a),
            lambda: add(a, b),
            lambda: sub(a, b),
            lambda: scale(a, 3.0),
            lambda: hadamard(a, b),
        ):
            peak, nbytes = self._traced(fn)
            assert peak <= nbytes + _SLACK

    def test_decompose(self):
        a = random_structured(4, 24, "general", seed=1)
        peak, nbytes = self._traced(lambda: decompose(a))
        assert peak <= nbytes + 2 * structure._BLOCK * 8 + _SLACK

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_exchange_products(self, side):
        a = random_structured(4, 24, "general", seed=1)
        j = exchange_matrix(24)
        peak, nbytes = self._traced(lambda: shao_product(j, a) if side == "left" else shao_product(a, j))
        assert peak <= nbytes + _SLACK

    def test_contraction(self):
        # the last slot's operand, moved to the last axis, is 1/n of the result
        n = 16
        a = random_structured(3, n, "centro", seed=1)
        b = random_structured(3, n, "skew", seed=2)
        peak, nbytes = self._traced(lambda: shao_product(a, b))
        assert peak <= nbytes + nbytes // n + _SLACK

    def test_materialize(self):
        # the leading sums, 1/n of the result, the ones before them, 1/n^2,
        # and numpy's two 8192-entry ufunc buffers for the broadcast row add
        n = 16
        spec = CauchySpec(np.linspace(0.5, 2.0, n), 4)
        peak, nbytes = self._traced(lambda: materialize(spec))
        assert peak <= nbytes + nbytes // n + nbytes // n**2 + 2 * 8192 * 8 + _SLACK


class TestFlipReverse:
    def test_flip_examples(self):
        assert flip_vector([1.0, 2.0, 3.0]).tolist() == [3.0, 2.0, 1.0]
        assert flip_vector([5.0, 5.0]).tolist() == [5.0, 5.0]
        assert flip_vector([1.0, 0.0, -1.0]).tolist() == [-1.0, 0.0, 1.0]

    def test_reverse_matrix(self):
        a = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert reverse_tensor(a).data.tolist() == [[4.0, 3.0], [2.0, 1.0]]

    @pytest.mark.parametrize("order,dim", [(2, 3), (3, 2), (4, 3)])
    def test_reverse_fixes_identity(self, order, dim):
        ident = DenseTensor.identity(order, dim)
        assert np.array_equal(reverse_tensor(ident).data, ident.data)

    def test_reverse_moves_single_entry(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 1] = 7.0
        rev = reverse_tensor(DenseTensor(data))
        assert rev.data[1, 1, 0] == 7.0
        assert rev.entries.sum() == 7.0

    def test_reverse_matches_bruteforce(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(3, 3, 3)))
        assert np.array_equal(reverse_tensor(a).data, brute_reverse(a.data))

    @given(tensors())
    def test_reverse_is_exact_involution(self, a):
        twice = reverse_tensor(reverse_tensor(a))
        assert np.array_equal(twice.data, a.data)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=9))
    def test_flip_is_exact_involution(self, comps):
        x = np.asarray(comps)
        assert np.array_equal(flip_vector(flip_vector(x)), x)


class TestApply:
    def test_identity_action(self):
        ident = DenseTensor.identity(2, 3)
        x = np.array([1.0, 2.0, 3.0])
        assert apply(ident, x).tolist() == [1.0, 2.0, 3.0]

    def test_matrix_row_sums(self, sym_matrix):
        assert apply(sym_matrix, np.array([1.0, 1.0])).tolist() == [3.0, 3.0]

    def test_order3_all_ones(self):
        a = DenseTensor(np.ones((2, 2, 2)))
        assert apply(a, np.array([1.0, 1.0])).tolist() == [4.0, 4.0]

    def test_matches_bruteforce(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(3, 3, 3, 3)))
        x = rng.uniform(-1, 1, size=3)
        assert np.allclose(apply(a, x), brute_apply(a.data, x), atol=1e-13)

    def test_dimension_mismatch(self, sym_matrix):
        with pytest.raises(ValueError):
            apply(sym_matrix, np.array([1.0, 2.0, 3.0]))

    def test_requires_order_two(self):
        with pytest.raises(ValueError):
            apply(DenseTensor(np.array([1.0, 2.0])), np.array([1.0, 2.0]))

    @given(tensors(min_order=2, max_order=4, max_dim=3), st.sampled_from([-2.0, 0.5, 3.0]))
    @settings(max_examples=60)
    def test_homogeneous_of_degree_m_minus_1(self, a, t):
        x = np.linspace(-1, 1, a.dim) + 0.1
        lhs = apply(a, t * x)
        rhs = t ** (a.order - 1) * apply(a, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestPolyEval:
    def test_hand_example(self, sym_matrix):
        assert poly_eval(sym_matrix, np.array([1.0, 2.0])) == 14.0

    def test_identity_is_power_sum(self, rng):
        x = rng.uniform(-1, 1, size=4)
        assert np.isclose(poly_eval(DenseTensor.identity(2, 4), x), np.sum(x**2))

    def test_zero_tensor(self):
        assert poly_eval(DenseTensor.zeros(3, 2), np.array([1.0, 5.0])) == 0.0

    def test_rejects_wrong_length_vector(self, sym_matrix):
        with pytest.raises(ValueError, match=r"^vector of length 2 required, got shape \(3,\)$"):
            poly_eval(sym_matrix, np.array([1.0, 2.0, 3.0]))

    def test_matches_bruteforce(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(2, 2, 2)))
        x = rng.uniform(-1, 1, size=2)
        assert np.isclose(poly_eval(a, x), brute_poly(a.data, x), atol=1e-14)

    @given(tensors(min_order=2, max_order=4, max_dim=3))
    @settings(max_examples=60)
    def test_equals_apply_dotted_with_x(self, a):
        x = np.linspace(-1, 1, a.dim) + 0.05
        lhs = poly_eval(a, x)
        rhs = float(apply(a, x) @ x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestElementwise:
    def test_hadamard_identity_and_square(self):
        a = DenseTensor(np.array([[1.0, 2.0], [-2.0, -1.0]]))
        ones = DenseTensor(np.ones((2, 2)))
        assert np.array_equal(hadamard(a, ones).data, a.data)
        assert hadamard(a, a).data.tolist() == [[1.0, 4.0], [4.0, 1.0]]
        assert hadamard(a, DenseTensor.zeros(2, 2)).entries.sum() == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hadamard_overflow_is_a_domain_error(self):
        a = DenseTensor(np.full((2, 2), 1e200))
        with pytest.raises(DomainError, match="entrywise product overflows float64"):
            hadamard(a, a)

    def test_hadamard_shape_mismatch(self):
        with pytest.raises(ValueError):
            hadamard(DenseTensor.zeros(2, 2), DenseTensor.zeros(3, 2))

    def test_add_sub_scale(self, sym_matrix):
        zero = DenseTensor.zeros(2, 2)
        assert np.array_equal(add(sym_matrix, zero).data, sym_matrix.data)
        assert np.array_equal(sub(sym_matrix, sym_matrix).data, zero.data)
        assert np.array_equal(scale(sym_matrix, 1.0).data, sym_matrix.data)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda d: add(d, d), "entrywise sum overflows float64"),
            (lambda d: sub(d, scale(d, -1.0)), "entrywise difference overflows float64"),
            (lambda d: scale(d, 10), "scaled tensor overflows float64"),
        ],
        ids=["add", "sub", "scale"],
    )
    def test_overflow_is_a_domain_error_without_a_warning(self, call, message):
        d = DenseTensor(np.full((2, 2), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{message}$"):
                call(d)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_scale_factor_is_a_value_error(self, t):
        for a in (DenseTensor.zeros(2, 2), DenseTensor(np.ones((2, 2)))):
            with pytest.raises(ValueError, match="scale factor must be finite"):
                scale(a, t)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            add(DenseTensor.zeros(2, 2), DenseTensor.zeros(2, 3))


class TestRowSums:
    def test_examples(self, sym_matrix, skew_matrix):
        assert row_sums(sym_matrix).tolist() == [3.0, 3.0]
        assert row_sums(DenseTensor.zeros(3, 2)).tolist() == [0.0, 0.0]
        assert row_sums(skew_matrix).tolist() == [1.0, -1.0]

    def test_matches_bruteforce(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(4, 4, 4)))
        assert np.allclose(row_sums(a), brute_row_sums(a.data), atol=1e-13)

    @given(tensors(min_order=2, max_order=4, max_dim=3))
    @settings(max_examples=60)
    def test_equals_apply_on_all_ones(self, a):
        r = row_sums(a)
        via_apply = apply(a, np.ones(a.dim))
        assert np.max(np.abs(r - via_apply)) <= 1e-12 * max(1.0, np.max(np.abs(r)))
