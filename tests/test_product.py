import numpy as np
import pytest

from centrotensor import (
    CENTRO,
    DenseTensor,
    DomainError,
    ResourceLimitError,
    apply,
    check_structure,
    check_via_J,
    exchange_matrix,
    flip_vector,
    product_parity,
    random_structured,
    shao_product,
)
from centrotensor import core, product
from oracles import brute_shao

BIG = float(np.finfo(float).max)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-308, 1e308, -1e308, BIG, -BIG, 1.0, -1.0]


def tensordot_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The general product as m-1 dense contractions, whatever the factors."""
    n = a.shape[0]
    b_flat, out = b.reshape(n, -1), a
    for _ in range(a.ndim - 1):
        out = np.tensordot(out, b_flat, axes=(1, 0))
    return out.reshape((n,) * ((a.ndim - 1) * (b.ndim - 1) + 1))


def permutation_matrix(kind: str, n: int, rng) -> np.ndarray:
    sigma = {"exchange": np.arange(n)[::-1], "identity": np.arange(n),
             "random": rng.permutation(n)}[kind]
    p = np.zeros((n, n))
    p[np.arange(n), sigma] = 1.0
    return p


def edge_entries(rng, count: int, draw: int) -> np.ndarray:
    """Edge values, uniform draws with signed zeros, or all -0.0, by draw."""
    if draw % 3 == 0:
        return rng.choice(EDGE_VALUES, size=count)
    if draw % 3 == 1:
        out = rng.uniform(-1.0, 1.0, size=count)
        out[rng.random(count) < 0.4] = -0.0
        return out
    return np.full(count, -0.0)


class TestShapeFormula:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_result_order_and_count(self, m, k, n):
        a = random_structured(m, n, "general", seed=m * 10 + k)
        b = random_structured(k, n, "general", seed=k * 10 + n)
        prod = shao_product(a, b)
        assert prod.order == (m - 1) * (k - 1) + 1
        assert prod.entries.size == n**prod.order


class TestShaoProduct:
    def test_matrix_times_matrix_is_matmul(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(3, 3)))
        b = DenseTensor(rng.uniform(-1, 1, size=(3, 3)))
        assert np.allclose(shao_product(a, b).data, a.data @ b.data, atol=1e-14)

    def test_hand_example(self, sym_matrix):
        flipper = DenseTensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert shao_product(sym_matrix, flipper).data.tolist() == [[1.0, 2.0], [2.0, 1.0]]

    def test_identity_left_action(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(2, 2, 2)))
        ident = DenseTensor.identity(2, 2)
        assert np.array_equal(shao_product(ident, a).data, a.data)

    def test_identity_right_action_is_exact(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(3, 3, 3)))
        ident = DenseTensor.identity(2, 3)
        assert np.array_equal(shao_product(a, ident).data, a.data)

    @pytest.mark.parametrize("m,k,n", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 3, 2), (4, 2, 3)])
    def test_matches_bruteforce(self, m, k, n, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(n,) * m))
        b = DenseTensor(rng.uniform(-1, 1, size=(n,) * k))
        assert np.allclose(shao_product(a, b).data, brute_shao(a.data, b.data), atol=1e-12)

    def test_vector_operand_matches_apply(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(3, 3, 3)))
        x = rng.uniform(-1, 1, size=3)
        prod = shao_product(a, DenseTensor(x))
        assert prod.order == 1
        assert np.allclose(prod.data, apply(a, x), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shao_product(DenseTensor.zeros(2, 2), DenseTensor.zeros(2, 3))

    def test_left_operand_needs_order_two(self):
        with pytest.raises(ValueError):
            shao_product(DenseTensor(np.ones(3)), DenseTensor.zeros(2, 3))

    def test_entry_cap_enforced(self, monkeypatch):
        a = DenseTensor.zeros(3, 2)
        b = DenseTensor.zeros(3, 2)
        # result order (3-1)(3-1)+1 = 5 -> 32 entries
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 31)
        with pytest.raises(ResourceLimitError):
            shao_product(a, b)
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 32)
        assert shao_product(a, b).order == 5

    # Each row holds several faults at once; the checks run in a fixed
    # order (dimension, left order, cap), so the first wins.
    @pytest.mark.parametrize(
        "left,right,cap,error,message",
        [
            ((1, 3), (2, 2), 0, ValueError, "dimension mismatch: 3 vs 2"),
            ((3, 2), (1, 3), 0, ValueError, "dimension mismatch: 2 vs 3"),
            ((1, 2), (2, 2), 0, ValueError, "left operand must have order >= 2"),
            ((2, 2), (2, 2), 3, ResourceLimitError,
             "product of order 2 dim 2 has 4 entries, exceeding the cap 3"),
        ],
    )
    def test_first_fault_wins(self, left, right, cap, error, message, monkeypatch):
        a, b = DenseTensor.zeros(*left), DenseTensor.zeros(*right)
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", cap)
        with pytest.raises(error) as info:
            shao_product(a, b)
        assert str(info.value) == message

    @pytest.mark.parametrize("dim", [1, 2])
    def test_result_past_64_axes_is_refused(self, dim):
        # (9-1)(9-1)+1 = 65 axes, one more than a numpy array holds
        a = DenseTensor.zeros(9, dim)
        with pytest.raises(ValueError) as info:
            shao_product(a, a)
        assert str(info.value) == "order 65 exceeds the limit of 64 axes"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_result_is_a_domain_error(self):
        big = float(np.finfo(float).max)
        a = DenseTensor.from_entries(3, 2, [5e-324, -1.0, 1e-308, 0.0, 0.0, 0.0, 1.0, -1e308])
        b = DenseTensor.from_entries(2, 2, [-big, 5e-324, -5e-324, -big])
        with pytest.raises(DomainError, match="general product overflows float64"):
            shao_product(a, b)


class TestFiniteBound:
    """The inputs prove a product finite, or its result is scanned once."""

    @pytest.mark.parametrize("n,order", [(2, 3), (3, 2), (4, 3), (5, 4)])
    def test_bounded_inputs_give_a_finite_result(self, n, order, rng):
        # positive entries, so no cancellation: each slot multiplies the
        # largest entry by nearly n * scale(b), and the bound sits just below 2^1022
        b_exp = 20
        a_exp = int(1021 - (order - 1) * (np.log2(n) + b_exp))
        a = DenseTensor(rng.uniform(0.5, 1.0, size=(n,) * order) * 2.0**a_exp)
        b = DenseTensor(np.full((n, n), 2.0**b_exp))
        assert product._bounded(a, b)
        with np.errstate(over="raise"):
            want = tensordot_product(a.data, b.data)
        assert shao_product(a, b).data.tobytes() == want.tobytes()

    def test_unbounded_finite_result_has_the_tensordot_bits(self, rng):
        # the 1e300 entry only meets B's small rows, and B's 1e10 entries
        # only meet A's small entries, so the result is finite although the
        # bound, 1e300 * (3e10)^2, is far past the float range
        a = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
        a[0, 0, 0] = 1e300
        b = rng.uniform(-1.0, 1.0, size=(3, 3))
        b[1:] *= 1e10
        a, b = DenseTensor(a), DenseTensor(b)
        assert not product._bounded(a, b)
        got = shao_product(a, b).data
        assert np.all(np.isfinite(got))
        assert got.tobytes() == tensordot_product(a.data, b.data).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2, 4, 26])
    def test_unbounded_overflowing_result_is_a_domain_error(self, n, rng):
        a = rng.uniform(0.5, 1.0, size=(n,) * 3)
        a[-1] = 1e200
        b = rng.uniform(0.5, 1.0, size=(n,) * 3) * 1e100
        a, b = DenseTensor(a), DenseTensor(b)
        assert not product._bounded(a, b)
        with pytest.raises(DomainError, match="^general product overflows float64$"):
            shao_product(a, b)


class TestPermutationProduct:
    """A permutation-matrix factor gives the contraction's bits; J is applied as a reversal."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("kind", ["exchange", "identity", "random"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_gather_matches_contraction_bit_for_bit(self, side, kind, n, rng):
        for order in range(1 if side == "left" else 2, 6):
            for draw in range(3):
                p = permutation_matrix(kind, n, rng)
                t = edge_entries(rng, n**order, draw).reshape((n,) * order)
                a, b = (p, t) if side == "left" else (t, p)
                got = shao_product(DenseTensor(a), DenseTensor(b)).data
                assert got.tobytes() == tensordot_product(a, b).tobytes(), (order, draw)
                if n**order * n ** (order - 1) <= 4096:
                    # brute_shao sums from +0.0, which dim 1's contraction skips
                    want = brute_shao(a, b)
                    assert (got.tobytes() == want.tobytes()) if n > 1 else np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_sandwich_of_skew_odd_dim_has_no_negative_zero(self, n):
        s = random_structured(3, n, "skew", seed=0)
        j = exchange_matrix(n)
        for out in (shao_product(s, j), shao_product(j, s), shao_product(j, shao_product(s, j))):
            assert not np.any(np.signbit(out.data) & (out.data == 0.0))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_near_permutations_take_the_contraction(self, n, rng):
        # 1.0 + 1e-16 rounds to 1.0, so the nearest float above 1.0 stands in
        near = permutation_matrix("exchange", n, rng)
        near[0, np.argmax(near[0])] = np.nextafter(1.0, 2.0)
        doubled = permutation_matrix("exchange", n, rng)
        doubled[0] = 0.0
        doubled[0, :2] = 1.0
        t = rng.uniform(-1.0, 1.0, size=(n,) * 3)
        for p in (near, doubled):
            assert not product._is_exchange(DenseTensor(p))
            for a, b in ((p, t), (t, p)):
                got = shao_product(DenseTensor(a), DenseTensor(b)).data
                assert got.tobytes() == tensordot_product(a, b).tobytes()


class TestParityTable:
    def test_centro_centro_any_order(self):
        assert product_parity("centro", "centro", 2) == "centro"
        assert product_parity("centro", "centro", 5) == "centro"

    def test_skew_left(self):
        assert product_parity("skew", "centro", 2) == "skew"
        assert product_parity("skew", "centro", 3) == "skew"

    def test_skew_right_depends_on_order(self):
        assert product_parity("centro", "skew", 4) == "skew"
        assert product_parity("centro", "skew", 3) == "centro"

    def test_both_skew_depends_on_order(self):
        assert product_parity("skew", "skew", 3) == "skew"
        assert product_parity("skew", "skew", 2) == "centro"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            product_parity("general", "centro", 2)

    def test_closure_on_random_draws(self, rng):
        kinds = ("centro", "skew")
        for _ in range(50):
            kind_a, kind_b = kinds[rng.integers(0, 2)], kinds[rng.integers(0, 2)]
            m = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            a = random_structured(m, n, kind_a, rng)
            b = random_structured(k, n, kind_b, rng)
            prod = shao_product(a, b)
            tol = 1e-10 * max(1.0, float(np.max(np.abs(prod.data))))
            report = check_structure(prod, tol)
            expected = product_parity(kind_a, kind_b, m)
            assert report.is_centro if expected == "centro" else report.is_skew


class TestChainProduct:
    """Products of three tensors as left-associated nested calls."""

    def test_three_identities(self):
        ident = DenseTensor.identity(2, 3)
        chained = shao_product(shao_product(ident, ident), ident)
        assert np.array_equal(chained.data, ident.data)

    def test_three_centro_matrices(self, rng):
        a, b, c = (random_structured(2, 3, "centro", rng) for _ in range(3))
        assert check_structure(shao_product(shao_product(a, b), c)).verdict == CENTRO

    def test_mixed_order_chain_stays_centro(self, rng):
        a = random_structured(3, 3, "centro", rng)
        b = random_structured(2, 3, "centro", rng)
        c = random_structured(2, 3, "centro", rng)
        prod = shao_product(shao_product(a, b), c)
        tol = 1e-10 * max(1.0, float(np.max(np.abs(prod.data))))
        assert check_structure(prod, tol).is_centro


class TestExchangeMatrix:
    def test_small_patterns(self):
        assert exchange_matrix(2).data.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert exchange_matrix(3).data.tolist() == [
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
        ]

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="^dimension must be positive$"):
            exchange_matrix(0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_is_involution(self, n):
        j = exchange_matrix(n)
        assert np.array_equal(shao_product(j, j).data, np.eye(n))

    def test_acts_as_flip_on_vectors(self, rng):
        x = rng.uniform(-1, 1, size=5)
        j = exchange_matrix(5)
        assert np.array_equal(apply(j, x), flip_vector(x))

    def test_sandwich_matches_nested_products(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(4, 4, 4)))
        j = exchange_matrix(4)
        nested = shao_product(j, shao_product(a, j))
        chained = shao_product(shao_product(j, a), j)
        assert np.max(np.abs(nested.data - chained.data)) <= 1e-12
        # and both realize the entry reversal used by the direct check
        assert check_via_J(a).verdict == check_structure(a).verdict
