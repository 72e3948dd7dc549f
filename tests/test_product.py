import numpy as np
import pytest

from centrotensor import (
    CENTRO,
    DenseTensor,
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
from oracles import brute_shao


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

    def test_entry_cap_enforced(self):
        a = DenseTensor.zeros(3, 2)
        b = DenseTensor.zeros(3, 2)
        # result order (3-1)(3-1)+1 = 5 -> 32 entries
        with pytest.raises(ResourceLimitError):
            shao_product(a, b, entry_cap=31)
        assert shao_product(a, b, entry_cap=32).order == 5

    # Each row holds several faults at once; the checks run in a fixed
    # order (cap value, dimension, left order, cap), so the first wins.
    @pytest.mark.parametrize(
        "left,right,cap,error,message",
        [
            ((1, 3), (2, 2), -1, ValueError, "entry_cap must be nonnegative, got -1"),
            ((1, 3), (2, 2), 1.5, ValueError, "entry_cap must be an integer, got 1.5"),
            ((1, 2), (1, 3), None, ValueError, "entry_cap must be an integer, got None"),
            ((1, 3), (2, 2), 0, ValueError, "dimension mismatch: 3 vs 2"),
            ((3, 2), (1, 3), 0, ValueError, "dimension mismatch: 2 vs 3"),
            ((1, 2), (2, 2), 0, ValueError, "left operand must have order >= 2"),
            ((2, 2), (2, 2), 3, ResourceLimitError,
             "product of orders 2 and 2 has 4 entries, exceeding the cap 3"),
        ],
    )
    def test_first_fault_wins(self, left, right, cap, error, message):
        a, b = DenseTensor.zeros(*left), DenseTensor.zeros(*right)
        with pytest.raises(error) as info:
            shao_product(a, b, entry_cap=cap)
        assert str(info.value) == message


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
