import json
import tracemalloc

import numpy as np
import pytest

from centrotensor import (
    DenseTensor,
    InverseResult,
    NoInverse,
    NoInverseError,
    diagonal_left_inverse,
    diagonal_right_inverse,
    palindromize,
    random_structured,
    recover_order2_left_inverse,
    recover_order2_right_inverse,
    scale,
    shao_product,
    verify_inverse,
)
from centrotensor.serialize import dumps


def well_conditioned_centro(dim, seed, cond_cap=1e3):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        c = random_structured(2, dim, "centro", rng)
        if np.linalg.cond(c.data) <= cond_cap:
            return c
    raise AssertionError("no well-conditioned draw")


class TestVerifyInverse:
    def test_identity_pair(self):
        ident = DenseTensor.identity(2, 3)
        assert verify_inverse(ident, ident, "left") == 0.0
        assert verify_inverse(ident, ident, "right") == 0.0

    def test_orientation_left_is_b_times_a(self):
        # B = diag(1/2) left-inverts A = 2*I of order 3: B*A is the
        # order-3 identity, while A*B is not even defined as an inverse
        # claim at order 2 -- both sides must be distinguishable.
        a = DenseTensor.diagonal(3, np.array([2.0, 2.0]))
        b = DenseTensor.diagonal(2, np.array([0.5, 0.5]))
        assert verify_inverse(a, b, "left") == 0.0

    def test_random_pair_has_large_residual(self, rng):
        a = DenseTensor(rng.uniform(-1, 1, size=(3, 3)))
        b = DenseTensor(rng.uniform(-1, 1, size=(3, 3)))
        assert verify_inverse(a, b, "left") > 1e-2

    def test_rejects_unknown_side(self):
        ident = DenseTensor.identity(2, 2)
        with pytest.raises(ValueError):
            verify_inverse(ident, ident, "middle")


class TestDiagonalLeftInverse:
    def test_hand_example(self):
        a = DenseTensor.diagonal(3, np.array([2.0, 2.0]))
        result = diagonal_left_inverse(a, 2)
        assert result.inverse.data.tolist() == [[0.5, 0.0], [0.0, 0.5]]
        assert result.residual == 0.0
        assert result.centro_verdict

    def test_zero_diagonal_entry_names_index(self):
        a = DenseTensor.diagonal(2, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(NoInverseError, match="index 2"):
            diagonal_left_inverse(a, 2)

    def test_identity_inverts_to_identity(self):
        ident = DenseTensor.identity(3, 2)
        result = diagonal_left_inverse(ident, 4)
        assert np.array_equal(result.inverse.data, DenseTensor.identity(4, 2).data)
        assert result.residual == 0.0

    def test_rejects_non_diagonal(self, sym_matrix):
        with pytest.raises(ValueError, match="diagonal"):
            diagonal_left_inverse(sym_matrix, 2)

    def test_off_diagonal_entries_up_to_1e_14_of_the_entry_scale_pass(self):
        # a mirrored off-diagonal pair keeps the tensor centro; the entry
        # scale is 4, so 4e-14 sits on the tolerance and the next float past it
        at = DenseTensor(np.array([[4.0, 4e-14], [4e-14, 4.0]]))
        assert diagonal_left_inverse(at, 2).inverse.data.tolist() == [[0.25, 0.0], [0.0, 0.25]]
        above = DenseTensor(np.array([[4.0, 4.0000000000000006e-14], [4.0000000000000006e-14, 4.0]]))
        with pytest.raises(ValueError, match="tensor is not diagonal"):
            diagonal_left_inverse(above, 2)

    def test_rejects_non_centro_diagonal(self):
        a = DenseTensor.diagonal(2, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="centro"):
            diagonal_left_inverse(a, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry,k", [(1e200, 3), (5e-324, 2), (5e-324, 3)])
    def test_inverse_entry_with_no_float64_value_names_index(self, entry, k):
        # 1e200**2 overflows, so its reciprocal is 0; 1/5e-324 and 1/(5e-324)**2 are inf
        a = DenseTensor.diagonal(3, np.array([entry, entry]))
        with pytest.raises(NoInverseError, match="index 1 overflows or underflows float64"):
            diagonal_left_inverse(a, k)


class TestDiagonalRightInverse:
    def test_cube_root_example(self):
        a = DenseTensor.diagonal(4, np.array([16.0, 16.0]))
        result = diagonal_right_inverse(a, 2)
        b_diag = result.inverse.data[(np.arange(2),) * 2]
        assert np.allclose(b_diag, 0.3968502629920499, atol=1e-15)
        assert result.residual <= 1e-12
        assert result.centro_verdict

    def test_even_order_negative_diagonal_keeps_sign(self):
        a = DenseTensor.diagonal(4, np.array([-8.0, -8.0]))
        result = diagonal_right_inverse(a, 2)
        assert np.allclose(result.inverse.data[(np.arange(2),) * 2], -0.5, atol=1e-15)
        assert result.residual <= 1e-13

    def test_odd_order_requires_positive_diagonal(self):
        a = DenseTensor.diagonal(3, np.array([-1.0, -1.0]))
        with pytest.raises(NoInverseError, match="positive"):
            diagonal_right_inverse(a, 2)

    def test_zero_entry_rejected(self):
        a = DenseTensor.diagonal(4, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(NoInverseError):
            diagonal_right_inverse(a, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_entry_has_no_inverse(self):
        a = DenseTensor.diagonal(3, np.array([5e-324, 5e-324]))
        with pytest.raises(NoInverseError, match="index 1 overflows or underflows float64"):
            diagonal_right_inverse(a, 2)

    def test_large_entry_still_inverts(self):
        a = DenseTensor.diagonal(3, np.array([1e200, 1e200]))
        result = diagonal_right_inverse(a, 3)
        assert result.inverse.data[0, 0, 0] == 1e-100
        assert result.residual == 0.0

    def test_identity_inverts_to_identity(self):
        ident = DenseTensor.identity(4, 3)
        result = diagonal_right_inverse(ident, 2)
        assert np.array_equal(result.inverse.data, np.eye(3))


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_roundtrip_sweep(m, k, n):
    rng = np.random.default_rng(m * 100 + k * 10 + n)
    diag = palindromize(rng.uniform(0.5, 4.0, size=n))
    a = DenseTensor.diagonal(m, diag)
    left = diagonal_left_inverse(a, k)
    right = diagonal_right_inverse(a, k)
    assert left.residual <= 1e-13
    assert right.residual <= 1e-13
    assert left.centro_verdict and right.centro_verdict
    # read from the diagonals, the residual has the bits of the product check
    assert left.residual == verify_inverse(a, left.inverse, "left")
    assert right.residual == verify_inverse(a, right.inverse, "right")


@pytest.mark.parametrize("side", ["left", "right"])
def test_diagonal_inverse_builds_no_product(side):
    # B*A and A*B would have order (3-1)(4-1)+1 = 7 and 16^7 entries, past
    # the entry cap, though B has 16 nonzeros
    diag = palindromize(np.arange(1.0, 17.0))
    construct = diagonal_left_inverse if side == "left" else diagonal_right_inverse
    result = construct(DenseTensor.diagonal(4, diag), 3)
    b_diag = result.inverse.data[(np.arange(16),) * 3]
    product = b_diag * diag * diag if side == "left" else diag * b_diag * b_diag * b_diag
    assert result.residual == np.max(np.abs(product - 1.0)) <= 1e-15
    assert result.centro_verdict


class TestRecoverLeft:
    def test_identity_tensor(self):
        result = recover_order2_left_inverse(DenseTensor.identity(4, 3))
        assert isinstance(result, InverseResult)
        assert result.residual == 0.0
        assert np.array_equal(result.inverse.data, np.eye(3))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_recovers_planted_inverse(self, m):
        c = well_conditioned_centro(3, seed=m)
        planted = shao_product(c, DenseTensor.identity(m, 3))
        result = recover_order2_left_inverse(planted)
        assert isinstance(result, InverseResult)
        assert np.max(np.abs(result.inverse.data - np.linalg.inv(c.data))) <= 1e-9
        assert result.centro_verdict
        assert result.condition is not None and result.condition <= 1e3

    def test_generic_centro_tensor_has_no_matrix_inverse(self):
        a = random_structured(3, 3, "centro", seed=11)
        result = recover_order2_left_inverse(a)
        assert isinstance(result, NoInverse)
        assert result.residual is not None and result.residual > 1e-6

    def test_default_tolerance_does_not_grow_with_the_tensor(self):
        # B*A - I does not scale with A; a tolerance that did accepted this
        # wrong candidate, whose product misses the identity by 2.75
        a = scale(random_structured(3, 3, "centro", seed=4), 1e11)
        result = recover_order2_left_inverse(a)
        assert isinstance(result, NoInverse)
        assert 2.7 < result.residual < 2.8

    @pytest.mark.parametrize("factor", [1e-11, 1e11])
    def test_scaled_planted_inverse_is_still_recovered(self, factor):
        c = well_conditioned_centro(3, seed=3)
        planted = scale(shao_product(c, DenseTensor.identity(3, 3)), factor)
        assert isinstance(recover_order2_left_inverse(planted), InverseResult)

    @pytest.mark.parametrize("small,recovered", [(2.0**-39, True), (2.0**-40, False)], ids=["2^-39", "2^-40"])
    def test_condition_threshold_is_1e12(self, small, recovered):
        # [[a, b], [b, a]] has singular values a + b = 1 and a - b = small,
        # so its condition number is about 5.5e11 at 2^-39 and 1.1e12 at 2^-40
        a, b = (1.0 + small) / 2, (1.0 - small) / 2
        result = recover_order2_left_inverse(DenseTensor(np.array([[a, b], [b, a]])))
        assert isinstance(result, InverseResult) is recovered
        if not recovered:
            assert "ill-conditioned (cond 1.100e+12)" in result.reason

    def test_singular_slice_reported_not_raised(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 1] = 1.0
        data[1, 1, 0] = 1.0  # mirrored entry; the (i, j, j) slice is all zero
        result = recover_order2_left_inverse(DenseTensor(data))
        assert isinstance(result, NoInverse)
        assert "singular" in result.reason or "ill-conditioned" in result.reason

    def test_rejects_non_centro_input(self):
        with pytest.raises(ValueError):
            recover_order2_left_inverse(DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]])))

    def test_singular_condition_is_null_in_json(self):
        result = recover_order2_left_inverse(DenseTensor.zeros(4, 2))
        assert isinstance(result, NoInverse)
        assert result.condition is None
        assert "cond inf" in result.reason
        assert json.loads(dumps(result.as_dict()))["condition"] is None


class TestRecoverRight:
    def test_identity_tensor(self):
        result = recover_order2_right_inverse(DenseTensor.identity(4, 2))
        assert isinstance(result, InverseResult)
        assert np.array_equal(result.inverse.data, np.eye(2))

    @pytest.mark.parametrize("m", [2, 4])
    def test_recovers_planted_inverse(self, m):
        c = well_conditioned_centro(3, seed=40 + m)
        c_inv = DenseTensor(np.linalg.inv(c.data))
        planted = shao_product(DenseTensor.identity(m, 3), c_inv)
        result = recover_order2_right_inverse(planted)
        assert isinstance(result, InverseResult)
        assert np.max(np.abs(result.inverse.data - c.data)) <= 1e-9
        assert result.centro_verdict

    def test_default_tolerance_does_not_grow_with_the_tensor(self):
        a = scale(random_structured(4, 3, "centro", seed=0), 1e11)
        result = recover_order2_right_inverse(a)
        assert isinstance(result, NoInverse)
        assert 5.4 < result.residual < 5.5

    @pytest.mark.parametrize("factor", [1e-11, 1e11])
    def test_scaled_planted_inverse_is_still_recovered(self, factor):
        c = well_conditioned_centro(3, seed=44)
        planted = shao_product(DenseTensor.identity(4, 3), DenseTensor(np.linalg.inv(c.data)))
        assert isinstance(recover_order2_right_inverse(scale(planted, factor)), InverseResult)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            recover_order2_right_inverse(DenseTensor.identity(3, 2))


def test_uniqueness_against_planted_ground_truth():
    hits = 0
    for seed in range(100):
        c = well_conditioned_centro(3, seed=seed)
        planted = shao_product(c, DenseTensor.identity(3, 3))
        result = recover_order2_left_inverse(planted)
        assert isinstance(result, InverseResult)
        if np.max(np.abs(result.inverse.data - np.linalg.inv(c.data))) <= 1e-9:
            hits += 1
    assert hits == 100



def test_verify_inverse_is_the_deviation_from_the_identity(rng):
    for order_b, order_a in ((2, 2), (2, 3), (3, 2), (2, 4)):
        a = DenseTensor(rng.uniform(-1, 1, size=(3,) * order_a))
        b = DenseTensor(rng.uniform(-1, 1, size=(3,) * order_b))
        for side, prod in (("left", shao_product(b, a)), ("right", shao_product(a, b))):
            ident = DenseTensor.identity(prod.order, prod.dim)
            assert verify_inverse(a, b, side) == np.max(np.abs(prod.data - ident.data))


def _traced_peak(call, *args):
    call(*args)  # warm-up
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_peak_memory():
    # the checks read max|P - I| and the off-diagonal size from one |.| copy,
    # building neither the identity nor P - I
    c = well_conditioned_centro(16, seed=0)
    left = shao_product(c, DenseTensor.identity(4, 16))
    right = shao_product(DenseTensor.identity(4, 16), DenseTensor(np.linalg.inv(c.data)))
    assert _traced_peak(recover_order2_left_inverse, left) <= 2.1 * left.data.nbytes
    assert _traced_peak(recover_order2_right_inverse, right) <= 2.1 * right.data.nbytes
    # at dim 16 the check's small arrays are under 2% of the input's bytes
    diagonal = DenseTensor.diagonal(4, palindromize(np.arange(1.0, 17.0)))
    assert _traced_peak(diagonal_left_inverse, diagonal, 2) <= 2.25 * diagonal.data.nbytes

class TestOrderOneOperand:
    VECTOR = DenseTensor(np.array([1.0, 2.0, 1.0]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda a: diagonal_left_inverse(a, 3),
            lambda a: diagonal_right_inverse(a, 3),
            recover_order2_left_inverse,
        ],
        ids=["diagonal-left", "diagonal-right", "recover-left"],
    )
    def test_rejected_before_arithmetic(self, call):
        with pytest.raises(ValueError, match="order >= 2, got order 1"):
            call(self.VECTOR)

    def test_right_recovery_rejects_it_as_odd(self):
        with pytest.raises(ValueError, match="even tensor order"):
            recover_order2_right_inverse(self.VECTOR)


class TestAsDict:
    """Key order and values of the JSON the inverse verb prints, pinned as literals."""

    def test_diagonal_inverse_result(self):
        result = diagonal_left_inverse(DenseTensor.diagonal(3, np.array([2.0, 4.0, 2.0])))
        assert list(result.as_dict().items()) == [
            ("found", True),
            ("side", "left"),
            ("order", 2),
            ("residual", 0.0),
            ("centro", True),
            ("condition", None),
            ("inverse", {"order": 2, "dim": 3,
                         "entries": [0.5, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.5]}),
        ]

    def test_recovered_inverse_result(self):
        result = recover_order2_left_inverse(DenseTensor(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert list(result.as_dict().items()) == [
            ("found", True),
            ("side", "left"),
            ("order", 2),
            ("residual", 0.0),
            ("centro", True),
            ("condition", 2.999999999999999),
            ("inverse", {"order": 2, "dim": 2,
                         "entries": [0.6666666666666666, -0.3333333333333333,
                                     -0.3333333333333333, 0.6666666666666666]}),
        ]

    def test_no_inverse(self):
        a = DenseTensor(np.array([1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0]).reshape(2, 2, 2))
        result = recover_order2_left_inverse(a)
        assert list(result.as_dict().items()) == [
            ("found", False),
            ("side", "left"),
            ("reason", "candidate fails the product check (residual 3.333e-01 > tol 1.333e-10)"),
            ("condition", 3.0000000000000004),
            ("residual", 0.3333333333333333),
        ]
