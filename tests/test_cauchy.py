import itertools
import warnings

import numpy as np
import pytest

from centrotensor import (
    CauchySpec,
    CauchySpecError,
    ResourceLimitError,
    cauchy_check_JC,
    cauchy_is_centro,
    cauchy_is_skew,
    check_structure,
    materialize,
    palindromize,
)
from centrotensor import cauchy

from oracles import loop_validate_spec


def scan(spec):
    """The multiset scan alone, without building the reciprocals."""
    cauchy._scan_sums(spec, cauchy._index_sums(spec))


def scan_outcome(check, spec):
    """None if the spec passes, else the CauchySpecError message."""
    try:
        check(spec)
    except CauchySpecError as exc:
        return str(exc)
    return None


class TestSpecValidation:
    def test_rejects_vanishing_pair_sum(self):
        with pytest.raises(CauchySpecError, match=r"\(1, 2\)"):
            materialize(CauchySpec(np.array([1.0, -1.0]), 2))

    def test_rejects_near_zero_sum(self):
        with pytest.raises(CauchySpecError):
            materialize(CauchySpec(np.array([1.0, -1.0 + 1e-16]), 2))

    def test_accepts_positive_vector(self):
        materialize(CauchySpec(np.array([0.5, 1.5, 2.5]), 3))

    def test_skew_vector_even_order_is_invalid(self):
        # anti-palindromic components give a vanishing pair sum for even order
        with pytest.raises(CauchySpecError):
            materialize(CauchySpec(np.array([1.0, 2.0, -2.0, -1.0]), 2))

    def test_skew_vector_odd_order_is_valid(self):
        materialize(CauchySpec(np.array([1.0, -1.0]), 3))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CauchySpec(np.array([[1.0, 2.0]]), 2)
        with pytest.raises(ValueError):
            CauchySpec(np.array([1.0, np.nan]), 2)
        with pytest.raises(ValueError):
            CauchySpec(np.array([1.0, 2.0]), 0)


class TestScanAgainstLoopOracle:
    @pytest.mark.parametrize(
        "c,m",
        [
            ([1.0, -1.0], 2),
            ([1.0, -1.0 + 1e-16], 2),
            ([0.5, 1.5, 2.5], 3),
            ([1.0, 2.0, -2.0, -1.0], 2),
            ([1.0, -1.0], 3),
            # numpy sums 8 or more terms pairwise, so the tensor's left-to-right
            # sum straddles the threshold against the loop's: here it falls
            # below while the loop's does not, and then the other way round
            ([-0.4780985174267056, 0.15936617247557022], 8),
            ([1.7878315731128867, -0.4469578932782239], 10),
            ([1e308, 1e308, -1e308, -1e308], 4),
            # the loop's sum of (1, 1, 1, 2, 2, 2, 2, 3) is 0.0; the tensor's overflows
            ([6e307, -6e307, 6e307], 8),
            ([1e308, -1e308], 2),
        ],
    )
    def test_hand_cases(self, c, m):
        spec = CauchySpec(np.array(c), m)
        with np.errstate(over="ignore", invalid="ignore"):  # 1e308 partial sums overflow
            assert scan_outcome(scan, spec) == scan_outcome(loop_validate_spec, spec)

    def test_random_and_planted_specs(self, rng):
        rejected = 0
        for trial in range(600):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            if trial % 3 == 0:
                c = rng.uniform(-2.0, 2.0, size=n)
            elif trial % 3 == 1:
                # small grid values: many exact and near-exact zero sums
                c = rng.choice([0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0], size=n)
                c *= rng.choice([-1.0, 1.0], size=n)
            else:
                # plant a zero sum on one multiset, nudged by 0 to a few ulps
                c = rng.uniform(-2.0, 2.0, size=n)
                combo = np.sort(rng.integers(0, n, size=m))
                last = combo[-1]
                rest = float(c[combo[combo != last]].sum())
                c[last] = -rest / np.count_nonzero(combo == last)
                c[last] += rng.choice([0.0, 1e-16, -1e-16, 1e-15, -3e-15])
            spec = CauchySpec(c, m)
            expected = scan_outcome(loop_validate_spec, spec)
            rejected += expected is not None
            assert scan_outcome(scan, spec) == expected, (c, m)
            assert scan_outcome(materialize, spec) == expected, (c, m)
        assert 100 < rejected < 500


class TestMaterialize:
    def test_hand_example(self):
        tensor = materialize(CauchySpec(np.array([1.0, 2.0, 1.0]), 2))
        expected = [
            [1 / 2, 1 / 3, 1 / 2],
            [1 / 3, 1 / 4, 1 / 3],
            [1 / 2, 1 / 3, 1 / 2],
        ]
        assert np.allclose(tensor.data, expected, atol=1e-15)

    def test_constant_inverse_order_gives_all_ones(self):
        tensor = materialize(CauchySpec(np.full(4, 1.0 / 3.0), 3))
        assert np.allclose(tensor.data, 1.0, atol=1e-15)

    def test_singular_spec_raises(self):
        with pytest.raises(CauchySpecError):
            materialize(CauchySpec(np.array([1.0, -1.0]), 2))

    def test_non_finite_reciprocal_raises(self):
        # the multiset scan sees 1e308 + 1e308 overflow, but index
        # (1, 3, 1, 3) sums left to right to exactly 0
        spec = CauchySpec(np.array([1e308, 1e308, -1e308, -1e308]), 4)
        with np.errstate(over="ignore", invalid="ignore"):
            assert scan_outcome(scan, spec) is None
            with pytest.raises(CauchySpecError, match=r"0\.0 at index \(1, 3, 1, 3\)"):
                materialize(spec)

    @pytest.mark.parametrize(
        "c,m,message",
        [
            ([1e308, 1e308], 2, r"inf at index \(1, 1\) is not finite"),
            ([-1e308, -1e308], 2, r"-inf at index \(1, 1\) is not finite"),
            ([1e307, 1e308, 1e308], 3, r"inf at index \(1, 2, 2\) is not finite"),
        ],
    )
    def test_overflowing_sum_raises_without_warning(self, c, m, message):
        # 1/inf is 0, so an overflowed sum used to become a zero entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CauchySpecError, match=message):
                materialize(CauchySpec(np.array(c), m))

    @pytest.mark.parametrize("build", [materialize])
    def test_order_past_numpy_limit_raises_before_building(self, build):
        with pytest.raises(ValueError, match="exceeds the limit of 64 axes"):
            build(CauchySpec(np.array([1.0]), 1_000_000))

    @pytest.mark.parametrize("build", [materialize])
    def test_entry_cap_is_checked_before_building(self, build):
        # 2**40 sums would take 8 TiB; the cap refuses them up front
        with pytest.raises(ResourceLimitError, match="exceeding the cap"):
            build(CauchySpec(np.array([1.0, 2.0]), 40))

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 4), (4, 3)])
    def test_full_symmetry_under_permutations(self, m, n, rng):
        tensor = materialize(CauchySpec(rng.uniform(0.2, 3.0, size=n), m))
        for perm in itertools.permutations(range(m)):
            assert np.max(np.abs(np.transpose(tensor.data, perm) - tensor.data)) <= 1e-15


class TestPredicates:
    def test_centro_examples(self):
        assert cauchy_is_centro(CauchySpec(np.array([1.0, 2.0, 1.0]), 2))
        assert not cauchy_is_centro(CauchySpec(np.array([1.0, 2.0, 3.0]), 2))
        spec = CauchySpec(np.array([0.3, 0.7, 0.7, 0.3]), 2)
        assert cauchy_is_centro(spec)
        assert check_structure(materialize(spec)).is_centro

    def test_skew_vector_test_is_independent_of_materializability(self):
        # the vector predicate passes even though the entries do not exist
        assert cauchy_is_skew(CauchySpec(np.array([1.0, -1.0]), 2))
        with pytest.raises(CauchySpecError):
            materialize(CauchySpec(np.array([1.0, -1.0]), 2))
        assert cauchy_is_skew(CauchySpec(np.array([1.0, 2.0, -2.0, -1.0]), 2))
        with pytest.raises(CauchySpecError):
            materialize(CauchySpec(np.array([1.0, 2.0, -2.0, -1.0]), 2))

    def test_odd_dimension_is_never_skew(self, rng):
        assert not cauchy_is_skew(CauchySpec(np.array([1.0, 0.0, -1.0]), 2))
        for _ in range(50):
            n = int(rng.choice([3, 5]))
            c = rng.uniform(0.2, 3.0, size=n)
            # adversarial near-skew: mirror-negate all but the center
            c[n // 2 + 1 :] = -c[: n // 2][::-1]
            c[n // 2] = rng.uniform(-1e-6, 1e-6) + 0.5
            assert not cauchy_is_skew(CauchySpec(c, int(rng.integers(2, 5))))

    def test_materializable_skew_spec_classifies_skew(self):
        spec = CauchySpec(np.array([1.0, -1.0]), 3)
        assert cauchy_is_skew(spec)
        assert check_structure(materialize(spec)).is_skew


class TestExchangeProductCheck:
    def test_palindrome_passes_both_sides(self):
        assert cauchy_check_JC(CauchySpec(np.array([1.0, 2.0, 1.0]), 2))

    def test_non_palindrome_fails(self):
        assert not cauchy_check_JC(CauchySpec(np.array([1.0, 2.0, 3.0]), 2))

    def test_constant_vector_passes(self):
        assert cauchy_check_JC(CauchySpec(np.array([2.0, 2.0]), 3))

    def test_propagates_construction_error(self):
        with pytest.raises(CauchySpecError):
            cauchy_check_JC(CauchySpec(np.array([1.0, -1.0]), 2))


class TestEquivalenceChain:
    def test_predicates_match_tensor_verdicts(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            c = rng.uniform(0.2, 3.0, size=n)
            if trial % 2 == 0:
                c = palindromize(c)
            spec = CauchySpec(c, m)
            is_centro = cauchy_is_centro(spec, 1e-10)
            tensor = materialize(spec)
            report = check_structure(tensor, 1e-10 * max(1.0, float(np.max(np.abs(tensor.data)))))
            assert is_centro == report.is_centro
            assert cauchy_check_JC(spec, 1e-10) == is_centro


class TestPalindromize:
    def test_mirrors_leading_half(self):
        assert palindromize([1.0, 2.0, 3.0, 4.0]).tolist() == [1.0, 2.0, 2.0, 1.0]
        assert palindromize([1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 1.0]
        assert palindromize([5.0]).tolist() == [5.0]

    def test_output_is_symmetric(self, rng):
        c = palindromize(rng.uniform(-2, 2, size=7))
        assert np.array_equal(c, c[::-1])
