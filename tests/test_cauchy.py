import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from centrotensor import (
    CauchySpec,
    CauchySpecError,
    DenseTensor,
    ResourceLimitError,
    cauchy_check_JC,
    cauchy_is_centro,
    cauchy_is_skew,
    check_structure,
    check_via_J,
    materialize,
    palindromize,
)
from centrotensor import cauchy, core

from oracles import full_materialize, loop_validate_spec, reflection_within


def scan(spec):
    """The multiset scan alone: materialize, re-raising only the errors
    that name a multiset (every block is scanned before a reciprocal is
    judged)."""
    try:
        materialize(spec)
    except CauchySpecError as exc:
        if "multiset" in str(exc):
            raise


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

    # a sum below 1e-14 times the component scale (1 here) vanishes: a
    # sum at the bound is kept, the float below it is refused
    @pytest.mark.parametrize(
        "value,kept",
        [(1e-14, True), (-1e-14, True), (np.nextafter(1e-14, 0.0), False), (-np.nextafter(1e-14, 0.0), False)],
        ids=["at", "at-negative", "below", "below-negative"],
    )
    def test_near_zero_bound_is_1e_14(self, value, kept):
        spec = CauchySpec(np.array([value]), 1)
        if kept:
            assert materialize(spec).data.tolist() == [1.0 / value]
        else:
            with pytest.raises(CauchySpecError, match="below threshold 1e-14"):
                materialize(spec)

    @pytest.mark.parametrize("form", [np.array, list], ids=["array", "list"])
    def test_rejects_a_complex_vector(self, form):
        # numpy would drop an array's imaginary parts with a ComplexWarning
        # and refuse a list of complex values with a TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^generating vector must be real, got complex values$"):
                CauchySpec(form([1.0, 2 + 1j, 1.0]), 2)

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

    def test_spec_owns_its_vector(self):
        # a spec built on a view must not follow writes to the view's base,
        # nor make the caller's array read-only
        base = np.array([1.0, 2.0, 1.0, 4.0])
        spec = CauchySpec(base[:3], 2)
        assert cauchy_is_centro(spec)
        base[0] = 5.0
        assert spec.generating.tolist() == [1.0, 2.0, 1.0]
        assert cauchy_is_centro(spec)
        assert base.flags.writeable


HAND_CASES = [
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
]


def random_specs(rng):
    """600 random and planted specs of dims 1-6 and orders 1-5."""
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
        yield CauchySpec(c, m)


class TestScanAgainstLoopOracle:
    @pytest.mark.parametrize("c,m", HAND_CASES)
    def test_hand_cases(self, c, m):
        spec = CauchySpec(np.array(c), m)
        with np.errstate(over="ignore", invalid="ignore"):  # 1e308 partial sums overflow
            assert scan_outcome(scan, spec) == scan_outcome(loop_validate_spec, spec)

    def test_random_and_planted_specs(self, rng):
        rejected = 0
        for spec in random_specs(rng):
            c, m = spec.generating, spec.order
            expected = scan_outcome(loop_validate_spec, spec)
            rejected += expected is not None
            assert scan_outcome(scan, spec) == expected, (c, m)
            assert scan_outcome(materialize, spec) == expected, (c, m)
        assert 100 < rejected < 500


def build_outcome(build, spec):
    """(shape, entry bytes) of the built tensor, or the CauchySpecError
    message; a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = build(spec).data
        except CauchySpecError as exc:
            return str(exc)
    return data.shape, data.tobytes()


@pytest.fixture(params=["default", "small-blocks"])
def blocks(request, monkeypatch):
    """The default block size, or blocks of one row (five entries at most),
    so that every spec spans many blocks."""
    if request.param == "small-blocks":
        monkeypatch.setattr(cauchy, "_BLOCK", 5)


B = 1e308
POSITIVE = list(np.linspace(0.36, 0.44, 12) * B)

# Specs of several blocks at the default size: n = 12, m = 5 is 8 blocks of
# 2730 rows and n = 20, m = 4 is 5 blocks of 1638 rows, and at either size
# only sorted indices with a leading component of 17 or more (1-based) are
# in the last block.  At float-limit scale the threshold is 1e294.
SPANNING_BLOCKS = [
    # the only near-zero multiset, and the only overflowed sum, is the last index
    ([1.0] * 11 + [0.0], 5, r"index sum 0\.0 for multiset \(12, 12, 12, 12, 12\) is below"),
    ([0.3e308] * 11 + [0.36e308], 5, r"index sum inf at index \(12, 12, 12, 12, 12\) is not finite"),
    # (1, 3, 1, 3) sums to 0 in the first block, and the sorted (1, 1, 3, 3)
    # overflows, but the near-zero multiset of the last block wins
    ([B, B, -B, -B] + POSITIVE + [0.1 * B, 0.4 * B, 0.42 * B, -0.3 * B], 4,
     r"multiset \(17, 17, 17, 20\) is below"),
    # without that multiset, the zero sum wins over the overflowed (1, 1, 1, 1)
    ([B, B, -B, -B] + POSITIVE + [0.1 * B, 0.4 * B, 0.42 * B, 0.43 * B], 4,
     r"index sum 0\.0 at index \(1, 3, 1, 3\) has no finite reciprocal"),
    # an overflowed sum in the first block, (1, 17, 17, 1), and a zero sum in the last
    (POSITIVE + [0.38 * B, 0.39 * B, 0.41 * B, 0.43 * B] + [B, B, -B, -B], 4,
     r"index sum 0\.0 at index \(17, 19, 17, 19\) has no finite reciprocal"),
]


class TestBuildAgainstFullOracle:
    """materialize builds what the whole-array build did, bit for bit, and
    raises its messages, at the default block size and with tiny blocks."""

    @pytest.mark.parametrize("c,m", HAND_CASES)
    def test_hand_cases(self, c, m, blocks):
        spec = CauchySpec(np.array(c), m)
        assert build_outcome(materialize, spec) == build_outcome(full_materialize, spec)

    def test_random_and_planted_specs(self, rng, blocks):
        for spec in random_specs(rng):
            expected = build_outcome(full_materialize, spec)
            assert build_outcome(materialize, spec) == expected, (spec.generating, spec.order)

    @pytest.mark.parametrize("c,m,message", SPANNING_BLOCKS)
    def test_specs_spanning_blocks(self, c, m, message, blocks):
        spec = CauchySpec(np.array(c), m)
        outcome = build_outcome(materialize, spec)
        assert re.search(message, outcome)
        assert outcome == build_outcome(full_materialize, spec)

    def test_blocks_tile_the_result(self, blocks):
        spec = CauchySpec(np.linspace(0.5, 2.0, 12), 5)
        assert build_outcome(materialize, spec) == build_outcome(full_materialize, spec)

    def test_traced_peak_is_the_result(self):
        spec = CauchySpec(np.linspace(0.5, 2.0, 12), 5)
        materialize(spec)  # warm-up
        tracemalloc.start()
        try:
            nbytes = materialize(spec).data.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and the leading sums, 1/12 of it; the whole-array build
        # held 2.13 results
        assert peak <= 1.25 * nbytes


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


BIG = float(np.finfo(float).max)

# (generating vector, tol): deviations exactly at tol and one ulp past it,
# vectors within tol/2 of zero (centro and skew at once), components at
# the float limit, where a deviation overflows, and a zero tolerance
PREDICATE_TABLE = [
    ([1.0, 2.0, 1.0], None),
    ([1.0, 1.5], 0.5),
    ([1.0, 1.5], float(np.nextafter(0.5, 0.0))),
    ([1.0, -1.25], 0.25),
    ([1.0, -1.25], float(np.nextafter(0.25, 0.0))),
    ([1.0, 3.0, -1.25, 0.0], 1.25),
    ([1e-3, -2e-3, 5e-4, 1e-3], 4e-3),
    ([1e-3, -2e-3, 5e-4], 4e-3),
    ([1e-13, 1e-13], None),
    ([1e-13, -1e-13, 4e-13], None),
    ([1e308, -1e308], None),
    ([1e308, 1e308], None),
    ([BIG, -BIG], None),
    ([-BIG, BIG, BIG, -BIG], None),
    ([1e308, 0.0, -1e308], None),
    ([1e308, 0.0, 1e308], 0.0),
    ([1e308, 5e-324], 1e308),
    ([2.0, 2.0], 0.0),
    ([0.0, 0.0], 0.0),
    ([7.0], 0.0),
]


class TestPredicatesAgainstOracle:
    """check_structure of c is max |c -+ Jc| <= tol; the Cauchy predicates
    are that call at the default tolerance, the skew one at even n only."""

    @staticmethod
    def _agree(c, tol):
        vec = np.array(c, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_structure(DenseTensor(vec), tol)
            if tol is None:
                spec = CauchySpec(vec, 2)
                assert cauchy_is_centro(spec) == report.is_centro, c
                assert cauchy_is_skew(spec) == (report.is_skew and len(c) % 2 == 0), c
        assert report.is_centro == reflection_within(c, 1.0, tol), (c, tol)
        assert report.is_skew == reflection_within(c, -1.0, tol), (c, tol)
        return report.is_centro, report.is_skew

    @pytest.mark.parametrize("c,tol", PREDICATE_TABLE)
    def test_table(self, c, tol):
        self._agree(c, tol)

    def test_table_covers_each_outcome(self):
        outcomes = {self._agree(c, tol) for c, tol in PREDICATE_TABLE}
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_random_vectors_at_their_own_deviation(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 7))
            c = rng.uniform(-2.0, 2.0, size=n) * 10.0 ** rng.integers(-14, 4)
            c = rng.choice([c, palindromize(c), c - c[::-1]])
            c = c + rng.choice([0.0, 1e-13, 1e-6]) * rng.uniform(-1.0, 1.0, size=n)
            for sign in (1.0, -1.0):
                dev = float(np.max(np.abs(c - sign * c[::-1])))
                for tol in (None, dev, float(np.nextafter(dev, 0.0)), 2.0 * dev):
                    self._agree(c, tol)

    @pytest.mark.parametrize("check", [check_structure, check_via_J])
    @pytest.mark.parametrize("c", [[1.0, 2.0], [1.0, 2.0, 3.0], [1e308, -1e308]])
    @pytest.mark.parametrize(
        "tol,message",
        [
            (float("nan"), "tol must be finite and nonnegative, got nan"),
            (float("inf"), "tol must be finite and nonnegative, got inf"),
            (-1.0, "tol must be finite and nonnegative, got -1.0"),
            ("x", "tol must be a number, got 'x'"),
            ([1e-3], "tol must be a number, got [0.001]"),
        ],
    )
    def test_invalid_tolerance_messages(self, check, c, tol, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(DenseTensor(np.array(c)), tol)


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

    def test_order_one_spec_names_the_exchange_action(self):
        message = "the exchange action A*J needs a tensor of order >= 2, got order 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cauchy_check_JC(CauchySpec(np.array([1.0, 2.0, 1.0]), 1))


class TestEquivalenceChain:
    def test_predicates_match_tensor_verdicts(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            c = rng.uniform(0.2, 3.0, size=n)
            if trial % 2 == 0:
                c = palindromize(c)
            spec = CauchySpec(c, m)
            is_centro = cauchy_is_centro(spec)
            tensor = materialize(spec)
            report = check_structure(tensor, 1e-10 * max(1.0, float(np.max(np.abs(tensor.data)))))
            assert is_centro == report.is_centro
            assert cauchy_check_JC(spec) == is_centro


class TestPalindromize:
    def test_mirrors_leading_half(self):
        assert palindromize([1.0, 2.0, 3.0, 4.0]).tolist() == [1.0, 2.0, 2.0, 1.0]
        assert palindromize([1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 1.0]
        assert palindromize([5.0]).tolist() == [5.0]

    def test_output_is_symmetric(self, rng):
        c = palindromize(rng.uniform(-2, 2, size=7))
        assert np.array_equal(c, c[::-1])

    @pytest.mark.parametrize("shape", [(8,), (7,), (2, 2, 2), (3, 3), (3, 1), (1, 4), (2, 3), (1,), ()])
    def test_mirrors_the_flat_entries_of_any_shape(self, rng, shape):
        c = rng.uniform(-2, 2, size=shape)
        out = palindromize(c)
        assert out.shape == c.shape
        flat = c.reshape(-1)
        half = flat.size // 2
        want = np.concatenate([flat[: flat.size - half], flat[:half][::-1]])
        assert out.reshape(-1).tobytes() == want.tobytes()
        if len(set(shape)) == 1:
            assert check_structure(DenseTensor(out), 0.0).verdict in ("centrosymmetric", "both")
        assert check_structure(DenseTensor(out.reshape(-1)), 0.0).is_centro
        # the input is not written to
        assert c.reshape(-1).tobytes() == flat.tobytes()

    def test_vector_outputs_are_unchanged(self, rng):
        # the entries a 1-D input gave before any shape was accepted
        for n in range(1, 12):
            c = rng.uniform(-2, 2, size=n)
            old = c.copy()
            old[n - n // 2 :] = c[: n // 2][::-1]
            assert palindromize(c).tobytes() == old.tobytes()
            assert palindromize(c.tolist()).tobytes() == old.tobytes()


# Palindromic vectors, whose rows past the front half are mirrored, and
# vectors with equal ends that are not palindromes, which are built in full.
PALINDROME_CASES = [
    ([1.5], 3),
    ([0.5, 0.5], 4),
    ([0.5, 1.5, 0.5], 1),
    ([0.5, 1.5, 0.5], 3),
    ([0.7, 1.9, 1.9, 0.7], 4),
    ([0.3, 1.1, 2.0, 1.1, 0.3], 5),
    ([1.0, 2.0, 3.0, 1.0], 3),
    ([0.5, 1.0, 0.25, 2.0, 0.5], 4),
    # near-zero multisets, zero sums and overflow in a palindrome
    ([1.0, -1.0, -1.0, 1.0], 2),
    ([1.0, -0.5, 0.25, -0.5, 1.0], 3),
    ([-0.4780985174267056, 0.15936617247557022, -0.4780985174267056], 8),
    ([1e308, -1e308, -1e308, 1e308], 4),
    ([6e307, 6e307, 6e307], 8),
    ([0.3e308, 0.36e308, 0.3e308], 5),
]


class TestPalindromicBuild:
    """materialize of a palindromic c computes ceil(R/2) of its R rows and
    mirrors the others: the bits and errors of the whole-array build."""

    @pytest.mark.parametrize("c,m", PALINDROME_CASES)
    def test_bits_and_errors_of_the_full_build(self, c, m, blocks):
        spec = CauchySpec(np.array(c), m)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = build_outcome(full_materialize, spec)
        assert build_outcome(materialize, spec) == expected

    def test_random_palindromes(self, rng, blocks):
        for spec in random_specs(rng):
            spec = CauchySpec(palindromize(spec.generating), spec.order)
            assert build_outcome(materialize, spec) == build_outcome(full_materialize, spec)

    def test_an_anti_palindrome_is_built_in_full(self, monkeypatch, blocks):
        # the shared mirror test gives the sign bit for this c; the tensor is
        # skew only at even order, so only a palindrome may be mirrored
        c = np.array([1.0, 3.0, -3.0, -1.0])
        assert core._mirror_flip(c.view(np.uint64), cauchy._BLOCK) == np.uint64(1 << 63)
        spec = CauchySpec(c, 3)
        computed = []
        fill = cauchy._fill_block
        monkeypatch.setattr(cauchy, "_fill_block", lambda block, *rest: computed.append(len(block)) or fill(block, *rest))
        got = build_outcome(materialize, spec)
        assert sum(computed) == 16
        assert got == build_outcome(full_materialize, spec)
        assert not check_structure(materialize(spec)).is_centro

    @pytest.mark.parametrize("c,m,rows", [
        ([0.7, 1.9, 1.9, 0.7], 4, 32), ([0.5, 1.5, 0.5], 4, 14), ([0.5, 1.0, 1.5, 0.5], 3, 16),
    ])
    def test_rows_computed(self, monkeypatch, c, m, rows):
        computed = []
        fill = cauchy._fill_block
        monkeypatch.setattr(cauchy, "_fill_block", lambda block, *rest: computed.append(len(block)) or fill(block, *rest))
        materialize(CauchySpec(np.array(c), m))
        assert sum(computed) == rows
