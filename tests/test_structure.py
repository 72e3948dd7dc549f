import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrotensor import (
    BOTH,
    CENTRO,
    NEITHER,
    SKEW,
    CauchySpec,
    DenseTensor,
    add,
    check_commutation,
    check_structure,
    check_via_J,
    decompose,
    hadamard,
    materialize,
    random_structured,
    row_sums,
    shao_product,
    verify_poly_reflection,
    verify_row_sum_symmetry,
)
from centrotensor import core, structure

from oracles import full_structure_report, index_mirror_structured


class TestCheckStructure:
    def test_centro_matrix(self, sym_matrix):
        report = check_structure(sym_matrix)
        assert report.verdict == CENTRO
        assert report.max_violation == 0.0

    def test_skew_matrix(self, skew_matrix):
        assert check_structure(skew_matrix).verdict == SKEW

    def test_neither_matrix(self):
        report = check_structure(DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert report.verdict == NEITHER
        assert report.max_violation == 3.0  # |1 - 4| beats every other centro gap

    def test_zero_tensor_is_both(self):
        report = check_structure(DenseTensor.zeros(3, 3))
        assert report.verdict == BOTH
        assert report.is_centro and report.is_skew

    def test_worst_index_is_one_based(self):
        report = check_structure(DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert report.worst_index in ((1, 1), (2, 2))

    def test_negative_tolerance_rejected(self, sym_matrix):
        with pytest.raises(ValueError):
            check_structure(sym_matrix, -1.0)

    def test_as_dict_schema(self, sym_matrix):
        obj = check_structure(sym_matrix).as_dict()
        assert set(obj) == {"verdict", "max_violation", "worst_index", "tolerance_used"}


class TestWitnessPaths:
    def test_sandwich_identity_is_centro(self):
        assert check_via_J(DenseTensor.identity(3, 3)).verdict == CENTRO

    def test_sandwich_skew_example(self, skew_matrix):
        # J A J for A = diag(1, -1) flips the diagonal: equals -A.
        j = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(j @ skew_matrix.data @ j, -skew_matrix.data)
        assert check_via_J(skew_matrix).verdict == SKEW

    def test_commutation_on_materialized_cauchy(self):
        tensor = materialize(CauchySpec(np.array([1.0, 2.0, 1.0]), 2))
        assert check_commutation(tensor).verdict == CENTRO

    def test_commutation_skew_example(self, skew_matrix):
        aj = skew_matrix.data @ np.array([[0.0, 1.0], [1.0, 0.0]])
        assert aj.tolist() == [[0.0, 1.0], [-1.0, 0.0]]
        assert check_commutation(skew_matrix).verdict == SKEW

    def test_commutation_zero_tensor(self):
        assert check_commutation(DenseTensor.zeros(2, 3)).verdict == BOTH

    @pytest.mark.parametrize("kind", ["centro", "skew", "general"])
    def test_three_paths_agree(self, kind, rng):
        for _ in range(40):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 6))
            a = random_structured(order, dim, kind, rng)
            v = check_structure(a).verdict
            assert check_via_J(a).verdict == v
            assert check_commutation(a).verdict == v

    def test_order_one_rejected_by_product_paths(self):
        vec = DenseTensor(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            check_via_J(vec)
        with pytest.raises(ValueError):
            check_commutation(vec)


class TestDecompose:
    def test_hand_example(self):
        parts = decompose(DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert parts.centro.data.tolist() == [[2.5, 2.5], [2.5, 2.5]]
        assert parts.skew.data.tolist() == [[-1.5, -0.5], [0.5, 1.5]]

    def test_centro_input_has_zero_skew_part(self, sym_matrix):
        parts = decompose(sym_matrix)
        assert np.all(parts.skew.data == 0.0)

    def test_skew_input_has_zero_centro_part(self, skew_matrix):
        parts = decompose(skew_matrix)
        assert np.all(parts.centro.data == 0.0)

    @given(
        st.integers(2, 4),
        st.integers(2, 4),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_and_reconstruction(self, order, dim, seed):
        a = random_structured(order, dim, "general", seed)
        parts = decompose(a)
        scale_a = max(1.0, float(np.max(np.abs(a.data))))
        assert check_structure(parts.centro, 1e-13 * scale_a).is_centro
        assert check_structure(parts.skew, 1e-13 * scale_a).is_skew
        err = np.max(np.abs(add(parts.centro, parts.skew).data - a.data))
        assert err <= 1e-14 * scale_a


def _planted(order, dim, seed, values, kind="general"):
    """A random_structured tensor of this kind, or the zero tensor, with values
    planted at flat offsets: {offset: value}."""
    base = DenseTensor.zeros(order, dim) if kind == "zero" else random_structured(order, dim, kind, seed)
    flat = base.entries.copy()
    for offset, value in values.items():
        flat[offset] = value
    return DenseTensor.from_entries(order, dim, flat)


def _streamed_inputs(order, dim, case):
    size = dim**order
    block = structure._BLOCK
    if case in ("centro", "skew", "general"):
        return random_structured(order, dim, case, seed=size)
    if case == "zero":
        return DenseTensor.zeros(order, dim)
    if case == "integer":  # ties everywhere
        return DenseTensor(np.round(3 * random_structured(order, dim, "general", size).data))
    if case == "last-block":
        return _planted(order, dim, size, {size - 1: 5.0})
    # the same worst deviation in two blocks, or twice in one block
    return _planted(order, dim, size, {1: 5.0, min(block + 1, size - 2): 5.0})


def _witness_operands(witness, data):
    """The pair each witness compares, built by flips: J realizes a reversal."""
    if witness == "check_structure":
        return data, np.flip(data)
    if witness == "check_via_J":
        return np.flip(data), data
    return np.flip(data, axis=tuple(range(1, data.ndim))), np.flip(data, axis=0)


_STREAM_CASES = ["centro", "skew", "general", "zero", "integer", "last-block", "two-peaks"]


class TestStreamedCompare:
    """Reports and splits equal the full-array computation bit for bit."""

    # 1000 entries: one block; 38,416 and 59,049: two; 83,521: three
    @pytest.mark.parametrize("order,dim", [(3, 10), (4, 14), (5, 9), (4, 17)])
    @pytest.mark.parametrize("case", _STREAM_CASES)
    def test_reports_equal_the_full_array_oracle(self, order, dim, case):
        self._check_reports(_streamed_inputs(order, dim, case))

    @pytest.mark.parametrize("case", _STREAM_CASES)
    def test_many_short_blocks(self, case, monkeypatch):
        # 64 entries in blocks of 5: thirteen blocks, the last one short
        monkeypatch.setattr(structure, "_BLOCK", 5)
        a = _streamed_inputs(3, 4, case)
        self._check_reports(a)
        self._check_split(a)

    @staticmethod
    def _check_reports(a):
        for witness in ("check_structure", "check_via_J", "check_commutation"):
            x, y = _witness_operands(witness, a.data)
            for tol in (0.0, None, 10.0):
                used = structure.default_tolerance(a) if tol is None else tol
                got = getattr(structure, witness)(a, tol).as_dict()
                assert got == full_structure_report(x, y, used).as_dict(), (witness, tol)

    @staticmethod
    def _check_split(a):
        parts = decompose(a)
        rev = np.flip(a.data)
        assert parts.centro.data.tobytes() == ((a.data + rev) * 0.5).tobytes()
        assert parts.skew.data.tobytes() == ((a.data - rev) * 0.5).tobytes()

    @pytest.mark.parametrize("order,dim", [(3, 10), (4, 14), (5, 9), (4, 17)])
    @pytest.mark.parametrize("case", ["general", "integer", "last-block"])
    def test_split_equals_the_full_array_formula(self, order, dim, case):
        self._check_split(_streamed_inputs(order, dim, case))

    @pytest.mark.parametrize("entries", [[1e308] * 4, [1e308, -1e308, 1e308, 1e308]])
    def test_split_near_the_float_limit_is_finite_and_exact(self, entries):
        a = DenseTensor.from_entries(2, 2, entries)
        parts = decompose(a)
        assert np.array_equal(parts.centro.data + parts.skew.data, a.data)
        assert check_structure(parts.centro).is_centro and check_structure(parts.skew).is_skew

    def test_overflowing_deviation_is_reported_as_null(self):
        a = DenseTensor.from_entries(2, 2, [1e308, -1e308, 1e308, 1e308])
        report = check_structure(a)
        assert report.verdict == NEITHER and math.isinf(report.max_violation)
        assert report.worst_index == (1, 2)
        assert report.as_dict()["max_violation"] is None

    def test_traced_peak_memory(self):
        a = random_structured(4, 40, "general", seed=0)
        peaks = {}
        for fn in (check_structure, check_via_J, check_commutation, decompose):
            fn(a)  # warm-up
            tracemalloc.start()
            try:
                fn(a)
                peaks[fn.__name__] = tracemalloc.get_traced_memory()[1] / a.data.nbytes
            finally:
                tracemalloc.stop()
        # the witnesses compare views of A through two buffers of one block
        assert peaks["check_structure"] < 0.05
        assert peaks["check_via_J"] < 0.05
        assert peaks["check_commutation"] < 0.05
        # the two parts
        assert peaks["decompose"] <= 2.25


# Each witness scans the first ceil(N/2) entries, or ceil(n/2) rows, of a
# deviation array that reads the same backwards.  Every case here has a
# report that a scan stopping at floor(N/2) entries or floor(n/2) rows
# gets wrong for at least one witness.
_HALF_SCAN_CASES = {
    # the only skew deviation at the centre entry of an odd N, which is
    # also in the middle row
    "centre entry, order 3": lambda: _planted(3, 5, 5, {62: 5.0}, "skew"),
    "centre entry, order 2": lambda: _planted(2, 3, 3, {4: 5.0}, "skew"),
    # the only centro deviations in the middle row, off the centre entry
    "middle row, order 3": lambda: _planted(3, 5, 5, {2 * 25 + 3: 5.0}, "centro"),
    "middle row, order 2": lambda: _planted(2, 3, 3, {3: 5.0}, "centro"),
    # the largest deviation at offsets 1 and 3 and at their mirrors
    "ties across the halves, order 2": lambda: _planted(2, 4, 4, {14: 5.0, 3: 5.0}, "zero"),
    "ties across the halves, order 4": lambda: _planted(4, 3, 3, {79: 5.0, 3: -5.0}, "zero"),
    "dim 1, -0.0": lambda: DenseTensor.from_entries(2, 1, [-0.0]),
    "dim 1, order 3": lambda: DenseTensor.from_entries(3, 1, [2.0]),
    "order 2, even dim": lambda: random_structured(2, 4, "general", seed=4),
    "order 2, odd dim": lambda: random_structured(2, 5, "general", seed=5),
}


class TestHalfScan:
    """Reports read from the first half equal the full-array oracle on its edge inputs."""

    @pytest.mark.parametrize("block", ["default", "5", "less than one row"])
    @pytest.mark.parametrize("case", _HALF_SCAN_CASES)
    def test_reports_equal_the_full_array_oracle(self, case, block, monkeypatch):
        a = _HALF_SCAN_CASES[case]()
        if block == "5":
            monkeypatch.setattr(structure, "_BLOCK", 5)
        elif block == "less than one row":
            monkeypatch.setattr(structure, "_BLOCK", max(1, a.dim ** (a.order - 1) - 1))
        TestStreamedCompare._check_reports(a)


class TestOneBlockCompare:
    """Up to one block and one entry past it, _compare's report equals the full-array oracle."""

    SIZES = [1, 2, 3, 7, 64, 1000, structure._BLOCK - 1, structure._BLOCK, structure._BLOCK + 1]

    @staticmethod
    def _operands(size, case, rng):
        if case == "ties":  # integers: ties and exact zeros everywhere
            x = rng.integers(-2, 3, size).astype(float)
        elif case == "zeros":
            x = np.zeros(size)
        else:  # deviations that overflow at +-1e308 among ordinary ones
            x = rng.uniform(-1.0, 1.0, size)
            x[rng.random(size) < 0.2] = 1e308
            x[rng.random(size) < 0.2] = -1e308
        return x, rng.permutation(x) if case == "ties" else x[::-1]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("case", ["ties", "zeros", "limit"])
    def test_same_extremes_and_report_as_the_loop(self, size, case, rng):
        x, y = self._operands(size, case, rng)
        for tol in (0.0, 1.0, 10.0):
            with np.errstate(over="ignore"):
                want = full_structure_report(x, np.ascontiguousarray(y), tol)
            assert structure._compare(x, y, tol) == want, tol


def _mirrored(order, dim, front, sign=1.0):
    """The tensor whose first floor(N/2) flat entries are front's, mirrored
    onto the back times sign; an odd N's centre entry is front's next one."""
    flat = np.zeros(dim**order)
    half = flat.size // 2
    flat[: flat.size - half] = front
    flat[flat.size - half :] = sign * flat[:half][::-1]
    return DenseTensor.from_entries(order, dim, flat)


_BIG = 0.75 * np.finfo(float).max  # doubling it overflows

# Each case names its default-tolerance verdict.  The exactly centro or
# skew ones read the scale off the scan; the others fall back to
# default_tolerance, some with a deviation that overflows.
_SCALE_CASES = {
    "exact centro, max 7.5": (lambda: _mirrored(3, 4, np.linspace(-7.5, 3.0, 32)), CENTRO),
    "exact skew, odd N, max 7.5": (lambda: _mirrored(3, 5, np.r_[np.linspace(3.0, -7.5, 62), 0.0], -1.0), SKEW),
    "zero": (lambda: DenseTensor.zeros(3, 3), BOTH),
    "centro past DBL_MAX/2": (lambda: _mirrored(2, 2, [_BIG, 1.0]), CENTRO),
    "skew past DBL_MAX/2": (lambda: _mirrored(2, 3, [1.0, -_BIG, 2.0, 0.0, 0.0], -1.0), SKEW),
    # both, as every deviation is far below the tolerance
    "centro, subnormal only": (lambda: _mirrored(2, 3, [5e-324, -1e-320, 0.0, 2e-322, 7e-323]), BOTH),
    "skew, subnormal only": (lambda: _mirrored(2, 2, [5e-324, -1e-320], -1.0), BOTH),
    "+0.0 and -0.0 pairs": (lambda: DenseTensor.from_entries(2, 2, [0.0, -0.0, 0.0, -0.0]), BOTH),
    "odd-N skew, centre within the tolerance": (
        lambda: _mirrored(3, 3, np.r_[np.linspace(-4.0, 4.0, 13), 1e-12], -1.0), SKEW),
    "odd-N skew, centre past the tolerance": (
        lambda: _mirrored(3, 3, np.r_[np.linspace(-4.0, 4.0, 13), 2.0], -1.0), NEITHER),
    # the largest entry off its mirror by less than the tolerance
    "near centro at the largest entry": (lambda: DenseTensor.from_entries(2, 2, [3.0 + 5e-13, 1.0, 1.0, 3.0]), CENTRO),
    "general": (lambda: DenseTensor(6.0 * random_structured(3, 4, "general", seed=8).data), NEITHER),
    "dim 1": (lambda: DenseTensor.from_entries(3, 1, [-4.0]), CENTRO),
    "dim 1, -0.0": (lambda: DenseTensor.from_entries(2, 1, [-0.0]), BOTH),
    "order 1, centro": (lambda: DenseTensor.from_entries(1, 3, [3.0, -2.0, 3.0]), CENTRO),
    "order 1, skew": (lambda: DenseTensor.from_entries(1, 4, [3.0, -2.0, 2.0, -3.0]), SKEW),
}

# the exchange witnesses refuse order 1
_SCALE_PANEL = [
    (case, witness)
    for case, (build, _) in _SCALE_CASES.items()
    for witness in ("check_structure", "check_via_J", "check_commutation")
    if witness == "check_structure" or build().order > 1
]


class TestScaleFromTheScan:
    """Without a tol, each witness uses default_tolerance(A) to the bit, and reads
    its scale off its own scan when A is exactly centro or skew."""

    @pytest.mark.parametrize("case,witness", _SCALE_PANEL)
    def test_tolerance_is_the_default_to_the_bit(self, case, witness):
        build, verdict = _SCALE_CASES[case]
        a = build()
        report = getattr(structure, witness)(a)
        assert float.hex(report.tolerance_used) == float.hex(structure.default_tolerance(a))
        assert report.verdict == verdict
        with np.errstate(over="ignore"):
            assert report == full_structure_report(*_witness_operands(witness, a.data), report.tolerance_used)

    @pytest.mark.parametrize("witness", ["check_structure", "check_via_J", "check_commutation"])
    @pytest.mark.parametrize(
        "case,calls",
        [("exact centro, max 7.5", 0), ("exact skew, odd N, max 7.5", 0), ("zero", 0),
         ("centro past DBL_MAX/2", 1), ("general", 1)],
    )
    def test_entry_scale_runs_only_where_the_scan_cannot_tell(self, case, calls, witness, monkeypatch):
        a = _SCALE_CASES[case][0]()
        scans, entry_scale = [], structure.entry_scale
        monkeypatch.setattr(structure, "entry_scale", lambda t: scans.append(1) or entry_scale(t))
        getattr(structure, witness)(a)
        assert len(scans) == calls
        getattr(structure, witness)(a, 1e-9)
        assert len(scans) == calls


class TestRandomStructured:
    def test_same_seed_is_identical(self):
        a = random_structured(3, 4, "skew", seed=99)
        b = random_structured(3, 4, "skew", seed=99)
        assert np.array_equal(a.data, b.data)

    def test_centro_generator_has_zero_violation(self):
        report = check_structure(random_structured(3, 4, "centro", seed=1))
        assert report.verdict == CENTRO
        assert report.max_violation == 0.0

    @pytest.mark.parametrize("order,dim", [(2, 3), (3, 3), (3, 5), (4, 5)])
    def test_skew_odd_dim_central_entry_is_zero(self, order, dim):
        a = random_structured(order, dim, "skew", seed=7)
        center = (dim - 1) // 2
        assert a.data[(center,) * order] == 0.0
        r = row_sums(a)
        assert abs(r[center]) <= 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            random_structured(2, 2, "diagonal", seed=0)

    @pytest.mark.parametrize("kind", ["centro", "skew", "general"])
    def test_bytes_match_the_index_mirror_oracle(self, kind):
        negative_zero_centres = 0
        for order in range(1, 6):
            for dim in range(1, 8):
                for seed in (0, 1, 7, 123, 2024):
                    a = random_structured(order, dim, kind, seed=seed).data
                    expected = index_mirror_structured(order, dim, kind, seed)
                    assert a.tobytes() == expected.tobytes(), (order, dim, seed)
                    centre = a.reshape(-1)[a.size // 2]
                    negative_zero_centres += bool(dim % 2 and centre == 0 and np.signbit(centre))
        # the sign of a zero centre is part of the bytes compared above
        assert (negative_zero_centres > 0) == (kind == "skew")


# tol is the default tolerance of a tensor whose entries are at most 1 in size
_TOL = structure.DEFAULT_TOL_FACTOR


@pytest.mark.parametrize(
    "data,verdict",
    [
        (random_structured(3, 3, "centro", seed=1).data, CENTRO),
        (random_structured(3, 4, "skew", seed=2).data, SKEW),
        (np.zeros((2, 2, 2)), BOTH),
        (random_structured(2, 3, "general", seed=3).data, NEITHER),
        # deviations of exactly the tolerance still pass
        (np.array([[_TOL, 0.0], [0.0, 0.0]]), BOTH),
        (np.array([[1.0, _TOL], [0.0, 1.0]]), CENTRO),
        (np.array([[1.0, _TOL], [0.0, -1.0]]), SKEW),
        (np.array([[2 * _TOL, 0.0], [0.0, 0.0]]), NEITHER),
    ],
)
def test_reflection_sign_follows_the_structure_verdict(data, verdict):
    a = DenseTensor(data)
    assert check_structure(a).verdict == verdict
    if verdict == NEITHER:
        with pytest.raises(ValueError):
            structure.reflection_sign(a)
    else:
        assert structure.reflection_sign(a) == (-1.0 if verdict == SKEW else 1.0)


def test_reflection_sign_is_silent_when_a_deviation_overflows():
    # flat - rev overflows for this skew tensor; it must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert structure.reflection_sign(DenseTensor([[1e308, 1e308], [-1e308, -1e308]])) == -1.0


class TestReflectionSignMap:
    """reflection_sign scans each tensor once; check_structure scans every call."""

    def test_the_map_holds_no_tensor_alive(self):
        a = random_structured(3, 3, "skew", seed=33)
        assert structure.reflection_sign(a) == -1.0
        assert a in structure._SIGNS
        gone = weakref.ref(a)
        del a
        gc.collect()
        assert gone() is None
        # a dead key's entry leaves the map with its tensor
        assert all(key() is not None for key in list(structure._SIGNS.data))

    def test_a_tensor_that_is_neither_raises_on_every_call(self, monkeypatch):
        a = random_structured(2, 3, "general", seed=3)
        scans, compare = [], structure._compare
        monkeypatch.setattr(structure, "_compare", lambda *args: scans.append(1) or compare(*args))
        for _ in range(3):
            with pytest.raises(ValueError, match="neither centro nor skew"):
                structure.reflection_sign(a)
        assert a not in structure._SIGNS
        assert len(scans) == 3

    def test_check_structure_still_scans_every_call(self, monkeypatch):
        a = random_structured(3, 3, "centro", seed=33)
        structure.reflection_sign(a)
        scans, compare = [], structure._compare
        monkeypatch.setattr(structure, "_compare", lambda *args: scans.append(1) or compare(*args))
        assert check_structure(a) == check_structure(a)
        assert len(scans) == 2


class TestEntryCap:
    """Every constructor refuses more than the entry cap before allocating."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_structured(3, 3, "centro", seed=0),
            lambda: random_structured(3, 3, "general", seed=0),
            lambda: DenseTensor.zeros(3, 3),
            lambda: DenseTensor.diagonal(3, np.ones(3)),
            lambda: DenseTensor.identity(3, 3),
            # operands built before the cap is lowered, so the product refuses
            lambda a=DenseTensor.zeros(2, 3), b=DenseTensor.zeros(3, 3): shao_product(a, b),
        ],
    )
    def test_over_the_cap_is_refused(self, build, monkeypatch):
        build()
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 26)
        with pytest.raises(core.ResourceLimitError, match="27 entries, exceeding the cap 26"):
            build()

    @pytest.mark.parametrize(
        "build", [DenseTensor.zeros, DenseTensor.identity, random_structured]
    )
    def test_refused_before_allocating(self, build):
        # 4**40 entries overflow numpy's size type, so numpy itself would
        # refuse them without allocating; the cap must speak first
        with pytest.raises(core.ResourceLimitError, match="exceeding the cap"):
            build(40, 4)


class TestRowSumSymmetry:
    def test_random_centro(self):
        ok, witness = verify_row_sum_symmetry(random_structured(3, 4, "centro", seed=3), "centro")
        assert ok and witness is None

    def test_random_skew_odd_dim(self):
        a = random_structured(2, 3, "skew", seed=5)
        ok, witness = verify_row_sum_symmetry(a, "skew")
        assert ok and witness is None
        assert abs(row_sums(a)[1]) <= 1e-12

    def test_forced_assumption_yields_witness(self):
        a = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        ok, witness = verify_row_sum_symmetry(a, assume="centro")
        assert not ok
        assert witness == 1  # r = (3, 7)

    def test_unclassified_requires_assume(self):
        # r = (3, 7) reflects with neither sign; nothing is guessed for it
        a = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(TypeError):
            verify_row_sum_symmetry(a)
        assert verify_row_sum_symmetry(a, assume="centro") == (False, 1)
        assert verify_row_sum_symmetry(a, assume="skew") == (False, 1)

    def test_rejects_unknown_assumption(self):
        a = DenseTensor(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="^assume must be 'centro' or 'skew'$"):
            verify_row_sum_symmetry(a, assume="x")

    def test_skew_centre_row_alone_is_the_witness(self):
        # r = (1, 0.5, -1): only the centre row breaks r_i = -r_{n-i+1}
        a = DenseTensor(np.array([[0.0, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, -1.0, 0.0]]))
        assert verify_row_sum_symmetry(a, assume="skew") == (False, 2)

    def test_overflowing_row_sum_is_refused_not_passed(self):
        # both row sums are inf, which once compared as NaN and passed
        a = DenseTensor([[1e308, 1e308], [1e308, 1.7e308]])
        assert check_structure(a).verdict == NEITHER
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row sum 1 overflows float64"):
                verify_row_sum_symmetry(a, assume="centro")

    def test_overflowing_reflection_deviation_fails_silently(self):
        # finite row sums (1.7e308, -1.7e308) whose centro deviation is inf
        a = DenseTensor([[1.7e308, 0.0], [-1.7e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_row_sum_symmetry(a, assume="centro") == (False, 1)
            assert verify_row_sum_symmetry(a, assume="skew") == (True, None)


class TestPolyReflection:
    def test_centro_hand_values(self, sym_matrix):
        # f(x) = f(Jx) = 14 at x = (1, 2).
        from centrotensor import flip_vector, poly_eval

        x = np.array([1.0, 2.0])
        assert poly_eval(sym_matrix, x) == 14.0
        assert poly_eval(sym_matrix, flip_vector(x)) == 14.0
        assert verify_poly_reflection(sym_matrix, trials=25, seed=0)

    def test_skew_hand_values(self, skew_matrix):
        from centrotensor import flip_vector, poly_eval

        x = np.array([1.0, 2.0])
        assert poly_eval(skew_matrix, x) == -3.0
        assert poly_eval(skew_matrix, flip_vector(x)) == 3.0
        assert verify_poly_reflection(skew_matrix, trials=25, seed=0)

    def test_palindromic_argument_is_fixed_point(self, rng):
        from centrotensor import flip_vector, poly_eval

        a = random_structured(3, 3, "general", rng)
        x = np.array([0.4, -2.0, 0.4])
        assert poly_eval(a, x) == poly_eval(a, flip_vector(x))

    def test_neither_tensor_rejected(self):
        with pytest.raises(ValueError):
            verify_poly_reflection(DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]])))

    @pytest.mark.parametrize("kind", ["centro", "skew"])
    def test_random_structured_tensors(self, kind, rng):
        for _ in range(20):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 6))
            a = random_structured(order, dim, kind, rng)
            assert verify_poly_reflection(a, trials=10, seed=rng)

    # trials rounded up to whole 8-row blocks times n^(m-1) entries (n at
    # order 1), the bound solve_eigen caps its starts by: 8 and 9 trials sit
    # on either side of a block edge
    @pytest.mark.parametrize(
        "m,n,trials,entries",
        [(3, 4, 1000, 16000), (3, 4, 8, 128), (3, 4, 9, 256), (2, 3, 9, 48), (1, 3, 9, 48)],
    )
    def test_stack_over_the_cap_is_refused_before_drawing(self, m, n, trials, entries, monkeypatch):
        a = random_structured(m, n, "centro", seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", entries - 1)
        with pytest.raises(core.ResourceLimitError, match=f"{entries} entries, exceeding"):
            verify_poly_reflection(a, trials=trials, seed=rng)
        assert rng.bit_generator.state == state
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", entries)
        assert verify_poly_reflection(a, trials=trials, seed=rng)

    # |f(Jx) - f(x)| against the bound 1e-10 * max(1, |f(x)|), at f(x) = 0
    # and at f(x) = 2^20, where the bound is 1e-10 * 2^20 exactly: a
    # difference at or just inside the bound passes, one ulp past it fails
    @pytest.mark.parametrize(
        "fx,gap,passes",
        [
            (0.0, 1e-10, True),
            (0.0, np.nextafter(1e-10, 1.0), False),
            (2.0**20, math.floor(1e-10 * 2**52) * 2.0**-32, True),
            (2.0**20, (math.floor(1e-10 * 2**52) + 1) * 2.0**-32, False),
        ],
    )
    def test_sample_bound_is_pinned(self, fx, gap, passes, monkeypatch):
        values = iter([np.array([fx]), np.array([fx + gap])])
        monkeypatch.setattr(structure, "contract_trailing", lambda data, xs, count: next(values))
        assert verify_poly_reflection(random_structured(3, 3, "centro", seed=0), trials=1) is passes

    @pytest.mark.parametrize("trials", [0, 1, 7])
    def test_generator_state_matches_per_trial_draws(self, trials):
        a = random_structured(3, 4, "centro", seed=5)
        used, reference = np.random.default_rng(9), np.random.default_rng(9)
        verify_poly_reflection(a, trials=trials, seed=used)
        for _ in range(trials):
            reference.uniform(-1.0, 1.0, size=a.dim)
        assert used.bit_generator.state == reference.bit_generator.state


class TestHadamardParity:
    @pytest.mark.parametrize(
        "kind_a,kind_b,expect_centro",
        [("centro", "centro", True), ("skew", "skew", True), ("centro", "skew", False)],
    )
    def test_parity_table(self, kind_a, kind_b, expect_centro, rng):
        for _ in range(15):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 6))
            a = random_structured(order, dim, kind_a, rng)
            b = random_structured(order, dim, kind_b, rng)
            report = check_structure(hadamard(a, b), 1e-12)
            assert report.is_centro if expect_centro else report.is_skew


def _halves_split(a):
    """(A + A^rev)/2 and (A - A^rev)/2 as sums of the halves A/2 and A^rev/2,
    whole-array: the split decompose makes once per pair (q, N-1-q)."""
    half, half_rev = a.entries * 0.5, a.entries[::-1] * 0.5
    return half + half_rev, half - half_rev


# orders 1-5, odd and even entry counts, and 2 _BLOCK +- 1 entries
_SPLIT_PANEL = (
    [(1, d) for d in (1, 2, 3, 2 * structure._BLOCK - 1, 2 * structure._BLOCK, 2 * structure._BLOCK + 1)]
    + [(m, d) for m in (2, 3, 4, 5) for d in (1, 2, 3, 4, 5)]
    + [(2, 41), (3, 20), (3, 17), (4, 16), (5, 9)]
)


class TestMirroredSplit:
    """decompose gives the bits of (A +- A^rev)/2 taken as halves, splitting
    each pair once, at the default block size and at blocks of five entries."""

    @pytest.fixture(params=["default", "blocks-of-5"])
    def block(self, request, monkeypatch):
        if request.param == "blocks-of-5":
            monkeypatch.setattr(structure, "_BLOCK", 5)

    @pytest.mark.parametrize("order,dim", _SPLIT_PANEL)
    @pytest.mark.parametrize("kind", ["general", "centro", "skew"])
    def test_bits_of_the_halves(self, block, order, dim, kind):
        a = random_structured(order, dim, kind, seed=order * 100 + dim)
        flat = a.entries.copy()
        rng = np.random.default_rng(dim)
        # signed zeros, and pairs equal to their mirror
        flat[rng.integers(flat.size, size=3)] = (0.0, -0.0, -0.0)
        q = rng.integers(flat.size, size=3)
        flat[flat.size - 1 - q] = flat[q]
        a = DenseTensor.from_entries(order, dim, flat)
        parts = decompose(a)
        centro, skew = _halves_split(a)
        assert parts.centro.entries.tobytes() == centro.tobytes()
        assert parts.skew.entries.tobytes() == skew.tobytes()

    @pytest.mark.parametrize("size", [4, 5])
    def test_an_equal_pair_has_a_positive_zero_skew_part_at_both_ends(self, block, size):
        flat = np.arange(1.0, size + 1.0)
        flat[0] = flat[-1] = 0.75
        skew = decompose(DenseTensor.from_entries(1, size, flat)).skew.entries
        assert skew[0] == skew[-1] == 0.0
        assert not np.signbit(skew[0]) and not np.signbit(skew[-1])

    def test_skew_input_with_a_signed_zero_middle(self, block):
        for middle in (0.0, -0.0):
            flat = np.array([0.5, -0.25, middle, 0.25, -0.5])
            parts = decompose(DenseTensor.from_entries(1, 5, flat))
            centro, skew = _halves_split(DenseTensor.from_entries(1, 5, flat))
            assert parts.centro.entries.tobytes() == centro.tobytes()
            assert parts.skew.entries.tobytes() == skew.tobytes()
