import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from centrotensor import DenseTensor
from centrotensor.serialize import dumps, spec_from_obj, tensor_from_obj

from oracles import format_value_oracle

special_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 0.1,
     float("inf"), float("-inf"), float("nan")]
)
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), special_floats)
float_lists = st.lists(floats, max_size=12)
leaves = st.one_of(
    floats,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.sampled_from('a"\\\né☃\U0001f600 '), max_size=6),
    floats.map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=4), elements=floats),
    float_lists,
    float_lists.map(tuple),
    st.just([]),
    st.just([1.0, True]),
    st.just([1.0, 2]),
    st.just([1.0, 2**60 + 1]),
    st.lists(st.one_of(floats, st.integers(-(2**70), 2**70), st.booleans()), max_size=6),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_matches_per_item_oracle(self, obj):
        assert dumps(obj) == format_value_oracle(obj)

    def test_float_list_bytes(self):
        text = dumps([0.1, -0.0, 5e-324, 1e16, float("inf"), float("nan")])
        assert text == "[0.10000000000000001, -0, 4.9406564584124654e-324, 10000000000000000, inf, nan]"

    def test_round_trip_is_exact(self, rng):
        tensor = DenseTensor(rng.normal(size=(4, 4, 4)))
        obj = json.loads(dumps({"order": 3, "dim": 4, "entries": tensor.entries.tolist()}))
        assert np.array_equal(tensor_from_obj(obj).data, tensor.data)

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="set"):
            dumps([1.0, {1.0}])


class TestReader:
    @pytest.mark.parametrize(
        "entries",
        [[1, 2, 3, 4], [1.5, -2.0, 0.0, 1e300], [1, 2.5, 3, -4.0],
         [np.float64(1.0), np.float64(2.0), np.float64(3.0), np.float64(4.0)]],
    )
    def test_accepts_numbers(self, entries):
        tensor = tensor_from_obj({"order": 2, "dim": 2, "entries": entries})
        assert tensor.entries.tolist() == [float(v) for v in entries]

    @pytest.mark.parametrize(
        "entries",
        [[1.0, 2.0, 3.0, True], [1.0, "2", 3.0, 4.0], [None, 2.0, 3.0, 4.0],
         [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 3.0, [4.0]], "1234", {"a": 1.0}],
    )
    def test_rejects_non_numbers(self, entries):
        with pytest.raises(ValueError, match=r"^key 'entries' must be a list of numbers$"):
            tensor_from_obj({"order": 2, "dim": 2, "entries": entries})

    def test_huge_integers_are_value_errors(self):
        huge = int("9" * 400)
        with pytest.raises(ValueError, match="too large for a float"):
            tensor_from_obj({"order": 1, "dim": 1, "entries": [huge]})
        with pytest.raises(ValueError, match="too large for a float"):
            spec_from_obj({"order": 2, "generating": [1.0, huge]})

    def test_order_past_numpy_limit_is_rejected(self):
        with pytest.raises(ValueError, match=r"^order 1000000 exceeds the limit of 64 axes$"):
            tensor_from_obj({"order": 1_000_000, "dim": 1, "entries": [1.0]})

    def test_absurd_order_is_a_count_mismatch(self):
        with pytest.raises(ValueError, match=r"^expected 2\*\*10000000 entries"):
            tensor_from_obj({"order": 10_000_000, "dim": 2, "entries": [1.0]})
