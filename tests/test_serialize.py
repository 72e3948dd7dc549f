import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from centrotensor import DenseTensor, check_structure
from centrotensor.serialize import dumps, loads, spec_from_obj, tensor_from_obj, tensor_to_obj

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

    def test_writes_tensors_and_as_dict_objects_at_any_depth(self, sym_matrix):
        report = check_structure(sym_matrix)
        assert dumps(sym_matrix) == dumps(tensor_to_obj(sym_matrix))
        assert dumps({"a": sym_matrix, "b": report}) == dumps(
            {"a": tensor_to_obj(sym_matrix), "b": report.as_dict()}
        )


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



class TestLoads:
    def test_bare_negative_zero_is_negative_zero(self):
        values = loads('[-0, 0, -0.0, 7, -1, "-0"]')
        assert [math.copysign(1.0, v) for v in values[:3]] == [-1.0, 1.0, -1.0]
        assert isinstance(values[0], float) and isinstance(values[1], int)
        assert values[3:] == [7, -1, "-0"] and isinstance(values[3], int)

    @pytest.mark.parametrize(
        "text,parsed",
        [("-0", "-0.0"), ("[-0.5, -0]", "[-0.5, -0.0]"), ("[-0.5, 0, -0e0]", "[-0.5, 0, -0.0]"),
         ('{"a": -0}', "{'a': -0.0}"), ("[-0\n]", "[-0.0]"), ("[-0 , 1]", "[-0.0, 1]"),
         ('["-0", -0.5, 0]', "['-0', -0.5, 0]")],
    )
    def test_negative_zero_is_found_wherever_it_stands(self, text, parsed):
        assert repr(loads(text)) == parsed

    def test_integers_stay_integers_without_negative_zero(self):
        values = loads("[0, -12, 12345678901234567890]")
        assert values == [0, -12, 12345678901234567890]
        assert all(isinstance(v, int) for v in values)

    @pytest.mark.parametrize("order", ["-0", "0", "-0.0"])
    def test_zero_order_is_refused(self, order):
        with pytest.raises(ValueError, match=r"^key 'order' must be a positive integer$"):
            tensor_from_obj(loads(f'{{"order": {order}, "dim": 1, "entries": [1.0]}}'))

    @pytest.mark.parametrize(
        "text,message",
        [("[1, 2", "malformed JSON: Expecting ',' delimiter: line 1 column 6 (char 5)"),
         ("", "malformed JSON: Expecting value: line 1 column 1 (char 0)"),
         ("[-0", "malformed JSON: Expecting ',' delimiter: line 1 column 4 (char 3)"),
         ("[" * 200_000, "malformed JSON: nested too deeply")],
        ids=["unclosed", "empty", "unclosed-negative-zero", "deep"],
    )
    def test_malformed_text_is_a_value_error(self, text, message):
        with pytest.raises(ValueError) as info:
            loads(text)
        assert str(info.value) == message
        assert not isinstance(info.value, json.JSONDecodeError)


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                     1.7e308, -1.7e308]),
)
cubes = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda shape: hnp.arrays(np.float64, (shape[1],) * shape[0], elements=finite_floats)
)


class TestFileRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(cubes)
    def test_every_bit_survives(self, data):
        tensor = DenseTensor(data)
        back = tensor_from_obj(loads(dumps(tensor_to_obj(tensor))))
        assert back.data.tobytes() == tensor.data.tobytes()

    def test_signed_zeros_subnormals_and_extremes(self):
        tensor = DenseTensor(np.array([[0.0, -0.0], [5e-324, -1.7e308]]))
        text = dumps(tensor_to_obj(tensor))
        assert text == '{"order": 2, "dim": 2, "entries": [0, -0, 4.9406564584124654e-324, -1.6999999999999999e+308]}'
        assert tensor_from_obj(loads(text)).data.tobytes() == tensor.data.tobytes()
