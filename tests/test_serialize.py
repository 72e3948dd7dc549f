import json
import math
import re
from decimal import Decimal, localcontext
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from centrotensor import DenseTensor, check_structure, random_structured
from centrotensor import cli, serialize
from centrotensor.serialize import dumps, loads, read_tensor, spec_from_obj, tensor_from_obj, tensor_to_obj

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


def bits_as_floats(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def powers_of_ten_and_neighbours() -> np.ndarray:
    """Each 10^k for k = -6..18 and 40 neighbouring floats on either side."""
    values = []
    for k in range(-6, 19):
        up = down = 10.0**k
        values.append(up)
        for _ in range(40):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            values += [up, down]
    return np.array(values)


def round_up_to_power_of_ten() -> np.ndarray:
    """Values whose 17 digits carry to the next power of ten, and their neighbours."""
    values = []
    for k in range(-6, 19):
        for text in ("9.9999999999999999e%d", "9.99999999999999995e%d", "9.9999999999999998e%d"):
            v = float(text % k)
            values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    return np.array(values)


def exact_ties() -> np.ndarray:
    """Floats whose 18th significant digit is an exact 5: half-even decides."""
    n = np.arange(10**15, 10**15 + 400)
    quarters = np.concatenate([(4 * n + 1) / 4, (4 * n + 3) / 4, (4 * (2 * n) + 1) / 4])
    eighths = np.concatenate([(8 * (n // 10) + 1) / 8, (8 * (n // 10) + 3) / 8])
    near_nine = np.arange(9 * 10**15 - 200, 9 * 10**15 + 200)
    return np.concatenate([quarters, eighths, (4 * near_nine + 1) / 4, (4 * near_nine + 3) / 4])


def in_window_bits(rng, count: int) -> np.ndarray:
    """Random signs and mantissas with binary exponents spanning 1e-4 <= |v| < 1e17."""
    exponent = rng.integers(1023 - 14, 1023 + 57, count).astype(np.uint64)
    mantissa = rng.integers(0, 2**52, count, dtype=np.uint64)
    sign = rng.integers(0, 2, count, dtype=np.uint64)
    return bits_as_floats((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa)


SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     np.inf, -np.inf, np.nan, 9.9999999999999991e-05, 1e17, -1.7e308])


@pytest.fixture
def writer_kernel_always(monkeypatch):
    """dumps formats every float sequence with the kernel, at any length."""
    monkeypatch.setattr(serialize, "_KERNEL_MIN_FLOATS", 0)


@pytest.mark.usefixtures("writer_kernel_always")
class TestArrayPath:
    """dumps of a float sequence (a 1-D float64 array, a float list) and of
    a DenseTensor through the kernel, byte for byte against the per-item
    writer."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_raw_bit_patterns(self, bits):
        values = bits_as_floats(bits)
        assert dumps(values) == format_value_oracle(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
    def test_tensor_of_finite_bit_patterns(self, bits):
        values = bits_as_floats(bits)
        values = values[np.isfinite(values)]
        if values.size:
            tensor = DenseTensor(values)
            assert dumps(tensor) == format_value_oracle(tensor_to_obj(tensor))

    @pytest.mark.parametrize(
        "make", [powers_of_ten_and_neighbours, round_up_to_power_of_ten, exact_ties],
        ids=["powers-of-ten", "round-up", "ties"],
    )
    def test_hard_cases(self, make):
        values = make()
        values = np.concatenate([values, -values])
        assert dumps(values) == format_value_oracle(values)

    def test_a_long_float_list(self, rng):
        tensor = DenseTensor(rng.normal(size=(16,) * 3) * 10.0 ** rng.integers(-6, 18, (16,) * 3))
        obj = tensor_to_obj(tensor)
        assert len(obj["entries"]) == 4096
        assert dumps(obj) == format_value_oracle(obj)

    def test_empty_sequences(self):
        assert dumps([]) == dumps(np.array([])) == "[]"

    def test_no_window_value_rounds_up_to_a_power_of_ten(self):
        # why the kernel needs no carry: the 17 digits of |v| < 10^k reach
        # 10^k only within 5e-18 (relative) of it, and no double is that close
        for k in range(-3, 18):
            power = Decimal(10) ** k
            below = float(power) if Decimal(float(power)) < power else np.nextafter(float(power), 0.0)
            assert (power - Decimal(below)) / power > Decimal("5e-18")

    def test_specials(self):
        assert dumps(SPECIALS) == format_value_oracle(SPECIALS)
        assert dumps(np.array([0.0, -0.0])) == "[0, -0]"

    @pytest.mark.parametrize("where", ["first", "last", "adjacent", "all"])
    def test_per_item_values_land_at_their_position(self, rng, where):
        values = rng.normal(size=50)
        if where == "first":
            values[0] = np.nan
        elif where == "last":
            values[-1] = -1e-300
        elif where == "adjacent":
            values[20:23] = (np.inf, 1e17, 5e-324)
        else:
            values = np.tile(SPECIALS[2:], 5)
        assert dumps(values) == format_value_oracle(values)

    @pytest.mark.parametrize(
        "length", [1, 2, serialize._BLOCK - 1, serialize._BLOCK, serialize._BLOCK + 1]
    )
    def test_lengths_around_the_block(self, rng, length):
        values = rng.normal(size=length) * 10.0 ** rng.integers(-6, 18, length)
        values[rng.integers(length)] = np.inf
        assert dumps(values) == format_value_oracle(values)

    def test_fixed_seed_sweeps(self):
        rng = np.random.default_rng(31)
        raw = bits_as_floats(rng.integers(0, 2**64, 2**18, dtype=np.uint64))
        windowed = in_window_bits(rng, 2**18)
        for values in (raw, windowed):
            assert serialize._format_floats(values) == ", ".join("%.17g" % v for v in values.tolist())

    def test_traced_peak_of_a_tensor_dump(self):
        tensor = DenseTensor(np.random.default_rng(0).uniform(-1.0, 1.0, size=(16,) * 4))
        tracemalloc.start()
        try:
            text = dumps(tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tensor.entries) == 65536
        assert peak <= 2.5 * len(text)


class TestWriterThreshold:
    @pytest.mark.parametrize("make", [np.array, list], ids=["array", "list"])
    def test_the_kernel_starts_at_192_floats(self, monkeypatch, make):
        calls = []
        kernel = serialize._format_block
        monkeypatch.setattr(serialize, "_format_block", lambda v: calls.append(len(v)) or kernel(v))
        values = [0.1 * i for i in range(192)]
        assert dumps(make(values[:191])) == format_value_oracle(values[:191])
        assert calls == []
        assert dumps(make(values)) == format_value_oracle(values)
        assert calls == [192]

    def test_empty_sequences(self):
        assert dumps([]) == dumps(np.array([])) == "[]"


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


def writer_text(values) -> str:
    """A one-axis tensor's text in the writer's layout."""
    return dumps(DenseTensor(np.asarray(values, dtype=float)))


def tokens_text(tokens) -> str:
    """The writer's layout around entry tokens as given."""
    return '{"order": 1, "dim": %d, "entries": [%s]}' % (len(tokens), ", ".join(tokens))


def near_midpoints(count: int) -> list:
    """17- and 18-digit decimals at and next to the midpoints between
    adjacent doubles: exact ties and remainders next to them."""
    tokens = []
    with localcontext() as context:
        context.prec = 60
        for x in 10.0 ** np.random.default_rng(5).uniform(-4, 17, count):
            mid = (Decimal(float(x)) + Decimal(float(np.nextafter(x, np.inf)))) / 2
            for digits in (17, 18):
                token = format(Decimal(format(mid, ".%de" % (digits - 1))), "f")
                if len(token) <= serialize._WINDOW:
                    tokens.append(token)
    return tokens


def near_powers_of_two() -> list:
    """16- to 18-digit decimals just below and just above each 2^j, j =
    -70..59, where the spacing of doubles halves or doubles (such as
    0.9999999999999999, the double below 1)."""
    tokens = []
    for j in range(-70, 60):
        power = Decimal(2) ** j
        for digits in (16, 17, 18):
            exponent = power.adjusted() - digits + 1
            lead = int(power.scaleb(-exponent))
            tokens += [format(Decimal(c).scaleb(exponent), "f") for c in range(lead - 2, lead + 3)]
    return tokens


def random_decimals(rng, count: int) -> list:
    """Random decimals of 16-18 digits with 0-22 places."""
    digits = rng.integers(16, 19, count)
    mantissas = rng.integers(10 ** (digits - 1), 10**digits)
    places = rng.integers(0, 23, count)
    return [format(Decimal(int(n)).scaleb(-int(k)), "f") for n, k in zip(mantissas, places)]


@pytest.fixture
def kernel_always(monkeypatch):
    """read_tensor takes the kernel at any length."""
    monkeypatch.setattr(serialize, "_KERNEL_MIN_CHARS", 0)


@pytest.mark.usefixtures("kernel_always")
class TestTensorReader:
    """read_tensor against tensor_from_obj(loads(text)), bit for bit and
    error for error, on the text and on its UTF-8 bytes (a file's read)."""

    @staticmethod
    def assert_reads_alike(text, kernel=True):
        expected = tensor_from_obj(loads(text))
        for data in (text, text.encode("utf-8")):
            assert (serialize._read_entries(data) is not None) is kernel
            got = read_tensor(data)
            assert got.data.shape == expected.data.shape
            assert np.array_equal(got.entries.view(np.int64), expected.entries.view(np.int64))

    @staticmethod
    def assert_fails_alike(text):
        with pytest.raises(ValueError) as expected:
            tensor_from_obj(loads(text))
        for data in (text, text.encode("utf-8")):
            with pytest.raises(ValueError) as got:
                read_tensor(data)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_writer_and_repr_text_of_raw_bit_patterns(self, bits):
        values = bits_as_floats(bits)
        values = values[np.isfinite(values)]
        if values.size:
            self.assert_reads_alike(writer_text(values))
            self.assert_reads_alike(json.dumps({"order": 1, "dim": values.size, "entries": values.tolist()}))

    @pytest.mark.parametrize(
        "make", [powers_of_ten_and_neighbours, round_up_to_power_of_ten, exact_ties, near_powers_of_two],
        ids=["powers-of-ten", "round-up", "ties", "powers-of-two"],
    )
    def test_hard_cases(self, make):
        values = make()
        if isinstance(values, list):
            # decimal tokens, not doubles
            self.assert_reads_alike(tokens_text(values + ["-" + t for t in values]))
            return
        values = np.concatenate([values, -values, values * 1e3, values * 1e-3])
        self.assert_reads_alike(writer_text(values))
        self.assert_reads_alike(json.dumps({"order": 1, "dim": values.size, "entries": values.tolist()}))

    def test_specials_and_values_past_1e17(self):
        finite = SPECIALS[np.isfinite(SPECIALS)]
        past = 10.0 ** np.linspace(17, 300, 500)
        self.assert_reads_alike(writer_text(np.concatenate([finite, past, -past, 1 / past])))

    def test_fixed_seed_sweeps(self):
        rng = np.random.default_rng(33)
        raw = bits_as_floats(rng.integers(0, 2**64, 2**16, dtype=np.uint64))
        for values in (raw[np.isfinite(raw)], in_window_bits(rng, 2**16)):
            self.assert_reads_alike(writer_text(values))
            self.assert_reads_alike(json.dumps({"order": 1, "dim": values.size, "entries": values.tolist()}))
        self.assert_reads_alike(tokens_text(random_decimals(rng, 2**16)))

    def test_midpoints_between_doubles(self):
        tokens = near_midpoints(2000)
        self.assert_reads_alike(tokens_text(tokens + ["-" + t for t in tokens]))

    @pytest.mark.parametrize(
        "tokens",
        [["9007199254740993", "10000000000000001", "-9007199254740993", "12", "-3"],
         [str(10**17 + i) for i in range(-5, 5)] + ["999999999999999999", "123456789012345678"],
         [str(2**53 + i) for i in range(-9, 9)]],
        ids=["ties", "near-1e17", "near-2^53"],
    )
    def test_integers_up_to_18_digits(self, tokens):
        self.assert_reads_alike(tokens_text(tokens))

    @pytest.mark.parametrize("token", ["1000000000000000000", "-12345678901234567890"])
    def test_longer_integers_take_loads(self, token):
        self.assert_reads_alike(tokens_text(["1.5", token]), kernel=False)

    @pytest.mark.parametrize(
        "tokens",
        [["-0", "-0.0", "0", "0.0", "-0.000"], ["1E5", "-0.5e-3", "2.5E+3", "1e-400"],
         ["0.1234567890123456789", "123456789.123456789012345", "1.00000000000000000000000000001"],
         ["-0.00012345678901234567", "5", "-7", "0.5"]],
        ids=["signed-zeros", "exponents", "long-tokens", "window-edge"],
    )
    def test_token_forms(self, tokens):
        self.assert_reads_alike(tokens_text(tokens))

    @pytest.mark.parametrize(
        "tokens",
        [["01"], ["-01"], ["00.5"], ["1", "02"], ["1."], [".5"], ["-"], ["1", "-", "2"],
         ["/", "2"], [":", "2"], ["x"], ["1.2.3"], ["--1"], ["1-2"], ["+1"], ["0x1"], ["1_0"],
         ["NaN"], ["Infinity"], ["true"], ['"1"'], ["null"], ["[1]"], ["1e"], ["1e+"]],
    )
    def test_non_numbers_fail_as_loads_does(self, tokens):
        self.assert_fails_alike(tokens_text(["1.5"] + tokens))

    def test_compact_and_writer_layout_read_alike(self, rng):
        values = rng.normal(size=(3, 3, 3))
        values[0, 0] = [0.0, -0.0, 7.0]
        obj = {"order": 3, "dim": 3, "entries": values.ravel().tolist()}
        writer, compact = dumps(obj), json.dumps(obj, separators=(",", ":"))
        self.assert_reads_alike(writer)
        self.assert_reads_alike(compact, kernel=False)
        assert read_tensor(writer).data.tobytes() == read_tensor(compact).data.tobytes()

    @pytest.mark.parametrize(
        "text",
        ['\ufeff{"order": 1, "dim": 1, "entries": [1.5]}',
         '{"dim": 1, "order": 1, "entries": [1.5]}',
         '{"order": 1, "dim": 1, "entries": [1.5], "x": 1}',
         '{"order": 1, "dim": 1, "entries": [1.5, "\u00e9"]}',
         '{"order": 1, "dim": 1, "entries": []}',
         '{"order": 1, "dim": 1, "entries": [1.5]}\x0c',
         '{"order": 1, "dim": 1, "entries": [1.5] }',
         '{"order": 1, "dim": 2, "entries": [1.5,2.5]}',
         '{"order": 1, "dim": 2, "entries": [1.5,  2.5]}',
         '{"order": 1, "dim": 2, "entries": [1.5, , 2.5]}',
         '{"order": 01, "dim": 1, "entries": [1.5]}'],
        ids=["bom", "key-order", "extra-key", "non-ascii", "empty", "form-feed", "space-before-brace",
             "compact-entries", "two-spaces", "empty-token", "leading-zero-order"],
    )
    def test_other_layouts_take_loads(self, text):
        assert serialize._read_entries(text) is None
        assert serialize._read_entries(text.encode("utf-8")) is None
        try:
            expected = tensor_from_obj(loads(text))
        except ValueError:
            self.assert_fails_alike(text)
        else:
            assert read_tensor(text).data.tobytes() == expected.data.tobytes()
            assert read_tensor(text.encode("utf-8")).data.tobytes() == expected.data.tobytes()

    def test_whitespace_around_the_document(self):
        self.assert_reads_alike(' \t\r\n{"order": 1, "dim": 2, "entries": [1.5, -2]}\n\r\t ')

    @pytest.mark.parametrize("count", [serialize._BLOCK - 1, serialize._BLOCK, serialize._BLOCK + 1])
    def test_lengths_around_the_block(self, rng, count):
        values = rng.normal(size=count)
        tokens = writer_text(values)[36:-2].split(", ")
        # single digits, which skip the blocks, and per-item tokens in each block
        tokens[::7] = ["3"] * len(tokens[::7])
        tokens[5::500] = ["1.5e-7"] * len(tokens[5::500])
        self.assert_reads_alike(tokens_text(tokens))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_edited_documents_read_or_fail_alike(self, data):
        values = [0.0, -0.0, 1.5, -2.25e-5, 123456.789, 9.5e16, 7.0, 0.1]
        text = data.draw(st.sampled_from(
            [writer_text(values), json.dumps({"order": 3, "dim": 2, "entries": values})]
        ))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text)))
            char = data.draw(st.sampled_from('0123456789.-+eE, []{}"x\n'))
            cut = data.draw(st.integers(0, 1))
            text = text[:at] + char + text[at + cut :]
        try:
            expected = tensor_from_obj(loads(text))
        except ValueError:
            self.assert_fails_alike(text)
        else:
            for got in (read_tensor(text), read_tensor(text.encode("utf-8"))):
                assert got.data.shape == expected.data.shape
                assert got.data.tobytes() == expected.data.tobytes()

    def test_document_errors_match(self):
        from test_cli_fuzz import CENTRO, _malformed_documents

        for text in _malformed_documents(CENTRO).values():
            self.assert_fails_alike(text)
        # errors raised after the entries are parsed
        for entries in ("1.5, 2", "1.5, 1e400", "1.5, " + "9" * 400):
            self.assert_fails_alike('{"order": 1, "dim": 3, "entries": [%s]}' % entries)
        self.assert_fails_alike('{"order": 100, "dim": 1, "entries": [1.5]}')

    def test_a_float64_longdouble_keeps_the_kernel(self, monkeypatch, rng):
        # what macOS arm64 and Windows have; the tables are built afresh under it
        monkeypatch.setattr(np, "longdouble", np.float64)
        serialize._reader_tables.cache_clear()
        try:
            self.assert_reads_alike(writer_text(rng.normal(size=64)), kernel=True)
        finally:
            serialize._reader_tables.cache_clear()


class TestReaderThreshold:
    def test_short_texts_take_loads(self, monkeypatch):
        calls = []
        kernel = serialize._read_entries
        monkeypatch.setattr(serialize, "_read_entries", lambda text: calls.append(len(text)) or kernel(text))
        short = tokens_text(["0.5"] * 100)
        short += " " * (serialize._KERNEL_MIN_CHARS - 1 - len(short))
        read_tensor(short)
        assert calls == []
        read_tensor(short + " ")
        assert calls == [serialize._KERNEL_MIN_CHARS]

    def test_the_kernel_starts_at_ten_thousand_characters(self, monkeypatch):
        calls = []
        monkeypatch.setattr(serialize, "loads", lambda text: calls.append(len(text)) or loads(text))
        text = writer_text(np.full(500, 0.25))
        text += " " * (9_999 - len(text))
        assert serialize._read_entries(text) is not None
        expected = read_tensor(text)
        assert calls == [9_999]
        assert read_tensor(text + " ").data.tobytes() == expected.data.tobytes()
        assert calls == [9_999]


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


def _text_mode_load(path):
    """cli._load_tensor as a text-mode read of the file, the reference for
    its bytes read."""
    with open(path, "r", encoding="utf-8") as handle:
        return read_tensor(handle.read())


def _writer_file(edit) -> bytes:
    """The file the gen verb writes for an order-4 dim-16 centro tensor
    (1.4 MB), passed through edit."""
    return edit((dumps(random_structured(4, 16, "centro", seed=0)) + "\n").encode())


class TestFileReads:
    """cli reads a tensor file as bytes: its stdout, stderr and exit code
    are those of a text-mode read of the same file."""

    # name -> the file's bytes, the exit code and a part of stderr or stdout
    FILES = {
        # a bytes read that kept the CRLFs would put the error at char 44
        "compact-crlf-syntax-error": (
            lambda: b'{"order":1,\r\n"dim":3,\r\n"entries":[0.5,0.125,,1.5]}\r\n', 2, "(char 42)"),
        "bom": (lambda: _writer_file(lambda w: b"\xef\xbb\xbf" + w), 2, "Unexpected UTF-8 BOM"),
        "0xff-at-50000": (lambda: _writer_file(lambda w: w[:50_000] + b"\xff" + w[50_001:]), 2,
                          "can't decode byte 0xff in position 50000"),
        "writer-crlf-end": (lambda: _writer_file(lambda w: w[:-1] + b"\r\n"), 0, '"centrosymmetric"'),
        "empty": (lambda: b"", 2, "(char 0)"),
    }

    @pytest.mark.parametrize("name", FILES)
    def test_check_reads_as_a_text_mode_read(self, name, tmp_path, capsys, monkeypatch):
        make, code, shown = self.FILES[name]
        path = tmp_path / "A.json"
        path.write_bytes(make())

        def check():
            return (cli.main(["check", str(path)]), *capsys.readouterr())

        got = check()
        monkeypatch.setattr(cli, "_load_tensor", _text_mode_load)
        assert got == check()
        assert got[0] == code
        assert shown in got[1] + got[2]


# Mirrored sequences: each pair (q, N-1-q) equal (centro) or differing in the
# sign bit alone (skew), an odd N's middle entry paired with itself.
MIRROR_LENGTHS = [1, 2, 3, 191, 192, 193, 2 * serialize._BLOCK - 1, 2 * serialize._BLOCK, 2 * serialize._BLOCK + 1]
PER_ITEM = [1e-7, -1e-7, 1e17, 5e-324, -1e-310, 2.2250738585072014e-308, 1.7e308]


def mirrored(front, kind: str) -> np.ndarray:
    """The sequence whose back half is front's first half reversed, negated
    (the sign bit toggled, NaN too) for skew."""
    values = np.array(front, dtype=float)
    half = values.size // 2
    back = values[:half][::-1]
    values[values.size - half :] = -back if kind == "skew" else back
    return values


def mirror_panel(rng, length: int, kind: str, zero_pairs: bool = True) -> np.ndarray:
    """Mirrored values of this length: random magnitudes, per-item values
    and, unless zero_pairs is False, signed zeros at mirrored positions,
    and a skew middle entry of +-0."""
    values = rng.normal(size=length) * 10.0 ** rng.integers(-6, 18, length)
    for value in PER_ITEM + ([0.0, -0.0] if zero_pairs else []):
        values[rng.integers(length)] = value
    values = mirrored(values, kind)
    if kind == "skew" and length % 2:
        values[length // 2] = rng.choice([0.0, -0.0])
    return values


# a back-half token's edits: one digit, its "-" alone, and other tokens
BACK_TOKEN_EDITS = {
    "one-digit": lambda t: re.sub("[1-9]", lambda d: str(int(d[0]) % 9 + 1), t, count=1),
    "sign": lambda t: t[1:] if t.startswith("-") else "-" + t,
    "zero": lambda t: "0",
    "minus-zero": lambda t: "-0",
    "longer": lambda t: t + "5" if "." in t else t + ".5",
    "not-a-number": lambda t: "1.5.",
    "leading-zero": lambda t: "01",
}


# magnitudes of 24 bytes, which fill a token's window, and of 27 bytes
WINDOW_WIDE = "0." + "1" * 22
PAST_WINDOW = "0.1234567890123456789012345"
# entry tokens and how many of them the reader parses: the outermost pair of
# multi-byte tokens sets the sign relation that the first block's twin test
# checks, that pair included
OUTERMOST_PAIRS = {
    "no-multi-byte-token": (["1", "0", "0", "7"], 0),
    "one-multi-byte-token": (["3", "-0.25", "3"], 1),
    "two-skew-twins": (["0.25", "0", "-0.25"], 1),
    "two-centro-twins": (["-0.25", "-0.25"], 1),
    "two-unequal": (["0.25", "0.5"], 2),
    "two-unmirrored": (["0.25", "0.25", "0"], 2),
    "window-wide-centro": ([WINDOW_WIDE, "0.5", "0.25", "0.5", WINDOW_WIDE], 3),
    "window-wide-skew": (["-" + WINDOW_WIDE, "0.5", "0.25", "-0.5", WINDOW_WIDE], 3),
    "past-window-centro": ([PAST_WINDOW, "0.5", "0.25", "0.5", PAST_WINDOW], 5),
    "past-window-skew": (["-" + PAST_WINDOW, "0.5", "0.25", "-0.5", PAST_WINDOW], 5),
    "skew-outermost-centro-inner": (["0.25", "0.5", "0.75", "0.5", "-0.25"], 5),
    "centro-outermost-skew-inner": (["0.25", "0.5", "0.75", "-0.5", "0.25"], 5),
}


def multi_byte_tokens(text: str) -> int:
    return sum(len(token) > 1 for token in text[text.index("[") + 1 : text.index("]")].split(", "))


@pytest.mark.usefixtures("writer_kernel_always")
class TestMirroredWriter:
    """A mirrored float sequence is written as the per-item writer writes it,
    and only its front ceil(N/2) entries are formatted."""

    @pytest.mark.parametrize("kind", ["centro", "skew"])
    @pytest.mark.parametrize("length", MIRROR_LENGTHS)
    def test_text_is_the_per_item_join(self, rng, kind, length):
        values = mirror_panel(rng, length, kind)
        for sequence in (values, values.tolist()):
            assert dumps(sequence) == format_value_oracle(values)

    @pytest.mark.parametrize("kind", ["centro", "skew"])
    def test_specials_at_mirrored_positions(self, kind):
        values = mirrored(np.concatenate([SPECIALS, [1e-7, 1e17, 0.5]]), kind)
        assert dumps(values) == format_value_oracle(values)

    @pytest.mark.parametrize("pair", [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_pairs(self, pair):
        values = np.full(7, 0.25)
        values[[0, -1]] = pair
        values[[2, -3]] = pair[::-1]
        assert dumps(values) == format_value_oracle(values)

    @pytest.mark.parametrize("kind", ["centro", "skew"])
    def test_one_unmatched_pair_writes_every_entry(self, rng, kind):
        values = mirror_panel(rng, 2 * serialize._BLOCK + 1, kind)
        values[-5000] = np.nextafter(values[-5000], np.inf)
        assert dumps(values) == format_value_oracle(values)

    @pytest.mark.parametrize("kind,formatted", [("centro", 32768), ("skew", 32768), ("general", 65536)])
    def test_formats_the_front_half_of_a_mirrored_tensor(self, monkeypatch, kind, formatted):
        tensor = random_structured(4, 16, kind, seed=0)
        counts = []
        rows = serialize._block_rows
        monkeypatch.setattr(serialize, "_block_rows", lambda v: counts.append(len(v)) or rows(v))
        assert dumps(tensor) == format_value_oracle(tensor_to_obj(tensor))
        assert sum(counts) == formatted


@pytest.mark.usefixtures("kernel_always")
class TestMirroredReader:
    """A mirrored tensor text is read to the bits and errors of loads, and
    only the front tokens of its mirrored multi-byte pairs are parsed.  A
    skew text's zero pairs, "0" and "-0", are one and two bytes, so its
    panels leave them out where the mirrored path is to be taken."""

    @staticmethod
    def edited(text: str, edits: dict) -> str:
        """text with the entry tokens at these indices replaced."""
        start, end = text.index("[") + 1, text.index("]")
        tokens = text[start:end].split(", ")
        for index, edit in edits.items():
            tokens[index] = edit(tokens[index])
        return text[:start] + ", ".join(tokens) + text[end:]

    @staticmethod
    def parsed(monkeypatch, text: str) -> int:
        """The tokens _read_block parses in one read of text's bytes."""
        tokens = []
        block = serialize._read_block
        monkeypatch.setattr(serialize, "_read_block", lambda rows, buf, starts, lengths:
                            tokens.append(len(starts)) or block(rows, buf, starts, lengths))
        read_tensor(text.encode())
        monkeypatch.setattr(serialize, "_read_block", block)
        return sum(tokens)

    @pytest.mark.parametrize("kind", ["centro", "skew"])
    @pytest.mark.parametrize("length", MIRROR_LENGTHS)
    def test_reads_as_loads(self, monkeypatch, rng, kind, length):
        text = writer_text(mirror_panel(rng, length, kind, zero_pairs=kind == "centro"))
        TestTensorReader.assert_reads_alike(text)
        k = multi_byte_tokens(text)
        assert self.parsed(monkeypatch, text) == (k if k < 2 else -(-k // 2))

    @pytest.mark.parametrize("kind", ["centro", "skew"])
    def test_zero_pairs(self, monkeypatch, rng, kind):
        # a skew pair of zeros, "0" and "-0", stands at no mirrored position
        # of the multi-byte tokens, so every token is parsed
        text = writer_text(mirror_panel(rng, 2 * serialize._BLOCK + 1, kind))
        TestTensorReader.assert_reads_alike(text)
        k = multi_byte_tokens(text)
        assert self.parsed(monkeypatch, text) == (-(-k // 2) if kind == "centro" else k)

    @pytest.mark.parametrize("kind", ["centro", "skew"])
    @pytest.mark.parametrize("edit", BACK_TOKEN_EDITS)
    def test_an_edited_back_token(self, monkeypatch, rng, kind, edit):
        length = 2 * serialize._BLOCK + 1
        text = writer_text(mirror_panel(rng, length, kind, zero_pairs=False))
        assert self.parsed(monkeypatch, text) == -(-multi_byte_tokens(text) // 2)
        for index in (length - 1, length - 3000, length // 2 + 1):
            edited = self.edited(text, {index: BACK_TOKEN_EDITS[edit]})
            if edit in ("not-a-number", "leading-zero"):
                TestTensorReader.assert_fails_alike(edited)
            else:
                TestTensorReader.assert_reads_alike(edited)

    @pytest.mark.parametrize("pair", [("0", "-0"), ("-0", "0"), ("-0", "-0"), ("0.5", "-0.5"), ("1", "-1")])
    @pytest.mark.parametrize("at", [0, 10])
    def test_zero_and_single_digit_pairs(self, pair, at):
        # one pair of the outermost or of an inner position, among "0.25"s
        tokens = ["0.25"] * 300
        tokens[at], tokens[-1 - at] = pair
        TestTensorReader.assert_reads_alike(tokens_text(tokens))
        tokens[150] = "-0.25"
        TestTensorReader.assert_reads_alike(tokens_text(tokens))

    @pytest.mark.parametrize("case", OUTERMOST_PAIRS)
    def test_the_outermost_pair_sets_the_sign_relation(self, monkeypatch, case):
        tokens, parsed = OUTERMOST_PAIRS[case]
        text = tokens_text(tokens)
        TestTensorReader.assert_reads_alike(text)
        assert self.parsed(monkeypatch, text) == parsed

    @pytest.mark.parametrize("token", ["1.5.", "01", "1234567890123456789", "-1234567890123456789"])
    def test_outermost_twins_that_leave_the_kernel(self, token):
        # a front token that only loads reads sends the whole text there
        text = tokens_text([token, "0.5", "0.25", "0.5", token])
        if token in ("1.5.", "01"):
            TestTensorReader.assert_fails_alike(text)
        else:
            TestTensorReader.assert_reads_alike(text, kernel=False)

    @pytest.mark.parametrize("kind", ["centro", "skew", "general"])
    def test_parses_the_front_half_of_a_mirrored_file(self, monkeypatch, kind):
        text = dumps(random_structured(4, 16, kind, seed=0)) + "\n"
        tokens = []
        block = serialize._read_block
        monkeypatch.setattr(serialize, "_read_block", lambda rows, buf, starts, lengths:
                            tokens.append(len(starts)) or block(rows, buf, starts, lengths))
        got = read_tensor(text.encode())
        assert got.data.tobytes() == tensor_from_obj(loads(text)).data.tobytes()
        k = multi_byte_tokens(text)
        assert k == 65536
        assert sum(tokens) == (k if kind == "general" else -(-k // 2))
