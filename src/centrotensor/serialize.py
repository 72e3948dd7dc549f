"""JSON interchange for tensors and generating-vector specs.

Formats:

* tensor  {"order": m, "dim": n, "entries": [n^m reals, row-major,
  last index fastest]}
* cauchy spec  {"order": m, "generating": [n reals]}

Output numbers are printed with 17 significant digits, which is
round-trip safe for float64 and makes repeated runs byte-identical.
Every float is written exactly as ``"%.17g"`` writes it ("%.17g" gives
the same bytes as ``format(v, ".17g")`` for every float64, -0.0, inf and
nan included), whichever path writes it.

Both directions work on whole float lists at C level or in numpy, since
tensors are long flat lists, and both choose their path by size.  The
writer has one rule: a float sequence (a 1-D float64 array, such as a
tensor's entries, or a list whose items are all exactly ``float``) of
``_KERNEL_MIN_FLOATS`` (192) entries or more goes through the numpy
kernel of ``_format_floats``; every other float is written by ``"%.17g"``
itself, a shorter float sequence in one ``%`` pass and any other value
(mixed lists, bools, ints, numpy scalars, other arrays, dicts) item by
item.  Below 192 entries the kernel's fixed cost of a few dozen numpy
calls outweighs what it saves.

The kernel works in blocks of ``_BLOCK`` (4096) entries, so its working
memory is bounded.  In the window 1e-4 <= |v| < 1e17, where "%.17g"
writes a plain decimal, the decimal exponent X of |v| comes from
``log10`` and is made exact by Dekker's error-free product
p + e = |v| * 10^(16 - X) (10^(16 - X) is an exact double since
16 - X <= 20), stepping X where p + e falls outside [1e16, 1e17).  The
17 digits are the integer p + rint(e), p being an even integer there, so
the rounding is half-even as in "%.17g"; it never carries to 10^17 in the
window, since no double lies within 5e-18 (relative) below a power of ten
there.  The digits come from a 10,000-entry table of 4-digit groups and
are laid into fixed-width rows whose sign, leading "0.", leading zeros
and point come from a row template chosen by (sign, X, last kept digit),
trailing zeros masked out; the NUL padding is dropped in one pass.  The
tables are built at the kernel's first write.  Zero is ``0`` or ``-0``.
Any other value (exponent notation, subnormals, inf, nan) gets the
per-item "%.17g", spliced in at its position.

A mirrored sequence, each pair (q, N-1-q) of entries bitwise equal
(centrosymmetric) or different in the sign bit alone (skew) as
``core._mirror_flip`` tests it, is formatted half, in the blocks of
``core._pair_blocks``.  The outermost pair says which of the two to
test, so any other sequence costs one comparison before its full pass.
The kernel formats each front block, and its back block is the rows of
the block's proper pairs in reverse order, with the sign byte toggled
for skew; a per-item marker row takes the "%.17g" of its own back entry
instead.  The text is that of the full pass.

``read_tensor`` reads a tensor text (``str``) or a file's ``bytes`` to
the bits and errors of ``tensor_from_obj(loads(text))``, ``text`` being
what a text-mode ``open(path, encoding="utf-8")`` would read, by one of
three paths.  Bytes reach the kernel undecoded; those that leave it are
decoded as that read decodes them, UTF-8 with universal newlines, so a
``UnicodeDecodeError`` and every ``loads`` position are that read's.

* A text of at least ``_KERNEL_MIN_CHARS`` (10,000) characters or bytes
  in the writer's layout -- ``{"order": <int>, "dim": <int>, "entries":
  [...]}`` with ", " between the entries and only JSON whitespace around
  it, all ASCII -- goes through ``_read_entries``, a numpy kernel, the
  mirror of ``_format_floats``.  A ``str`` is encoded to its ASCII bytes
  once; bytes are read as they are, since a newline's form (CR, LF or
  CRLF) can stand only in the whitespace around the document, where it
  changes nothing.  The kernel finds the commas once and reads each
  single-digit token (every ``0`` of a sparse file) from its byte.  The
  other tokens go in blocks of ``_BLOCK``, each as the 24 bytes that end
  at its last byte, three uint64 words: the point is found and squeezed
  out, the 8-digit groups are summed by SWAR multiplies (Lemire, "Number
  parsing at a gigabyte per second", 2021) into N < 10^18, and k counts
  the digits after the point.  The double q = fl(fl(N) / 10^k), 10^k
  being exact for k <= 22, is within one double of the correctly rounded
  N / 10^k (Clinger, "How to read floating point numbers accurately",
  1990): the conversion and the division each round by at most half an
  ulp, so |q - N / 10^k| < 1.5 ulp(q).  Write q = m 2^e, m a 53-bit
  integer.  The remainder r = (N - q 10^k) 2^s = N 2^s - m 5^k 2^9, with
  s = 9 - k - e, is an integer: s >= 0 since q <= 10^(18 - k).  And
  |r| < 1.5 * 5^k 2^9 < 2^63, so r is exact in uint64 arithmetic mod 2^64
  (numpy gives 0 for a shift of 64 bits or more).  Half an ulp of q is
  5^k 2^8 in r's units: q moves one double up where r > 5^k 2^8 and one
  down where r < -5^k 2^8.  Two cases are read again by ``float()``: an
  exact tie, |r| = 5^k 2^8, and a true value below a power of two q
  (m = 2^52, r < 0), where the spacing of doubles halves.  These float64
  and 64-bit integer steps are the same on every platform.  The sign is
  applied last, so ``-0`` and ``-0.0`` give -0.0.  Zeros skip the rounding
  step.

  The multi-byte tokens of every text are read in the front blocks of
  ``core._pair_blocks`` and their back blocks, so a mirrored text is
  parsed half.  The outermost pair decides first: the two tokens must
  stand at positions q and N-1-q with the same magnitude bytes, and
  their leading ``-`` says whether every pair's signs are to be equal
  or different.  Then each front block is compared with its back block
  -- positions, magnitude lengths, signs and the 24-byte windows masked
  to the magnitude -- and a back block that matches is not parsed; its
  tokens are filled after the reading, by copy or by negation.  Where
  the outermost pair does not match, and from the first block that does
  not, both blocks are read.  Single-digit tokens keep their one-byte
  path, and an odd count's middle token is read.  A back token whose
  magnitude and ``-`` agree with its twin's is a JSON number exactly
  when its twin is, and reads to its twin's value or the negation of
  it, since the sign is applied last.
* A token that is a JSON number but not in the kernel's form (an
  exponent, more than 18 digits, more than 24 bytes, an exact tie or a
  value just below a power of two) is read by ``float(token)``, which is
  what json's decoder calls.
* Anything else goes to ``loads``, so every error keeps its message: a
  token that is no JSON number, an integer literal of more than 18
  digits, another layout (compact separators, other keys or key order, a
  BOM, non-ASCII text), or a short text.

``tensor_from_obj`` validates a number list by the
set of its item types, not item by item: each type must be an ``int`` or
``float`` subclass and not ``bool``.  It then converts the list to a
float64 array once, so an integer literal too large for a float is a
``ValueError`` like any other malformed input.
"""

from __future__ import annotations

import functools
import json
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cauchy import CauchySpec
from .core import DenseTensor, _mirror_flip, _pair_blocks

__all__ = ["dumps", "loads", "read_tensor", "tensor_to_obj", "tensor_from_obj", "spec_from_obj"]

# Entries formatted per block of the array path.
_BLOCK = 4096
# Stands in the text for a value written per item, spliced in afterwards.
_MARK = "#"
# Dekker's splitter 2^27 + 1; 10^k for k = 0..22, each exact, the writer's
# scales (k <= 20) split the same way and the reader's divisors
_SPLIT = 134217729.0
_POW = np.array([float(10**k) for k in range(23)])
_POW_HI = _SPLIT * _POW - (_SPLIT * _POW - _POW)
_POW_LO = _POW - _POW_HI


def _digit_tables():
    """Each 4-digit group as a uint64 of (digit, NUL) byte pairs, and its
    count of trailing zeros (4 for 0000)."""
    groups = np.arange(10000)[:, None]
    pairs = np.zeros((10000, 8), np.uint8)
    pairs[:, ::2] = groups // [1000, 100, 10, 1] % 10 + 48
    return pairs.view(np.uint64).ravel(), (groups % [10, 100, 1000, 10000] == 0).sum(axis=1)


def _row_tables():
    """Row templates and digit masks, 48 bytes a row.

    A row holds the sign at byte 0, "0." at bytes 1-2, three leading zeros
    at bytes 3-5, digit i at byte 6 + 2i with its point slot after it, and
    ", " at bytes 40-41; unused bytes are NUL.  Row (sign, X + 4, last) is
    the template of a sign, a decimal exponent X in -4..16 and the last
    digit kept after trailing zeros; three rows follow for 0, -0 and the
    marker of a per-item value.
    """
    sign, x, last = np.ix_(range(2), range(-4, 17), range(17))
    rows = np.zeros((2, 21, 17, 48), np.uint8)
    rows[..., 0] = 45 * sign
    rows[..., 1] = 48 * (x < 0)
    rows[..., 2] = 46 * (x < 0)
    rows[..., 3:6] = 48 * (np.arange(3) < -1 - x[..., None])
    rows[..., 7:38:2] = 46 * ((np.arange(16) == x[..., None]) & (last > x)[..., None])
    mask = np.zeros_like(rows)
    mask[..., 6:39:2] = 255 * (np.arange(17) <= last[..., None])
    special = np.zeros((3, 48), np.uint8)
    special[:, 6] = (48, 48, ord(_MARK))
    special[1, 0] = 45
    rows = np.concatenate((rows.reshape(-1, 48), special))
    rows[:, 40:42] = (44, 32)
    mask = np.concatenate((mask.reshape(-1, 48), np.zeros_like(special)))
    return rows.view(np.uint64), mask.view(np.uint64)


@functools.cache
def _tables() -> tuple:
    """The digit groups, their trailing zeros, the row templates and the
    digit masks, built at the kernel's first write: a process that writes
    no long float sequence does not pay their memory."""
    return _digit_tables() + _row_tables()


_ZERO_ROW = 2 * 21 * 17  # then the rows of -0 and the marker
_MARK_ROW = _ZERO_ROW + 2
# what toggles a row's sign byte between "-" and NUL
_SIGN_BYTE = np.uint64(45)


def _scaled(a, a_hi, a_lo, x):
    """p + e = a * 10^(16 - x) exactly (Dekker's two-product)."""
    k = 16 - x
    b_hi, b_lo = _POW_HI[k], _POW_LO[k]
    p = a * _POW[k]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _exponent_step(p, e):
    """+1 where p + e >= 1e17, -1 where p + e < 1e16, else 0."""
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    return high.astype(np.intp) - low


def _block_rows(v: np.ndarray) -> tuple:
    """The entries of v as 48-byte rows of "%.17g" text, each followed by
    ", " and padded with NUL, as an (len(v), 6) uint64 array, and each
    entry's row template (_MARK_ROW for a value written per item)."""
    digit_groups, group_zeros, templates, digit_masks = _tables()
    mag = np.abs(v)
    window = (mag >= 1e-4) & (mag < 1e17)
    a = np.where(window, mag, 1.0)
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p, e = _scaled(a, a_hi, a_lo, x)
    step = _exponent_step(p, e)
    todo = np.flatnonzero(step)
    while todo.size:
        # log10 was off by one next to a power of ten
        x[todo] += step[todo]
        p[todo], e[todo] = _scaled(a[todo], a_hi[todo], a_lo[todo], x[todo])
        step[todo] = _exponent_step(p[todo], e[todo])
        todo = todo[step[todo] != 0]
    # p is an even integer >= 1e16, so adding rint(e) rounds half to even.
    # n never carries to 10^17: that takes |v| within 5e-18 of 10^(x + 1)
    # relative, and no double lies that close below a power of ten from
    # 1e-3 to 1e17.
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # one group per uint64 word of a row; the ", " word's stays 0
    groups = np.zeros((len(v), 6), np.int64)
    groups[:, 0], rest = np.divmod(n, 10**16)
    high, low = np.divmod(rest, 10**8)
    groups[:, 1], groups[:, 2] = np.divmod(high, 10**4)
    groups[:, 3], groups[:, 4] = np.divmod(low, 10**4)
    # trailing zeros: the last group's, then each all-zero group's predecessor's
    zeros = group_zeros[groups[:, 1]]
    for g in (2, 3, 4):
        zeros = group_zeros[groups[:, g]] + (groups[:, g] == 0) * zeros
    sign = np.signbit(v)
    row = (sign * 21 + x + 4) * 17 + np.maximum(16 - zeros, x)
    outside = ~window
    row[outside] = np.where(mag[outside] == 0.0, _ZERO_ROW + sign[outside], _MARK_ROW)
    out = np.take(digit_groups, groups)
    out &= np.take(digit_masks, row, axis=0)
    out |= np.take(templates, row, axis=0)
    return out, row


def _rows_text(out: np.ndarray, row: np.ndarray, v: np.ndarray) -> str:
    """The text of _block_rows' rows, v's per-item values spliced in at the markers."""
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    per_item = v[row == _MARK_ROW]
    if per_item.size:
        parts = text.split(_MARK)
        items = ["%.17g" % f for f in per_item.tolist()]
        text = "".join([s for pair in zip(parts, items) for s in pair]) + parts[-1]
    return text


def _format_block(v: np.ndarray) -> str:
    """The entries of v as "%.17g" text, each followed by ", "."""
    return _rows_text(*_block_rows(v), v)


def _format_pairs(values: np.ndarray, start: int, stop: int, k: int, flip) -> tuple:
    """The text of the front block [start, stop) of a mirrored sequence, k
    of whose entries are proper pairs (see core._pair_blocks), and that of
    its back block: the rows of those pairs reversed, a skew mirror's sign
    bytes toggled except a per-item marker's, whose value is written from
    its back entry."""
    v = values[start:stop]
    out, row = _block_rows(v)
    front = _rows_text(out, row, v)
    out, row = out[:k], row[:k]
    if flip:
        out[:, 0] ^= _SIGN_BYTE
        out[row == _MARK_ROW, 0] ^= _SIGN_BYTE
    return front, _rows_text(out[::-1], row[::-1], values[len(values) - start - k : len(values) - start])


def _format_floats(values) -> str:
    """``", ".join("%.17g" % v for v in values)`` for a 1-D float64 array or
    a list of floats: one ``%`` pass below _KERNEL_MIN_FLOATS entries, where
    the kernel's fixed cost does not pay, and the kernel from there on.
    The kernel formats only the front half of a mirrored sequence (see
    the module docstring)."""
    n = len(values)
    if n < _KERNEL_MIN_FLOATS:
        return ", ".join(["%.17g"] * n) % tuple(values)
    values = np.asarray(values)
    flip = _mirror_flip(values.view(np.uint64), _BLOCK)
    with np.errstate(all="ignore"):
        if flip is None:
            blocks = [_format_block(values[i : i + _BLOCK]) for i in range(0, n, _BLOCK)]
        else:
            # rebinding blocks drops the pairs, which would hold the last
            # block past its trimmed copy
            blocks = [_format_pairs(values, *block, flip) for block in _pair_blocks(n, _BLOCK)]
            blocks = [front for front, _ in blocks] + [back for _, back in blocks[::-1]]
    if blocks:
        blocks[-1] = blocks[-1][:-2]
    return "".join(blocks)


def _format_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, str):
        return json.dumps(value)
    float_array = isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64
    if float_array or isinstance(value, list) and set(map(type, value)) == {float}:
        return "[" + _format_floats(value) + "]"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = ", ".join(_format_value(v) for v in value)
        return f"[{items}]"
    if isinstance(value, dict):
        # one join over the parts, so a large value's text is copied once
        parts = []
        for k, v in value.items():
            parts += (", ", json.dumps(str(k)), ": ", _format_value(v))
        parts[:1] = ["{"]
        parts.append("}")
        return "".join(parts)
    if isinstance(value, DenseTensor):
        return _format_value({"order": value.order, "dim": value.dim, "entries": value.entries})
    if hasattr(value, "as_dict"):
        return _format_value(value.as_dict())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text with fixed-precision floats; a DenseTensor is
    written in the tensor format and an object with as_dict as that dict."""
    return _format_value(obj)


def _parse_int(text: str):
    # json calls this for integer literals only
    return -0.0 if text == "-0" else int(text)


def loads(text: str):
    """Parse JSON text; a bare ``-0``, the writer's -0.0, is read as -0.0."""
    try:
        return json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    except RecursionError:
        # the decoder recurses once per open bracket
        raise ValueError("malformed JSON: nested too deeply") from None


def tensor_to_obj(a: DenseTensor) -> dict:
    return {"order": a.order, "dim": a.dim, "entries": a.entries.tolist()}


def _require_int(obj: dict, key: str) -> int:
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"key {key!r} must be a positive integer")
    return value


def _require_numbers(obj: dict, key: str) -> np.ndarray:
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    values = obj[key]
    if not isinstance(values, list) or not all(
        issubclass(t, (int, float)) and not issubclass(t, bool)
        for t in set(map(type, values))
    ):
        raise ValueError(f"key {key!r} must be a list of numbers")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"key {key!r} holds an integer too large for a float") from None


def tensor_from_obj(obj) -> DenseTensor:
    if not isinstance(obj, dict):
        raise ValueError("tensor JSON must be an object")
    order = _require_int(obj, "order")
    dim = _require_int(obj, "dim")
    # the array is the reader's own, so it is checked and adopted, not copied
    return DenseTensor._from_flat(order, dim, _require_numbers(obj, "entries"))


# The reader's number kernel: the width of a token's window; the writer's
# layout up to the first entry; JSON number literals, which float() reads
# as json does; and texts too short for the kernel to pay.
_WINDOW = 24
_TENSOR_HEAD = re.compile(rb'[ \t\n\r]*\{"order": ([1-9][0-9]{0,17}), "dim": ([1-9][0-9]{0,17}), "entries": \[')
_JSON_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_KERNEL_MIN_CHARS = 10_000
# The shortest float sequence the writer's kernel formats faster than "%".
_KERNEL_MIN_FLOATS = 192


# "0" in every byte of a word, the top bit of every byte, 0x76 in every byte,
# and a double's fraction bits, its implicit leading bit and exponent shift
_ZEROS = np.uint64(0x3030303030303030)
_HIGH = np.uint64(0x8080808080808080)
_DIGIT_ADD = np.uint64(0x7676767676767676)
_FRACTION, _HIDDEN, _EXPONENT = np.uint64(2**52 - 1), np.uint64(2**52), np.uint64(52)
_SIGNS = np.array([1.0, -1.0])


@functools.cache
def _reader_tables():
    """The kernel's tables, built at the first kernel read.

    last and below are (3, 25) arrays of uint64 words whose column i holds
    the three words of a 24-byte mask: last[:, i] keeps a row's last i
    bytes, below[:, i] its first i.  column_of[w] times a word w with one
    0x01 byte, at byte j, puts j + 1 + 8w in the product's top byte.
    For k = 0..22 digits after the point, fives[k] is 5^k 2^9 (int64) and
    shifts[k] is 1084 - k (uint64): 9 - k - e is shifts[k] less the biased
    exponent of a double m 2^e.
    """
    cols = np.arange(_WINDOW)
    keep = np.arange(_WINDOW + 1)[:, None]
    last = (cols >= _WINDOW - keep).astype(np.uint8) * np.uint8(255)
    below = (cols < keep).astype(np.uint8) * np.uint8(255)
    column_of = [int.from_bytes(bytes(8 * w + 8 - j for j in range(8)), "little") for w in range(3)]
    return (last.view(np.uint64).T.copy(), below.view(np.uint64).T.copy(), np.array(column_of, np.uint64)[:, None],
            np.array([5**k << 9 for k in range(23)], np.int64), np.arange(1084, 1061, -1, dtype=np.uint64))


def _read_block(rows: np.ndarray, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """The tokens of at least two bytes at these starts and lengths, whose
    windows are rows, as floats, and a mask of the ones the kernel read;
    the others hold +-0."""
    last, below, column_of, fives, shifts = _reader_tables()
    ends = starts + lengths
    length = np.minimum(lengths, _WINDOW)
    # word w of each row in row w, so every step is a flat uint64 op
    words = rows.view(np.uint64).T.copy()
    # p = the point's column + 1 (0 without a point); several points sum to
    # a column whose removal still leaves a point among the digits
    points = (rows == 46).view(np.uint64).T & np.take(last, length, axis=1)
    points *= column_of
    points >>= np.uint64(56)
    p = points.sum(axis=0, dtype=np.intp)
    np.minimum(p, _WINDOW, out=p)
    has_point = p > 0
    negative = buf[starts] == 45
    # drop the point: the bytes before it move up one column
    shifted = words << np.uint64(8)
    shifted[1:] |= words[:-1] >> np.uint64(56)
    shifted &= np.take(below, p, axis=1)
    words &= ~np.take(below, p, axis=1)
    words |= shifted
    digits = length - has_point - negative
    words ^= _ZEROS
    words &= np.take(last, digits, axis=1)
    # a byte is a digit when it is <= 9, so adding 0x76 leaves its top bit clear
    ok = (np.bitwise_or.reduce((words + _DIGIT_ADD) & _HIGH) == 0) & (digits >= 1) & (lengths <= _WINDOW)
    # a point needs a digit on either side
    ok &= ~has_point | ((p > _WINDOW + 1 - length + negative) & (p < _WINDOW))
    # a leading 0 is the whole integer part
    first = starts + negative
    ok &= (buf[first] != 48) | (first + 1 == ends) | (buf[first + 1] == 46)
    # eight digits a word, most significant first (Lemire's SWAR steps)
    words = words * np.uint64(10) + (words >> np.uint64(8))
    pairs = np.uint64(0x000000FF000000FF)
    low, high = words & pairs, (words >> np.uint64(16)) & pairs
    words = (low * np.uint64(100 + (1000000 << 32)) + high * np.uint64(1 + (10000 << 32))) >> np.uint64(32)
    ok &= words[0] < 100
    n = words[0] * np.uint64(10**16) + words[1] * np.uint64(10**8) + words[2]
    values = np.zeros(len(starts))
    read = np.flatnonzero(ok & (n != 0))
    n, k = n[read], (_WINDOW - p[read]) * has_point[read]
    q = n.astype(np.float64) / _POW[k]
    # q = m 2^e is within one double of n / 10^k; twice is 2r for the remainder
    # r = (n - q 10^k) 2^(9 - k - e) = n 2^(9 - k - e) - m 5^k 2^9, exact mod
    # 2^64 (see the module docstring), and q moves where |r| > 5^k 2^8
    bits = q.view(np.uint64)
    m = bits & _FRACTION | _HIDDEN
    scale = fives[k]
    twice = 2 * ((n << (shifts[k] - (bits >> _EXPONENT))) - m * scale.view(np.uint64)).view(np.int64)
    # an exact tie, or a true value below a power of two, where the spacing halves
    ok[read[(np.abs(twice) == scale) | ((m == _HIDDEN) & (twice < 0))]] = False
    bits += twice > scale
    bits -= twice < -scale
    values[read] = q
    values *= np.take(_SIGNS, negative)
    return values, ok


def _outer_flip(data: bytes, starts, lengths, rest):
    """False where the outermost tokens of two bytes or more, at the token
    indices rest[0] and rest[-1], pair up as (q, N-1-q) with the same
    magnitude and sign, True where their signs differ, else None."""
    if len(rest) < 2:
        return None
    a, b = rest[0], rest[-1]
    neg_a, neg_b = data[starts[a]] == 45, data[starts[b]] == 45
    magnitude_a = data[starts[a] + neg_a : starts[a] + lengths[a]]
    if a + b != len(starts) - 1 or magnitude_a != data[starts[b] + neg_b : starts[b] + lengths[b]]:
        return None
    return neg_a != neg_b


def _tokens(windows, starts, lengths, at) -> tuple:
    """The tokens at these indices: the indices, starts, lengths and windows."""
    at_starts, at_lengths = starts[at], lengths[at]
    return at, at_starts, at_lengths, windows[at_starts + at_lengths - _WINDOW]


def _twins(buf, front: tuple, back: tuple, count: int, negate: bool) -> bool:
    """Whether each of the front tokens and the back token of its place
    (both as _tokens gives them) stand at mirrored positions q and
    count-1-q with the same magnitude and the same sign (negate False) or
    the other (negate True)."""
    (front, starts, lengths, rows), (back, twin_starts, twin_lengths, twin_rows) = front, back
    negative, twin_negative = buf[starts] == 45, buf[twin_starts] == 45
    size = lengths - negative
    if (np.any(front + back != count - 1) or np.any((negative != twin_negative) != negate)
            or np.any(size != twin_lengths - twin_negative) or np.any(size > _WINDOW)):
        return False
    differ = rows.view(np.uint64) ^ twin_rows.view(np.uint64)
    return not np.any(differ & np.take(_reader_tables()[0], size, axis=1).T)


def _read_entries(data):
    """(order, dim, entries) of a tensor text (str) or file (bytes) in the
    writer's layout, or None where it takes loads (see the module docstring)."""
    if not data.isascii():
        return None
    data = data if isinstance(data, bytes) else data.encode("ascii")
    head = _TENSOR_HEAD.match(data)
    if head is None:
        return None
    end = len(data)
    while data[end - 1] in b" \t\n\r":
        end -= 1
    if data[end - 2 : end] != b"]}":
        return None
    buf = np.frombuffer(data, np.uint8)
    lo, hi = head.end(), end - 2
    commas = np.flatnonzero(buf[lo:hi] == 44)
    commas += lo
    if np.any(buf[commas + 1] != 32):
        return None
    starts = np.empty(len(commas) + 1, np.intp)
    starts[0], starts[1:] = lo, commas + 2
    lengths = np.empty_like(starts)
    lengths[:-1], lengths[-1] = commas, hi
    lengths -= starts
    if np.any(lengths <= 0):
        return None
    entries = np.empty(len(starts))
    single = lengths == 1
    at = np.flatnonzero(single)
    digit = buf[starts[at]] - np.uint8(48)
    if np.any(digit > 9):
        return None
    entries[at] = digit
    # a token's window reaches back into the text before it; the first
    # token starts past the head's 24 characters
    windows = sliding_window_view(buf, _WINDOW)
    rest = np.flatnonzero(~single)
    negate = _outer_flip(data, starts, lengths, rest)
    mirrored = negate is not None
    per_item, twins = [], []
    for start, stop, k in _pair_blocks(len(rest), _BLOCK):
        front = _tokens(windows, starts, lengths, rest[start:stop])
        # the mirrors of this block's proper pairs: filled from their twins
        # where every pair matches, else read, and then every later block too
        back = _tokens(windows, starts, lengths, rest[len(rest) - start - k : len(rest) - start][::-1])
        mirrored = mirrored and _twins(buf, tuple(part[:k] for part in front), back, len(starts), negate)
        if mirrored:
            twins.append(front[0][:k])
        for at, at_starts, at_lengths, rows in [front] if mirrored else [front, back]:
            entries[at], ok = _read_block(rows, buf, at_starts, at_lengths)
            per_item += at[~ok].tolist()
    for i in per_item:
        token = data[starts[i] : starts[i] + lengths[i]]
        if not _JSON_NUMBER.fullmatch(token) or (
            not any(c in token for c in b".eE") and len(token.lstrip(b"-")) > 18
        ):
            return None
        entries[i] = float(token)
    for at in twins:
        entries[len(entries) - 1 - at] = -entries[at] if negate else entries[at]
    return int(head[1]), int(head[2]), entries


def read_tensor(data) -> DenseTensor:
    """The tensor of a JSON text, or of a file's bytes, bit for bit
    ``tensor_from_obj(loads(text))`` with the same errors; the writer's own
    layout takes a number kernel.  Bytes that leave the kernel are decoded
    as a text-mode ``open`` reads them: UTF-8, universal newlines."""
    got = _read_entries(data) if len(data) >= _KERNEL_MIN_CHARS else None
    if got is None:
        if isinstance(data, bytes):
            # what open(path, encoding="utf-8").read() gives: universal newlines
            data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return tensor_from_obj(loads(data))
    # the array is the reader's own, so it is checked and adopted, not copied
    return DenseTensor._from_flat(*got)


def spec_from_obj(obj) -> CauchySpec:
    if not isinstance(obj, dict):
        raise ValueError("cauchy spec JSON must be an object")
    order = _require_int(obj, "order")
    generating = _require_numbers(obj, "generating")
    return CauchySpec(generating, order)
