"""JSON interchange for tensors and generating-vector specs.

Formats:

* tensor  {"order": m, "dim": n, "entries": [n^m reals, row-major,
  last index fastest]}
* cauchy spec  {"order": m, "generating": [n reals]}

Output numbers are printed with 17 significant digits, which is
round-trip safe for float64 and makes repeated runs byte-identical.
Every float is written exactly as ``"%.17g"`` writes it ("%.17g" gives
the same bytes as ``format(v, ".17g")`` for every float64, -0.0, inf and
nan included), whichever of the three paths below writes it.

Both directions work on whole float lists at C level or in numpy, since
tensors are long flat lists.

* A 1-D float64 array (a tensor's entries) goes through
  ``_format_floats``, a numpy kernel that works in blocks of
  ``_BLOCK`` (4096) entries, so its working memory is bounded.  In the
  window 1e-4 <= |v| < 1e17, where "%.17g" writes a plain decimal, the
  decimal exponent X of |v| comes from ``log10`` and is made exact by
  Dekker's error-free product p + e = |v| * 10^(16 - X) (10^(16 - X) is
  an exact double since 16 - X <= 20), stepping X where p + e falls
  outside [1e16, 1e17).  The 17 digits are the integer p + rint(e), p
  being an even integer there, so the rounding is half-even as in
  "%.17g"; it never carries to 10^17 in the window, since no double lies
  within 5e-18 (relative) below a power of ten there.  The digits come from a
  10,000-entry table of 4-digit groups and are laid into fixed-width
  rows whose sign, leading "0.", leading zeros and point come from a
  row template chosen by (sign, X, last kept digit), trailing zeros
  masked out; the NUL padding is dropped in one pass.  The tables are
  built at the first array write.  Zero is ``0`` or
  ``-0``.  Any other value (exponent notation, subnormals, inf, nan)
  gets the per-item "%.17g", spliced in at its position.
* A list whose items are all exactly ``float`` is formatted in one
  ``%`` pass.
* Anything else (mixed lists, bools, ints, numpy scalars, other arrays,
  dicts) is formatted item by item.

The reader validates a number list by the
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

from .cauchy import CauchySpec
from .core import DenseTensor

__all__ = ["dumps", "loads", "tensor_to_obj", "tensor_from_obj", "spec_from_obj"]

# Entries formatted per block of the array path.
_BLOCK = 4096
# Stands in the text for a value written per item, spliced in afterwards.
_MARK = "#"
# Dekker's splitter 2^27 + 1, and 10^k for k = 0..20 split the same way
_SPLIT = 134217729.0
_POW = 10.0 ** np.arange(21)
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
    digit masks, built at the first array write: a process that writes no
    array does not pay their memory."""
    return _digit_tables() + _row_tables()


_ZERO_ROW = 2 * 21 * 17  # then the rows of -0 and the marker
_MARK_ROW = _ZERO_ROW + 2


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


def _format_block(v: np.ndarray) -> str:
    """The entries of v as "%.17g" text, each followed by ", "."""
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
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    per_item = v[row == _MARK_ROW]
    if per_item.size:
        parts = text.split(_MARK)
        items = ["%.17g" % f for f in per_item.tolist()]
        text = "".join([s for pair in zip(parts, items) for s in pair]) + parts[-1]
    return text


def _format_floats(values: np.ndarray) -> str:
    """``", ".join("%.17g" % v for v in values)`` for a 1-D float64 array."""
    with np.errstate(all="ignore"):
        blocks = [_format_block(values[i : i + _BLOCK]) for i in range(0, len(values), _BLOCK)]
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
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64:
        return "[" + _format_floats(value) + "]"
    if isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, list) and set(map(type, value)) == {float}:
            return "[" + ", ".join(["%.17g"] * len(value)) % tuple(value) + "]"
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


_BARE_NEGATIVE_ZERO = re.compile(r"-0(?![.eE\d])")


def loads(text: str):
    """Parse JSON text; a bare ``-0``, the writer's -0.0, is read as -0.0."""
    # a Python hook per integer literal is slow on a file of zeros
    hook = _parse_int if _BARE_NEGATIVE_ZERO.search(text) else int
    try:
        return json.loads(text, parse_int=hook)
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


def spec_from_obj(obj) -> CauchySpec:
    if not isinstance(obj, dict):
        raise ValueError("cauchy spec JSON must be an object")
    order = _require_int(obj, "order")
    generating = _require_numbers(obj, "generating")
    return CauchySpec(generating, order)
