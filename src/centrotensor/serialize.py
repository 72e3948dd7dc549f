"""JSON interchange for tensors and generating-vector specs.

Formats:

* tensor  {"order": m, "dim": n, "entries": [n^m reals, row-major,
  last index fastest]}
* cauchy spec  {"order": m, "generating": [n reals]}

Output numbers are printed with 17 significant digits, which is
round-trip safe for float64 and makes repeated runs byte-identical.

Both directions work on whole float lists at C level, since tensors are
long flat lists.  The writer formats a list whose items are all exactly
``float`` in one ``%`` pass ("%.17g" gives the same bytes as
``format(v, ".17g")`` for every float64, -0.0, inf and nan included);
anything else (mixed lists, bools, ints, numpy scalars, arrays, dicts)
is formatted item by item.  The reader validates a number list by the
set of its item types, not item by item: each type must be an ``int`` or
``float`` subclass and not ``bool``.  It then converts the list to a
float64 array once, so an integer literal too large for a float is a
``ValueError`` like any other malformed input.
"""

from __future__ import annotations

import json

import numpy as np

from .cauchy import CauchySpec
from .core import DenseTensor

__all__ = [
    "dumps",
    "tensor_to_obj",
    "tensor_from_obj",
    "spec_from_obj",
]


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
    if isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, list) and set(map(type, value)) == {float}:
            return "[" + ", ".join(["%.17g"] * len(value)) % tuple(value) + "]"
        items = ", ".join(_format_value(v) for v in value)
        return f"[{items}]"
    if isinstance(value, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_format_value(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text with fixed-precision floats."""
    return _format_value(obj)


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
