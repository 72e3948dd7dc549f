"""Extreme-value fuzz of the CLI verbs that classify, split, solve and build.

Tensors of order and dim at most 3 and Cauchy specs of order and dim at
most 3 take every entry from zero, +-1, the smallest normal and
subnormal floats and the float limit.  Each verb must exit 0, 1 or 2
without a traceback; at exit 0 stdout is strict JSON and stderr empty.
numpy warnings raised in-process reach pytest's warning capture, not
stderr, so a RuntimeWarning is an error here.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrotensor.cli import main

BIG = float(np.finfo(float).max)
VALUES = [0.0, 1.0, -1.0, 1e-308, -1e-308, 5e-324, -5e-324, 1e308, -1e308, BIG, -BIG]

TENSOR_VERBS = {
    "check-direct": ["check", "{path}", "--method", "direct"],
    "check-sandwich": ["check", "{path}", "--method", "sandwich"],
    "check-commutation": ["check", "{path}", "--method", "commutation"],
    "decompose": ["decompose", "{path}"],
    "eig": ["eig", "{path}", "--starts", "3"],
}
SPEC_VERBS = {
    "cauchy-check": ["cauchy", "{path}", "--mode", "check"],
    "cauchy-materialize": ["cauchy", "{path}", "--mode", "materialize"],
}


@st.composite
def tensors(draw):
    order, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = draw(st.lists(st.sampled_from(VALUES), min_size=dim**order, max_size=dim**order))
    return {"order": order, "dim": dim, "entries": entries}


@st.composite
def specs(draw):
    generating = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3))
    return {"order": draw(st.integers(1, 3)), "generating": generating}


def _refuse(constant):
    raise ValueError(f"non-JSON constant {constant}")


def _run_verb(argv, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(path=path) for arg in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, obj, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "", (argv, obj, err)
        json.loads(out, parse_constant=_refuse)


FUZZ = settings(max_examples=60, deadline=None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", TENSOR_VERBS)
@FUZZ
@given(obj=tensors())
def test_tensor_verbs(verb, obj):
    _run_verb(TENSOR_VERBS[verb], obj)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", SPEC_VERBS)
@FUZZ
@given(obj=specs())
def test_cauchy_verbs(verb, obj):
    _run_verb(SPEC_VERBS[verb], obj)
