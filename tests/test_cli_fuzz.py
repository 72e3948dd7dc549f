"""Extreme-value fuzz of every CLI verb that reads a tensor or a spec.

Tensors of order and dim at most 3 and Cauchy specs of order and dim at
most 3 take every entry from zero, +-1, the smallest normal and
subnormal floats and the float limit.  The products draw operands of one
dim (one shape for hadamard); inverse also draws centro tensors and
palindromic diagonals, so the recovery and construction paths run.  Each
verb must exit 0, 1 or 2 without a traceback; at exit 0 stdout is strict
JSON and stderr empty.  Nothing is printed before a verb's result is
complete: at exit 2 stdout is empty, and at exit 1 it is empty or one
strict-JSON negative answer ("found": false).  numpy warnings raised
in-process reach pytest's warning capture, not stderr, so a
RuntimeWarning is an error here.
A malformed flag value must exit 2 with an error that names the flag,
and a malformed JSON document given to any verb that reads one must exit
2 with one error line on stderr.
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

from centrotensor import DenseTensor, palindromize
from centrotensor.cli import main
from centrotensor.serialize import tensor_to_obj

BIG = float(np.finfo(float).max)
VALUES = [0.0, 1.0, -1.0, 1e-308, -1e-308, 5e-324, -5e-324, 1e308, -1e308, BIG, -BIG]

TENSOR_VERBS = {
    "check-direct": ["check", "{path}", "--method", "direct"],
    "check-sandwich": ["check", "{path}", "--method", "sandwich"],
    "check-commutation": ["check", "{path}", "--method", "commutation"],
    "decompose": ["decompose", "{path}"],
    "eig": ["eig", "{path}", "--starts", "3"],
}
INVERSE_VERBS = {
    f"inverse-{side}-{order}": ["inverse", "{path}", "--side", side, "--order", order]
    for side in ("left", "right")
    for order in ("2", "3")
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


@st.composite
def centro_tensors(draw):
    obj = draw(tensors())
    obj["entries"] = palindromize(obj["entries"]).tolist()
    return obj


@st.composite
def centro_diagonals(draw):
    order, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    diag = palindromize(draw(st.lists(st.sampled_from(VALUES), min_size=dim, max_size=dim)))
    return tensor_to_obj(DenseTensor.diagonal(order, diag))


@st.composite
def operand_pairs(draw, same_order):
    dim = draw(st.integers(1, 3))
    orders = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if same_order:
        orders = orders[0], orders[0]
    return [
        {"order": m, "dim": dim,
         "entries": draw(st.lists(st.sampled_from(VALUES), min_size=dim**m, max_size=dim**m))}
        for m in orders
    ]


def _refuse(constant):
    raise ValueError(f"non-JSON constant {constant}")


def _run_verb(argv, **objs):
    """Run argv with each {name} in it naming a file that holds objs[name]."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in objs.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(obj if isinstance(obj, str) else json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, objs, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "", (argv, objs, err)
        json.loads(out, parse_constant=_refuse)
    elif code == 1 and out:
        assert json.loads(out, parse_constant=_refuse)["found"] is False, (argv, objs, out)
    else:
        assert out == "", (argv, objs, code, out)
    return code, err


FUZZ = settings(max_examples=60, deadline=None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", TENSOR_VERBS)
@FUZZ
@given(obj=tensors())
def test_tensor_verbs(verb, obj):
    _run_verb(TENSOR_VERBS[verb], path=obj)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", SPEC_VERBS)
@FUZZ
@given(obj=specs())
def test_cauchy_verbs(verb, obj):
    _run_verb(SPEC_VERBS[verb], path=obj)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", ["prod", "hadamard"])
@FUZZ
@given(data=st.data())
def test_product_verbs(verb, data):
    left, right = data.draw(operand_pairs(same_order=verb == "hadamard"))
    _run_verb([verb, "{left}", "{right}"], left=left, right=right)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", INVERSE_VERBS)
@FUZZ
@given(obj=st.one_of(tensors(), centro_tensors(), centro_diagonals()))
def test_inverse_verbs(verb, obj):
    _run_verb(INVERSE_VERBS[verb], path=obj)


CENTRO = {"order": 2, "dim": 2, "entries": [2.0, 1.0, 1.0, 2.0]}
# verb-flag name -> argv; the error must name the flag, the name's last word
MALFORMED_FLAGS = {
    "gen-seed": ["gen", "--dim", "2", "--kind", "centro", "--seed", "-1"],
    "gen-order": ["gen", "--dim", "2", "--order", "0"],
    "gen-exchange-order": ["gen", "--dim", "2", "--kind", "exchange", "--order", "3"],
    "eig-seed": ["eig", "{path}", "--seed", "-1"],
    "eig-tol": ["eig", "{path}", "--tol", "1e999"],
    "check-tol": ["check", "{path}", "--tol", "1e999"],
    "prod-cap": ["prod", "{path}", "{path}", "--cap", "-1"],
    "inverse-order": ["inverse", "{path}", "--side", "left", "--order", "0"],
    "inverse-tol": ["inverse", "{path}", "--side", "left", "--tol", "1e999"],
    "verify-all-seed": ["verify-all", "--seed", "-1", "--trials", "1"],
    "verify-all-trials": ["verify-all", "--trials", "-1"],
    "verify-all-corrupt": ["verify-all", "--trials", "1", "--corrupt", "x"],
}


@pytest.mark.parametrize("flags", MALFORMED_FLAGS)
def test_malformed_flag_exits_2(flags):
    code, err = _run_verb(MALFORMED_FLAGS[flags], path=CENTRO)
    assert code == 2, err
    assert flags.rsplit("-", 1)[1] in err, err


SPEC = {"order": 2, "generating": [1.0, 2.0, 1.0]}
# Each verb reads the malformed document at {path}; a product's other
# operand, at {good}, is valid.
DOCUMENT_VERBS = {
    **TENSOR_VERBS,
    **INVERSE_VERBS,
    **SPEC_VERBS,
    **{f"{verb}-{side}": [verb] + (["{path}", "{good}"] if side == "left" else ["{good}", "{path}"])
       for verb in ("prod", "hadamard") for side in ("left", "right")},
}


def _valid_document(verb: str) -> dict:
    return SPEC if verb in SPEC_VERBS else CENTRO


def _malformed_documents(valid: dict) -> dict:
    """Name -> text of a document that breaks valid's format one way."""
    field = "generating" if "generating" in valid else "entries"
    numbers = valid[field]

    def edited(**changes):
        doc = {key: value for key, value in valid.items() if changes.get(key, "") is not None}
        doc.update({key: value for key, value in changes.items() if value is not None})
        return json.dumps(doc)

    docs = {
        "empty": "",
        "trailing-garbage": json.dumps(valid) + " x",
        "top-level-list": json.dumps([valid]),
        "top-level-string": json.dumps(json.dumps(valid)),
        "top-level-null": "null",
        "deeply-nested": "[" * 100_000 + "]" * 100_000,
        "order-string": edited(order="2"),
        "order-float": edited(order=2.0),
        "order-bool": edited(order=True),
        "order-zero": edited(order=0),
        "missing-order": edited(order=None),
        f"missing-{field}": edited(**{field: None}),
        f"{field}-string": edited(**{field: " ".join(map(str, numbers))}),
        f"{field}-object": edited(**{field: {"0": numbers[0]}}),
        f"{field}-nested": edited(**{field: [numbers]}),
        f"{field}-bool-item": edited(**{field: [True] + numbers[1:]}),
        f"{field}-string-item": edited(**{field: [str(numbers[0])] + numbers[1:]}),
        f"{field}-null-item": edited(**{field: [None] + numbers[1:]}),
        f"{field}-empty": edited(**{field: []}),
    }
    for literal in ("NaN", "Infinity", "-Infinity"):
        docs[f"{field}-{literal}"] = json.dumps(valid).replace(repr(numbers[0]), literal, 1)
    if field == "entries":
        docs["missing-dim"] = edited(dim=None)
        docs["dim-string"] = edited(dim="2")
    return docs


def _assert_input_error(case, argv, **objs):
    code, err = _run_verb(argv, **objs)
    assert code == 2, (case, argv, code, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (case, argv, err)
    assert "Warning" not in err, (case, argv, err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb", DOCUMENT_VERBS)
def test_malformed_document_exits_2(verb):
    valid = _valid_document(verb)
    for name, text in _malformed_documents(valid).items():
        _assert_input_error(name, DOCUMENT_VERBS[verb], path=text, good=CENTRO)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb", DOCUMENT_VERBS)
@FUZZ
@given(data=st.data())
def test_truncated_document_exits_2(verb, data):
    text = json.dumps(_valid_document(verb))
    cut = data.draw(st.integers(0, len(text) - 1))
    _assert_input_error(text[:cut], DOCUMENT_VERBS[verb], path=text[:cut], good=CENTRO)
