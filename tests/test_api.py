"""The public surface and the input contract shared by every module."""

import dataclasses
import importlib

import numpy as np
import pytest

import centrotensor
from centrotensor import (
    CauchySpec,
    DenseTensor,
    apply,
    cauchy_check_JC,
    cauchy_is_centro,
    cauchy_is_skew,
    check_commutation,
    check_structure,
    check_via_J,
    classify_vector,
    closed_form_dim2,
    diagonal_left_inverse,
    exchange_matrix,
    flip_vector,
    materialize,
    normalize_eigenvector,
    palindromize,
    poly_eval,
    random_structured,
    recover_order2_left_inverse,
    recover_order2_right_inverse,
    reflect_pair,
    residual,
    shao_product,
    verify_all,
    verify_poly_reflection,
    verify_row_sum_symmetry,
)

MODULES = (
    "core", "structure", "product", "cauchy", "inverse", "eigen", "serialize", "suite", "cli"
)

# Public names taken out of the library, with what replaces them.
REMOVED = {
    "matrix_times_tensor": "shao_product(b, a)",
    "tensor_times_matrix": "shao_product(a, b)",
    "max_abs": "entry_scale",
    "vector_to_obj": None,
    "vector_from_obj": None,
    "validate_spec": "materialize(spec)",
    "power_vector": "x ** p",
    "ProductShape": "order (m-1)(k-1)+1 and n**order entries",
    "product_shape": "order (m-1)(k-1)+1 and n**order entries",
    "chain_product": "shao_product(shao_product(a, b), c)",
    "spec_to_obj": '{"order": spec.order, "generating": spec.generating.tolist()}',
    "as_generator": "np.random.default_rng(seed)",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"centrotensor.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"centrotensor.{name}.__all__ names missing {attr!r}"
    for attr in REMOVED:
        assert not hasattr(module, attr), f"centrotensor.{name} still has {attr!r}"


def test_package_exposes_no_removed_name():
    assert not set(REMOVED) & set(dir(centrotensor))


CENTRO = random_structured(3, 2, "centro", seed=4)
SPEC = CauchySpec(np.array([1.0, 2.0, 1.0]), 2)
PAIR = closed_form_dim2(CENTRO)[0]

# Options taken out of the library: each predicate now uses the default
# tolerance (verify_poly_reflection a fixed 1e-10 bound),
# verify_row_sum_symmetry needs assume="centro" or "skew", and the product
# is capped at core.DEFAULT_ENTRY_CAP like every construction.
REMOVED_OPTIONS = {
    "cauchy_is_centro(tol=)": lambda: cauchy_is_centro(SPEC, tol=1e-3),
    "cauchy_is_skew(tol=)": lambda: cauchy_is_skew(SPEC, tol=1e-3),
    "cauchy_check_JC(tol=)": lambda: cauchy_check_JC(SPEC, tol=1e-3),
    "verify_poly_reflection(tol=)": lambda: verify_poly_reflection(CENTRO, tol=1e-3),
    "verify_row_sum_symmetry(tol=)": lambda: verify_row_sum_symmetry(CENTRO, "centro", tol=1e-3),
    "verify_row_sum_symmetry(assume=None)": lambda: verify_row_sum_symmetry(CENTRO),
    "shao_product(entry_cap=)": lambda: shao_product(CENTRO, CENTRO, entry_cap=2**26),
}


@pytest.mark.parametrize("call", REMOVED_OPTIONS.values(), ids=REMOVED_OPTIONS.keys())
def test_removed_option_is_refused(call):
    with pytest.raises(TypeError):
        call()


TOLERANCE_TAKERS = {
    "check_structure": lambda tol: check_structure(CENTRO, tol),
    "check_via_J": lambda tol: check_via_J(CENTRO, tol),
    "check_commutation": lambda tol: check_commutation(CENTRO, tol),
    "reflect_pair": lambda tol: reflect_pair(CENTRO, PAIR, tol=tol),
    "recover_order2_left_inverse": lambda tol: recover_order2_left_inverse(
        DenseTensor.identity(4, 2), tol=tol
    ),
    "recover_order2_right_inverse": lambda tol: recover_order2_right_inverse(
        DenseTensor.identity(4, 2), tol=tol
    ),
}


@pytest.mark.parametrize("call", TOLERANCE_TAKERS.values(), ids=TOLERANCE_TAKERS.keys())
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_invalid_tolerance_is_rejected(call, tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        call(tol)


# Each call takes one vector of length CENTRO.dim (palindromize an array of
# any shape), read as float64 by core._real: complex values are refused
# rather than dropped with a warning, and a vector that enters arithmetic
# (every one but palindromize's) must be finite.
VECTOR_TAKERS = {
    "apply": lambda x: apply(CENTRO, x),
    "poly_eval": lambda x: poly_eval(CENTRO, x),
    "residual": lambda x: residual(CENTRO, PAIR.value, x),
    "classify_vector": classify_vector,
    "normalize_eigenvector": normalize_eigenvector,
    "flip_vector": flip_vector,
    "reflect_pair": lambda x: reflect_pair(CENTRO, dataclasses.replace(PAIR, vector=x)),
    "diagonal": lambda x: DenseTensor.diagonal(3, x),
    "palindromize": palindromize,
}
FINITE_VECTOR_TAKERS = {name: call for name, call in VECTOR_TAKERS.items() if name != "palindromize"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", VECTOR_TAKERS.values(), ids=VECTOR_TAKERS.keys())
@pytest.mark.parametrize("form", [np.array, list], ids=["array", "list"])
def test_complex_vector_is_refused(call, form):
    with pytest.raises(ValueError, match="^[a-z ]+ must be real, got complex values$"):
        call(form([1.0, 2.0 + 1.0j]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", FINITE_VECTOR_TAKERS.values(), ids=FINITE_VECTOR_TAKERS.keys())
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_vector_is_refused(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call([bad, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diag", [2.0, np.ones((2, 2))], ids=["scalar", "2-D"])
def test_diagonal_that_is_not_a_vector_is_refused(diag):
    with pytest.raises(ValueError, match=r"^1-D vector required, got shape \("):
        DenseTensor.diagonal(3, diag)


TRIAL_COUNT_TAKERS = {
    "verify_poly_reflection": lambda trials: verify_poly_reflection(CENTRO, trials=trials),
    "verify_all": lambda trials: verify_all(trials=trials),
}


@pytest.mark.parametrize("call", TRIAL_COUNT_TAKERS.values(), ids=TRIAL_COUNT_TAKERS.keys())
@pytest.mark.parametrize("trials", [-1, 2.5, True, None])
def test_invalid_trial_count_is_rejected(call, trials):
    with pytest.raises(ValueError, match="trials must be"):
        call(trials)


# Each call takes one order or dim, which must be an int or a numpy
# integer, and not a bool, as a count must.
SIZE_TAKERS = {
    "from_entries(order)": lambda n: DenseTensor.from_entries(n, 2, [1.0, 2.0, 3.0, 4.0]),
    "from_entries(dim)": lambda n: DenseTensor.from_entries(2, n, [1.0, 2.0, 3.0, 4.0]),
    "random_structured(order)": lambda n: random_structured(n, 3, "centro", seed=1),
    "random_structured(dim)": lambda n: random_structured(3, n, "skew", seed=1),
    "zeros(order)": lambda n: DenseTensor.zeros(n, 2),
    "zeros(dim)": lambda n: DenseTensor.zeros(2, n),
    "identity(order)": lambda n: DenseTensor.identity(n, 3),
    "identity(dim)": lambda n: DenseTensor.identity(2, n),
    "exchange_matrix": lambda n: exchange_matrix(n),
    "materialize": lambda n: materialize(CauchySpec(SPEC.generating, n)),
    "diagonal_left_inverse": lambda n: diagonal_left_inverse(DenseTensor.diagonal(2, [2.0, 4.0, 2.0]), n).inverse,
}


@pytest.mark.parametrize("call", SIZE_TAKERS.values(), ids=SIZE_TAKERS.keys())
@pytest.mark.parametrize("size", [2.5, 2.0, True, None])
def test_size_that_is_not_an_integer_is_rejected(call, size):
    with pytest.raises(ValueError, match="must be an integer"):
        call(size)


@pytest.mark.parametrize("call", SIZE_TAKERS.values(), ids=SIZE_TAKERS.keys())
def test_numpy_integer_size_gives_the_int_result(call):
    want, got = call(2), call(np.int64(2))
    assert got.data.shape == want.data.shape
    assert got.data.tobytes() == want.data.tobytes()
