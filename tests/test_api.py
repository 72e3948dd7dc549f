"""The public surface and the input contract shared by every module."""

import importlib

import numpy as np
import pytest

import centrotensor
from centrotensor import (
    CauchySpec,
    DenseTensor,
    cauchy_check_JC,
    cauchy_is_centro,
    cauchy_is_skew,
    closed_form_dim2,
    random_structured,
    recover_order2_left_inverse,
    recover_order2_right_inverse,
    reflect_pair,
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

TOLERANCE_TAKERS = {
    "verify_row_sum_symmetry": lambda tol: verify_row_sum_symmetry(CENTRO, tol=tol),
    "verify_poly_reflection": lambda tol: verify_poly_reflection(CENTRO, tol=tol),
    "reflect_pair": lambda tol: reflect_pair(CENTRO, PAIR, tol=tol),
    "cauchy_is_centro": lambda tol: cauchy_is_centro(SPEC, tol),
    "cauchy_is_skew": lambda tol: cauchy_is_skew(SPEC, tol),
    "cauchy_check_JC": lambda tol: cauchy_check_JC(SPEC, tol),
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


@pytest.mark.parametrize("cap", [-1, 1.5, True, None])
def test_invalid_entry_cap_is_rejected(cap):
    ident = DenseTensor.identity(2, 2)
    with pytest.raises(ValueError, match="entry_cap must be"):
        shao_product(ident, ident, entry_cap=cap)


TRIAL_COUNT_TAKERS = {
    "verify_poly_reflection": lambda trials: verify_poly_reflection(CENTRO, trials=trials),
    "verify_all": lambda trials: verify_all(trials=trials),
}


@pytest.mark.parametrize("call", TRIAL_COUNT_TAKERS.values(), ids=TRIAL_COUNT_TAKERS.keys())
@pytest.mark.parametrize("trials", [-1, 2.5, True, None])
def test_invalid_trial_count_is_rejected(call, trials):
    with pytest.raises(ValueError, match="trials must be"):
        call(trials)
