from dataclasses import replace

import numpy as np
import pytest

from centrotensor import (
    CENTRO,
    CHECK_NAMES,
    Decomposition,
    DenseTensor,
    NEITHER,
    NEITHER_CLASS,
    SKEW,
    ConsistencyError,
    EigenPair,
    EigenSet,
    NoInverse,
    StructureReport,
    check_structure,
    random_structured,
    scale,
    suite,
    verify_all,
)
from centrotensor.serialize import tensor_to_obj


def test_default_run_passes():
    report = verify_all(seed=123, trials=16)
    assert report.all_passed
    assert {c.name for c in report.checks} == set(CHECK_NAMES)
    assert all(c.counterexample is None for c in report.checks)


def test_zero_trials_gives_empty_report():
    report = verify_all(seed=1, trials=0)
    assert report.checks == []
    assert report.all_passed


def test_deterministic_per_seed():
    a = verify_all(seed=9, trials=12).as_dict()
    b = verify_all(seed=9, trials=12).as_dict()
    assert a == b


def test_negative_trials_rejected():
    with pytest.raises(ValueError):
        verify_all(trials=-1)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_corruption_is_detected_and_named(name, fail_check):
    fail_check(name)
    report = verify_all(seed=5, trials=12)
    failing = [c.name for c in report.checks if not c.passed]
    assert failing == [name]
    assert not report.all_passed


def test_failure_reports_the_instance_its_trial_drew(monkeypatch):
    # The first agreement trial draws order, dim, then a centro tensor from
    # the first of the twelve spawned streams; a sandwich witness that says
    # "neither" must fail that trial and report exactly that tensor.
    neither = StructureReport(NEITHER, 1.0, (1, 1), 0.0)
    monkeypatch.setattr(suite, "check_via_J", lambda a, tol=None: neither)
    report = verify_all(seed=3, trials=4)
    failing = [c for c in report.checks if not c.passed]
    assert [c.name for c in failing] == ["structure-check-agreement"]

    rng = np.random.default_rng(np.random.SeedSequence(3).spawn(12)[0])
    order = int(rng.integers(2, 5))
    dim = int(rng.integers(2, 6))
    expected = random_structured(order, dim, "centro", rng)
    assert failing[0].counterexample == {"tensor": tensor_to_obj(expected)}
    assert failing[0].detail.startswith("verdicts disagree: ")


# cauchy-eigen-symmetry skips pairs with |lambda| <= 1e-8: a pair of class
# "neither" passes at the bound and fails one ulp past it
@pytest.mark.parametrize(
    "value,passes",
    [(1e-8, True), (-1e-8, True), (np.nextafter(1e-8, 1.0), False), (1e-7, False), (-1e-7, False)],
)
def test_cauchy_symmetry_skips_only_values_within_the_bound(value, passes, monkeypatch):
    pair = EigenPair(value, np.array([1.0, 0.0]), 0.0, NEITHER_CLASS)
    monkeypatch.setattr(suite, "solve_eigen", lambda tensor, starts, seed: EigenSet([pair], None))
    checks = tuple(c for c in suite._CHECKS if c[0] == "cauchy-eigen-symmetry")
    monkeypatch.setattr(suite, "_CHECKS", checks)
    (check,) = verify_all(seed=0, trials=8).checks
    assert check.passed is passes


def _neither(a, tol=None):
    return StructureReport(NEITHER, 1.0, (1, 1), 0.0)


def _centro_only(a, tol=None):
    return StructureReport(CENTRO, 0.0, (1, 1), 0.0)


def _no_inverse(a):
    return NoInverse("left", "stub reason")


def _mirror_fails(a, pair):
    raise ConsistencyError("stub mirror")


def _odd_order_neither_pair(tensor, starts, seed):
    pair = EigenPair(1.0, np.ones(tensor.dim), 0.0, NEITHER_CLASS)
    return EigenSet([pair] if tensor.order % 2 == 1 else [], None)


def _replaced(name, **changes):
    """suite.<name> with these fields of its result replaced."""
    real = getattr(suite, name)
    return lambda *args: replace(real(*args), **changes)


# One row per `raise _Failed` site: the check, the suite name patched, a
# factory for its stand-in, the detail's start and the counterexample keys.
_FAILURE_SITES = {
    "product-parity": ("product-parity", "check_structure", lambda: _neither,
                       "product of ", {"left", "right"}),
    "hadamard-parity": ("hadamard-parity", "check_structure", lambda: _neither,
                        "entrywise product of ", {"left", "right"}),
    "centro-part": ("decomposition-roundtrip", "check_structure", lambda: _neither,
                    "centro part fails its check", {"tensor"}),
    "skew-part": ("decomposition-roundtrip", "check_structure", lambda: _centro_only,
                  "skew part fails its check", {"tensor"}),
    "reconstruction": ("decomposition-roundtrip", "decompose",
                       lambda: lambda a, real=suite.decompose: real(scale(a, 2.0)),
                       "reconstruction error ", {"tensor"}),
    "row-sums": ("row-sum-reflection", "verify_row_sum_symmetry",
                 lambda: lambda a, assume: (False, 2),
                 "row-sum reflection failed at row 2", {"tensor"}),
    "poly": ("poly-reflection", "verify_poly_reflection", lambda: lambda a, trials, seed: False,
             "polynomial reflection failed", {"tensor"}),
    "odd-dim-skew": ("cauchy-equivalence", "cauchy_is_skew",
                     lambda: lambda spec, real=suite.cauchy_is_skew: spec.dim % 2 == 1 or real(spec),
                     "odd-dimension spec classified skew", {"generating"}),
    "cauchy-verdict": ("cauchy-equivalence", "cauchy_is_centro",
                       lambda: lambda spec, real=suite.cauchy_is_centro: not real(spec),
                       "vector predicates ", {"generating", "order"}),
    "cauchy-JC": ("cauchy-equivalence", "cauchy_check_JC",
                  lambda: lambda spec, real=suite.cauchy_check_JC: not real(spec),
                  "exchange-product test disagrees", {"generating", "order"}),
    "diagonal-inverse": ("diagonal-inverse-roundtrip", "diagonal_left_inverse",
                         lambda: _replaced("diagonal_left_inverse", residual=1.0),
                         "left diagonal inverse residual 1.000e+00", {"tensor"}),
    "no-recovery": ("matrix-inverse-recovery", "recover_order2_left_inverse", lambda: _no_inverse,
                    "left recovery reported no inverse: stub reason", {"tensor"}),
    "recovery-verdict": ("matrix-inverse-recovery", "recover_order2_left_inverse",
                         lambda: _replaced("recover_order2_left_inverse", centro_verdict=False),
                         "left recovery error ", {"tensor"}),
    "closed-form-dim2": ("closed-form-eigen", "closed_form_dim2",
                         lambda: lambda a, real=suite.closed_form_dim2: tuple(
                             replace(p, residual=1.0) for p in real(a)),
                         "dimension-2 closed form residual too large", {"tensor"}),
    "closed-form-dim3": ("closed-form-eigen", "closed_form_dim3_even",
                         lambda: _replaced("closed_form_dim3_even", residual=1.0),
                         "dimension-3 closed form residual too large", {"tensor"}),
    "mirror-raises": ("eigen-reflection", "reflect_pair", lambda: _mirror_fails,
                      "stub mirror", {"tensor"}),
    "mirror-value": ("eigen-reflection", "reflect_pair",
                     lambda: lambda a, pair, real=suite.reflect_pair: replace(
                         real(a, pair), value=real(a, pair).value + 1.0),
                     "reflected eigenvalue mismatch", {"tensor"}),
    "odd-order-class": ("cauchy-eigen-symmetry", "solve_eigen", lambda: _odd_order_neither_pair,
                        "odd-order pair has non-symmetric magnitude vector", {"generating", "value"}),
}


@pytest.mark.parametrize("site", _FAILURE_SITES)
def test_each_failure_site_reports_its_detail_and_counterexample(site, monkeypatch):
    name, target, stand_in, detail, keys = _FAILURE_SITES[site]
    monkeypatch.setattr(suite, target, stand_in())
    monkeypatch.setattr(suite, "_CHECKS", tuple(c for c in suite._CHECKS if c[0] == name))
    (check,) = verify_all(seed=0, trials=40).checks
    assert check.name == name and check.passed is False
    assert check.detail.startswith(detail), check.detail
    assert set(check.counterexample) == keys


# eigen-reflection skips skew pairs with |lambda| <= 1e-8: a pair whose
# mirror fails passes at the bound and fails one ulp past it
@pytest.mark.parametrize(
    "value,passes", [(1e-8, True), (-1e-8, True), (np.nextafter(1e-8, 1.0), False)]
)
def test_eigen_reflection_skips_only_skew_values_within_the_bound(value, passes, monkeypatch):
    def solve(a, starts, seed):
        skew = check_structure(a).verdict == SKEW
        return EigenSet([EigenPair(value, np.ones(a.dim), 0.0, NEITHER_CLASS)] if skew else [], None)

    monkeypatch.setattr(suite, "solve_eigen", solve)
    monkeypatch.setattr(suite, "reflect_pair", _mirror_fails)
    monkeypatch.setattr(suite, "_CHECKS", tuple(c for c in suite._CHECKS if c[0] == "eigen-reflection"))
    (check,) = verify_all(seed=0, trials=16).checks
    assert check.passed is passes


def _only_check(monkeypatch, name):
    monkeypatch.setattr(suite, "_CHECKS", tuple(c for c in suite._CHECKS if c[0] == name))


def _at_and_past(bound):
    """(value, passes): the bound itself passes, the float past it fails."""
    return [pytest.param(bound, True, id="at"), pytest.param(np.nextafter(bound, 1.0), False, id="past")]


# product-parity checks the product at 1e-10 of its entry scale (1 here):
# a product whose mirrored entries differ by that much passes
@pytest.mark.parametrize("gap,passes", _at_and_past(1e-10))
def test_product_parity_tolerance_is_1e_10(gap, passes, monkeypatch):
    product = DenseTensor(np.array([[gap, 0.0], [0.0, 0.0]]))
    monkeypatch.setattr(suite, "shao_product", lambda a, b: product)
    _only_check(monkeypatch, "product-parity")
    (check,) = verify_all(seed=0, trials=8).checks
    assert check.passed is passes


# decomposition-roundtrip checks each part at 1e-13 and their sum at 1e-14
# of the drawn tensor's entry scale (1 here); the drawn tensor is
# [[gap, 0], [0, 0]], and the part under test carries the gap (for the
# sum, neither part does)
@pytest.mark.parametrize(
    "site,bound",
    [("centro", 1e-13), ("skew", 1e-13), ("reconstruction", 1e-14)],
    ids=["centro", "skew", "reconstruction"],
)
@pytest.mark.parametrize("passes", [True, False], ids=["at", "past"])
def test_decomposition_tolerances(site, bound, passes, monkeypatch):
    gap = bound if passes else np.nextafter(bound, 1.0)
    a = DenseTensor(np.array([[gap, 0.0], [0.0, 0.0]]))
    zero = DenseTensor.zeros(2, 2)
    parts = Decomposition(a if site == "centro" else zero, a if site == "skew" else zero)
    monkeypatch.setattr(suite, "random_structured", lambda order, dim, kind, rng: a)
    monkeypatch.setattr(suite, "decompose", lambda t: parts)
    _only_check(monkeypatch, "decomposition-roundtrip")
    (check,) = verify_all(seed=0, trials=8).checks
    assert check.passed is passes


@pytest.mark.parametrize("residual,passes", _at_and_past(1e-13))
def test_diagonal_inverse_residual_tolerance_is_1e_13(residual, passes, monkeypatch):
    monkeypatch.setattr(suite, "diagonal_left_inverse", _replaced("diagonal_left_inverse", residual=residual))
    _only_check(monkeypatch, "diagonal-inverse-roundtrip")
    (check,) = verify_all(seed=0, trials=8).checks
    assert check.passed is passes


# with the identity as the drawn matrix the expected inverse is exactly the
# identity, and the stub's left inverse is off by err in one entry
@pytest.mark.parametrize("err,passes", _at_and_past(1e-9))
def test_recovery_error_tolerance_is_1e_9(err, passes, monkeypatch):
    def off_by_err(planted, real=suite.recover_order2_left_inverse):
        inverse = np.eye(planted.dim)
        inverse[0, -1] = err
        return replace(real(planted), inverse=DenseTensor(inverse))

    monkeypatch.setattr(suite, "_well_conditioned_centro_matrix", lambda rng, dim: DenseTensor.identity(2, dim))
    monkeypatch.setattr(suite, "recover_order2_left_inverse", off_by_err)
    _only_check(monkeypatch, "matrix-inverse-recovery")
    (check,) = verify_all(seed=0, trials=8).checks
    assert check.passed is passes


# eigen-reflection compares the mirrored value with the expected one at
# 1e-9: a centro pair of value 0 mirrored to gap (skew pairs of value 0
# are skipped)
@pytest.mark.parametrize("gap,passes", _at_and_past(1e-9))
def test_eigen_reflection_value_tolerance_is_1e_9(gap, passes, monkeypatch):
    def solve(a, starts, seed):
        return EigenSet([EigenPair(0.0, np.ones(a.dim), 0.0, NEITHER_CLASS)], None)

    monkeypatch.setattr(suite, "solve_eigen", solve)
    monkeypatch.setattr(suite, "reflect_pair", lambda a, pair: replace(pair, value=gap))
    _only_check(monkeypatch, "eigen-reflection")
    (check,) = verify_all(seed=0, trials=16).checks
    assert check.passed is passes


# closed-form-eigen holds each closed-form pair to a residual of 1e-12 of
# the drawn tensor's entry scale (1 here: the drawn entries lie in
# [-1, 1]), and the dim-3 pair's middle component must be exactly zero
@pytest.mark.parametrize("pair", [0, 1], ids=["e", "u"])
@pytest.mark.parametrize("residual,passes", _at_and_past(1e-12))
def test_closed_form_dim2_residual_tolerance_is_1e_12(pair, residual, passes, monkeypatch):
    def stub(a, real=suite.closed_form_dim2):
        return tuple(replace(p, residual=residual if i == pair else 0.0) for i, p in enumerate(real(a)))

    monkeypatch.setattr(suite, "closed_form_dim2", stub)
    _only_check(monkeypatch, "closed-form-eigen")
    (check,) = verify_all(seed=0, trials=8).checks
    assert check.passed is passes


@pytest.mark.parametrize(
    "residual,middle,passes",
    [
        pytest.param(1e-12, 0.0, True, id="at"),
        pytest.param(np.nextafter(1e-12, 1.0), 0.0, False, id="past"),
        pytest.param(0.0, 5e-324, False, id="nonzero-middle"),
    ],
)
def test_closed_form_dim3_residual_tolerance_is_1e_12(residual, middle, passes, monkeypatch):
    def stub(b, real=suite.closed_form_dim3_even):
        pair = real(b)
        vector = pair.vector.copy()
        vector[1] = middle
        return replace(pair, residual=residual, vector=vector)

    monkeypatch.setattr(suite, "closed_form_dim3_even", stub)
    _only_check(monkeypatch, "closed-form-eigen")
    (check,) = verify_all(seed=0, trials=8).checks
    assert check.passed is passes
