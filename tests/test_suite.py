import numpy as np
import pytest

from centrotensor import (
    CHECK_NAMES,
    NEITHER,
    StructureReport,
    random_structured,
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
