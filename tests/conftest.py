import numpy as np
import pytest

from centrotensor import DenseTensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def sym_matrix():
    return DenseTensor(np.array([[2.0, 1.0], [1.0, 2.0]]))


@pytest.fixture
def skew_matrix():
    return DenseTensor(np.array([[1.0, 0.0], [0.0, -1.0]]))


@pytest.fixture
def fail_check(monkeypatch):
    """Make the named suite check's first trial fail, as a violated identity would."""
    from centrotensor import suite

    def injected(rng, t):
        raise suite._Failed("injected failure")

    def inject(name):
        checks = tuple(
            (check, injected if check == name else trial, divisor)
            for check, trial, divisor in suite._CHECKS
        )
        monkeypatch.setattr(suite, "_CHECKS", checks)

    return inject
