"""``models.expit`` against ``scipy.special.expit`` bit for bit, and the
descent of ``models.fit_logistic_path``, which calls scipy's ufunc, against
the helper on the same inputs."""

import warnings

import numpy as np
import pytest
import scipy.special

from shipplume.models import expit, fit_logistic_path

SUBNORMALS = [5e-324, 1e-320, 1e-310, 2.2250738585072009e-308]
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
                    *SUBNORMALS, *(-v for v in SUBNORMALS)])
# dense over [-760, 760], fine over ±[708.9, 709.8] where exp(-x) nears
# overflow, and the special values
SWEEP = np.concatenate([np.linspace(-760.0, 760.0, 1_520_001),
                        np.linspace(708.9, 709.8, 90_001),
                        -np.linspace(708.9, 709.8, 90_001), SPECIAL])


# Why the helper can differ from scipy: it assumes glibc and numpy's complex
# exp calling the C library's cexp (see models.expit).
PLATFORM = ("models.expit differs from scipy.special.expit: it assumes glibc "
            "and a numpy whose complex exp calls the C library's cexp, with "
            "the scaled path above 1023*ln2 handled by math.exp; a libc or "
            "numpy change that breaks this breaks the bit identity")


def bits(a):
    a = np.asarray(a)
    assert a.dtype == np.float64
    return a.shape, a.view(np.int64).tobytes()


@pytest.fixture(autouse=True)
def no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_sweep_matches_scipy_bit_for_bit():
    assert bits(expit(SWEEP)) == bits(scipy.special.expit(SWEEP)), PLATFORM


@pytest.mark.parametrize("x", SPECIAL.tolist())
def test_special_values_match_scipy(x):
    for arg in (x, np.float64(x), np.array(x)):
        got, want = expit(arg), scipy.special.expit(arg)
        assert type(got) is type(want)
        assert bits(got) == bits(want), PLATFORM


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_shapes_with_and_without_out(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.choice(SWEEP, size=shape)
    want = scipy.special.expit(x)
    assert bits(expit(x)) == bits(want), PLATFORM
    out = np.full(shape, -1.0)
    assert expit(x, out=out) is out
    assert bits(out) == bits(want), PLATFORM
    assert bits(expit(x, out=x)) == bits(want), PLATFORM  # in place
    assert bits(x) == bits(want), PLATFORM


def test_descent_ufunc_agrees_with_the_helper(monkeypatch):
    """Every array the descent passes through scipy's expit, and the sweep,
    give the same bits through models.expit."""
    ufunc, seen = scipy.special.expit, []

    def recording(z, out=None):
        seen.append(np.array(z))
        return ufunc(z, out=out)

    monkeypatch.setattr(scipy.special, "expit", recording)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 4)) * 40.0
    y = (X[:, 0] + rng.normal(size=200) > 0).astype(float)
    fit_logistic_path(X, y, [{"max_iter": 30, "lr": 5.0, "l2": 0.0}])
    assert len(seen) == 30
    for z in seen:
        assert bits(expit(z)) == bits(ufunc(z)), PLATFORM
    assert bits(recording(SWEEP)) == bits(expit(SWEEP)), PLATFORM
