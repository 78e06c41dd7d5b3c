"""Tests for the adaptive Gauss-Kronrod integrator."""

import math

import numpy as np
import pytest

from bicatom.bic_potential import born_phi
from bicatom.quadrature import QuadratureError, QuadResult, QuadSpec, integrate

SQRT_PI = math.sqrt(math.pi)
# oracle: mpmath mp.beta(1/4,1/4)/4 at 30 digits
QUARTER_BETA_ORACLE = 1.85407467730137191843385034720


def _integrate_to_inf(f, a):
    """int_a^inf f, mapped by the caller onto [t0, 1) with r = t/(1-t)."""
    t0 = a / (1.0 + a)

    def g(t):
        om = 1.0 - t
        return f(t / om) / (om * om)

    return integrate(g, QuadSpec(t0, 1.0))


def test_polynomial():
    res = integrate(lambda x: x * x, QuadSpec(0.0, 1.0))
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.subdivisions == 1


def test_smooth_transcendental():
    res = integrate(np.cos, QuadSpec(0.0, 2.0))
    assert res.value == pytest.approx(math.sin(2.0), rel=1e-13)
    assert res.abs_err_estimate <= max(1e-13, 1e-12 * abs(res.value))


def test_semi_infinite_quartic():
    # int_0^inf (1+r^4)^{-1/2} dr = B(1/4,1/4)/4, as born_phi splits it
    assert born_phi(0.0) == pytest.approx(QUARTER_BETA_ORACLE, rel=1e-12)
    res = _integrate_to_inf(lambda r: 1.0 / np.sqrt(1.0 + r ** 4), 0.0)
    assert res.value == pytest.approx(QUARTER_BETA_ORACLE, rel=1e-12)


def test_semi_infinite_exponential():
    res = _integrate_to_inf(lambda r: np.exp(-r), 0.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)
    res = _integrate_to_inf(lambda r: np.exp(-r * r), 0.0)
    assert res.value == pytest.approx(0.5 * SQRT_PI, rel=1e-12)


def test_semi_infinite_shifted_lower():
    res = _integrate_to_inf(lambda r: np.exp(-r), 2.0)
    assert res.value == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_semi_infinite_range_rejected():
    # only finite ranges are integrated; born_phi splits its tail itself
    for lower in (0.0, 2.0):
        with pytest.raises(ValueError, match="bounds must be finite"):
            QuadSpec(lower, math.inf)


# corpus of (f, spec kwargs, exact value) for the tolerance-monotonicity
# and splitting properties
_CORPUS = [
    (lambda x: np.cos(3.0 * x), dict(lower=0.0, upper=2.0), math.sin(6.0) / 3.0),
    (lambda x: np.exp(x), dict(lower=-1.0, upper=1.0), math.e - 1.0 / math.e),
]


def test_halving_rel_tol_never_hurts():
    for f, kw, exact in _CORPUS:
        prev = None
        for rel in (1e-6, 5e-7, 2.5e-7, 1e-8, 1e-10):
            res = integrate(f, QuadSpec(abs_tol=1e-300, rel_tol=rel, **kw))
            err = abs(res.value - exact)
            if prev is not None:
                assert err <= prev + 1e-15
            prev = err


def test_split_invariance():
    for f, kw, exact in _CORPUS:
        whole = integrate(f, QuadSpec(**kw)).value
        for frac in (0.25, 0.5, 0.9):
            cut = kw["lower"] + frac * (kw["upper"] - kw["lower"])
            part = (integrate(f, QuadSpec(kw["lower"], cut)).value
                    + integrate(f, QuadSpec(cut, kw["upper"])).value)
            assert part == pytest.approx(whole, rel=1e-12)


def test_error_estimate_honest():
    for f, kw, exact in _CORPUS:
        res = integrate(f, QuadSpec(**kw))
        assert abs(res.value - exact) <= max(res.abs_err_estimate, 1e-13)


def test_nan_rejected():
    def bad(x):
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(QuadratureError):
        integrate(bad, QuadSpec(0.0, 1.0))


def test_budget_exhaustion():
    # tolerance below the roundoff floor of the estimator: can never be met
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / (1.0 + x * x),
                  QuadSpec(0.0, 1.0, abs_tol=1e-300, rel_tol=1e-16))


def test_result_metadata():
    res = integrate(lambda x: np.sin(x) ** 2, QuadSpec(0.0, 4.0))
    assert isinstance(res, QuadResult)
    assert res.subdivisions >= 1
    assert res.abs_err_estimate >= 0.0


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            QuadSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            QuadSpec(2.0, 1.0)

    def test_tolerances(self):
        with pytest.raises(ValueError):
            QuadSpec(0.0, 1.0, abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadSpec(0.0, 1.0, rel_tol=-1.0)

    def test_infinite_with_flags(self):
        # QuadSpec takes no endpoint-singularity flags, for any range
        with pytest.raises(TypeError):
            QuadSpec(0.0, math.inf, singular_upper=True)
        with pytest.raises(ValueError):
            QuadSpec(-math.inf, 0.0)
