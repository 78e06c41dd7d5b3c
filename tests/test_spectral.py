"""Tests for the Laguerre-Ritz start of the Numerov search.

The Morse reference is the closed-form Whittaker route on the reference
surrogate; the bic reference is the Numerov eigenvalue pinned in
tests/test_numerov_oracle.py, which the exact kernel's Ritz bound lies
6e-12 below.
"""

import math
import warnings

import numpy as np
import pytest

from bicatom import spectral
from bicatom.analytic_solver import observables, solve_a
from bicatom.morse_fit import REFERENCE_MORSE, morse_w
from bicatom.numerov_oracle import bic_interpolator
from bicatom.spectral import ritz_lowest


def test_rule_integrates_the_moments():
    # int_0^inf x^j e^{-x} dx = j!; 60 nodes are exact through degree 119,
    # and j < 40 covers every overlap and kinetic integrand
    x, w, _, _ = spectral._rule()
    assert len(x) == 60 and np.all(w > 0.0)
    for j in range(40):
        assert abs(np.sum(w * x ** j) / math.factorial(j) - 1.0) <= 1e-12, j


def test_basis_is_orthonormal_on_the_rule():
    _, _, phi, kinetic = spectral._rule()
    assert np.max(np.abs(phi.T @ phi - np.eye(20))) <= 1e-13
    # chi_0' = e^{-x/2} (1 - x/2) / sqrt(2): int chi_0'^2 dx = 1/4
    assert kinetic[0, 0] == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("alpha_beta", [1.0, 2.0])
def test_coulomb_is_exact(alpha_beta):
    # chi_0 is the 1s state of charge alpha_beta, and W = -1/rho times the
    # weight is a polynomial, so the rule takes every element exactly
    lam = ritz_lowest(lambda rho: -1.0 / rho, alpha_beta)
    assert abs(lam + 0.5 * alpha_beta ** 2) <= 1e-12


def test_reference_morse_matches_the_closed_form():
    sol = observables(2.89873, solve_a(2.89873, REFERENCE_MORSE), REFERENCE_MORSE)
    assert sol.alpha_beta == pytest.approx(1.8233737948405, abs=1e-12)
    lam = ritz_lowest(lambda rho: morse_w(REFERENCE_MORSE, rho), sol.alpha_beta)
    assert abs(lam - sol.eps_over_alpha2 * sol.alpha_beta ** 2) <= 1e-9


def test_bic_matches_the_pinned_numerov_eigenvalue():
    spline = bic_interpolator()
    lam = ritz_lowest(lambda rho: spline(np.clip(rho, 1e-3, 40.0)), 1.83297)
    assert abs(lam - (-1.6798903766798954)) <= 1e-10


def test_potential_contract():
    with pytest.raises(ValueError, match="shape"):
        ritz_lowest(lambda rho: -1.0 / rho[:-1], 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        assert math.isnan(ritz_lowest(lambda rho: np.where(rho > 5.0, bad, -1.0 / rho), 1.0))


def test_overflowing_matrix_gives_nan():
    # 2 k^2 overflows above alpha_beta = 1.34e154, and k W with it: eigvalsh
    # raised LinAlgError, "Eigenvalues did not converge"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(ritz_lowest(lambda rho: -1.0 / rho, 1e300))
        assert math.isnan(ritz_lowest(lambda rho: np.full(rho.shape, -1.0), 1e300))
        assert ritz_lowest(lambda rho: -1.0 / rho, 1e150) == pytest.approx(-0.5e300, rel=1e-12)


@pytest.mark.parametrize("alpha_beta", [-1.0, 0.0, math.inf, math.nan])
def test_bad_coupling_rejected(alpha_beta):
    # -1 returned -0.4999999999999825 for Coulomb, 0 and inf warned, and NaN
    # returned NaN
    with pytest.raises(ValueError, match="alpha_beta"):
        ritz_lowest(lambda rho: -1.0 / rho, alpha_beta)
