"""Tests for the Numerov shooting oracle.

The Morse eigenvalue frozen below comes from the closed-form Whittaker
route evaluated with 30-digit mpmath (independent of both this module and
the library's own special functions); the Coulomb value is the exact
hydrogen ground state in these scaled units.
"""

import math

import numpy as np
import pytest

from bicatom.analytic_solver import ModelConstants, observables, solve_a
from bicatom.morse_fit import REFERENCE_MORSE, morse_w
from bicatom.numerov_oracle import (
    OracleResult,
    RadialProblem,
    bic_interpolator,
    ground_state,
    shoot,
)

AB_CHAIN = 1.823373498
# oracle: lambda for the reference surrogate at AB_CHAIN via the
# mpmath Whittaker route
LAM_MORSE_ORACLE = -1.66145819902645
# table row being reproduced: exact screened potential at alpha-beta 1.83297
AB_BIC, EPS_BIC = 1.83297, -0.50000


def coulomb(r):
    return -1.0 / r


def morse_pot(r):
    return morse_w(REFERENCE_MORSE, r)


@pytest.fixture(scope="module")
def morse_problem():
    return RadialProblem(potential=morse_pot, alpha_beta=AB_CHAIN)


@pytest.fixture(scope="module")
def morse_result(morse_problem):
    return ground_state(morse_problem)


class TestValidation:
    def test_radial_problem_invariants(self):
        with pytest.raises(ValueError):
            RadialProblem(potential=coulomb, alpha_beta=0.0)
        with pytest.raises(ValueError):
            RadialProblem(potential=coulomb, alpha_beta=1.0, rho_max=19.0)
        with pytest.raises(ValueError):
            RadialProblem(potential=coulomb, alpha_beta=1.0, h=0.0)
        with pytest.raises(ValueError):
            RadialProblem(potential=coulomb, alpha_beta=1.0, h=0.02)
        with pytest.raises(ValueError):
            RadialProblem(potential=42.0, alpha_beta=1.0)

    def test_shoot_requires_negative_lambda(self, morse_problem):
        with pytest.raises(ValueError):
            shoot(morse_problem, 0.0)
        with pytest.raises(ValueError):
            shoot(morse_problem, 0.5)

    def test_non_finite_potential_rejected(self):
        bad = RadialProblem(potential=lambda r: np.where(r > 20.0, np.nan, -1.0 / r),
                            alpha_beta=1.0)
        with pytest.raises(ValueError):
            shoot(bad, -0.5)

    def test_ground_state_tol_range(self, morse_problem):
        with pytest.raises(ValueError):
            ground_state(morse_problem, tol=0.0)
        with pytest.raises(ValueError):
            ground_state(morse_problem, tol=1e-3)

    def test_oracle_result_invariants(self):
        with pytest.raises(ValueError):
            OracleResult(lam=-1.0, eps_over_alpha2=-0.5, node_count=-1,
                         iterations=10, grid_points=100)


class TestShoot:
    def test_coulomb_endpoint_flips_across_eigenvalue(self):
        p = RadialProblem(potential=coulomb, alpha_beta=1.0)
        below, _ = shoot(p, -0.5001)
        above, _ = shoot(p, -0.4999)
        assert math.copysign(1.0, below) != math.copysign(1.0, above)

    def test_deep_lambda_divergent_and_nodeless(self, morse_problem):
        end, nodes = shoot(morse_problem, -8.0)
        assert nodes == 0
        assert end > 0.0

    def test_morse_endpoint_near_sign_change_at_chain_lambda(self, morse_problem):
        lo, _ = shoot(morse_problem, -1.6615)
        hi, _ = shoot(morse_problem, -1.6610)
        assert math.copysign(1.0, lo) != math.copysign(1.0, hi)

    def test_above_ground_state_has_nodes(self, morse_problem):
        _, nodes = shoot(morse_problem, -1.3)
        assert nodes >= 1


class TestGroundState:
    def test_coulomb_exact_hydrogen(self):
        res = ground_state(RadialProblem(potential=coulomb, alpha_beta=1.0))
        assert res.eps_over_alpha2 == pytest.approx(-0.5, abs=1e-5)
        assert res.node_count == 0

    def test_coulomb_scaling_invariance(self):
        res = ground_state(RadialProblem(potential=coulomb, alpha_beta=2.0))
        assert res.eps_over_alpha2 == pytest.approx(-0.5, abs=1e-5)

    def test_morse_matches_frozen_oracle(self, morse_result):
        assert morse_result.lam == pytest.approx(LAM_MORSE_ORACLE, abs=1e-6)
        assert morse_result.node_count == 0
        assert morse_result.grid_points == 40001

    def test_morse_agrees_with_analytic_solver(self, morse_result):
        c = ModelConstants()
        analytic = observables(2.89873, solve_a(2.89873, c.morse), c)
        assert abs(morse_result.eps_over_alpha2
                   - analytic.eps_over_alpha2) <= 1e-3
        # measured agreement is far tighter than the required bound
        assert abs(morse_result.eps_over_alpha2
                   - analytic.eps_over_alpha2) <= 1e-6

    def test_exact_screened_potential_table_row(self):
        res = ground_state(RadialProblem(potential=bic_interpolator(),
                                         alpha_beta=AB_BIC))
        assert res.eps_over_alpha2 == pytest.approx(EPS_BIC, abs=5e-4)
        assert res.node_count == 0

    def test_eps_lambda_consistency(self, morse_result):
        assert abs(morse_result.eps_over_alpha2 * AB_CHAIN ** 2
                   - morse_result.lam) <= 1e-12 * abs(morse_result.lam)

    def test_fourth_order_convergence(self):
        lams = [ground_state(RadialProblem(potential=morse_pot,
                                           alpha_beta=AB_CHAIN, h=h),
                             tol=1e-13).lam
                for h in (0.01, 0.005, 0.0025)]
        ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
        assert 12.0 <= ratio <= 20.0

    def test_rho_max_insensitivity(self):
        lam40 = ground_state(RadialProblem(potential=morse_pot,
                                           alpha_beta=AB_CHAIN, rho_max=40.0)).lam
        lam60 = ground_state(RadialProblem(potential=morse_pot,
                                           alpha_beta=AB_CHAIN, rho_max=60.0)).lam
        assert abs(lam40 - lam60) < 1e-9

    def test_no_bound_state_for_repulsive_potential(self):
        p = RadialProblem(potential=lambda r: 0.1 * np.exp(-r), alpha_beta=1.0)
        with pytest.raises(RuntimeError):
            ground_state(p)

    def test_no_bound_state_for_too_shallow_well(self):
        p = RadialProblem(potential=lambda r: -1e-4 * np.exp(-r), alpha_beta=1.0)
        with pytest.raises(RuntimeError):
            ground_state(p)

    def test_scalar_only_potential_rejected(self):
        # the potential is called once, on the whole grid array
        def scalar_only(r):
            if np.ndim(r) != 0:
                raise TypeError("scalar only")
            return morse_w(REFERENCE_MORSE, r)

        with pytest.raises(TypeError, match="scalar only"):
            ground_state(RadialProblem(potential=scalar_only, alpha_beta=AB_CHAIN, h=0.01))
        for pot in (lambda r: -1.0, lambda r: -1.0 / r[:-1]):
            p = RadialProblem(potential=pot, alpha_beta=AB_CHAIN, h=0.01)
            with pytest.raises(ValueError, match="shape"):
                shoot(p, -0.5)


class TestBicInterpolator:
    def test_matches_direct_quadrature_off_grid(self):
        from bicatom.bic_potential import w_of_rho
        spline = bic_interpolator()
        for rho in (0.013, 0.77, 3.1415, 17.3, 39.2):
            assert float(spline(rho)) == pytest.approx(w_of_rho(rho), abs=1e-8)

    def test_cached_instance_reused(self):
        assert bic_interpolator() is bic_interpolator()

    def test_cache_is_bounded(self):
        maxsize = bic_interpolator.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for k in range(maxsize + 2):
            bic_interpolator(20.0 + k)
        assert bic_interpolator.cache_info().currsize == maxsize
