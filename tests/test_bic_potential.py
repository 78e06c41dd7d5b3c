"""Tests for the screened-potential module.

Expected values marked "oracle" were computed beforehand with an
independent 30-digit mpmath quadrature that integrates in the substituted
variable t = sqrt(sqrt(2)/4 - y), under which the endpoint singularity
cancels exactly; that code path shares nothing with the library's
Gauss-Legendre evaluator.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from bicatom.bic_potential import (
    FINE_STRUCTURE_ALPHA,
    QUARTER_BETA,
    UNIT_CONVENTIONS,
    Y_STAR,
    PotentialKind,
    PotentialTable,
    born_phi,
    tabulate,
    w_of_rho,
    z_integrand,
    z_of_rho,
)
from bicatom.morse_fit import REFERENCE_MORSE, morse_w

# oracle: mpmath mp.beta(1/4,1/4)/4 at 30 digits
QUARTER_BETA_ORACLE = 1.85407467730137191843385034720

# oracle: direct 30-digit evaluation of the integrand
Q_ORACLE = [
    (0.2, 0.0, -1.123375807050308858085),
    (0.2, 1.0, -1.122478183409532541114),
    (0.34, 5.0, -0.9860257959807067815196),
]

# oracle: Z(rho) by the substituted-variable quadrature
Z_ORACLE = [
    (0.01, 0.0184907467730150881, 1e-12),
    (0.1, 0.180407469099058218, 1e-12),
    (0.654988, 0.999999945446913372, 1e-12),
    (1.0, 1.35543216924715038, 1e-11),
    (2.0, 1.7856335456684658, 1e-11),
    (2.139634, 1.79031677744099299, 1e-11),
    (2.2, 1.78951857481986807, 1e-11),
    (3.0, 1.68427813339011015, 1e-11),
    (5.0, 1.37854830110341108, 1e-11),
    (10.0, 1.1541921785474251, 1e-11),
    (50.0, 1.02626847785524066, 1e-10),
    (100.0, 1.01291443518168571, 1e-10),
    (1000.0, 1.00127282549359398, 1e-8),
    (1e4, 1.00012710196852309, 1e-7),
    (1e5, 1.0000127083962777, 2e-6),
    (1e6, 1.0000012708216272, 2e-4),
]

# oracle: W = -Z/rho values
W_ORACLE = [
    (0.01, -1.84907467730150881),
    (0.5, -1.60411743357162324),
    (0.654988, -1.52674544487366696),
    (1.0, -1.35543216924715038),
    (2.0, -0.892816772834232902),
    (5.0, -0.275709660220682217),
    (10.0, -0.11541921785474251),
    (100.0, -0.0101291443518168571),
]

# oracle: phi_hat(r) = int_r^inf ds/sqrt(1+s^4)
PHI_ORACLE = [
    (0.5, 1.35712111409191762),
    (1.0, 0.927037338650685959),
    (2.0, 0.496953563209454297),
    (10.0, 0.099999000041664263),
    (100.0, 0.00999999999000000004),
]

ARGMAX_ORACLE = 2.13963417996
Z_MAX_ORACLE = 1.790316777441


class TestZIntegrand:
    def test_origin_value_is_exactly_minus_one(self):
        for rho in (0.0, 1.0, 17.3):
            assert z_integrand(0.0, rho) == -1.0

    @pytest.mark.parametrize("y,rho,expected", Q_ORACLE)
    def test_oracle_values(self, y, rho, expected):
        assert z_integrand(y, rho) == pytest.approx(expected, rel=1e-13)

    def test_array_matches_scalars(self):
        ys = np.array([0.0, 0.05, 0.2, 0.34])
        got = z_integrand(ys, 2.5)
        want = [z_integrand(float(y), 2.5) for y in ys]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=0.0)

    def test_endpoint_inverse_sqrt_scaling(self):
        # q(y) ~ L / sqrt(y* - y) with L fixed by the radicand's slope
        # -4*sqrt(2)/3 at y* and the numerator value -1/2 there
        lim = -0.5 / (math.sqrt(4.0 * math.sqrt(2.0) / 3.0) * math.sqrt(9.0 / 8.0))
        for delta, tol in [(1e-4, 1e-3), (1e-6, 1e-4)]:
            scaled = z_integrand(Y_STAR - delta, 0.0) * math.sqrt(delta)
            assert scaled == pytest.approx(lim, rel=tol)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            z_integrand(Y_STAR, 1.0)
        with pytest.raises(ValueError):
            z_integrand(0.4, 1.0)
        with pytest.raises(ValueError):
            z_integrand(-0.1, 1.0)
        with pytest.raises(ValueError):
            z_integrand(np.array([0.1, Y_STAR]), 1.0)
        with pytest.raises(ValueError):
            z_integrand(0.1, -1.0)


class TestZOfRho:
    def test_zero_is_exact(self):
        assert z_of_rho(0.0) == 0.0

    @pytest.mark.parametrize("rho,expected,tol", Z_ORACLE)
    def test_oracle_values(self, rho, expected, tol):
        assert z_of_rho(rho) == pytest.approx(expected, abs=tol)

    def test_unit_crossing_landmark(self):
        assert abs(z_of_rho(0.654988) - 1.0) <= 1e-3

    def test_large_rho_tends_to_one(self):
        assert abs(z_of_rho(50.0) - 1.0) <= 5e-2
        assert abs(z_of_rho(1000.0) - 1.0) <= 1e-2
        assert abs(z_of_rho(1e6) - 1.0) <= 1e-4

    def test_argmax_location_and_value(self):
        res = minimize_scalar(lambda r: -z_of_rho(r), bounds=(1.5, 3.0),
                              method="bounded", options={"xatol": 1e-8})
        assert res.x == pytest.approx(ARGMAX_ORACLE, abs=1e-6)
        assert abs(res.x - 2.139634) <= 1e-3
        assert z_of_rho(res.x) == pytest.approx(Z_MAX_ORACLE, abs=1e-9)

    def test_global_bound_on_window(self):
        peak = z_of_rho(ARGMAX_ORACLE)
        for rho in np.arange(0.05, 10.0001, 0.05):
            assert z_of_rho(float(rho)) <= peak + 1e-12

    def test_screening_integral_limit_at_origin(self):
        # Z = rho^2 I + (B/4) rho with I(0) = -1/2 exactly
        for rho in (0.01, 0.1):
            i_val = (z_of_rho(rho) - QUARTER_BETA * rho) / rho ** 2
            assert i_val == pytest.approx(-0.5, abs=0.06 * rho)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            z_of_rho(-1.0)
        with pytest.raises(ValueError):
            z_of_rho(1e6 + 1.0)
        with pytest.raises(ValueError):
            z_of_rho(float("nan"))


class TestWOfRho:
    def test_origin_limit(self):
        assert w_of_rho(0.0) == -QUARTER_BETA

    @pytest.mark.parametrize("rho,expected", W_ORACLE)
    def test_oracle_values(self, rho, expected):
        assert w_of_rho(rho) == pytest.approx(expected, abs=1e-10)

    def test_consistency_with_z(self):
        for rho in (0.3, 1.7, 4.2, 9.5):
            assert abs(w_of_rho(rho) + z_of_rho(rho) / rho) <= 1e-12

    def test_approaches_coulomb_tail(self):
        for rho in (50.0, 100.0):
            assert w_of_rho(rho) == pytest.approx(-1.0 / rho, rel=3e-2)
        assert abs(w_of_rho(0.654988) - (-1.0 / 0.654988)) <= 1e-6

    def test_initial_slope_is_one_half(self):
        # from I(0) = -1/2: W(rho) = -B/4 + rho/2 + O(rho^2 log-ish terms)
        slope = (w_of_rho(0.01) - w_of_rho(0.0)) / 0.01
        assert slope == pytest.approx(0.5, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            w_of_rho(-0.5)

    def test_rejects_rho_beyond_cap(self):
        with pytest.raises(ValueError):
            w_of_rho(1e6 + 1.0)

    @pytest.mark.parametrize("rho", [5e-321, 1e-320, 1e-310])
    def test_subnormal_rho_keeps_origin_limit(self, rho):
        # W is never formed as -Z/rho, so a subnormal rho costs no precision
        assert abs(w_of_rho(rho) + QUARTER_BETA) <= 1e-15
        table = tabulate(PotentialKind.EXACT_BIC, 0.0, rho, 2)
        assert abs(table.values[-1] + QUARTER_BETA) <= 1e-15


class TestBornPhi:
    def test_value_at_zero_is_quarter_beta(self):
        assert born_phi(0.0) == pytest.approx(QUARTER_BETA, rel=1e-12)

    @pytest.mark.parametrize("r,expected", PHI_ORACLE)
    def test_oracle_values(self, r, expected):
        assert born_phi(r) == pytest.approx(expected, abs=1e-10)

    def test_derivative_matches_integrand(self):
        h = 1e-5
        for r in (0.5, 1.0, 2.0):
            fd = (born_phi(r + h) - born_phi(r - h)) / (2.0 * h)
            assert fd == pytest.approx(-1.0 / math.sqrt(1.0 + r ** 4), abs=1e-6)

    def test_monotone_decreasing_positive(self):
        vals = [born_phi(r) for r in (0.0, 1.0, 2.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_domain_error(self):
        for r in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                born_phi(r)


class TestTabulate:
    def test_exact_table_starts_at_origin_limit(self):
        tab = tabulate(PotentialKind.EXACT_BIC, 0.0, 10.0, 3)
        assert tab.rho_grid[0] == 0.0 and tab.rho_grid[-1] == 10.0
        assert tab.values[0] == -QUARTER_BETA
        assert tab.values[2] == pytest.approx(w_of_rho(10.0), abs=1e-14)

    def test_kind_accepts_enum_values(self):
        want = tabulate(PotentialKind.EXACT_BIC, 0.0, 1.0, 4)
        assert tabulate("bic", 0.0, 1.0, 4).values.tobytes() == want.values.tobytes()

    def test_morse_surrogate_endpoints_closed_form(self):
        # a surrogate table is built from morse_w directly, not by tabulate
        rho = np.linspace(0.0, 10.0, 2)
        tab = PotentialTable(rho, morse_w(REFERENCE_MORSE, rho))
        assert tab.values[0] == morse_w(REFERENCE_MORSE, 0.0)
        assert tab.values[1] == morse_w(REFERENCE_MORSE, 10.0)

    def test_exact_tables_only(self):
        for kind in ("morse", "coulomb", None):
            with pytest.raises(ValueError, match="exact tables only"):
                tabulate(kind, 0.0, 10.0, 5)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            tabulate(PotentialKind.EXACT_BIC, 0.0, 10.0, 1)
        with pytest.raises(ValueError):
            tabulate(PotentialKind.EXACT_BIC, -1.0, 10.0, 5)
        with pytest.raises(ValueError):
            tabulate(PotentialKind.EXACT_BIC, 5.0, 5.0, 5)

    def test_exact_values_repeatable_and_pointwise(self):
        first = tabulate(PotentialKind.EXACT_BIC, 0.0, 40.0, 101)
        second = tabulate(PotentialKind.EXACT_BIC, 0.0, 40.0, 101)
        assert first.values.tobytes() == second.values.tobytes()
        for rho, w in zip(first.rho_grid, first.values):
            assert abs(w - w_of_rho(float(rho))) <= 1e-14


class TestPotentialTable:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            PotentialTable(np.array([0.0, 2.0, 1.0]), np.array([-1.0, -0.5, -0.3]))

    def test_rejects_length_mismatch_and_short(self):
        with pytest.raises(ValueError):
            PotentialTable(np.array([0.0, 1.0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            PotentialTable(np.array([1.0]), np.array([-1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PotentialTable(np.array([0.0, 1.0]), np.array([np.nan, -0.5]))

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            PotentialTable(np.array([-0.5, 1.0]), np.array([-1.0, -0.5]))


class TestUnitsNote:
    def test_default_alpha(self):
        assert FINE_STRUCTURE_ALPHA == pytest.approx(1.0 / 137.036, rel=0.0)
        assert "Compton" in UNIT_CONVENTIONS


def test_quarter_beta_constant_matches_oracle():
    assert QUARTER_BETA == pytest.approx(QUARTER_BETA_ORACLE, rel=1e-14)
    # the literal is B(1/4,1/4)/4 = Gamma(1/4)^2/(4 sqrt(pi)) correctly rounded
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        assert QUARTER_BETA == float(mp.beta(0.25, 0.25) / 4)
        assert QUARTER_BETA == float(mp.gamma(0.25) ** 2 / (4 * mp.sqrt(mp.pi)))
