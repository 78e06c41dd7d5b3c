"""The Whittaker and Numerov routes agree on the Morse surrogate.

For a given nu, solve_a and observables give a coupling alpha_beta and the
closed-form eps/alpha^2; ground_state on morse_w at that coupling must
find the same energy.  The bound 1e-10 covers the sum of two terms:

- solve_a's Brent search stops once its bracket on a is narrower than
  xtol + 4 eps a (xtol = 1e-10) and returns the end with the smaller
  residual, so on a residual linear to rounding over that bracket |da| <=
  (xtol + 4 eps a) / 2 ~ 5e-11.  A shift da moves the closed-form energy
  off the true eigenvalue at the shifted coupling by |d gap / d a| da.
  That slope falls from 1.3 at nu = 1 to 0.51 at nu = 2 and 0.03 at
  nu = 8 (central differences of the gap, on the reference surrogate and
  on the fits of [0, 8] and [0, 12]), so this term is at most 6.5e-11.
- Numerov's error at h = 1e-3 is its h^4 term; the difference between
  h = 1e-3 and h = 5e-4 is at most 5.1e-13 on the same surrogates.

Together they come to 6.6e-11.  The largest gap seen is 5.5e-12, at
nu = 2, where the Brent root sits 1.1e-11 from the exact one: it comes
from xtol, not from Numerov.

The reference well moved to b = 0 and mirrored to b = 0.4572 checks the
boundary point z0 = 2a e^{kappa b} on both sides of the origin.  There
the slope is steeper, 2.1 and 3.4 at nu = 1, 0.82 and 1.2 at nu = 2 and
0.043 and 0.054 at nu = 8, so the xtol term reaches 1.7e-10 and the
Numerov term stays below 4.6e-13: those wells get the bound 2e-10.  The
largest gap seen there is 1.1e-12, at b = 0.4572 and nu = 2.

Wells further from the origin get the same bound 2e-10.  At b in
{0.65, 1, 1.5} the ground-state a lies close above nu + 1/2, where M
gets its first root: within 0.28, and within 1e-4 at b = 1.5 and
nu = 9.  At b = -1.5 it lies 1.4 to 4.3 above, so M has up to 5 roots
and the first-root certificate takes up to 4 series sums.  The largest
gap seen on these wells is 1.0e-11, at b = 1 and nu = 2.89873.

calibrate_nu refines nu to 1e-12 and returns eps/alpha^2 on the target;
Numerov at its coupling must find the same energy.  On wells at
b = 1.25 and 1.5 its march meets the first root's crossing within the
step in which M gets that root, as solve_a's does.  The largest gap seen
there is 1.8e-14, under the same bound 2e-10.

A well whose potential tends to a positive value binds its ground state
above 0.  On the one tested, solve's printed eps/alpha^2 = +0.1178635667
and Numerov's agree to 5.8e-14, under the bound 1e-10.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.analytic_solver import (  # noqa: E402
    calibrate_nu,
    observables,
    solve_a,
)
from bicatom.bic_potential import PotentialKind, tabulate  # noqa: E402
from bicatom.morse_fit import (REFERENCE_MORSE, FitConfig, MorseParams,  # noqa: E402
                               fit, morse_w)
from bicatom.numerov_oracle import RadialProblem, ground_state  # noqa: E402

ROUTE_GAP = 1e-10
SHIFTED_ROUTE_GAP = 2e-10

reproducible = settings(max_examples=16, deadline=None, derandomize=True, database=None)

nus = st.floats(min_value=1.0, max_value=8.0)


def route_gap(nu, morse):
    whittaker = observables(nu, solve_a(nu, morse), morse)
    numerov = ground_state(RadialProblem(potential=lambda rho: morse_w(morse, rho),
                                         alpha_beta=whittaker.alpha_beta, h=1e-3))
    return abs(numerov.eps_over_alpha2 - whittaker.eps_over_alpha2)


@reproducible
@seed(1101)
@given(nus)
@example(1.0)
@example(2.0)  # the largest gap probed, 5.5e-12
@example(2.89873)  # the paper's chain
@example(8.0)
def test_routes_agree_on_the_reference_surrogate(nu):
    assert route_gap(nu, REFERENCE_MORSE) <= ROUTE_GAP


@reproducible
@seed(1102)
@given(nus, st.floats(min_value=8.0, max_value=12.0))
@example(2.89873, 10.0)
def test_routes_agree_on_fitted_surrogates(nu, rho_max):
    table = tabulate(PotentialKind.EXACT_BIC, 0.0, rho_max, 200)
    report = fit(table, FitConfig(rho_max=rho_max))
    assert report.converged
    assert route_gap(nu, report.params) <= ROUTE_GAP


@pytest.mark.parametrize("b", [0.0, 0.4572])
@pytest.mark.parametrize("nu", [1.0, 2.0, 2.89873, 5.0, 8.0])
def test_routes_agree_on_wells_at_and_past_the_origin(nu, b):
    assert route_gap(nu, REFERENCE_MORSE._replace(b=b)) <= SHIFTED_ROUTE_GAP


# integer nu puts a = nu + 1/2 on solve_a's 0.1 grid; 2.89873, 3.6 and 5.55 do not
@pytest.mark.parametrize("b", [-1.5, 0.65, 1.0, 1.5])
@pytest.mark.parametrize("nu", [1.0, 2.0, 2.89873, 3.0, 3.6, 4.0, 5.0, 5.55, 6.0, 7.0, 8.0,
                                9.0])
def test_routes_agree_on_wells_far_from_the_origin(nu, b):
    assert route_gap(nu, REFERENCE_MORSE._replace(b=b)) <= SHIFTED_ROUTE_GAP


@pytest.mark.parametrize("b", [1.25, 1.5])
@pytest.mark.parametrize("target", [-0.8, -0.49973, -0.3])
def test_calibration_agrees_on_wells_far_past_the_origin(target, b):
    morse = REFERENCE_MORSE._replace(b=b)
    whittaker = calibrate_nu(target, morse)
    numerov = ground_state(RadialProblem(potential=lambda rho: morse_w(morse, rho),
                                         alpha_beta=whittaker.alpha_beta, h=1e-3))
    assert abs(whittaker.eps_over_alpha2 - target) <= 1e-12
    assert abs(numerov.eps_over_alpha2 - whittaker.eps_over_alpha2) <= SHIFTED_ROUTE_GAP


def test_routes_agree_on_a_well_with_a_positive_asymptote():
    # W_s tends to -(G + V0 + B/4) = +0.85 and the ground state lies above
    # 0, so eps/alpha^2 > 0; the values are solve's printed digits
    well = MorseParams(G=-2.5272374745880346, V0=-0.17783027266171597,
                       kappa=0.7530205937882298, b=-0.7759767841708094)
    sol = observables(1.9416, solve_a(1.9416, well), well)
    assert sol.alpha_beta == pytest.approx(1.618996425, abs=5e-10)
    assert sol.eps_over_alpha2 == pytest.approx(0.1178635667, abs=5e-11)
    assert route_gap(1.9416, well) <= ROUTE_GAP
