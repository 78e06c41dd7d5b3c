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

Wells drawn past the origin, b in [0, 3] with G in [-4, -0.3], V0 in
[-1, 1] and kappa in [0.2, 2], put X(a) up to 200; there M's first root
crosses X within about e^-X of alpha = nu - a + 1/2 = 0, and a march
that refined the wrong bracket returned an excited state.  On 1217
solve_a answers of such wells (random.Random(35)), the slope |d gap / d a|
reached 69, and at most 37 max(1, |eps|): eps/alpha^2 scales as
1 / alpha_beta^2, which is small on these wells.  Times |da| <= 5e-11
that is 1.9e-9 max(1, |eps|), and Numerov's h^4 term (h = 1e-3 against
5e-4, in a box of 60) stayed below 1.4e-11.  So each answer of solve_a
and calibrate_nu must agree within 2e-9 max(1, |eps|), or the solver
must refuse.  Numerov refuses a potential only when it is nowhere below
max(0, W(rho_max)), and a constant offset c moves its lambda by
alpha_beta c, so a well lifted above 0 is checked like any other.  Where
the box truncates the state (kappa rho_max < 15 in the box of 60) there
is nothing to check; any other Numerov refusal of an answered well fails
the test.  The largest gaps seen were 2.1e-10 max(1, |eps|) for solve_a
and 9.8e-13 for calibrate_nu.

Wells with V0 + B/4 + G = c0 < 0 tend to -c0 > 0, and with G >= c0 and
b >= 0 their potential is nowhere below 0 (its floor is W_s(b) = G - c0).
calibrate_nu refuses them; solve_a answers, often with eps/alpha^2 > 0.
On 2711 solve_a answers of such wells (G in [-4, -0.3], c0 in [-3,
-0.05], kappa in [0.2, 2], b in [-3, 3], nu in [0.3, 8];
random.Random(360)), central differences put |d gap / d a| at most
25 max(1, |eps|), which times |da| <= 5e-11 is 1.2e-9 max(1, |eps|), and
Numerov's h^4 term (h = 1e-3 against 5e-4, in a box of 60) stayed below
4.8e-12 max(1, |eps|).  So they get the same bound 2e-9 max(1, |eps|).
The largest gap seen was 2.1e-10 max(1, |eps|), and 36 answers had
states the box truncates.  On the well G = -1, V0 = -2.5, kappa = 1,
b = 2, nowhere below 0.646, the gaps at nu = 0.7, 1.2 and 2 were 5e-14,
1.3e-14 and 1.2e-12.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, note, seed, settings  # noqa: E402
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
from bicatom.specfun import QUARTER_BETA  # noqa: E402

ROUTE_GAP = 1e-10
SHIFTED_ROUTE_GAP = 2e-10
FAR_WELL_GAP = 2e-9  # relative to max(1, |eps|)

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


far_wells = st.builds(MorseParams, G=st.floats(-4.0, -0.3), V0=st.floats(-1.0, 1.0),
                      kappa=st.floats(0.2, 2.0), b=st.floats(0.0, 3.0))


def agrees_or_refused(solve, morse):
    """The answer of solve() agrees with Numerov at its coupling, or solve refuses."""
    try:
        whittaker = solve()
    except (RuntimeError, ValueError):
        return True
    note(f"{whittaker}")
    try:
        numerov = ground_state(RadialProblem(potential=lambda rho: morse_w(morse, rho),
                                             alpha_beta=whittaker.alpha_beta,
                                             rho_max=60.0, h=1e-3))
    except RuntimeError as err:  # only a state the box truncates leaves nothing to check
        if "truncates the state" not in str(err):
            raise
        return True
    eps = whittaker.eps_over_alpha2
    return abs(numerov.eps_over_alpha2 - eps) <= FAR_WELL_GAP * max(1.0, abs(eps))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(3501)
@given(far_wells, st.floats(0.3, 8.0))
# the march once returned a = nu + 3/2, the second root's entry
@example(MorseParams(G=-3.798097713256045, V0=-0.790294545581633,
                     kappa=1.412329556515087, b=2.2075234669533863), 1.7351368447919204)
def test_solve_a_agrees_or_refuses_on_wells_past_the_origin(morse, nu):
    assert agrees_or_refused(lambda: observables(nu, solve_a(nu, morse), morse), morse)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(3502)
@given(far_wells, st.floats(-1.5, -0.05))
# the march once returned nu = 1.904422311, an excited state
@example(MorseParams(G=-2.4254916684801042, V0=0.9968338450535039,
                     kappa=1.832429919994666, b=1.4852032821258039), -0.1476356593301997)
# the march once returned nu = 9.63970589; at nu = 10 a root already lies below X
@example(MorseParams(G=-1.9210446029845727, V0=0.4723110609522856,
                     kappa=0.5781714477962362, b=2.966531859827138), -0.17077968961287232)
def test_calibrate_nu_agrees_or_refuses_on_wells_past_the_origin(morse, target):
    assert agrees_or_refused(lambda: calibrate_nu(target, morse), morse)


def lifted_well(G, c0, kappa, b):
    """The Morse well with V0 + B/4 + G = c0, whose potential tends to -c0 > 0."""
    return MorseParams(G=G, V0=c0 - QUARTER_BETA - G, kappa=kappa, b=b)


# G >= c0 and b >= 0 put W_s >= 0 everywhere: its floor is W_s(b) = G - c0
lifted_wells = st.builds(lifted_well, G=st.floats(-4.0, -0.3), c0=st.floats(-3.0, -0.05),
                         kappa=st.floats(0.2, 2.0), b=st.floats(-3.0, 3.0))
NOWHERE_BELOW_ZERO = MorseParams(G=-1.0, V0=-2.5, kappa=1.0, b=2.0)  # W_s >= 0.646


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(3601)
@given(lifted_wells, st.floats(0.3, 8.0))
# eps/alpha^2 = 1.8133690381, 0.7942251011 and 0.3218961032, which Numerov
# once refused as nowhere attractive
@example(NOWHERE_BELOW_ZERO, 0.7)
@example(NOWHERE_BELOW_ZERO, 1.2)
@example(NOWHERE_BELOW_ZERO, 2.0)
def test_solve_a_agrees_or_refuses_on_wells_with_a_positive_asymptote(morse, nu):
    assert agrees_or_refused(lambda: observables(nu, solve_a(nu, morse), morse), morse)
