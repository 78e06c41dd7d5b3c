"""Tests for the Numerov shooting oracle.

The Morse eigenvalue frozen below comes from the closed-form Whittaker
route evaluated with 30-digit mpmath (independent of both this module and
the library's own special functions); the Coulomb value is the exact
hydrogen ground state in these scaled units.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bicatom import numerov_oracle
from bicatom.analytic_solver import observables, solve_a
from bicatom.bic_potential import PotentialKind, _w_kernel, tabulate, w_of_rho
from bicatom.morse_fit import REFERENCE_MORSE, MorseParams, morse_w
from bicatom.numerov_oracle import (
    OracleResult,
    RadialProblem,
    bic_interpolator,
    ground_state,
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

    def test_non_finite_potential_rejected(self):
        bad = RadialProblem(potential=lambda r: np.where(r > 20.0, np.nan, -1.0 / r),
                            alpha_beta=1.0)
        with pytest.raises(ValueError, match="finite"):
            ground_state(bad)

    def test_oracle_result_invariants(self):
        with pytest.raises(ValueError):
            OracleResult(lam=-1.0, eps_over_alpha2=-0.5, node_count=-1,
                         iterations=10, grid_points=100)


def shoot_out(p, lam):
    """u at rho_max (up to a positive scale) and its node count, propagated
    once outward from the origin across the whole grid at lam."""
    t = numerov_oracle._t_grid(numerov_oracle._w_grid(p), p.alpha_beta, p.h, lam)
    _, end, _, nodes = numerov_oracle._propagate(t, p.h)
    return end, nodes


class TestShoot:
    def test_coulomb_endpoint_flips_across_eigenvalue(self):
        p = RadialProblem(potential=coulomb, alpha_beta=1.0)
        below, _ = shoot_out(p, -0.5001)
        above, _ = shoot_out(p, -0.4999)
        assert math.copysign(1.0, below) != math.copysign(1.0, above)

    def test_deep_lambda_divergent_and_nodeless(self, morse_problem):
        end, nodes = shoot_out(morse_problem, -8.0)
        assert nodes == 0
        assert end > 0.0

    def test_morse_endpoint_near_sign_change_at_chain_lambda(self, morse_problem):
        lo, _ = shoot_out(morse_problem, -1.6615)
        hi, _ = shoot_out(morse_problem, -1.6610)
        assert math.copysign(1.0, lo) != math.copysign(1.0, hi)

    def test_above_ground_state_has_nodes(self, morse_problem):
        _, nodes = shoot_out(morse_problem, -1.3)
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
        analytic = observables(2.89873, solve_a(2.89873, REFERENCE_MORSE), REFERENCE_MORSE)
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

    def test_fourth_order_convergence(self, monkeypatch):
        # the h^4 differences (~5e-11, ~3e-12) need a bracket far below 1e-10
        monkeypatch.setattr(numerov_oracle, "_LAMBDA_TOL", 1e-13)
        lams = [ground_state(RadialProblem(potential=morse_pot,
                                           alpha_beta=AB_CHAIN, h=h)).lam
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

    def test_box_truncated_state_rejected(self):
        # Coulomb at alpha_beta = 0.1 has kappa*rho_max = 2.7 in the 40 box,
        # which lifted eps/alpha^2 to -0.4833 (exact: -1/2)
        p = RadialProblem(potential=coulomb, alpha_beta=0.1, h=0.01)
        with pytest.raises(RuntimeError, match="truncates"):
            ground_state(p)

    def test_classically_allowed_edge_rejected(self):
        p = RadialProblem(potential=coulomb, alpha_beta=0.1, rho_max=20.0, h=0.01)
        with pytest.raises(RuntimeError, match=r"kappa\*rho_max = 0 "):
            ground_state(p)

    def test_box_check_threshold(self):
        # Coulomb at alpha_beta = 0.5: kappa*rho_max is 14.0 at rho_max = 30
        # and 15.5 at 33, where the box no longer moves lambda
        def problem(rho_max):
            return RadialProblem(potential=coulomb, alpha_beta=0.5,
                                 rho_max=rho_max, h=0.01)

        with pytest.raises(RuntimeError, match="truncates"):
            ground_state(problem(30.0))
        lam = ground_state(problem(33.0)).lam
        assert lam == pytest.approx(ground_state(problem(100.0)).lam, rel=1e-9)

    def test_well_with_a_positive_asymptote(self):
        # W_s tends to -(G + V0 + B/4) = +0.85: the ground state lies above 0
        # and below alpha_beta W(rho_max), so the search's bracket must reach
        # past 0
        well = MorseParams(G=-2.5272374745880346, V0=-0.17783027266171597,
                           kappa=0.7530205937882298, b=-0.7759767841708094)
        ab = 1.6190
        res = [ground_state(RadialProblem(potential=lambda r: morse_w(well, r),
                                          alpha_beta=ab, h=h)) for h in (1e-3, 5e-4)]
        assert abs(res[0].lam - res[1].lam) <= 1e-9
        assert res[0].node_count == res[1].node_count == 0
        rho = np.arange(1, 40001) * 1e-3
        assert ab * morse_w(well, rho).min() < res[0].lam < ab * morse_w(well, 40.0)
        assert res[0].lam == pytest.approx(0.308937421, abs=1e-9)

    def test_scalar_only_potential_rejected(self):
        # the potential is called on the whole grid array, which it must
        # accept before the Ritz start calls it again on 60 points
        def scalar_only(r):
            if np.ndim(r) != 0:
                raise TypeError("scalar only")
            return morse_w(REFERENCE_MORSE, r)

        with pytest.raises(TypeError, match="scalar only"):
            ground_state(RadialProblem(potential=scalar_only, alpha_beta=AB_CHAIN, h=0.01))
        for pot in (lambda r: -1.0, lambda r: -1.0 / r[:-1]):
            p = RadialProblem(potential=pot, alpha_beta=AB_CHAIN, h=0.01)
            with pytest.raises(ValueError, match="shape"):
                ground_state(p)


def harmonic(r):
    return 0.5 * r * r - 10.0


def named_potential(name):
    if name == "bic":
        return bic_interpolator()
    return {"coulomb": coulomb, "morse": morse_pot, "harmonic": harmonic}[name]


class TestSearch:
    """Cooley's matching-point search: its cost and what it converges to."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = numerov_oracle._sweep

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(numerov_oracle, "_sweep", counted)
        return calls

    @pytest.mark.parametrize("name, alpha_beta, h", [
        ("coulomb", 1.0, 1e-3),
        ("morse", AB_CHAIN, 1e-3),
        ("bic", AB_BIC, 1e-3),
        ("bic", AB_BIC, 5e-4),
    ])
    def test_at_most_ten_propagations(self, sweeps, name, alpha_beta, h):
        res = ground_state(RadialProblem(potential=named_potential(name),
                                         alpha_beta=alpha_beta, h=h))
        assert len(sweeps) <= 10
        assert res.iterations == len(sweeps)
        assert res.node_count == 0

    def test_box_truncated_rejection_within_budget(self, sweeps):
        p = RadialProblem(potential=coulomb, alpha_beta=0.1, h=0.01)
        with pytest.raises(RuntimeError, match="truncates"):
            ground_state(p)
        assert 1 <= len(sweeps) <= 10

    @pytest.mark.parametrize("alpha_beta", [1.0, 2.0])
    def test_harmonic_well_lowest_of_five_states(self, alpha_beta):
        # W = rho^2/2 - 10 holds five bound states at alpha_beta = 1; the
        # s-wave oscillator ground state is lambda = -10 ab + 1.5 sqrt(ab)
        p = RadialProblem(potential=harmonic,
                          alpha_beta=alpha_beta, rho_max=20.0, h=1e-3)
        res = ground_state(p)
        assert res.node_count == 0
        assert abs(res.lam - (-10.0 * alpha_beta + 1.5 * math.sqrt(alpha_beta))) <= 1e-8

    def test_deep_well_stops_at_float_resolution(self):
        # at |lambda| ~ 1e7 neighbouring doubles lie 1.9e-9 apart, so no
        # bracket narrows to 1e-10: the search must stop at their spacing
        p = RadialProblem(potential=lambda r: 0.5 * r * r - 1e7, alpha_beta=1.0,
                          rho_max=20.0)
        res = ground_state(p)
        assert res.node_count == 0
        assert abs(res.lam - (-1e7 + 1.5)) <= 1e-8

    def test_too_coarse_grid_rejected(self):
        # h^2 f / 12 >= 1 at the potential floor: Numerov divides by 1 - t <= 0
        p = RadialProblem(potential=coulomb, alpha_beta=1e5)
        with pytest.raises(RuntimeError, match="too coarse"):
            ground_state(p)

    def test_sweep_cap(self, monkeypatch):
        # Coulomb's Numerov eigenvalue lies 3.3e-7 above the exact Ritz
        # start, so its search needs a second sweep
        monkeypatch.setattr(numerov_oracle, "_MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError, match="^no convergence in 1 sweeps$"):
            ground_state(RadialProblem(potential=coulomb, alpha_beta=1.0))

    @pytest.mark.parametrize("name, alpha_beta, lam", [
        ("coulomb", 1.0, -0.4999996670215964),
        ("morse", AB_CHAIN, -1.6614578420100967),
        ("bic", AB_BIC, -1.679890376709034),
    ])
    def test_eigenvalues_match_the_bisection(self, name, alpha_beta, lam):
        # lambda as returned by the bisection this search replaced: the
        # node-free end of a bracket at most 1e-10 wide
        res = ground_state(RadialProblem(potential=named_potential(name),
                                         alpha_beta=alpha_beta))
        assert abs(res.lam - lam) <= 1e-10

    @pytest.mark.parametrize("name, alpha_beta, h, lam", [
        # the bic rows are re-pinned on the interpolant with 128 knots per
        # unit rho, 6.4e-13 or less from Numerov on the exact kernel (see
        # test_interpolant_matches_the_exact_kernel); on 50 knots per unit
        # they were 7e-12 to 2.4e-11 from these
        ("bic", 1.5, 1e-3, -1.285210515819009),
        ("bic", AB_BIC, 1e-3, -1.6798903766945432),
        ("bic", 2.2, 1e-3, -2.1307417673971956),
        ("bic", 1.7, 5e-4, -1.520426431366655),
        ("morse", AB_CHAIN, 1e-3, -1.6614578419354131),
        ("coulomb", 1.0, 1e-3, -0.49999966700072845),
        ("coulomb", 2.0, 1e-3, -1.999994677374764),
        ("harmonic", 1.0, 1e-3, -8.50000000000005),
        ("harmonic", 2.0, 1e-3, -17.878679656440426),
    ])
    def test_coarse_start_keeps_the_eigenvalue(self, name, alpha_beta, h, lam):
        # lambda as the search returned it from the hydrogen start alone,
        # before a coarse pass and then the Ritz start replaced it: six
        # full-grid sweeps for bic and Morse, two for Coulomb.  The Ritz
        # start keeps it to 1.1e-13
        rho_max = 20.0 if name == "harmonic" else 40.0
        res = ground_state(RadialProblem(potential=named_potential(name),
                                         alpha_beta=alpha_beta, rho_max=rho_max, h=h))
        assert abs(res.lam - lam) <= 1e-12

    @pytest.mark.parametrize("alpha_beta, h", [(AB_BIC, 1e-3), (2.2, 1e-3), (1.7, 5e-4)])
    def test_interpolant_matches_the_exact_kernel(self, alpha_beta, h):
        # the interpolant is the only difference between the two: 3.6e-13,
        # 6.4e-13 and 2.7e-13 on 128 knots per unit rho, where 50 knots per
        # unit gave 1.5e-11, 2.5e-11 and 1.2e-11
        def lam(potential):
            return ground_state(RadialProblem(potential=potential, alpha_beta=alpha_beta,
                                              h=h)).lam

        assert abs(lam(bic_interpolator()) - lam(_w_kernel)) <= 1e-12

    @pytest.mark.parametrize("name, alpha_beta, h, want", [
        ("bic", AB_BIC, 1e-3, 1),
        ("bic", AB_BIC, 5e-4, 1),
        ("morse", AB_CHAIN, 1e-3, 1),
        # the Ritz start is Coulomb's exact -alpha_beta^2/2, which the
        # Numerov eigenvalue lies 3.3e-7 above through its O(h^4) error
        ("coulomb", 1.0, 1e-3, 2),
        ("coulomb", 2.0, 1e-3, 2),
    ])
    def test_full_grid_sweeps_after_the_coarse_start(self, sweeps, name, alpha_beta, h,
                                                     want):
        # every sweep is on the full grid and starts from the Ritz
        # eigenvalue; a coarse pass of 6 sweeps on w[::8] once found the
        # start, and the hydrogen start before it took 6 full-grid sweeps
        p = RadialProblem(potential=named_potential(name), alpha_beta=alpha_beta, h=h)
        res = ground_state(p)
        assert all(len(args[0]) == res.grid_points for args in sweeps)
        assert res.iterations == len(sweeps) == want

    @pytest.mark.parametrize("name, alpha_beta, rho_max", [
        ("bic", AB_BIC, 40.0),
        ("morse", AB_CHAIN, 40.0),
        ("coulomb", 1.0, 40.0),
        ("harmonic", 1.0, 20.0),
    ])
    def test_any_start_reaches_the_same_eigenvalue(self, name, alpha_beta, rho_max):
        # a start is never the answer: off by +-1e-3, at either end of the
        # bracket or NaN (which goes to the floor), the search converges to
        # the fixed point it reaches from the Ritz start
        pot = named_potential(name)
        p = RadialProblem(potential=pot, alpha_beta=alpha_beta, rho_max=rho_max)
        w = numerov_oracle._w_grid(p)
        ritz = numerov_oracle.ritz_lowest(lambda r: pot(np.clip(r, p.h, rho_max)), alpha_beta)
        want, nodes, _, _ = numerov_oracle._search(w, alpha_beta, p.h, ritz)
        assert nodes == 0 and want == ground_state(p).lam
        floor, top = alpha_beta * float(np.min(w[1:])), max(0.0, alpha_beta * float(w[-1]))
        for start in (ritz - 1e-3, ritz + 1e-3, floor, top, math.nan):
            lam, nodes, _, _ = numerov_oracle._search(w, alpha_beta, p.h, start)
            assert nodes == 0
            assert abs(lam - want) <= 1e-12, start

    @pytest.mark.parametrize("name, alpha_beta, h", [
        # the coupling-scan mix
        ("bic", 1.5, 1e-3), ("bic", AB_BIC, 1e-3), ("bic", 2.2, 1e-3),
        ("bic", 1.5, 5e-4), ("bic", AB_BIC, 5e-4), ("bic", 2.2, 5e-4),
        ("morse", 1.8233735, 1e-3), ("coulomb", 1.0, 1e-3), ("coulomb", 1.5, 1e-3),
        ("coulomb", 2.0, 1e-3),
        # no inward cut, both ends of the bic couplings, and a turning point
        # 6 steps out, which the resolution check refuses
        ("coulomb", 0.45, 1e-3), ("bic", 0.5, 1e-3), ("bic", 10.0, 1e-3),
        ("coulomb", 300.0, 1e-3),
    ])
    def test_last_sweep_turning_index(self, name, alpha_beta, h):
        # ground_state's resolution check reads the turning index of the
        # search's last sweep in place of one recomputed at the returned lam
        p = RadialProblem(potential=named_potential(name), alpha_beta=alpha_beta, h=h)
        w = numerov_oracle._w_grid(p)
        start = numerov_oracle.ritz_lowest(lambda r: p.potential(np.clip(r, h, p.rho_max)),
                                           alpha_beta)
        lam, nodes, _, m = numerov_oracle._search(w, alpha_beta, h, start)
        assert nodes == 0
        assert m == numerov_oracle._turning_index(numerov_oracle._t_grid(w, alpha_beta, h, lam))

    @pytest.mark.parametrize("potential, alpha_beta, h, text", [
        pytest.param(coulomb, 0.1, 1e-3,
                     "rho_max = 40 truncates the state at lambda = -0.00483265: edge "
                     "decay kappa*rho_max = 2.732 < 15; increase rho_max", id="box"),
        pytest.param(coulomb, 0.1, 1e-2,
                     "rho_max = 40 truncates the state at lambda = -0.00483265: edge "
                     "decay kappa*rho_max = 2.732 < 15; increase rho_max", id="box-h1e-2"),
        pytest.param(coulomb, 300.0, 1e-3,
                     "h = 0.001 does not resolve the state at lambda = -43092.2: its "
                     "outermost classical turning point is 6 steps from the origin, "
                     "fewer than 100; decrease h", id="unresolved"),
        pytest.param(coulomb, 1000.0, 1e-3,
                     "h = 0.001 does not resolve the state at lambda = -386887: its "
                     "outermost classical turning point is 2 steps from the origin, "
                     "fewer than 100; decrease h", id="unresolved-2-steps"),
        pytest.param(coulomb, 1e5, 1e-3,
                     "h = 0.001 is too coarse at alpha_beta = 100000: h^2 f/12 reaches "
                     "16.7 at lambda = -1e+08 (Numerov needs < 1)", id="too-coarse"),
        # the Ritz start's matrix overflows, which raised numpy's LinAlgError
        pytest.param(coulomb, 1e200, 1e-3,
                     "h = 0.001 is too coarse at alpha_beta = 1e+200: h^2 f/12 reaches "
                     "1.67e+196 at lambda = -1e+203 (Numerov needs < 1)", id="ritz-overflow"),
        # alpha_beta * min W overflows: this said "reaches inf at lambda = -inf"
        pytest.param(coulomb, 1e308, 1e-3,
                     "h = 0.001 is too coarse at alpha_beta = 1e+308: h^2 f/12 overflows, "
                     "as alpha_beta * min W does, with min W = -1000 (Numerov needs < 1)",
                     id="floor-overflow"),
        # alpha_beta * min W is finite, alpha_beta * max W overflows
        pytest.param(lambda r: np.where(r < 1.0, -1.0, 1e10), 1e300, 1e-3,
                     "h = 0.001 is too coarse at alpha_beta = 1e+300: h^2 f/12 overflows "
                     "at lambda = -1e+300 (Numerov needs < 1)", id="step-overflow"),
        pytest.param(lambda r: 1.0 / r, 1.0, 1e-3,
                     "potential is nowhere attractive: no bound state", id="repulsive"),
        pytest.param(lambda r: -0.01 * np.exp(-r * r), 1.0, 1e-3,
                     "no bound state found in (-0.00999999, -1e-09) at alpha_beta = 1",
                     id="shallow"),
    ])
    def test_errors_come_from_the_full_grid(self, potential, alpha_beta, h, text):
        # the texts the search raised from the hydrogen start alone, on the
        # full grid, and raises from the Ritz start
        p = RadialProblem(potential=potential, alpha_beta=alpha_beta, h=h)
        with warnings.catch_warnings(), pytest.raises(RuntimeError) as err:
            warnings.simplefilter("error")
            ground_state(p)
        assert str(err.value) == text


def scalar_numerov(t, h, dtype=float):
    """The per-point Numerov loop that _propagate replaced, as a reference.

    u_{i+1} = ((2 + 10 t_i) u_i - (1 - t_{i-1}) u_{i-1}) / (1 - t_{i+1}) in
    ``dtype`` from u_0 = 0, u_1 = h, without rescaling; returns (u_prev, u,
    s, nodes) as _propagate does.
    """
    t = [dtype(x) for x in np.asarray(t, dtype=float).tolist()]
    u_prev, u = dtype(0), dtype(h)
    s, nodes = u * u, 0
    for i in range(1, len(t) - 1):
        u_prev, u = u, ((2 + 10 * t[i]) * u - (1 - t[i - 1]) * u_prev) / (1 - t[i + 1])
        s += u * u
        if u * u_prev <= 0:
            nodes += 1
    return u_prev, u, s, nodes


def reference_sweep(w, alpha_beta, h, lam, dtype):
    """_sweep's (nodes, dlam), propagated by scalar_numerov in ``dtype``."""
    t = numerov_oracle._t_grid(w, alpha_beta, h, lam)
    allowed = np.flatnonzero(t[1:-1] <= 0.0)
    m = int(allowed[-1]) + 1 if allowed.size else 1
    out_prev, out, s_out, nodes_out = scalar_numerov(t[:m + 1], h, dtype)
    in_prev, in_m, s_in, nodes_in = scalar_numerov(t[m:][::-1], h, dtype)
    nodes = nodes_out + nodes_in
    if nodes:
        return nodes, 0.0
    t_before, t_m, t_after = (dtype(x) for x in t[m - 1:m + 2].tolist())
    residual = ((1 - t_before) * out_prev / out - (2 + 10 * t_m)
                + (1 - t_after) * in_prev / in_m)
    norm = s_out / (out * out) + s_in / (in_m * in_m) - 1
    return 0, float(-residual / (2 * dtype(h) ** 2 * norm))


LONG_DOUBLE = np.finfo(np.longdouble).eps < np.finfo(float).eps


class TestPropagation:
    """The blocked numpy propagation against the per-point loop it replaced."""

    @pytest.mark.skipif(not LONG_DOUBLE, reason="np.longdouble is a plain double here")
    @pytest.mark.parametrize("name, alpha_beta, rho_max, lam", [
        ("coulomb", 1.0, 40.0, -0.5),
        ("morse", AB_CHAIN, 40.0, LAM_MORSE_ORACLE),
        ("bic", AB_BIC, 40.0, -1.68),
        ("harmonic", 1.0, 20.0, -8.5),
    ])
    def test_correction_matches_long_double_loop(self, name, alpha_beta, rho_max, lam):
        p = RadialProblem(potential=named_potential(name), alpha_beta=alpha_beta,
                          rho_max=rho_max)
        w = numerov_oracle._w_grid(p)
        rng = np.random.default_rng(1018)
        for trial in lam + rng.uniform(-1e-3, 1e-3, size=2):
            nodes, dlam, _ = numerov_oracle._sweep(w, alpha_beta, p.h, trial, np.empty_like(w))
            ref_nodes, ref_dlam = reference_sweep(w, alpha_beta, p.h, trial, np.longdouble)
            assert nodes == ref_nodes == 0
            assert abs(dlam - ref_dlam) <= 1e-11

    @pytest.mark.skipif(not LONG_DOUBLE, reason="np.longdouble is a plain double here")
    @pytest.mark.parametrize("name, alpha_beta, h", [
        ("bic", 1.5, 1e-3), ("bic", 1.5, 5e-4),
        ("bic", AB_BIC, 1e-3), ("bic", AB_BIC, 5e-4),
        ("bic", 2.2, 1e-3), ("bic", 2.2, 5e-4),
        ("morse", AB_CHAIN, 1e-3),
        ("coulomb", 1.0, 1e-3), ("coulomb", 2.0, 1e-3),
        # S never reaches _CUT_EXPONENT: the inward half starts at rho_max
        ("coulomb", 0.45, 1e-3),
    ])
    def test_cut_changes_no_answer(self, name, alpha_beta, h):
        # _sweep starts its inward half where the state has decayed below
        # rounding; the reference propagates in from rho_max
        p = RadialProblem(potential=named_potential(name), alpha_beta=alpha_beta, h=h)
        w = numerov_oracle._w_grid(p)
        lam = ground_state(p).lam
        for trial in (lam - 1e-3, lam + 1e-3):
            nodes, dlam, _ = numerov_oracle._sweep(w, alpha_beta, h, trial, np.empty_like(w))
            ref_nodes, ref_dlam = reference_sweep(w, alpha_beta, h, trial, np.longdouble)
            assert nodes == ref_nodes
            assert abs(dlam - ref_dlam) <= 1e-11

    @pytest.mark.parametrize("name, alpha_beta, cut", [("bic", AB_BIC, True),
                                                       ("coulomb", 0.45, False)])
    def test_inward_half_length(self, monkeypatch, name, alpha_beta, cut):
        p = RadialProblem(potential=named_potential(name), alpha_beta=alpha_beta)
        w = numerov_oracle._w_grid(p)
        lam = ground_state(p).lam
        lengths = []
        propagate = numerov_oracle._propagate

        def measured(t, h):
            lengths.append(len(t))
            return propagate(t, h)

        monkeypatch.setattr(numerov_oracle, "_propagate", measured)
        _, _, m = numerov_oracle._sweep(w, alpha_beta, p.h, lam, np.empty_like(w))
        # the outward half is t_0 ... t_m, the inward one t_c ... t_m
        assert lengths[0] == m + 1
        if cut:
            # 38 000 points lie past the turning point
            assert lengths[1] < 16000
        else:
            assert lengths[1] == len(w) - m

    def test_log_growth_is_a_lower_bound(self):
        # Numerov's growth per step at constant t > 0 is ln mu with mu + 1/mu
        # = 2 + 12 t/(1 - t); sqrt(12 t) agrees with it to O(t^2) relative,
        # so its rounding alone can put it above: float arccosh(1 + x) cannot
        # be the reference, as 1 + x itself rounds.  arccosh(1 + x) is
        # log1p(x + sqrt(x (2 + x))), which keeps its digits at tiny x
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2201)
        t = np.concatenate((10.0 ** rng.uniform(-300, 0, 2000),
                            1.0 - 10.0 ** rng.uniform(-16, -1, 200),
                            1e-9 * (1.0 + rng.uniform(-0.1, 0.1, 200)),
                            [np.nextafter(1.0, 0.0), 5e-324 * 2 ** 60]))
        got = numerov_oracle._log_growth(t)
        with mp.workdps(40):
            for x, bound in zip(t.tolist(), got.tolist()):
                x = 6 * mp.mpf(x) / (1 - mp.mpf(x))
                assert mp.mpf(bound) <= mp.log1p(x + mp.sqrt(x * (2 + x)))

    def test_growth_past_the_double_range_rescales(self):
        # constant t: u_i ~ mu^i, e^(0.35 * 3000) ~ 1e456 at the end, so the
        # carried state is rescaled, and the first blocks underflow in s
        t0, n = 0.01, 3000
        mu = math.exp(math.acosh(1.0 + 6.0 * t0 / (1.0 - t0)))
        assert n * math.log(mu) > 710.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u_prev, u, s, nodes = numerov_oracle._propagate(np.full(n + 1, t0), 1e-3)
        assert nodes == 0
        assert math.isfinite(u) and u > 0.0
        assert u_prev / u == pytest.approx(1.0 / mu, rel=1e-13)
        assert s / (u * u) == pytest.approx(1.0 / (1.0 - mu ** -2), rel=1e-12)

    @pytest.mark.parametrize("name, alpha_beta, rho_max, lam, expected", [
        ("morse", AB_CHAIN, 40.0, -1.3, None),
        # between the s-wave oscillator levels -10 + 3.5 and -10 + 5.5
        ("harmonic", 1.0, 20.0, -5.5, 2),
    ])
    def test_node_counts_match_the_scalar_loop(self, name, alpha_beta, rho_max, lam,
                                               expected):
        p = RadialProblem(potential=named_potential(name), alpha_beta=alpha_beta,
                          rho_max=rho_max)
        t = numerov_oracle._t_grid(numerov_oracle._w_grid(p), alpha_beta, p.h, lam)
        nodes = scalar_numerov(t, p.h)[3]
        assert numerov_oracle._propagate(t, p.h)[3] == nodes
        assert nodes >= 1 and expected in (None, nodes)

    def test_exact_zero_counts_as_in_the_scalar_loop(self):
        # u_1 ... u_5 = 1, 4/3, -4, 0, 10/3, the zero exact in both loops:
        # (-4, 0) and (0, 10/3) are both pairs with u_{i-1} u_i <= 0, where a
        # rounded zero would make one of them
        t = np.array([-0.3125, 0.0, -0.5, -0.25, -0.0625, -0.5, -0.3125,
                      -0.9375, -0.375, -0.8125, 0.0, 0.0, 0.0625])
        assert scalar_numerov(t[:5], 1.0)[1] == 0.0
        assert numerov_oracle._propagate(t, 1.0)[3] == scalar_numerov(t, 1.0)[3] == 8

    def test_growth_past_the_double_range(self):
        # the inward half starts near rho = 14 at rho_max = 400 as at 40,
        # where the state has decayed below rounding; the growth past the
        # double range is test_growth_past_the_double_range_rescales's
        def problem(rho_max):
            return RadialProblem(potential=coulomb, alpha_beta=2.0, rho_max=rho_max,
                                 h=1e-2)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = ground_state(problem(400.0))
        assert far.node_count == 0
        assert far.lam == pytest.approx(ground_state(problem(40.0)).lam, rel=1e-12)

    @pytest.mark.parametrize("t", [[0.3, -0.2], [0.0, 0.5], [0.3, -0.1, 0.01],
                                   [0.0, -2.0, 0.9]])
    def test_two_and_three_point_grids(self, t):
        u_prev, u, s, nodes = numerov_oracle._propagate(np.array(t), 1e-3)
        ref_prev, ref, ref_s, ref_nodes = scalar_numerov(t, 1e-3)
        assert nodes == ref_nodes
        assert u_prev / u == pytest.approx(ref_prev / ref, rel=1e-15)
        assert s / (u * u) == pytest.approx(ref_s / (ref * ref), rel=1e-15)

    @pytest.mark.parametrize("lam, end", [(-3.5, "origin"), (-0.1, "edge")])
    def test_matching_at_the_grid_ends(self, lam, end):
        # below the potential floor nothing is allowed (m = 1, a 2-point
        # outward half); above the edge value everything is (m = n - 1)
        p = RadialProblem(potential=morse_pot, alpha_beta=AB_CHAIN, h=1e-2)
        w = numerov_oracle._w_grid(p)
        nodes, dlam, m = numerov_oracle._sweep(w, AB_CHAIN, p.h, lam, np.empty_like(w))
        assert m == {"origin": 1, "edge": len(w) - 2}[end]
        ref_nodes, ref_dlam = reference_sweep(w, AB_CHAIN, p.h, lam, float)
        assert nodes == ref_nodes
        assert dlam == pytest.approx(ref_dlam, rel=1e-12)

    @pytest.mark.parametrize("h, limit_mib", [(1e-3, 1.6), (5e-4, 3.1)])
    def test_sweep_memory(self, h, limit_mib):
        # the per-point loop held t.tolist(): 1.54 and 3.08 MiB
        p = RadialProblem(potential=bic_interpolator(), alpha_beta=AB_BIC, h=h)
        w = numerov_oracle._w_grid(p)
        t = np.empty_like(w)
        tracemalloc.start()
        try:
            numerov_oracle._sweep(w, AB_BIC, h, -1.68, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2 ** 20

    @pytest.mark.parametrize("h", [1e-3, 5e-4])
    def test_ground_state_memory(self, h):
        # at most 4 arrays of the grid's size at once (3.6 and 3.3 measured):
        # W, t and one propagation's blocks.  A second t after the search,
        # the concatenated W and the interpolant's grid-sized temporaries
        # made it 5
        p = RadialProblem(potential=bic_interpolator(), alpha_beta=AB_BIC, h=h)
        ground_state(p)  # builds the interpolant and the Ritz rule
        tracemalloc.start()
        try:
            ground_state(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * (int(round(p.rho_max / h)) + 1)

    def test_shoot_rejects_too_coarse_grid(self, monkeypatch):
        # W = -1e7 at the origin: h^2 f / 12 reaches 1.7 at the bracket's
        # floor, lambda = -1e7, where the loop divided by 1 - t < 0 and
        # reported 39 999 nodes.  The search refuses before any sweep
        p = RadialProblem(potential=lambda r: np.where(r < 0.5, -1e7, -1.0 / r),
                          alpha_beta=1.0)
        monkeypatch.setattr(numerov_oracle, "_sweep", None)
        with pytest.raises(RuntimeError, match="too coarse"):
            numerov_oracle._search(numerov_oracle._w_grid(p), p.alpha_beta, p.h, -0.5)

    def test_unresolved_state_rejected(self):
        # Coulomb at alpha_beta = 300: the Bohr radius is 3.3 steps, the
        # turning point 6, and eps/alpha^2 came out as -0.4788 (exact: -1/2)
        with pytest.raises(RuntimeError, match="does not resolve"):
            ground_state(RadialProblem(potential=coulomb, alpha_beta=300.0))

    def test_resolution_threshold(self):
        # at alpha_beta = 20 the turning point is 100 steps out and the error
        # 1.3e-4; at 21 it is 95 steps out
        res = ground_state(RadialProblem(potential=coulomb, alpha_beta=20.0))
        assert res.eps_over_alpha2 == pytest.approx(-0.5, abs=2e-4)
        with pytest.raises(RuntimeError, match="95 steps"):
            ground_state(RadialProblem(potential=coulomb, alpha_beta=21.0))


def end_cubic(y, t):
    """The Hermite cubic on [x_0, x_1] at x_0 + t dx, from y at x_k = x_0 + k dx.

    The slopes (times dx) at x_0 and x_1 are the fourth-order one-sided
    differences on y_0 ... y_4; dx may be negative.
    """
    s0 = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / 12.0
    s1 = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / 12.0
    return (y[0] * (2 * t ** 3 - 3 * t ** 2 + 1) + y[1] * (3 * t ** 2 - 2 * t ** 3)
            + s0 * (t ** 3 - 2 * t ** 2 + t) + s1 * (t ** 3 - t ** 2))


class TestBicInterpolator:
    def test_matches_direct_quadrature_off_grid(self):
        spline = bic_interpolator()
        for rho in (0.013, 0.77, 3.1415, 17.3, 39.2):
            assert float(spline(rho)) == pytest.approx(w_of_rho(rho), abs=1e-8)

    def test_cached_instance_reused(self):
        assert bic_interpolator() is bic_interpolator()

    def test_cache_keyed_on_value_not_call_form(self):
        spline = bic_interpolator()
        assert bic_interpolator(40.0) is spline
        assert bic_interpolator(rho_max=40.0) is spline
        assert bic_interpolator(40) is spline

    def test_cache_is_bounded(self):
        build = numerov_oracle._bic_spline
        maxsize = build.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for k in range(maxsize + 2):
            bic_interpolator(20.0 + k)
        assert build.cache_info().currsize == maxsize

    @pytest.mark.parametrize("rho_max", [math.nan, math.inf, -1.0, 0.0, 7813.0])
    def test_bad_rho_max_rejected(self, rho_max):
        # NaN and inf failed converting the knot count; 7813 needs more than
        # tabulate's 10^6 points
        with pytest.raises(ValueError, match="rho_max"):
            bic_interpolator(rho_max)

    def test_small_rho_max_on_five_knots(self):
        # knots k/128, k = 0 ... 4: the first four reproduced exactly, and
        # answers up to one spacing past the last one
        spline = bic_interpolator(0.01)
        table = tabulate(PotentialKind.EXACT_BIC, 0.0, 4 / 128, 5)
        np.testing.assert_array_equal(spline(np.arange(4) / 128), table.values[:4])
        assert math.isfinite(float(spline(5 / 128)))
        with pytest.raises(ValueError, match="outside"):
            spline(np.nextafter(5 / 128, 1.0))
        assert float(spline(0.01)) == pytest.approx(w_of_rho(0.01), abs=1e-12)

    @pytest.mark.parametrize("rho_max, h, last", [(40.0, 0.0087, 40.0026), (38.5, 0.0099, 38.5011)])
    def test_shooting_grid_may_end_past_the_table(self, rho_max, h, last):
        # the grid ends at round(rho_max/h) h, up to h/2 past rho_max, and so
        # past a table that ends at rho_max itself: a refusal of points
        # outside the table must allow for this overshoot
        rho = numerov_oracle._w_grid(RadialProblem(lambda r: r, 1.0, rho_max, h))
        spline = bic_interpolator(rho_max)
        # rho_max is a knot here, so the table ends at it
        assert (128 * rho_max).is_integer()
        assert rho_max < rho[-1] <= rho_max + h / 2
        assert rho[-1] == pytest.approx(last, abs=1e-12)
        assert abs(float(spline(rho[-1])) - w_of_rho(rho[-1])) <= 5e-12

    # the tables bic_interpolator builds: knots at k/128 for k = 0 ... n - 1,
    # n - 1 = max(ceil(128 rho_max), 4), reaching rho_max or just past it.
    # Fourth-order slopes keep the error at 2.03e-12 here, where 50 knots
    # per unit rho gave 7.5e-11 to 8.8e-11; second-order (Catmull-Rom)
    # slopes on those gave 1.7e-8.
    @pytest.mark.parametrize("rho_max, n", [(40.0, 5121), (38.5, 4929), (120.0, 15361),
                                            (38.7371, 4960)])
    def test_matches_exact_kernel_on_shooting_grids(self, rho_max, n):
        top = (n - 1) / 128
        table = tabulate(PotentialKind.EXACT_BIC, 0.0, top, n)
        got = bic_interpolator(rho_max)
        np.testing.assert_array_equal(table.rho_grid, np.arange(n) / 128)
        # every knot but the last is the start of its interval: reproduced exactly
        np.testing.assert_array_equal(got(table.rho_grid[:-1]), table.values[:-1])
        assert rho_max <= top < rho_max + 1 / 128
        for h in (1e-3, 5e-4):
            rho = np.arange(1, int(round(rho_max / h)) + 1) * h
            assert np.max(np.abs(got(rho) - _w_kernel(rho))) <= 5e-12
        # scalar calls give 0-d results, as the array path does; the knots
        # are reproduced exactly
        for rho in (0.0, 1e-3, table.rho_grid[7], 2.1396, rho_max, top + 1 / 128):
            value = got(rho)
            assert np.ndim(value) == 0
            assert float(value) == got(np.array([rho]))[0]
        assert got(0.0) == table.values[0] and got(table.rho_grid[7]) == table.values[7]
        for rho in (1e-3, 2.1396, rho_max):
            assert abs(float(got(rho)) - w_of_rho(rho)) <= 5e-12
        # the end intervals' cubics have the slopes of the one-sided stencils;
        # the far end is the near one read backwards, and its cubic answers
        # one spacing past the last knot
        dx = 1 / 128
        for rho, t, y in ((0.5 * dx, 0.5, table.values[:5]),
                          (top + dx, -1.0, table.values[::-1][:5])):
            assert float(got(rho)) == pytest.approx(end_cubic(y, t), rel=1e-8)

    @pytest.mark.parametrize("rho_max", [40.0, 38.5, 120.0])
    def test_interval_is_searchsorted(self, rho_max):
        spline = bic_interpolator(rho_max)
        x = np.arange({40.0: 5121, 38.5: 4929, 120.0: 15361}[rho_max]) / 128

        def want(rho):
            return np.clip(np.searchsorted(x, rho, side="right") - 1, 0, x.size - 2)

        grids = [np.arange(1, int(round(rho_max / h)) + 1) * h for h in (1e-3, 5e-4)]
        for rho in (*grids, x, np.nextafter(x[1:], -np.inf), np.nextafter(x, np.inf),
                    np.array([x[-1] + 1 / 128])):
            np.testing.assert_array_equal(spline._interval(rho), want(rho))
        assert np.ndim(spline._interval(np.asarray(x[7]))) == 0

    @pytest.mark.parametrize("rho", [-1.0, -5e-324, -np.inf, np.inf, np.nan, 1e300, 1e308,
                                     80.0, 50.0, np.nextafter(40.0 + 1 / 128, np.inf)])
    def test_points_outside_the_table_refused(self, rho):
        # the end cubics once answered +0.00182 at rho = 80, where W = -0.0127,
        # and -2.354 at rho = -1, where W is not defined
        spline = bic_interpolator()
        grid = np.arange(1, 40001) * 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for points in (rho, [rho], np.insert(grid, 30000, rho)):
                with pytest.raises(ValueError) as err:
                    spline(points)
                assert str(err.value).startswith(f"rho = {float(rho)!r} is outside")
            # one knot spacing past the last knot still answers
            assert math.isfinite(float(spline(40.0 + 1 / 128)))
