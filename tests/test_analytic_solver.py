"""Tests for the Whittaker-quantization solver.

"oracle" values were produced by an independent mpmath run (30 digits,
mpmath's own whitm/hyp1f1 and findroot) before this module was written;
"reference chain" values are the published four (nu, a, X, alpha-beta,
eps) figures the library is expected to reproduce.
"""

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bicatom import analytic_solver
from bicatom.analytic_solver import (
    AnalyticSolution,
    MorseParams,
    calibrate_nu,
    first_root,
    observables,
    quantization_residual,
    solve_a,
)
from bicatom.bic_potential import QUARTER_BETA, PotentialKind, tabulate
from bicatom.morse_fit import REFERENCE_MORSE, FitConfig, fit
from bicatom.specfun import whittaker_m

C = REFERENCE_MORSE

NU_REF = 2.89873
# reference chain, published values
A_REF, X_REF = 4.414424, 6.756270935
AB_REF, EPS_REF = 1.823373498, -0.4997331195
# oracle: mpmath solve of the same chain
A_ORACLE = 4.41442436004627
X_ORACLE = 6.75627149122248
AB_ORACLE = 1.8233737948405
EPS_ORACLE = -0.499732968097427
# oracle: mpmath solve at nu = 2.5
A25_ORACLE = 3.969663503727
EPS25_ORACLE = -0.5750798061765
# oracle: the misprint-sign variant of the energy relation at the reference
# chain point; it must stay far from the true eps
EPS_PRINTED_ORACLE = 0.3657783422


class TestQuantizationResidual:
    def test_reference_chain_is_a_root(self):
        res = quantization_residual(A_REF, NU_REF, REFERENCE_MORSE)
        z0 = 2.0 * A_REF * math.exp(-REFERENCE_MORSE.kappa * abs(REFERENCE_MORSE.b))
        slope = abs(whittaker_m(A_REF, NU_REF, z0 + 0.01)
                    - whittaker_m(A_REF, NU_REF, z0 - 0.01)) / 0.02
        assert abs(res) <= 1e-3 * slope

    def test_small_a_has_positive_residual(self):
        assert quantization_residual(0.1, 1.0, REFERENCE_MORSE) > 0.0
        assert quantization_residual(1.0, 2.0, REFERENCE_MORSE) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            quantization_residual(0.0, 1.0, REFERENCE_MORSE)
        with pytest.raises(ValueError):
            quantization_residual(1.0, -1.0, REFERENCE_MORSE)
        with pytest.raises(ValueError):
            quantization_residual(math.nan, 1.0, REFERENCE_MORSE)

    @pytest.mark.parametrize("b", [800.0, 1e6])
    def test_boundary_point_beyond_1f1_range_is_named(self, b):
        # X = 2a e^(kappa b) is 1.4e204 at b = 800 and overflows at 1e6;
        # the error named kummer_m and a z the caller never gave
        morse = REFERENCE_MORSE._replace(b=b)
        with pytest.raises(ValueError, match=rf"kappa = 0\.5852, b = {b!r} put .* "
                                             r"beyond 1F1's range z <= 200$"):
            quantization_residual(3.4, 2.9, morse)

    @pytest.mark.parametrize("kappa, b, x", [
        (0.5852, -1000.0, "4.82368e-254"), (1e308, -0.4572, "0"), (0.5852, -1e308, "0"),
        (0.5852, -360.0, "2.18183e-91")])
    def test_boundary_point_near_0_is_named(self, kappa, b, x):
        # M's prefactor underflowed to 0.0, an exact root to the march, or
        # X itself did and whittaker_m named a z the caller never gave
        morse = REFERENCE_MORSE._replace(kappa=kappa, b=b)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"kappa = {kappa!r}, b = {b!r} put X = 2a e^(kappa b) = {x} at a = 3.4 "
                "so near 0 that e^(-X/2) X^(nu+1/2) underflows at nu = 2.9") + "$"):
            quantization_residual(3.4, 2.9, morse)
        with pytest.raises(ValueError, match="underflows at nu = "):
            solve_a(2.9, morse)

    def test_boundary_point_near_0_answers_above_the_limit(self):
        # X = 7.6e-89 at b = -350, above nu = 2.9's limit 3.3e-91: 1F1 is
        # 1 there and M its prefactor
        x = 6.8 * math.exp(0.5852 * -350.0)
        got = quantization_residual(3.4, 2.9, REFERENCE_MORSE._replace(b=-350.0))
        assert got == pytest.approx(x ** 3.4, rel=1e-12)

    def test_calibrate_refuses_a_boundary_point_near_0(self):
        # this returned nu = 5.4 with X = 8.4e-254
        with pytest.raises(ValueError, match="b = -1000.0 put .* underflows at nu = 5.4$"):
            calibrate_nu(-0.49973, REFERENCE_MORSE._replace(b=-1000.0))


class TestFirstRoot:
    @pytest.mark.parametrize("nu", [0.7, 1.0, 1.3, 2.2])
    def test_linear_polynomial_case(self, nu):
        # a = nu + 3/2 truncates the series to 1 - z/(1+2nu)
        assert first_root(nu + 1.5, nu) == pytest.approx(1.0 + 2.0 * nu, abs=1e-9)

    def test_quadratic_polynomial_case(self):
        # a = nu + 5/2, nu = 1: series is 1 - 2z/3 + z^2/12, roots 2 and 6
        assert first_root(3.5, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_reference_chain_root(self):
        assert first_root(A_REF, NU_REF) == pytest.approx(X_REF, abs=2e-3)

    def test_no_roots_when_series_is_positive(self):
        with pytest.raises(RuntimeError):
            first_root(0.5, 1.0)

    def test_no_root_below_cap(self):
        # the series parameter is negative so a root exists, but for an
        # order this large it sits beyond the z = 200 scan cap
        with pytest.raises(RuntimeError):
            first_root(101.0, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            first_root(-1.0, 1.0)
        with pytest.raises(ValueError):
            first_root(1.0, 0.0)


class TestSolveA:
    def test_reference_chain(self):
        a = solve_a(NU_REF, REFERENCE_MORSE)
        assert a == pytest.approx(A_REF, abs=1e-3)
        assert a == pytest.approx(A_ORACLE, abs=1e-8)

    def test_boundary_point_is_first_root(self):
        a = solve_a(NU_REF, REFERENCE_MORSE)
        z0 = 2.0 * a * math.exp(-REFERENCE_MORSE.kappa * abs(REFERENCE_MORSE.b))
        assert first_root(a, NU_REF) - z0 == pytest.approx(0.0, abs=1e-8)

    def test_oracle_value_at_nu_2p5(self):
        assert solve_a(2.5, REFERENCE_MORSE) == pytest.approx(A25_ORACLE, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_a(0.0, REFERENCE_MORSE)
        with pytest.raises(ValueError):
            solve_a(math.inf, REFERENCE_MORSE)

    def test_non_negative_depth_rejected(self):
        # solve_a returned 4.414424360046274 for G = 1.83 and for G = 0, as
        # if G were -1.83: the Whittaker reduction needs G < 0
        for g in (1.83, 0.0):
            with pytest.raises(ValueError, match="G must be negative"):
                solve_a(2.89873, REFERENCE_MORSE._replace(G=g))


class TestObservables:
    def test_reference_chain_values(self):
        sol = observables(NU_REF, A_REF, C)
        assert sol.alpha_beta == pytest.approx(AB_REF, abs=1e-4)
        assert sol.eps_over_alpha2 == pytest.approx(EPS_REF, abs=1e-5)

    def test_solved_chain_matches_oracle(self):
        sol = observables(NU_REF, solve_a(NU_REF, REFERENCE_MORSE), C)
        assert sol.X == pytest.approx(X_ORACLE, abs=1e-7)
        assert sol.alpha_beta == pytest.approx(AB_ORACLE, abs=1e-7)
        assert sol.eps_over_alpha2 == pytest.approx(EPS_ORACLE, abs=1e-7)
        # and the published figures at their stated tolerances
        assert sol.a == pytest.approx(A_REF, abs=1e-3)
        assert sol.X == pytest.approx(X_REF, abs=2e-3)
        assert sol.alpha_beta == pytest.approx(AB_REF, abs=1e-3)
        assert sol.eps_over_alpha2 == pytest.approx(EPS_REF, abs=1e-4)

    def test_degenerate_zero_a(self):
        # a = 0 (no well) is rejected; solve_a never returns it
        with pytest.raises(ValueError, match="a must be a positive real"):
            observables(2.0, 0.0, C)
        with pytest.raises(ValueError, match="a must be a positive real"):
            AnalyticSolution(nu=2.0, a=0.0, X=0.0, alpha_beta=0.0, eps_over_alpha2=-0.5)

    def test_zero_depth_rejected(self):
        # alpha_beta divides by G: G = 0 raised ZeroDivisionError, and G > 0
        # was silently solved as -|G|
        for g in (0.0, 1.83):
            with pytest.raises(ValueError, match="G must be negative"):
                observables(2.6, 1.0, REFERENCE_MORSE._replace(G=g))

    def test_underflowing_alpha_beta_rejected(self):
        # alpha_beta = -kappa^2 a^2 / (2 G) is 0.0 at a = 1e-200, and eps
        # divides by alpha_beta^2: this raised ZeroDivisionError
        with pytest.raises(ValueError, match="underflows"):
            observables(2.0, 1e-200, C)

    def test_alpha_beta_quadratic_in_a(self):
        base = observables(2.0, 1.25, C).alpha_beta
        assert observables(2.0, 2.5, C).alpha_beta == 4.0 * base

    @pytest.mark.parametrize("nu", [2.5, NU_REF])
    def test_all_five_invariants_hold(self, nu):
        m = REFERENCE_MORSE
        sol = observables(nu, solve_a(nu, m), C)
        assert abs(sol.a - math.sqrt(2.0 * sol.A_abs)) <= 1e-12
        assert abs(sol.E + 0.5 * nu ** 2) <= 1e-12
        assert abs(sol.X - 2.0 * sol.a * math.exp(m.kappa * m.b)) <= 1e-10
        assert abs(sol.alpha_beta - m.kappa ** 2 * sol.a ** 2 / (-2.0 * m.G)) <= 1e-12
        assert sol.eps_over_alpha2 < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            observables(-1.0, 1.0, C)
        with pytest.raises(ValueError):
            observables(1.0, -1.0, C)


class TestAnalyticSolutionType:
    def test_inconsistent_fields_rejected(self):
        # eps_over_alpha2 takes either sign (see test_routes_agree)
        with pytest.raises(ValueError):
            AnalyticSolution(nu=-2.0, a=1.0, X=1.5,
                             alpha_beta=0.1, eps_over_alpha2=-0.5)


SOLUTION = AnalyticSolution(nu=NU_REF, a=A_ORACLE, X=X_ORACLE, alpha_beta=AB_ORACLE,
                            eps_over_alpha2=EPS_ORACLE)
# each record, one field that makes it invalid, and the message that names it
INVALID = [
    pytest.param(REFERENCE_MORSE, {"kappa": -0.5}, "kappa must be positive", id="morse-kappa"),
    pytest.param(REFERENCE_MORSE, {"b": math.inf}, "must be finite", id="morse-finite"),
    pytest.param(SOLUTION, {"X": 0.0}, "X must be a positive real", id="solution-X"),
    pytest.param(SOLUTION, {"nu": math.nan}, "nu must be a positive real", id="solution-nu"),
]


def _bypass(record, **fields):
    """record's type holding ``fields`` in place of record's own, built by
    tuple.__new__, which skips the checks, as a tampered pickle could."""
    return tuple.__new__(type(record), [fields.get(f, v) for f, v in zip(record._fields, record)])


# every way to make a record from one, given a copy built by _bypass
REMAKES = {
    "constructor": lambda record, held: type(record)(*held),
    "keywords": lambda record, held: type(record)(**held._asdict()),
    "_replace": lambda record, held: record._replace(**held._asdict()),
    "_make": lambda record, held: type(record)._make(held),
    "copy": lambda record, held: copy.copy(held),
    "deepcopy": lambda record, held: copy.deepcopy(held),
    **{f"pickle-{protocol}": (lambda record, held, protocol=protocol:
                              pickle.loads(pickle.dumps(held, protocol)))
       for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)},
}


class TestRecords:
    """MorseParams and AnalyticSolution are immutable, validated records."""

    @pytest.mark.parametrize("path", list(REMAKES))
    @pytest.mark.parametrize("record, fields, message", INVALID)
    def test_every_construction_path_validates(self, path, record, fields, message):
        with pytest.raises(ValueError, match=message):
            REMAKES[path](record, _bypass(record, **fields))

    @pytest.mark.parametrize("path", list(REMAKES))
    @pytest.mark.parametrize("record", [REFERENCE_MORSE, SOLUTION], ids=["morse", "solution"])
    def test_every_construction_path_keeps_a_valid_record(self, path, record):
        got = REMAKES[path](record, _bypass(record))
        assert type(got) is type(record) and got == record

    def test_repr_is_the_field_list(self):
        # the text that the earlier dataclass records printed
        assert repr(REFERENCE_MORSE) == "MorseParams(G=-1.83, V0=0.09805, kappa=0.5852, b=-0.4572)"
        assert repr(SOLUTION) == (
            "AnalyticSolution(nu=2.89873, a=4.41442436004627, X=6.75627149122248, "
            "alpha_beta=1.8233737948405, eps_over_alpha2=-0.499732968097427)")
        assert repr(MorseParams(np.float64(-1.0), 0, 0.5, -0.5)) == (
            "MorseParams(G=np.float64(-1.0), V0=0, kappa=0.5, b=-0.5)")

    def test_fields_and_derived_values(self):
        assert MorseParams._fields == ("G", "V0", "kappa", "b")
        assert AnalyticSolution._fields == ("nu", "a", "X", "alpha_beta", "eps_over_alpha2")
        assert SOLUTION.A_abs == 0.5 * A_ORACLE ** 2
        assert SOLUTION.E == -0.5 * NU_REF ** 2

    def test_equality_and_hash_by_value(self):
        twin = MorseParams(G=-1.8300, V0=0.09805, kappa=0.58520, b=-0.45720)
        assert twin == REFERENCE_MORSE and twin is not REFERENCE_MORSE
        assert hash(twin) == hash(REFERENCE_MORSE)
        assert REFERENCE_MORSE._replace(b=0.0) != REFERENCE_MORSE
        assert len({REFERENCE_MORSE, twin, SOLUTION, SOLUTION._replace()}) == 2

    @pytest.mark.parametrize("record", [REFERENCE_MORSE, SOLUTION], ids=["morse", "solution"])
    def test_fields_cannot_be_set(self, record):
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            record.A_abs = 1.0
        assert not hasattr(record, "__dict__")


class TestModelConstants:
    # a function kept for the benchmark's worker, which still calls it
    def test_defaults(self):
        assert analytic_solver.ModelConstants() is REFERENCE_MORSE
        assert "ModelConstants" not in analytic_solver.__all__

    def test_returns_its_well_and_the_same_bits(self):
        m = REFERENCE_MORSE._replace(G=-2.0, b=0.1)  # V0 + B/4 + G = -0.048
        assert analytic_solver.ModelConstants(morse=m) is m
        for morse in (m, REFERENCE_MORSE):
            shim = analytic_solver.ModelConstants(morse=morse)
            nu = 2.89873
            a = solve_a(nu, morse)
            assert observables(nu, a, shim) == observables(nu, a, morse)
        shim = analytic_solver.ModelConstants(morse=REFERENCE_MORSE)
        assert calibrate_nu(-0.49973, shim) == calibrate_nu(-0.49973, REFERENCE_MORSE)
        refusals = []
        for morse in (analytic_solver.ModelConstants(morse=m), m):
            with pytest.raises(RuntimeError, match=r"^V0 \+ B/4 \+ G = -0\.04") as exc:
                calibrate_nu(-0.49973, morse)
            refusals.append(str(exc.value))
        assert refusals[0] == refusals[1]


class TestEnergyRelationSign:
    def test_misprint_variant_does_not_reproduce_chain(self):
        m = REFERENCE_MORSE
        sol = observables(NU_REF, solve_a(NU_REF, m), C)
        ab = sol.alpha_beta
        eps_printed = (0.5 * m.kappa ** 2 * NU_REF ** 2
                       - ab * (m.V0 + QUARTER_BETA + m.G)) / ab ** 2
        assert eps_printed == pytest.approx(EPS_PRINTED_ORACLE, abs=1e-6)
        assert abs(eps_printed - EPS_REF) > 0.1
        assert sol.eps_over_alpha2 == pytest.approx(EPS_REF, abs=1e-4)


class TestCalibrateNu:
    def test_empirical_target(self):
        sol = calibrate_nu(-0.49973, C)
        assert sol.nu == pytest.approx(NU_REF, abs=1e-3)
        assert sol.alpha_beta == pytest.approx(1.8234, abs=1e-3)
        assert sol.eps_over_alpha2 == pytest.approx(-0.49973, abs=1e-7)

    # solve_a returns a within (xtol + 4 eps a)/2 of the ground state at nu
    # (xtol = 1e-10, a <= 50), so the target is eps at a point that far off
    # the ground-state curve a_gs(nu).  calibrate_nu finds where the curve
    # a_T(nu) of that target meets a_gs: nu moves by da / |a_gs' - a_T'|.
    # That factor grows as nu falls and is largest at nu = 0.6: 14.4 on the
    # reference surrogate, 14.1 to 26.2 on the fits of [0, 8] to [0, 12]
    # (central differences, h = 1e-4), and 2.0 to 5.0 at nu >= 1.  Taken as
    # 26.3, plus calibrate_nu's own bracket (1e-12 + 4 eps nu)/2, nu <= 10.
    EPS = float(np.finfo(float).eps)
    NU_ROUND_TRIP = 26.3 * (1e-10 + 4 * EPS * 50.0) / 2 + (1e-12 + 4 * EPS * 10.0) / 2

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @seed(1202)
    @given(st.floats(min_value=0.6, max_value=9.9),
           st.one_of(st.none(), st.floats(min_value=8.0, max_value=12.0)))
    @example(0.6, None)
    @example(2.89873, None)
    @example(9.9, None)
    @example(0.6, 12.0)  # the largest slope factor
    def test_round_trip(self, nu, rho_max):
        if rho_max is None:
            morse = REFERENCE_MORSE
        else:
            report = fit(tabulate(PotentialKind.EXACT_BIC, 0.0, rho_max, 200),
                         FitConfig(rho_max=rho_max))
            assert report.converged
            morse = report.params
        target = observables(nu, solve_a(nu, morse), morse).eps_over_alpha2
        assert abs(calibrate_nu(target, morse).nu - nu) <= self.NU_ROUND_TRIP

    def test_eps_monotone_increasing_in_nu(self):
        eps = [observables(nu, solve_a(nu, REFERENCE_MORSE), C).eps_over_alpha2
               for nu in (2.0, 2.5, 3.0, 3.5)]
        assert all(a < b for a, b in zip(eps, eps[1:]))
        assert eps[0] < -0.6 and eps[-1] > -0.45
        assert eps[1] == pytest.approx(EPS25_ORACLE, abs=1e-8)

    def test_unattainable_target(self):
        with pytest.raises(RuntimeError, match="not attainable"):
            calibrate_nu(-0.05, C)

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_nu(math.nan, C)

    def test_refuses_a_well_whose_eps_meets_a_target_twice(self):
        # W_s tends to -(V0 + B/4 + G) = +0.851; eps/alpha^2 falls below
        # -0.03 near nu = 3.8 and rises above it again near 8.75, and the
        # march returned nu = 8.7456 without saying so
        well = MorseParams(G=-2.5272374745880346, V0=-0.17783027266171597,
                           kappa=0.7530205937882298, b=-0.7759767841708094)
        eps = [observables(nu, solve_a(nu, well), well).eps_over_alpha2
               for nu in (3.5, 5.0, 10.0)]
        assert eps[0] > -0.03 > eps[1] and eps[1] < -0.03 < eps[2]
        with pytest.raises(RuntimeError, match=r"^V0 \+ B/4 \+ G = -0\.8509930699483788 is "
                                               r"not above 0: calibrate_nu's march is proved "
                                               r"only for V0 \+ B/4 \+ G > 0"):
            calibrate_nu(-0.03, well)

    def test_refuses_a_well_with_a_zero_asymptote(self):
        # V0 + B/4 + G = 0.0 exactly; the march is proved only above 0
        well = REFERENCE_MORSE._replace(G=-2.0, V0=2.0 - QUARTER_BETA)
        assert well.V0 + QUARTER_BETA + well.G == 0.0
        with pytest.raises(RuntimeError, match=r"^V0 \+ B/4 \+ G = 0\.0 is not above 0"):
            calibrate_nu(-0.49973, well)


class TestGroundStateGeometry:
    def test_nodeless_on_interior(self):
        a = solve_a(NU_REF, REFERENCE_MORSE)
        sol = observables(NU_REF, a, C)
        zs = np.linspace(sol.X / 1000.0, sol.X * (1.0 - 1.0 / 1000.0), 1000)
        assert all(whittaker_m(a, NU_REF, z) > 0.0 for z in zs.tolist())

    def test_domain_mapping_endpoints(self):
        m = REFERENCE_MORSE
        a = solve_a(NU_REF, m)
        sol = observables(NU_REF, a, C)
        z_at_origin = 2.0 * a * math.exp(-m.kappa * (0.0 - m.b))
        assert z_at_origin == sol.X
        z_far = 2.0 * a * math.exp(-m.kappa * (1000.0 - m.b))
        assert 0.0 < z_far < 1e-200
