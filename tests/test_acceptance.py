"""Go/no-go acceptance gate: the eight headline checks in one place.

Each test evaluates one acceptance criterion end to end at its stated
tolerance and prints a single ``ACn: pass/FAIL`` line (visible under
``pytest -s`` or in failure output).  Reference numbers are frozen from
the oracle runs behind the library test modules: mpmath 30-digit
quadratures for the potential and constants, the reference chain for
the surrogate spectrum, and measured Numerov limits.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from bicatom import numerov_oracle
from bicatom.analytic_solver import calibrate_nu, observables, solve_a
from bicatom.bic_potential import (PotentialKind, QUARTER_BETA, born_phi,
                                   tabulate, w_of_rho, z_of_rho)
from bicatom.morse_fit import REFERENCE_MORSE, fit, morse_w
from bicatom.numerov_oracle import (RadialProblem, bic_interpolator,
                                    ground_state)
from bicatom.specfun import whittaker_m

C = REFERENCE_MORSE


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'pass' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_ac1_screening_curve():
    z_unit = z_of_rho(0.654988)
    peak = minimize_scalar(lambda r: -z_of_rho(r), bounds=(1.5, 3.0),
                           method="bounded",
                           options={"xatol": 1e-8})
    rho_peak = float(peak.x)
    z_far = z_of_rho(1000.0)
    z_origin = z_of_rho(0.0)
    ok = (abs(z_unit - 1.0) <= 1e-3
          and abs(rho_peak - 2.139634) <= 1e-3
          and abs(z_far - 1.0) <= 1e-2
          and z_origin == 0.0)
    _report("AC1", ok,
            f"Z(0.654988)={z_unit:.6f}, argmax={rho_peak:.6f}, "
            f"Z(1000)={z_far:.6f}, Z(0)={z_origin}")


def test_ac2_constants():
    phi0 = born_phi(0.0)
    w0 = w_of_rho(0.0)
    ok = (abs(QUARTER_BETA - 1.8540746773) <= 1e-9
          and abs(w0 + QUARTER_BETA) <= 1e-8
          and abs(phi0 - QUARTER_BETA) <= 1e-8)
    _report("AC2", ok,
            f"B(1/4,1/4)/4={QUARTER_BETA:.10f}, W(0)={w0:.10f}, "
            f"phi(0)={phi0:.10f}")


def test_ac3_morse_fit():
    start = time.perf_counter()
    table = tabulate(PotentialKind.EXACT_BIC, 0.0, 10.0, 200)
    report = fit(table)
    elapsed = time.perf_counter() - start
    p = report.params
    refs = (("G", p.G, REFERENCE_MORSE.G),
            ("V0", p.V0, REFERENCE_MORSE.V0),
            ("kappa", p.kappa, REFERENCE_MORSE.kappa),
            ("b", p.b, REFERENCE_MORSE.b))
    within = all(abs(got - ref) <= 0.05 * abs(ref) for _, got, ref in refs)
    ok = (report.converged and within
          and report.max_abs_residual <= 0.0147465495766
          and elapsed < 30.0)
    _report("AC3", ok,
            f"params=({p.G:.5f},{p.V0:.5f},{p.kappa:.5f},{p.b:.5f}), "
            f"maxres={report.max_abs_residual:.10f}, "
            f"iters={report.iterations}, {elapsed:.1f}s")


def test_ac4_analytic_chain():
    sol = observables(2.89873, solve_a(2.89873, C), C)
    ok = (abs(sol.a - 4.414424) <= 1e-3
          and abs(sol.X - 6.756270935) <= 2e-3
          and abs(sol.alpha_beta - 1.823373498) <= 1e-3
          and abs(sol.eps_over_alpha2 - (-0.4997331195)) <= 1e-4)
    _report("AC4", ok,
            f"a={sol.a:.6f}, X={sol.X:.6f}, ab={sol.alpha_beta:.9f}, "
            f"eps={sol.eps_over_alpha2:.10f}")


def test_ac5_calibration():
    sol = calibrate_nu(-0.49973, C)
    ok = abs(sol.nu - 2.89873) <= 1e-3
    _report("AC5", ok, f"nu={sol.nu:.9f} for target -0.49973")


def test_ac6_numerov_cross_checks():
    start = time.perf_counter()
    analytic = observables(2.89873, solve_a(2.89873, C), C)
    morse = ground_state(RadialProblem(
        potential=lambda rho: morse_w(C, rho),
        alpha_beta=1.823373498))
    coulomb = ground_state(RadialProblem(
        potential=lambda rho: -1.0 / rho, alpha_beta=1.0))
    exact = ground_state(RadialProblem(
        potential=bic_interpolator(), alpha_beta=1.83297))
    elapsed = time.perf_counter() - start
    ok = (abs(morse.eps_over_alpha2 - analytic.eps_over_alpha2) <= 1e-3
          and abs(coulomb.eps_over_alpha2 + 0.5) <= 1e-5
          and abs(exact.eps_over_alpha2 + 0.50000) <= 5e-4
          and elapsed < 20.0)
    _report("AC6", ok,
            f"morse={morse.eps_over_alpha2:.8f} vs "
            f"analytic={analytic.eps_over_alpha2:.8f}, "
            f"coulomb={coulomb.eps_over_alpha2:.8f}, "
            f"exact={exact.eps_over_alpha2:.8f}, {elapsed:.1f}s")


def test_ac7_validation_invariants(monkeypatch):
    # closed-form reduction: a = nu + 1/2 collapses the series to 1
    reduction_ok = True
    for nu in (0.3, 2.5):
        for z in (0.7, 17.0):
            closed = math.exp(-0.5 * z) * z ** (nu + 0.5)
            reduction_ok &= (abs(whittaker_m(nu + 0.5, nu, z) - closed)
                             <= 1e-12 * closed)
    # polynomial truncation at nu - a + 1/2 = -2
    nu, z = 2.89873, 2.0
    gamma = 1.0 + 2.0 * nu
    coef = 1.0
    poly = 1.0
    for k in range(2):
        coef *= (-2 + k) * z / ((gamma + k) * (k + 1))
        poly += coef
    closed = math.exp(-0.5 * z) * z ** (nu + 0.5) * poly
    poly_ok = abs(whittaker_m(nu + 2.5, nu, z) - closed) <= 1e-12 * abs(closed)

    # Numerov step-halving signature: error ratio near h^4 (16); the
    # differences (~5e-11, ~3e-12) need a bracket far below the default 1e-10
    monkeypatch.setattr(numerov_oracle, "_LAMBDA_TOL", 1e-13)
    morse_pot = lambda rho: morse_w(C, rho)  # noqa: E731
    lams = [ground_state(RadialProblem(potential=morse_pot,
                                       alpha_beta=1.823373498, h=h)).lam
            for h in (0.01, 0.005, 0.0025)]
    ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
    order_ok = 12.0 <= ratio <= 20.0

    # nodeless ground state across the mapped domain
    a = solve_a(2.89873, C)
    sol = observables(2.89873, a, C)
    zs = np.linspace(sol.X / 1000.0, sol.X * (1.0 - 1.0 / 1000.0), 1000)
    nodeless_ok = all(whittaker_m(a, 2.89873, z) > 0.0 for z in zs.tolist())

    ok = reduction_ok and poly_ok and order_ok and nodeless_ok
    _report("AC7", ok,
            f"reduction={reduction_ok}, polynomial={poly_ok}, "
            f"order ratio={ratio:.2f}, "
            f"nodeless={nodeless_ok}")


def test_ac8_energy_identity_discrepancy():
    m = C
    sol = observables(2.89873, solve_a(2.89873, m), C)
    ab = sol.alpha_beta
    eps_printed = (0.5 * m.kappa ** 2 * 2.89873 ** 2
                   - ab * (m.V0 + QUARTER_BETA + m.G)) / ab ** 2
    printed_disagrees = abs(eps_printed - (-0.4997331195)) > 1e-2
    inversion_agrees = abs(sol.eps_over_alpha2 - (-0.4997331195)) <= 1e-4
    ok = printed_disagrees and inversion_agrees
    _report("AC8", ok,
            f"as-printed form gives {eps_printed:.10f} (must disagree), "
            f"sign-corrected inversion gives {sol.eps_over_alpha2:.10f}")
