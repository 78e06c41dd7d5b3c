"""Cross-check the surrogate spectrum with a direct Numerov integration.

Four ground-state runs of the shooting solver:

1. the Morse surrogate at the coupling found by the analytic chain --
   validates the chain against an independent integrator;
2. a pure Coulomb potential at alpha*beta = 1 -- validates the
   integrator itself against the exact -1/2 level;
3. the exact screened potential at alpha*beta = 1.83297 -- the
   headline result, landing on eps/alpha^2 = -0.50000;
4. a lifted Morse well (G = -1, V0 = -2.5, kappa = 1, b = 2), nowhere
   below 0 and tending to +1.646, at the coupling solve_a gives for
   nu = 1.2 -- the search solves it as it stands, since adding a
   constant c to W moves lambda by alpha*beta c and changes nothing else.

Each difference from its reference is checked against the tolerance the
tests hold it to: the Whittaker and Numerov routes agree to 1e-10 on the
reference well and to 2e-9 max(1, |eps|) on the lifted one, the Coulomb
level is within 1e-5 of -1/2, and the exact one within 5e-4 of -0.50000.

Run:  python3 demos/numerov_crosscheck.py
"""

from bicatom.analytic_solver import (REFERENCE_MORSE, MorseParams,
                                     observables, solve_a)
from bicatom.morse_fit import morse_w
from bicatom.numerov_oracle import (RadialProblem, bic_interpolator,
                                    ground_state)


def main() -> None:
    m = REFERENCE_MORSE
    analytic = observables(2.89873, solve_a(2.89873, m), m)
    lifted = MorseParams(G=-1.0, V0=-2.5, kappa=1.0, b=2.0)
    above = observables(1.2, solve_a(1.2, lifted), lifted)

    print("Numerov shooting solver cross-checks")
    print("====================================")
    print()

    runs = (
        ("Morse surrogate", lambda rho: morse_w(m, rho),
         analytic.alpha_beta, analytic.eps_over_alpha2, 1e-10),
        ("Coulomb -1/rho", lambda rho: -1.0 / rho, 1.0, -0.5, 1e-5),
        ("exact screened", bic_interpolator(), 1.83297, -0.50000, 5e-4),
        ("lifted Morse", lambda rho: morse_w(lifted, rho),
         above.alpha_beta, above.eps_over_alpha2, 2e-9),
    )
    print(f"{'potential':<16} {'alpha*beta':>12} {'eps/alpha^2':>14} "
          f"{'reference':>12} {'|diff| <=':>10}")
    for label, pot, ab, ref, tol in runs:
        res = ground_state(RadialProblem(potential=pot, alpha_beta=ab))
        within = "yes" if abs(res.eps_over_alpha2 - ref) <= tol else "no"
        print(f"{label:<16} {ab:>12.9f} {res.eps_over_alpha2:>14.9f} "
              f"{ref:>12.9f} {tol:>6.0e} {within:>3}")
    print()
    print("All four levels are nodeless ground states on a 40/0.001 grid.")


if __name__ == "__main__":
    main()
