"""The analytic solution chain for the Morse surrogate, step by step.

Starting from the shape parameter nu = 2.89873 the script finds the
quantization parameter a whose first Whittaker root lands exactly on
the domain boundary, derives the coupling alpha*beta and the scaled
ground-state energy eps/alpha^2, then runs the inverse problem: given
the empirical target eps/alpha^2 = -0.49973, recover nu.

Run:  python3 demos/solve_chain.py
"""

from bicatom.analytic_solver import (REFERENCE_MORSE, calibrate_nu,
                                     observables, solve_a)


def main() -> None:
    m = REFERENCE_MORSE
    nu = 2.89873

    print("Forward chain at nu = 2.89873")
    print("=============================")
    a = solve_a(nu, m)
    sol = observables(nu, a, m)
    rows = (
        ("a (quantization parameter)", sol.a, 4.414424),
        ("X = 2 a exp(kappa b)", sol.X, 6.756270935),
        ("|A| = a^2 / 2", sol.A_abs, None),
        ("E = -nu^2 / 2", sol.E, None),
        ("alpha*beta", sol.alpha_beta, 1.823373498),
        ("eps / alpha^2", sol.eps_over_alpha2, -0.4997331195),
    )
    for label, got, ref in rows:
        line = f"  {label:<28} = {got:.10f}"
        if ref is not None:
            line += f"   (reference {ref})"
        print(line)

    print()
    print("Inverse problem: calibrate nu to the empirical level")
    print("====================================================")
    target = -0.49973
    cal = calibrate_nu(target, m)
    print(f"  target eps/alpha^2 = {target}")
    print(f"  recovered nu       = {cal.nu:.10f}   (forward run used {nu})")
    print(f"  alpha*beta         = {cal.alpha_beta:.10f}")
    print(f"  achieved eps       = {cal.eps_over_alpha2:.10f}")


if __name__ == "__main__":
    main()
