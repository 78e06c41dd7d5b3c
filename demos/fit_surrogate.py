"""Fit the four-parameter Morse surrogate to the exact potential.

Tabulates W(rho) on the standard 200-point window, runs the minimax
fit (Remez's exchange, each reference solved by variable projection:
the surrogate is a quadratic in q = e^{-kappa rho}, so only kappa is
searched for, as one scalar root), and reports the parameters next to
the reference set together with the fit's alternation set: five
samples, one per sign run of the residual, where the residual
alternates in sign at one common size (the equal-ripple signature).

Run:  python3 demos/fit_surrogate.py
"""

from bicatom.bic_potential import tabulate
from bicatom.morse_fit import REFERENCE_MORSE, alternation_set, fit, morse_w


def main() -> None:
    print("Morse surrogate fit to the screened potential")
    print("=============================================")
    table = tabulate("bic", 0.0, 10.0, 200)
    report = fit(table)
    p = report.params
    r = REFERENCE_MORSE

    print()
    print(f"{report.iterations} reference solves")
    print()
    print(f"{'parameter':>10} {'fitted':>14} {'reference':>14} {'dev %':>8}")
    for name, got, ref in (("G", p.G, r.G), ("V0", p.V0, r.V0),
                           ("kappa", p.kappa, r.kappa), ("b", p.b, r.b)):
        dev = 100.0 * (got - ref) / ref
        print(f"{name:>10} {got:>14.6f} {ref:>14.6f} {dev:>8.2f}")
    print()
    print(f"rms residual     = {report.rms_residual:.10f}")
    print(f"max |residual|   = {report.max_abs_residual:.10f}")

    resid = table.values - morse_w(p, table.rho_grid)
    print()
    print("alternation set (equal-ripple signature):")
    for i in alternation_set(resid):
        print(f"  rho = {table.rho_grid[i]:7.4f}   "
              f"residual = {resid[i]:+.10f}")


if __name__ == "__main__":
    main()
