"""Walk through the screened potential: landmarks, peak, and asymptote.

Prints the screening function Z(rho) and the effective potential
W(rho) = -Z(rho)/rho at a few landmark radii, locates the maximum of Z,
and shows the approach to the Coulomb limit Z -> 1 at large rho.

Run:  python3 demos/tabulate_potential.py
"""

from bicatom.bic_potential import QUARTER_BETA, w_of_rho, z_of_rho


def z_peak(lo: float = 1.5, hi: float = 3.0, h: float = 1e-5) -> float:
    """Bisect the central difference Z(r + h) - Z(r - h), positive below the peak."""
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if z_of_rho(mid + h) > z_of_rho(mid - h):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main() -> None:
    print("Screened hydrogen potential in Born-Infeld electrodynamics")
    print("==========================================================")
    print()
    print(f"quarter-beta constant B(1/4,1/4)/4 = {QUARTER_BETA:.12f}")
    print(f"W(0) = -B(1/4,1/4)/4             = {w_of_rho(0.0):.12f}")
    print()

    print(f"{'rho':>10} {'Z(rho)':>16} {'W(rho)':>16}")
    for rho in (0.0, 0.1, 0.654988, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0):
        z = z_of_rho(rho)
        w = w_of_rho(rho)
        print(f"{rho:>10g} {z:>16.10f} {w:>16.10f}")
    print()

    peak = z_peak()
    print(f"Z crosses 1 near rho = 0.654988: Z = {z_of_rho(0.654988):.10f}")
    print(f"Z peaks at rho = {peak:.8f} with Z = {z_of_rho(peak):.10f}")
    print(f"Z(1000) = {z_of_rho(1000.0):.10f} -> pure-Coulomb limit Z = 1")


if __name__ == "__main__":
    main()
