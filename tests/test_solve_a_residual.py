"""solve_a and calibrate_nu as one march on the boundary residual M_{a,nu}(X(a)).

solve_a refines the first sign change of M_{a,nu}(X(a)), X(a) =
2a e^{kappa b}, and certifies once, on the returned a, that X(a) is the
FIRST root of M, by the signs of a Sturm sequence of 1F1 values there;
calibrate_nu marches nu along the target-energy curve and certifies in
the same way.
These tests pin that the answer is the crossing of the first root (over
nu in [0.6, 8] and Morse parameters within 15 % of the reference, as the
surrogate chain draws them), that the certificate agrees with the
first_root scan at first and later roots, that a solve costs no more
residual evaluations than the scan-checked march did and no first_root
call, that it raises when the certificate fails, and that the solvers
return Python floats.  hypothesis is a test-only dependency.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from scipy.optimize import brentq  # noqa: E402

from bicatom import analytic_solver  # noqa: E402
from bicatom.analytic_solver import (  # noqa: E402
    calibrate_nu,
    first_root,
    solve_a,
)
from bicatom.morse_fit import REFERENCE_MORSE, MorseParams  # noqa: E402
from bicatom.specfun import kummer_m  # noqa: E402

reproducible = settings(max_examples=40, deadline=None, derandomize=True, database=None)
factor = st.floats(min_value=0.85, max_value=1.15)


def boundary_z(a: float, m: MorseParams) -> float:
    return 2.0 * a * math.exp(m.kappa * m.b)


def gap(a: float, nu: float, m: MorseParams) -> float:
    return first_root(a, nu) - boundary_z(a, m)


@reproducible
@seed(8108)
@given(st.floats(min_value=0.6, max_value=8.0), factor, factor, factor, factor)
def test_root_is_the_first_root_crossing(nu, fg, fv, fk, fb):
    r = REFERENCE_MORSE
    m = MorseParams(G=fg * r.G, V0=fv * r.V0, kappa=fk * r.kappa, b=fb * r.b)
    a = solve_a(nu, m)
    x = boundary_z(a, m)
    assert abs(first_root(a, nu) - x) <= 1e-8 * max(1.0, x)
    assert gap(a - 1e-6, nu, m) > 0.0 > gap(a + 1e-6, nu, m)


def roots_of_m(a: float, nu: float):
    """The positive roots of M_{a,nu} in increasing order, by scan + brentq."""
    alpha, gamma = nu - a + 0.5, 1.0 + 2.0 * nu

    def f(z):
        return kummer_m(alpha, gamma, z)

    roots = [first_root(a, nu)]
    zs = np.arange(roots[0] + 0.05, 200.0, 0.1)
    flips = np.flatnonzero(np.diff([f(z) > 0.0 for z in zs.tolist()]))
    return roots + [brentq(f, zs[i], zs[i + 1], xtol=1e-13) for i in flips]


# ceil(-alpha) from 1 to 5, alpha = nu - a + 1/2, with integer alpha and
# alpha at both ends of (-2, -1]; every root after the first is a crossing
# that the certificate must reject
@pytest.mark.parametrize("alpha", [-1e-3, -0.3, -0.7, -1.0, -1.2, -1.6, -1.999, -2.0,
                                   -2.5, -3.4, -4.7])
@pytest.mark.parametrize("nu", [0.6, 1.5, 2.89873, 5.0, 9.0])
def test_certificate_agrees_with_first_root(alpha, nu):
    a = nu + 0.5 - alpha
    roots = roots_of_m(a, nu)  # roots[0] is first_root's
    # DLMF 13.9.1, at the rounded alpha: -1 - 4e-16 has a second root near z = 63
    assert len(roots) == math.ceil(-(nu - a + 0.5))
    certified = [analytic_solver._not_first_root(a, nu, x) is None for x in roots]
    assert certified == [True] + [False] * (len(roots) - 1)


class Count:
    def __init__(self, monkeypatch, name):
        self.calls = 0
        self.wrapped = getattr(analytic_solver, name)
        monkeypatch.setattr(analytic_solver, name, self)

    def __call__(self, *args):
        self.calls += 1
        return self.wrapped(*args)


# the residual evaluations the march made while first_root checked its answer
@pytest.mark.parametrize("solve, budget", [
    (lambda: solve_a(2.89873, REFERENCE_MORSE), 17),
    (lambda: calibrate_nu(-0.49973, REFERENCE_MORSE), 32),
], ids=["solve_a", "calibrate_nu"])
def test_residual_budget_and_no_scan(monkeypatch, solve, budget):
    residuals = Count(monkeypatch, "quantization_residual")
    scans = Count(monkeypatch, "first_root")
    solve()
    assert residuals.calls <= budget
    assert scans.calls == 0


def test_raises_when_boundary_point_is_not_the_first_root(monkeypatch):
    # a certificate that fails rejects the refined a
    monkeypatch.setattr(analytic_solver, "kummer_m", lambda *args: -1.0)
    with pytest.raises(RuntimeError, match="puts a later root of M"):
        solve_a(2.89873, REFERENCE_MORSE)


def test_march_brackets_a_crossing_below_the_first_grid_point():
    # the ground state lies between a = nu + 1/2, where M gets its first root,
    # and the first 0.1-grid point above it; at nu = 3.6 the float nu + 1/2
    # leaves alpha = +4.4e-16, not 0
    nu, m = 3.6, MorseParams(G=REFERENCE_MORSE.G, V0=REFERENCE_MORSE.V0,
                             kappa=REFERENCE_MORSE.kappa, b=1.5)
    assert nu - (nu + 0.5) + 0.5 > 0.0
    a = solve_a(nu, m)
    assert nu + 0.5 < a < 4.2
    x = boundary_z(a, m)
    assert abs(first_root(a, nu) - x) <= 1e-8 * max(1.0, x)


# Brent's last step of +-delta once made these numpy.float64
@pytest.mark.parametrize("a, nu", [
    (8.0, 2.0),
    (3.78125, 0.8222222222222222),
    (4.34375, 1.7555555555555555),
    (6.03125, 2.377777777777778),
    (6.03125, 3.0),
    (6.3125, 3.0),
])
def test_first_root_returns_float(a, nu):
    assert type(first_root(a, nu)) is float


@pytest.mark.parametrize("nu", [2.881652442465707, 2.89873])
def test_solve_a_returns_float(nu):
    assert type(solve_a(nu, REFERENCE_MORSE)) is float


@pytest.mark.parametrize("target", [-0.49973, -0.4999])
def test_calibrate_nu_returns_floats(target):
    sol = calibrate_nu(target, REFERENCE_MORSE)
    assert type(sol.nu) is float and type(sol.a) is float
