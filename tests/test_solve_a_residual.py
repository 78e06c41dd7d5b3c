"""solve_a and calibrate_nu as one march on the boundary residual M_{a,nu}(X(a)).

solve_a refines the first sign change of M_{a,nu}(X(a)), X(a) =
2a e^{kappa b}, and checks once, on the returned a, that X(a) is the
FIRST root of M; calibrate_nu marches nu along the target-energy curve
and checks once in the same way.  These tests pin that the answer is the
crossing of the first root (over nu in [0.6, 8] and Morse parameters
within 15 % of the reference, as the surrogate chain draws them), that
the check costs one first_root call per solve_a and per calibrate_nu,
that it raises when the first root is elsewhere, and that the solvers
return Python floats.  hypothesis is a test-only dependency.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom import analytic_solver  # noqa: E402
from bicatom.analytic_solver import (  # noqa: E402
    ModelConstants,
    calibrate_nu,
    first_root,
    solve_a,
)
from bicatom.morse_fit import REFERENCE_MORSE, MorseParams  # noqa: E402

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


class CountFirstRoot:
    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(analytic_solver, "first_root", self)

    def __call__(self, a, nu):
        self.calls += 1
        return first_root(a, nu)


def test_solve_a_calls_first_root_once(monkeypatch):
    counter = CountFirstRoot(monkeypatch)
    solve_a(2.89873, REFERENCE_MORSE)
    assert counter.calls == 1


def test_calibrate_nu_first_root_budget(monkeypatch):
    # one march along the target curve, one check
    counter = CountFirstRoot(monkeypatch)
    calibrate_nu(-0.49973, ModelConstants())
    assert counter.calls == 1


def test_raises_when_boundary_point_is_not_the_first_root(monkeypatch):
    # a first root that sits one unit beyond X(a) fails the check
    monkeypatch.setattr(analytic_solver, "first_root",
                        lambda a, nu: boundary_z(a, REFERENCE_MORSE) + 1.0)
    with pytest.raises(RuntimeError, match="the first root is"):
        solve_a(2.89873, REFERENCE_MORSE)


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
    sol = calibrate_nu(target, ModelConstants())
    assert type(sol.nu) is float and type(sol.a) is float
