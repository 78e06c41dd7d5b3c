"""The runtime is numpy only: Brent and the not-a-knot spline against scipy.

scipy is a test-only dependency (the ``test`` extra).  The in-house Brent
routine is a port of scipy.optimize.brentq and must return the same bits;
the spline must match scipy's CubicSpline (same not-a-knot end
conditions) to 1e-15 on the Numerov shooting grids.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
optimize = pytest.importorskip("scipy.optimize")
interpolate = pytest.importorskip("scipy.interpolate")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bicatom  # noqa: E402
from bicatom.analytic_solver import _brent  # noqa: E402
from bicatom.bic_potential import PotentialKind, tabulate  # noqa: E402
from bicatom.numerov_oracle import bic_interpolator  # noqa: E402

reproducible = settings(max_examples=1000, deadline=None, derandomize=True, database=None)

finite = st.floats(min_value=-10.0, max_value=10.0)


@st.composite
def smooth_functions(draw):
    """A cubic plus a sinusoid, with its coefficients drawn."""
    c = draw(st.lists(finite, min_size=4, max_size=4))
    amp, freq, phase = draw(finite), draw(st.floats(0.0, 20.0)), draw(finite)

    def f(x):
        return ((c[0] * x + c[1]) * x + c[2]) * x + c[3] + amp * math.sin(freq * x + phase)

    return f


def outcome(solve):
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@reproducible
@given(smooth_functions(), finite, st.floats(1e-9, 20.0), st.floats(0.0, 1.0),
       st.floats(-14.0, -1.0).map(lambda e: 10.0 ** e))
def test_brent_matches_brentq_bit_for_bit(f, lo, width, where, xtol):
    # shifted to vanish at a drawn point of the bracket, so that most
    # brackets hold a sign change; the rest check that both raise
    hi = lo + width
    level = f(lo + where * width)

    def g(x):
        return f(x) - level

    want = outcome(lambda: optimize.brentq(g, lo, hi, xtol=xtol))
    got = outcome(lambda: _brent(g, lo, hi, g(lo), g(hi), xtol))
    assert got == want


def test_brent_raises_when_the_iteration_limit_is_reached():
    # 100 steps cannot close a 2e300-wide bracket on a jump to 1e-300
    def f(x):
        return 1.0 if x > 1e-300 else -1.0

    want = outcome(lambda: optimize.brentq(f, -1e300, 1e300, xtol=1e-300))
    got = outcome(lambda: _brent(f, -1e300, 1e300, -1.0, 1.0, 1e-300))
    assert want is RuntimeError and got is RuntimeError


@pytest.mark.parametrize("scale", [1e-120, 1e-200])
def test_brent_bisects_where_the_extrapolation_divides_by_zero(scale):
    # tiny values underflow the inverse-quadratic denominator to 0; brentq's
    # C step is then inf or NaN and it bisects, so the port must not raise
    def f(x):
        return scale * (x ** 3 - 0.1)

    want = optimize.brentq(f, 0.0, 1.0, xtol=1e-12)
    assert _brent(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12) == want


# n is the table size bic_interpolator derives, max(2000, round(50 rho_max))
@pytest.mark.parametrize("rho_max, n", [(40.0, 2000), (38.5, 2000), (120.0, 6000)])
def test_spline_matches_cubic_spline_on_shooting_grids(rho_max, n):
    table = tabulate(PotentialKind.EXACT_BIC, 0.0, rho_max, n)
    want = interpolate.CubicSpline(table.rho_grid, table.values)
    got = bic_interpolator(rho_max)
    for h in (1e-3, 5e-4):
        rho = np.arange(1, int(round(rho_max / h)) + 1) * h
        assert np.max(np.abs(got(rho) - want(rho))) <= 1e-15
    # scalar calls, including the knots and both extrapolation sides
    for rho in (-0.5, 0.0, 1e-3, table.rho_grid[7], 2.1396, rho_max, rho_max + 3.0):
        value = got(rho)
        assert np.ndim(value) == 0
        assert abs(float(value) - float(want(rho))) <= 1e-15


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(bicatom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bicatom; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "[]"
