"""The runtime is numpy only: Brent against scipy, and no scipy on import.

scipy is a test-only dependency (the ``test`` extra).  Brent is the only
in-house routine compared with scipy: it is a port of
scipy.optimize.brentq and must return the same bits.
"""

import math
import os
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")
optimize = pytest.importorskip("scipy.optimize")
from hypothesis import example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bicatom  # noqa: E402
from bicatom.roots import _brent  # noqa: E402

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
@seed(8101)
@given(smooth_functions(), finite, st.floats(1e-9, 20.0), st.floats(0.0, 1.0),
       st.floats(-14.0, -1.0).map(lambda e: 10.0 ** e))
# a tiny cubic underflows the inverse-quadratic denominator to 0
@example(lambda x: 1e-200 * x ** 3, 0.0, 1.0, 0.4641588833612779, 1e-12)
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


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(bicatom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bicatom; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "[]"
