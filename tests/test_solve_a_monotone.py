"""Monotonicity of the surrogate quantization, as solve_a relies on it.

solve_a takes the first sign change of the gap
F(a) = first_root(a, nu) - 2a e^{kappa b} along a grid of a; that
crossing is the only one because F is strictly decreasing (the first
root slides down as a grows while the boundary point grows linearly).
The ground-state a then grows with nu.  Pairs closer than 1e-6 are not
drawn: the boundary term alone moves F by > 1.5e-6 there, far above
first_root's 1e-10 refinement tolerance, and solve_a's a moves by more
than its own 1e-10 tolerance.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.analytic_solver import first_root, solve_a  # noqa: E402
from bicatom.morse_fit import REFERENCE_MORSE  # noqa: E402

reproducible = settings(max_examples=60, deadline=None, derandomize=True, database=None)
unit = st.floats(min_value=0.0, max_value=1.0)
# a separation log-uniform in [1e-6, 1e2], so that close pairs are common
step = st.floats(min_value=-6.0, max_value=2.0).map(lambda e: 10.0 ** e)


def gap(a: float, nu: float) -> float:
    m = REFERENCE_MORSE
    return first_root(a, nu) - 2.0 * a * math.exp(m.kappa * m.b)


def ordered_pair(lo: float, hi: float, u: float, d: float):
    """x in [lo, hi] and x + d, which must also lie in [lo, hi]."""
    x = lo + u * (hi - lo)
    assume(x + d <= hi)
    return x, x + d


@reproducible
@seed(8106)
@given(st.floats(min_value=0.05, max_value=5.0, exclude_min=True), unit, step)
def test_gap_strictly_decreasing_in_a(nu, u, d):
    # a in (nu + 1/2, 50], where M_{a,nu} can have a positive root
    a1, a2 = ordered_pair(nu + 0.5, 50.0, u, d)
    assume(a1 > nu + 0.5)
    try:
        g1 = gap(a1, nu)
    except RuntimeError:  # no first root below z = 200: F undefined
        assume(False)
    assert gap(a2, nu) < g1


@settings(reproducible, max_examples=25)
@seed(8107)
@given(unit, step)
def test_solve_a_strictly_increasing_in_nu(u, d):
    nu1, nu2 = ordered_pair(1.0, 4.5, u, d)
    assert solve_a(nu1, REFERENCE_MORSE) < solve_a(nu2, REFERENCE_MORSE)
