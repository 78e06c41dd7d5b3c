"""kummer_m is within its documented bound of mpmath on 0 <= z <= 200, or raises.

At large z and negative alpha the 1F1 series cancels: 1F1(-45.2; 1.2; 190)
has terms of total size 1.3e50 around a value of 6.6e39, which double
precision cannot resolve, and summed as is it came out 6.1e-4 off with no
warning.  kummer_m raises SeriesNonConvergence wherever eps sum |t_n|
exceeds 1e-11 max(|sum t_n|, 1), and is within 1.5e-8 max(|1F1|, 1)
everywhere else on |alpha| <= 50, 1 <= gamma <= 21 (its docstring).  The
draws cover the solvers' range: alpha = nu - a + 1/2 with 0.5 < nu <= 10
and a <= 50, gamma = 1 + 2 nu.  mpmath and hypothesis are test-only
dependencies.
"""

import sys

import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.specfun import SeriesNonConvergence, kummer_m  # noqa: E402

EPS = sys.float_info.epsilon


def series(alpha, gamma, z):
    """(1F1, sum_n |t_n|) by the series, with 30 digits to spare past its cancellation.

    mpmath's hyp1f1 is not the reference: at 40 digits it gives exactly 1
    for 1F1(1.6e-69; 1; 139), which is 1 + 2.8e-11.
    """
    def summed(dps):
        with mp.workdps(dps):
            a, g, x = mp.mpf(alpha), mp.mpf(gamma), mp.mpf(z)
            term = value = magnitude = mp.mpf(1)
            n = 0
            # past n = |a| + z the terms shrink, each by a smaller ratio
            while term != 0 and (n <= abs(a) + x or abs(term) > mp.mpf(10) ** -dps * magnitude):
                term *= (a + n) * x / ((g + n) * (n + 1))
                value += term
                magnitude += abs(term)
                n += 1
            return value, magnitude

    _, magnitude = summed(30)
    return summed(30 + int(mp.log10(magnitude)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(8106)
@example(alpha=-45.2, gamma=1.2, z=190.0)
@given(alpha=st.floats(-50.0, 10.0), gamma=st.floats(1.0, 21.0), z=st.floats(0.0, 200.0))
def test_within_documented_bound_or_raises(alpha, gamma, z):
    ref, magnitude = series(alpha, gamma, z)
    scale = max(abs(ref), 1)
    try:
        got = kummer_m(alpha, gamma, z)
    except SeriesNonConvergence:
        # refused only where the terms really do cancel past 1e-11
        assert EPS * magnitude > 0.5e-11 * scale
    else:
        assert abs(got - ref) <= 1.5e-8 * scale
