"""kummer_m rejects z < 0 instead of summing it.

The direct 1F1 series at negative z alternates in sign and cancels
catastrophically for large |z|: summed as is, 1F1(-3.3; 6.8; -150) comes
out near -3.4e31 against the true 2.0098e4.  No caller needs z < 0
(whittaker_m takes z > 0 only), so kummer_m raises ValueError for any
negative z, scalar or array entry, and for NaN, rather than return a
silently wrong value.  mpmath and hypothesis are test-only dependencies.
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.specfun import kummer_m  # noqa: E402

OUTSIDE = "0 <= z <= 200"
reproducible = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("a, b, z, ref", [
    (-3.3, 6.8, -150.0, 2.0098e4),
    (2.5, 1.5, -190.0, -3.83e-81),
])
def test_former_wrong_answers(a, b, z, ref):
    """Two inputs once summed to wrong values now raise, scalar and array."""
    with mp.workdps(30):
        assert float(mp.hyp1f1(a, b, z)) == pytest.approx(ref, rel=1e-3)
    with pytest.raises(ValueError, match=OUTSIDE):
        kummer_m(a, b, z)
    with pytest.raises(ValueError, match=OUTSIDE):
        kummer_m(a, b, np.array([z]))


@pytest.mark.parametrize("z", [-5e-324, -1e-3, -200.0, -201.0, -math.inf, math.nan])
def test_scalar_outside_domain_raises(z):
    with pytest.raises(ValueError, match=OUTSIDE):
        kummer_m(-3.3, 6.8, z)


@reproducible
@seed(8105)
@given(st.floats(-200.0, -5e-324),
       st.lists(st.floats(0.0, 200.0), max_size=6), st.integers(0, 6))
def test_mixed_sign_array(z, zs, at):
    """One negative entry anywhere in an otherwise valid array raises."""
    za = np.array(zs[:at] + [z] + zs[at:])
    with pytest.raises(ValueError, match=OUTSIDE):
        kummer_m(2.5, 1.5, za)
    with pytest.raises(ValueError, match=OUTSIDE):
        kummer_m(2.5, 1.5, za.reshape(1, -1))


def test_domain_edges_accepted():
    assert kummer_m(-3.3, 6.8, 0.0) == 1.0
    assert kummer_m(-3.3, 6.8, -0.0) == 1.0  # negative zero is zero
    edge = kummer_m(-3.3, 6.8, 200.0)
    assert math.isfinite(edge)
    got = kummer_m(-3.3, 6.8, np.array([0.0, 200.0]))
    assert got[0] == 1.0 and got[1] == pytest.approx(edge, rel=1e-12)
    with pytest.raises(ValueError, match=OUTSIDE):
        kummer_m(-3.3, 6.8, np.array([[1.0, 2.0], [math.nan, 3.0]]))
