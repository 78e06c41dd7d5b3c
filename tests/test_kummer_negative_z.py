"""kummer_m rejects z < 0 instead of summing it.

The direct 1F1 series at negative z alternates in sign and cancels
catastrophically for large |z|: summed as is, 1F1(-3.3; 6.8; -150) comes
out near -3.4e31 against the true 2.0098e4.  No caller needs z < 0
(whittaker_m takes z > 0 only), so kummer_m raises ValueError for any
negative z, and for NaN, rather than return a silently wrong value.
mpmath is a test-only dependency.
"""

import math

import pytest

mp = pytest.importorskip("mpmath")

from bicatom.specfun import kummer_m  # noqa: E402

OUTSIDE = "0 <= z <= 200"


@pytest.mark.parametrize("a, b, z, ref", [
    (-3.3, 6.8, -150.0, 2.0098e4),
    (2.5, 1.5, -190.0, -3.83e-81),
])
def test_former_wrong_answers(a, b, z, ref):
    """Two inputs once summed to wrong values now raise."""
    with mp.workdps(30):
        assert float(mp.hyp1f1(a, b, z)) == pytest.approx(ref, rel=1e-3)
    with pytest.raises(ValueError, match=OUTSIDE):
        kummer_m(a, b, z)


@pytest.mark.parametrize("z", [-5e-324, -1e-3, -200.0, -201.0, -math.inf, math.nan])
def test_scalar_outside_domain_raises(z):
    with pytest.raises(ValueError, match=OUTSIDE):
        kummer_m(-3.3, 6.8, z)


def test_domain_edges_accepted():
    assert kummer_m(-3.3, 6.8, 0.0) == 1.0
    assert kummer_m(-3.3, 6.8, -0.0) == 1.0  # negative zero is zero
    assert math.isfinite(kummer_m(-3.3, 6.8, 200.0))
