"""born_phi against 30-digit mpmath over 0 <= r <= 1e6, in ulps.

phi_hat(r) falls like 1/r, so an absolute tolerance says nothing at large r;
the test holds the relative error to 2 ulp of the reference.  The
examples either side of r = 1 straddle born_phi's branch point.  mpmath and
hypothesis are test-only dependencies (the ``test`` extra).
"""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.bic_potential import born_phi  # noqa: E402

MAX_ULP = 2


def phi_mpmath(r: float) -> float:
    with mp.workdps(30):
        return float(mp.quad(lambda s: 1 / mp.sqrt(1 + s ** 4), [mp.mpf(r), mp.inf]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@seed(8106)
@given(st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e))
@example(0.0)
@example(np.nextafter(1.0, 0.0))
@example(1.0)
@example(np.nextafter(1.0, 2.0))
@example(100.0)
@example(1e6)
def test_matches_mpmath_to_a_few_ulp(r):
    expected = phi_mpmath(r)
    assert abs(born_phi(r) - expected) <= MAX_ULP * np.spacing(expected)
