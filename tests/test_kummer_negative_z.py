"""kummer_m for z < 0 against 30-digit mpmath.

The direct 1F1 series at negative z alternates in sign and cancels
catastrophically for large |z|; the library sums it at -z through Kummer's
transformation M(a, b, z) = e^z M(b - a, b, -z) (DLMF 13.2.39).  On the
drawn domain b in [0.5, 50], a in [-50, b], z in [-200, -1e-3] the
transformed series has non-negative terms, so M > 0 and a relative
tolerance is meaningful.  mpmath and hypothesis are test-only dependencies.
"""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.specfun import kummer_m  # noqa: E402

REL_TOL = 1e-12
reproducible = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def kummer_mpmath(a: float, b: float, z: float) -> float:
    with mp.workdps(30):
        return float(mp.hyp1f1(a, b, z))


@st.composite
def negative_z_cases(draw):
    b = draw(st.floats(0.5, 50.0))
    a = draw(st.floats(-50.0, b))
    z = draw(st.floats(-200.0, -1e-3))
    return a, b, z


@reproducible
@given(negative_z_cases())
def test_scalar_matches_mpmath(case):
    a, b, z = case
    assert kummer_m(a, b, z) == pytest.approx(kummer_mpmath(a, b, z), rel=REL_TOL)


@pytest.mark.parametrize("a, b, z, ref", [
    (-3.3, 6.8, -150.0, 2.0098e4),
    (2.5, 1.5, -190.0, -3.83e-81),
])
def test_former_wrong_answers(a, b, z, ref):
    exact = kummer_mpmath(a, b, z)
    assert exact == pytest.approx(ref, rel=1e-3)
    assert kummer_m(a, b, z) == pytest.approx(exact, rel=REL_TOL)
    assert kummer_m(a, b, np.array([z]))[0] == pytest.approx(exact, rel=REL_TOL)


@reproducible
@given(negative_z_cases(), st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=6))
def test_mixed_sign_array(case, zs):
    """Negative entries match mpmath; the others equal their one-signed part."""
    a, b, z = case
    za = np.array([z, *zs, 0.0])
    out = kummer_m(a, b, za)
    assert out.shape == za.shape
    neg = za < 0.0
    for zi, vi in zip(za[neg].tolist(), out[neg].tolist()):
        assert vi == pytest.approx(kummer_mpmath(a, b, zi), rel=REL_TOL)
    assert np.array_equal(out[~neg], kummer_m(a, b, za[~neg]))
