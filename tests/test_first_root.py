"""first_root against 30-digit mpmath over nu in (0.05, 5], a in (nu + 1/2, 50].

M_{a,nu}(z) = e^{-z/2} z^{nu+1/2} 1F1(nu - a + 1/2; 1 + 2nu; z) has the
roots of its 1F1 factor.  The reference walks a grid uniform in sqrt(z)
(step 0.02, plus z = 200) with mpmath's hyp1f1 and refines the first sign
change with mpmath's findroot.  For a <= 50 the roots are at least ~0.2
apart in sqrt(z), so the grid cannot step over one.  The series parameters
nu - a + 1/2 and 1 + 2nu are rounded to double first, as the library
rounds them: as a -> nu + 1/2 the root moves by ~1/(a - nu - 1/2) per
unit change of the first parameter, so its last-bit rounding alone would
otherwise dominate the comparison.  mpmath and hypothesis are test-only
dependencies.
"""

import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.analytic_solver import first_root  # noqa: E402

Z_CAP = 200.0
reproducible = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def first_root_mpmath(a: float, nu: float):
    """First positive root of M_{a,nu} below z = 200, or None."""
    alpha, gamma = nu - a + 0.5, 1.0 + 2.0 * nu
    with mp.workdps(30):
        def m(z):
            return mp.hyp1f1(alpha, gamma, z)

        zs = [(0.02 * k) ** 2 for k in range(1, 708)] + [Z_CAP]
        assert m(zs[0]) > 0
        for z_prev, z in zip(zs, zs[1:]):
            if m(z) <= 0:
                return float(mp.findroot(m, (mp.mpf(z_prev), mp.mpf(z)), solver="anderson"))
    return None


def assert_matches_mpmath(a: float, nu: float):
    want = first_root_mpmath(a, nu)
    if want is None:
        with pytest.raises(RuntimeError):
            first_root(a, nu)
    else:
        assert abs(first_root(a, nu) - want) <= 1e-9 * max(1.0, want)


@pytest.mark.parametrize("a, nu, want", [(49.0, 0.1, 0.0373907), (49.0, 0.2, 0.0458861)])
def test_root_below_scan_start(a, nu, want):
    # M(0.05) < 0 here: the first root lies below the first scan point
    assert first_root(a, nu) == pytest.approx(want, abs=1e-7)
    assert_matches_mpmath(a, nu)


@reproducible
@seed(8102)
@given(st.floats(min_value=0.05, max_value=5.0, exclude_min=True),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
# a = 4.446969508316446: 1F1's first parameter is -4.4e-16, tiny growing terms
@example(3.9469695083164456, 5e-324)
# a = 49: the first root lies below the scan start z = 0.05
@example(0.1, 0.979757085020243)
@example(0.2, 0.9797160243407708)
def test_matches_mpmath(nu, u):
    assert_matches_mpmath(nu + 0.5 + u * (49.5 - nu), nu)


@pytest.mark.parametrize("alpha", [-4.440892098500626e-16, 1e-12, -2.0 + 1e-13])
@pytest.mark.parametrize("gamma", [1.2, 8.893939016632891])
def test_kummer_sums_past_tiny_leading_terms(alpha, gamma):
    # with alpha near 0 or a negative integer the leading terms are tiny but
    # growing; a sum that stopped on them would return ~1
    from bicatom.specfun import kummer_m
    for z in (1.0, 30.0, 61.4, 120.0):
        with mp.workdps(30):
            want = float(mp.hyp1f1(alpha, gamma, z))
        tol = 1e-13 * max(1.0, abs(want))
        assert abs(kummer_m(alpha, gamma, z) - want) <= tol
