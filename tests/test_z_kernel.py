"""Z(rho) against 30-digit mpmath across its whole domain, 0 <= rho <= 1e6.

The reference integrates in t = sqrt(sqrt(2)/4 - y) with mpmath's
tanh-sinh quadrature, split where the integrand drops past y ~ 1/rho; it
shares nothing with the library's fixed-node Gauss-Legendre kernel.  The
tolerance is the accuracy schedule of the bic_potential docstring,
4e-15 * max(1, rho) absolute.  mpmath and hypothesis are test-only
dependencies (the ``test`` extra).
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.bic_potential import (  # noqa: E402
    _BLOCK_ROWS,
    _gauss_legendre,
    _z_kernel,
    z_of_rho,
)

# rho where the split point min(1/rho, sqrt(2)/8) changes branch
SPLIT_RHO = 4.0 * math.sqrt(2.0)

log_uniform_rho = st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0 ** e)
reproducible = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def z_mpmath(rho: float) -> float:
    with mp.workdps(30):
        rho = mp.mpf(rho)
        if rho == 0:
            return 0.0
        y_star = mp.sqrt(2) / 4

        def g(t):
            # 2t q(y* - t^2; rho), with 1 - 8y^2 = 8t^2 (y* + y) divided out
            y = y_star - t * t
            root1 = mp.sqrt(1 + y * y)
            numer = 2 * y * root1 - 2 * y * y - 1
            radicand_over_t2 = 8 * (y_star + y) / (1 + 4 * y * y + 4 * y * root1)
            return 2 * numer / (mp.sqrt(radicand_over_t2) * root1
                                * mp.sqrt(1 + rho ** 4 * y ** 4))

        ys = [mp.mpf(0)]
        y = 1 / rho
        while y < y_star:
            ys.append(y)
            y *= 4
        ts = sorted({mp.sqrt(y_star - y) for y in ys} | {mp.mpf(0)})
        quarter_beta = mp.beta(mp.mpf(1) / 4, mp.mpf(1) / 4) / 4
        return float(rho * rho * mp.quad(g, ts) + quarter_beta * rho)


def tolerance(rho: float) -> float:
    return 4e-15 * max(1.0, rho)


@reproducible
@given(log_uniform_rho)
def test_matches_mpmath_log_uniform(rho):
    assert abs(z_of_rho(rho) - z_mpmath(rho)) <= tolerance(rho)


@pytest.mark.parametrize("rho", [
    0.0, 1e-3, SPLIT_RHO * (1.0 - 1e-12), SPLIT_RHO, SPLIT_RHO * (1.0 + 1e-12), 1e5, 1e6,
])
def test_matches_mpmath_at_domain_edges_and_split(rho):
    assert abs(z_of_rho(rho) - z_mpmath(rho)) <= tolerance(rho)


@reproducible
@given(st.lists(log_uniform_rho, min_size=_BLOCK_ROWS + 1, max_size=2 * _BLOCK_ROWS + 1))
def test_array_path_matches_scalar_path_and_mpmath(rhos):
    got = _z_kernel(np.array(rhos))
    for r, z in zip(rhos, got):
        assert abs(z - z_of_rho(r)) <= 1e-14
    for k in (_BLOCK_ROWS - 1, _BLOCK_ROWS):
        assert abs(got[k] - z_mpmath(rhos[k])) <= tolerance(rhos[k])


def test_gauss_legendre_matches_numpy():
    x, w = np.polynomial.legendre.leggauss(12)
    nodes, weights = _gauss_legendre(12)
    order = np.argsort(nodes)
    np.testing.assert_allclose(nodes[order], 0.5 * (x + 1.0), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(weights[order], 0.5 * w, rtol=0.0, atol=1e-15)
