"""Tests for specfun: Kummer 1F1 and Whittaker M.

Expected values marked "oracle" were computed beforehand with an
arbitrary-precision library (mpmath, 40 significant digits) and frozen
here; they are independent of the implementation under test.
"""

import math

import pytest

import bicatom.specfun
from bicatom.specfun import SeriesNonConvergence, kummer_m, whittaker_m

WHITM_112 = 1.577610748073304183520899           # M_{1,1}(2), oracle
KUMMER_HALF_3_2 = 1.516175047025177893469368     # 1F1(1/2; 3; 2), oracle


class TestKummer:
    def test_empty_series(self):
        assert kummer_m(0.0, 3.0, 7.2) == 1.0

    def test_linear_polynomial(self):
        # 1F1(-1; gamma; z) = 1 - z/gamma, exact at the root
        assert abs(kummer_m(-1.0, 3.0, 3.0)) < 1e-15

    def test_exponential(self):
        assert kummer_m(2.5, 2.5, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_oracle_value(self):
        assert kummer_m(0.5, 3.0, 2.0) == pytest.approx(KUMMER_HALF_3_2, rel=1e-13)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, -7.0])
    def test_gamma_poles(self, gamma):
        with pytest.raises(ValueError):
            kummer_m(1.0, gamma, 1.0)

    @pytest.mark.parametrize("alpha, gamma", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
    def test_non_finite_parameters(self, alpha, gamma):
        # a bad parameter is refused at once, not after the whole term budget
        with pytest.raises(ValueError, match="finite alpha and gamma"):
            kummer_m(alpha, gamma, 1.0)

    def test_z_cap(self):
        with pytest.raises(ValueError):
            kummer_m(1.0, 1.0, 200.5)
        with pytest.raises(ValueError):
            kummer_m(1.0, 1.0, -201.0)

    def test_non_convergence(self, monkeypatch):
        monkeypatch.setattr(bicatom.specfun, "_MAX_TERMS", 3)
        with pytest.raises(SeriesNonConvergence):
            kummer_m(1.0, 1.0, 50.0)

    def test_max_terms_insensitive_once_converged(self, monkeypatch):
        cases = [(0.5, 3.0, 2.0), (-1.6, 6.8, 6.76), (2.0, 1.5, 20.0),
                 (-4.3, 7.0, 55.0), (1.0, 1.0, 150.0)]
        v1 = [kummer_m(alpha, gamma, z) for alpha, gamma, z in cases]
        monkeypatch.setattr(bicatom.specfun, "_MAX_TERMS", 10000)
        v2 = [kummer_m(alpha, gamma, z) for alpha, gamma, z in cases]
        for a, b in zip(v1, v2):
            assert a == pytest.approx(b, rel=1e-13, abs=1e-290)


class TestWhittaker:
    def test_oracle_value(self):
        assert whittaker_m(1.0, 1.0, 2.0) == pytest.approx(WHITM_112, rel=1e-13)

    def test_reduction_identity(self):
        # a = nu + 1/2 makes the 1F1 factor exactly 1
        for nu in (0.3, 1.0, 2.5, 5.0):
            for z in (0.01, 0.7, 3.0, 17.0, 50.0):
                closed = math.exp(-0.5 * z) * z ** (nu + 0.5)
                got = whittaker_m(nu + 0.5, nu, z)
                assert abs(got - closed) <= 1e-12 * closed

    def test_polynomial_truncation(self):
        # nu - a + 1/2 = -n: the 1F1 factor is a degree-n polynomial
        for nu in (0.75, 1.0, 2.89873):
            gamma = 1.0 + 2.0 * nu
            for n in (1, 2, 3):
                a = nu + 0.5 + n
                for z in (0.5, 2.0, 9.0):
                    coef = 1.0
                    poly = 1.0
                    for k in range(n):
                        coef *= (-n + k) * z / ((gamma + k) * (k + 1))
                        poly += coef
                    closed = math.exp(-0.5 * z) * z ** (nu + 0.5) * poly
                    got = whittaker_m(a, nu, z)
                    assert got == pytest.approx(closed, rel=1e-12, abs=1e-280)

    def test_quantization_triple(self):
        # the (a, nu, X) triple satisfied by the solved bound state:
        # M vanishes at X to within 1e-4 of the local slope scale
        a, nu, x = 4.414424, 2.89873, 6.756270935
        m0 = whittaker_m(a, nu, x)
        slope = (whittaker_m(a, nu, x + 0.01) - whittaker_m(a, nu, x - 0.01)) / 0.02
        assert abs(m0) <= 1e-4 * abs(slope)

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_domain(self, z):
        with pytest.raises(ValueError):
            whittaker_m(1.0, 1.0, z)

    def test_nu_domain(self):
        with pytest.raises(ValueError):
            whittaker_m(1.0, -0.5, 1.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_a(self, a):
        with pytest.raises(ValueError, match="finite a"):
            whittaker_m(a, 1.0, 1.0)
