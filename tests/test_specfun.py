"""Tests for specfun: log-Gamma, Beta, Kummer 1F1, Whittaker M.

Expected values marked "oracle" were computed beforehand with an
arbitrary-precision library (mpmath, 40 significant digits) and frozen
here; they are independent of the implementation under test.
"""

import math

import numpy as np
import pytest

import bicatom.specfun
from bicatom.specfun import (
    SeriesNonConvergence,
    beta,
    kummer_m,
    ln_gamma,
    whittaker_m,
)

# (x, ln Gamma(x)) oracle pairs, 25 digits
LN_GAMMA_ORACLE = [
    (0.001, 6.907178885383853682512345),
    (0.1, 2.252712651734205959869702),
    (0.25, 1.288022524698077457370610),
    (0.5, 0.5723649429247000870717137),
    (1.5, -0.1207822376352452223455184),
    (5.0, 3.178053830347945619646942),
    (20.0, 39.33988418719949403622465),
    (77.7, 259.2604368975979727050386),
    (170.0, 701.4372638087370853464547),
]

BETA_QUARTER = 7.41629870920548767373540138878   # B(1/4, 1/4), oracle
QUARTER_BETA = 1.85407467730137191843385034720   # B(1/4, 1/4)/4, oracle
WHITM_112 = 1.577610748073304183520899           # M_{1,1}(2), oracle
KUMMER_HALF_3_2 = 1.516175047025177893469368     # 1F1(1/2; 3; 2), oracle


class TestLnGamma:
    def test_oracle_grid(self):
        for x, want in LN_GAMMA_ORACLE:
            got = ln_gamma(x)
            assert got == pytest.approx(want, rel=1e-13), f"x={x}"

    def test_integer_zeros(self):
        assert abs(ln_gamma(1.0)) < 5e-15
        assert abs(ln_gamma(2.0)) < 5e-15

    def test_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            ln_gamma(bad)


class TestBeta:
    def test_trivials(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_quarter_quarter(self):
        assert beta(0.25, 0.25) == pytest.approx(BETA_QUARTER, rel=1e-12)
        assert 0.25 * beta(0.25, 0.25) == pytest.approx(QUARTER_BETA, rel=1e-12)

    def test_symmetry(self):
        for p in (0.25, 0.7, 1.0, 3.5, 10.0):
            for q in (0.1, 1.3, 6.0):
                assert beta(p, q) == pytest.approx(beta(q, p), rel=1e-13)

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
    def test_domain(self, p, q):
        with pytest.raises(ValueError):
            beta(p, q)


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

    def test_z_cap(self):
        with pytest.raises(ValueError):
            kummer_m(1.0, 1.0, 200.5)
        with pytest.raises(ValueError):
            kummer_m(1.0, 1.0, np.array([1.0, -201.0]))

    def test_non_convergence(self, monkeypatch):
        monkeypatch.setattr(bicatom.specfun, "_MAX_TERMS", 3)
        with pytest.raises(SeriesNonConvergence):
            kummer_m(1.0, 1.0, 50.0)
        with pytest.raises(SeriesNonConvergence):
            kummer_m(1.0, 1.0, np.array([50.0]))

    def test_max_terms_insensitive_once_converged(self, monkeypatch):
        cases = [(0.5, 3.0, 2.0), (-1.6, 6.8, 6.76), (2.0, 1.5, 20.0),
                 (-4.3, 7.0, 55.0), (1.0, 1.0, 150.0)]
        v1 = [kummer_m(alpha, gamma, z) for alpha, gamma, z in cases]
        monkeypatch.setattr(bicatom.specfun, "_MAX_TERMS", 10000)
        v2 = [kummer_m(alpha, gamma, z) for alpha, gamma, z in cases]
        for a, b in zip(v1, v2):
            assert a == pytest.approx(b, rel=1e-13, abs=1e-290)

    @pytest.mark.parametrize("z", [np.array([]), np.zeros((2, 0))])
    def test_empty_array(self, z):
        # an empty batch is an empty answer, for 1F1 and for M_{a,nu}
        for got in (kummer_m(1.0, 2.0, z), whittaker_m(3.0, 1.0, z)):
            assert isinstance(got, np.ndarray) and got.shape == z.shape

    def test_array_matches_scalar(self):
        z = np.linspace(0.05, 30.0, 57)
        arr = kummer_m(-1.6, 6.8, z)
        for zi, vi in zip(z, arr):
            assert vi == pytest.approx(kummer_m(-1.6, 6.8, float(zi)), rel=1e-12)


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

    def test_array_path(self):
        z = np.array([0.5, 2.0, 6.756270935])
        arr = whittaker_m(4.414424, 2.89873, z)
        assert arr.shape == (3,)
        assert arr[1] == pytest.approx(whittaker_m(4.414424, 2.89873, 2.0), rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_domain(self, z):
        with pytest.raises(ValueError):
            whittaker_m(1.0, 1.0, z)

    def test_nu_domain(self):
        with pytest.raises(ValueError):
            whittaker_m(1.0, -0.5, 1.0)
