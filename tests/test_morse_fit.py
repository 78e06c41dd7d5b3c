"""Tests for the Morse-type surrogate and its fit.

The residual threshold frozen below is the max |W_s - W| of the reference
parameters themselves on the standard window, computed beforehand with the
independent 30-digit quadrature for W; a faithful fit must do at least as
well as the parameters it is meant to reproduce.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bicatom import morse_fit
from bicatom.bic_potential import PotentialKind, PotentialTable, QUARTER_BETA, tabulate
from bicatom.morse_fit import (
    REFERENCE_MORSE,
    FitConfig,
    FitReport,
    MorseParams,
    alternation_set,
    fit,
    morse_w,
)

# oracle: -(G (1 - e^{kappa b})^2 + V0 + B/4) with the reference parameters,
# 30-digit arithmetic
WS_AT_ZERO = -1.8512773521428530768
# oracle: closed-form limit -(G + V0 + B/4)
WS_AT_INF = -0.12212467730137191843
# oracle: max residual of the reference parameters on linspace(0, 10, 200)
REFERENCE_MAXRES = 0.0147465495766

REF_TUPLE = (-1.8300, 0.09805, 0.58520, -0.45720)


@pytest.fixture(scope="module")
def exact_table():
    return tabulate(PotentialKind.EXACT_BIC, 0.0, 10.0, 200)


class TestMorseW:
    def test_at_shift_point_exponential_drops_out(self):
        p = MorseParams(G=-2.5, V0=0.11, kappa=0.9, b=-0.3)
        assert morse_w(p, p.b) == pytest.approx(-(p.V0 + QUARTER_BETA), abs=1e-15)

    def test_reference_origin_value(self):
        assert morse_w(REFERENCE_MORSE, 0.0) == pytest.approx(WS_AT_ZERO, abs=1e-12)
        # the surrogate's origin value sits within 3e-3 of the exact W(0)
        assert abs(morse_w(REFERENCE_MORSE, 0.0) + QUARTER_BETA) <= 3e-3

    def test_reference_asymptote(self):
        assert morse_w(REFERENCE_MORSE, 1e6) == pytest.approx(WS_AT_INF, abs=1e-14)
        assert morse_w(REFERENCE_MORSE, 1e6) == pytest.approx(-0.1221247, abs=1e-7)

    def test_array_matches_scalars(self):
        rho = np.array([0.0, 0.7, 3.3, 9.9])
        got = morse_w(REFERENCE_MORSE, rho)
        want = [morse_w(REFERENCE_MORSE, float(r)) for r in rho]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=0.0)


class TestMorseParams:
    def test_reference_values(self):
        assert (REFERENCE_MORSE.G, REFERENCE_MORSE.V0,
                REFERENCE_MORSE.kappa, REFERENCE_MORSE.b) == REF_TUPLE

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            MorseParams(G=-1.0, V0=0.0, kappa=-0.5, b=-0.5)
        with pytest.raises(ValueError):
            MorseParams(G=-1.0, V0=0.0, kappa=0.0, b=-0.5)

    def test_fields_must_be_finite(self):
        with pytest.raises(ValueError):
            MorseParams(G=math.nan, V0=0.0, kappa=0.5, b=-0.5)
        with pytest.raises(ValueError):
            MorseParams(G=-1.0, V0=0.0, kappa=0.5, b=math.inf)


class TestConfigAndReport:
    def test_config_defaults(self):
        cfg = FitConfig()
        assert cfg.rho_min == 0.0 and cfg.rho_max == 10.0
        assert cfg.init.kappa > 0
        # the ripple tolerance and the solve cap are module constants
        assert [f.name for f in dataclasses.fields(FitConfig)] == ["rho_min", "rho_max", "init"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(rho_min=-1.0)
        with pytest.raises(ValueError):
            FitConfig(rho_min=5.0, rho_max=5.0)

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            FitReport(params=REFERENCE_MORSE, rms_residual=0.5,
                      max_abs_residual=0.1, iterations=3, converged=True)


def _synthetic_table(params, rho_min=0.0, rho_max=10.0, n=200):
    rho = np.linspace(rho_min, rho_max, n)
    return PotentialTable(rho, morse_w(params, rho))


class TestZeroResidualRecovery:
    TRUE = MorseParams(G=-1.5, V0=0.05, kappa=0.7, b=-0.3)

    @pytest.mark.parametrize("scale", [
        (1.3, 0.7, 1.3, 0.7),
        (0.7, 1.3, 0.7, 1.3),
    ])
    def test_recovers_from_30_percent_perturbations(self, scale):
        table = _synthetic_table(self.TRUE)
        init = MorseParams(self.TRUE.G * scale[0], self.TRUE.V0 * scale[1],
                           self.TRUE.kappa * scale[2], self.TRUE.b * scale[3])
        report = fit(table, FitConfig(init=init))
        for got, want in [(report.params.G, self.TRUE.G),
                          (report.params.V0, self.TRUE.V0),
                          (report.params.kappa, self.TRUE.kappa),
                          (report.params.b, self.TRUE.b)]:
            assert got == pytest.approx(want, rel=1e-6)
        assert report.converged
        assert report.rms_residual <= 1e-9

    def test_reference_params_recovered_from_generic_init(self):
        table = _synthetic_table(REFERENCE_MORSE)
        report = fit(table, FitConfig())  # default generic init
        for got, want in zip((report.params.G, report.params.V0,
                              report.params.kappa, report.params.b), REF_TUPLE):
            assert got == pytest.approx(want, rel=1e-6)
        assert report.converged


class TestFitValidation:
    def test_window_not_covered(self):
        table = tabulate(PotentialKind.EXACT_BIC, 1.0, 10.0, 12)
        with pytest.raises(ValueError):
            fit(table, FitConfig())

    def test_too_few_samples_in_window(self):
        table = _synthetic_table(REFERENCE_MORSE, 0.0, 10.0, 10)
        with pytest.raises(ValueError):
            fit(table, FitConfig(rho_min=0.0, rho_max=0.5))

    def test_degenerate_kappa_raises(self):
        # a quadratic in rho is the kappa -> 0 limit of a quadratic in
        # e^{-kappa rho}: no kappa > 0 solves a reference exactly
        rho = np.linspace(0.0, 10.0, 200)
        table = PotentialTable(rho, 0.03 * rho ** 2 - 0.2 * rho + 0.5)
        with pytest.raises(RuntimeError, match="no Morse well with real b: the "
                                               "reference equations have no root"):
            fit(table, FitConfig())

    @pytest.mark.parametrize("window", [(2.0, 8.0), (2.0, 10.0)])
    def test_window_off_the_origin_has_no_morse_well(self, window):
        # on [2, 8] the best quadratic in q has c1 c2 > 0; on [2, 10] some
        # reference of the exchange has no root in kappa at all
        table = tabulate(PotentialKind.EXACT_BIC, *window, 200)
        with pytest.raises(RuntimeError, match=r"on \[2, (8|10)\] has no Morse "
                                               r"well with real b: (c1 c2 = |the ref)"):
            fit(table, FitConfig(rho_min=window[0], rho_max=window[1]))

    def test_raises_at_the_cap_and_returns_no_report(self, exact_table, monkeypatch):
        solves = fit(exact_table, FitConfig()).iterations
        assert 1 < solves < morse_fit._MAX_SOLVES
        monkeypatch.setattr(morse_fit, "_MAX_SOLVES", solves - 1)
        report = None
        with pytest.raises(RuntimeError, match=rf"^no convergence in {solves - 1} reference "
                                               r"solves: the relative ripple spread \S+ is "
                                               r"not below 5e-05$"):
            report = fit(exact_table, FitConfig())
        assert report is None
        # converging on the last solve allowed is no failure
        monkeypatch.setattr(morse_fit, "_MAX_SOLVES", solves)
        assert fit(exact_table, FitConfig()).iterations == solves
        # any ripple passes a tolerance of 1, so the first solve is the fit
        monkeypatch.setattr(morse_fit, "_RIPPLE_TOL", 1.0)
        assert fit(exact_table, FitConfig()).iterations == 1

class TestNoStart:
    # starts that stopped the old Newton level solve: small kappa, and
    # G = 0, subnormal or huge G, huge V0, kappa next to 0, kappa and b far off
    @pytest.mark.parametrize("init", [
        (-2.0, 0.0, 0.05, -0.5), (-2.0, 0.0, 0.1, -0.5),
        (-2.0, 0.0, 0.15, -0.5), (-2.0, 0.0, 0.2, -0.5),
        (0.0, 0.1, 0.5, -0.5), (1e-310, 0.0, 0.5, -0.5), (1e308, 0.0, 0.5, -0.5),
        (-2.0, 1e308, 0.5, -0.5), (-2.0, 0.0, 1e-160, -0.5),
        (-2.0, 0.0, 200.0, 5.0), (-2.0, 0.0, 1.0, 800.0),
    ])
    def test_any_init_gives_the_default_fit(self, exact_table, init):
        got = fit(exact_table, FitConfig(init=MorseParams(*init)))
        assert got == fit(exact_table, FitConfig())

    def test_global_kappa_not_the_local_minimum(self, exact_table):
        # the window's max error over kappa has a local minimum near 0.113
        # and its global one near 0.5839; a start at the first ends at the second
        init = MorseParams(-2.0, 0.0, 0.113, -0.5)
        assert fit(exact_table, FitConfig(init=init)).params.kappa == pytest.approx(
            0.5839, abs=1e-4)

    # wells whose Morse term stays well above rounding on [0, 10]
    @seed(20261019)
    @settings(max_examples=60, deadline=None, database=None)
    @given(G=st.floats(-5.0, -0.2), V0=st.floats(0.01, 1.0),
           V0_sign=st.sampled_from([1.0, -1.0]), kappa=st.floats(0.2, 2.0),
           b=st.floats(0.05, 2.0), b_sign=st.sampled_from([1.0, -1.0]),
           init=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                          st.floats(1e-3, 10.0), st.floats(-10.0, 10.0)))
    def test_recovers_drawn_morse_tables_from_any_init(self, G, V0, V0_sign, kappa,
                                                         b, b_sign, init):
        true = MorseParams(G=G, V0=V0_sign * V0, kappa=kappa, b=b_sign * b)
        report = fit(_synthetic_table(true), FitConfig(init=MorseParams(*init)))
        assert report.converged
        for field in ("G", "V0", "kappa", "b"):
            assert getattr(report.params, field) == pytest.approx(
                getattr(true, field), rel=1e-8, abs=0.0)


# the three starts the fit command once took: the default, the former
# --init-reference (20% off the reference) and an explicit start next to
# the reference
DOCUMENTED_INITS = {
    "default": FitConfig().init,
    "init-reference": MorseParams(1.2 * REF_TUPLE[0], 0.8 * REF_TUPLE[1],
                                  1.2 * REF_TUPLE[2], 0.8 * REF_TUPLE[3]),
    "explicit": MorseParams(-1.83, 0.098, 0.585, -0.457),
}
# the peak residual of Lawson's reweighted fit (C. L. Lawson, 1961) on this
# window, which stopped short of equal ripple
LAWSON_MAXRES = 0.01277045219
# the surrogate-chain benchmark's starts: each parameter 15% above or below
# the reference, the signs of (G, V0, kappa, b) a half-fraction 2^(4-1) design
HALF_FRACTION_INITS = [
    MorseParams(*(x * (1.0 + 0.15 * s)
                  for x, s in zip(REF_TUPLE, (g, v, k, g * v * k))))
    for g in (1, -1) for v in (1, -1) for k in (1, -1)
]


@pytest.fixture(scope="module")
def documented_fits(exact_table):
    return {name: fit(exact_table, FitConfig(init=init))
            for name, init in DOCUMENTED_INITS.items()}


@pytest.fixture(scope="module")
def wide_window_fit():
    # [0.5, 30] from the default start, a window that a least-squares
    # start does not fit: its residual has only 4 sign runs
    table = tabulate(PotentialKind.EXACT_BIC, 0.5, 30.0, 200)
    return table, fit(table, FitConfig(rho_min=0.5, rho_max=30.0))


class TestMinimaxCertificate:
    @pytest.mark.parametrize("name", [*DOCUMENTED_INITS, "default-0.5-30"])
    def test_equal_ripple_on_five_alternating_samples(self, request, exact_table,
                                                      documented_fits, name):
        if name in documented_fits:
            table, report = exact_table, documented_fits[name]
            assert report.max_abs_residual <= LAWSON_MAXRES
        else:
            table, report = request.getfixturevalue("wide_window_fit")
        assert report.converged
        resid = morse_w(report.params, table.rho_grid) - table.values
        ref = alternation_set(resid)
        assert ref.size == 5 and np.all(np.diff(ref) > 0)
        assert np.all(np.sign(resid[ref][1:]) == -np.sign(resid[ref][:-1]))
        level = np.abs(resid[ref])
        assert level.max() - level.min() <= 1e-10 * level.max()
        # no sample's residual is larger than the smallest of the five
        assert np.max(np.abs(resid)) <= level.min() * (1.0 + 1e-10)

    def test_certificate_without_the_exchange_rule(self, exact_table,
                                                   documented_fits):
        # Chebyshev's alternation, found without alternation_set: the samples
        # within 1e-10 of the peak change sign at least 4 times
        resid = (morse_w(documented_fits["default"].params, exact_table.rho_grid)
                 - exact_table.values)
        size = np.abs(resid)
        signs = np.sign(resid[size >= (1.0 - 1e-10) * size.max()])
        assert np.count_nonzero(signs[1:] != signs[:-1]) >= 4

    def test_documented_inits_agree_to_ten_digits(self, documented_fits):
        # every start on the reference window, and the eight half-fraction
        # starts on the shorter and longer benchmark windows too
        for rho_max, samples in ((8.0, 150), (10.0, 200), (12.0, 300)):
            table = tabulate(PotentialKind.EXACT_BIC, 0.0, rho_max, samples)
            reports = [fit(table, FitConfig(rho_max=rho_max, init=init))
                       for init in HALF_FRACTION_INITS]
            if rho_max == 10.0:
                reports += documented_fits.values()
            for other in reports[1:]:
                for field in ("G", "V0", "kappa", "b"):
                    assert getattr(other.params, field) == pytest.approx(
                        getattr(reports[0].params, field), rel=1e-10, abs=0.0)

    def test_few_exchanges(self, documented_fits):
        assert all(r.iterations <= 4 for r in documented_fits.values())

    def test_one_kappa_scan_per_reference_solve(self, exact_table, monkeypatch):
        # each reference solve scans the kappa L grid once, as arrays, and
        # evaluates its level gap at single kappa L values after that
        scans = []
        level_gap = morse_fit._level_gap

        def counting_level_gap(q, w, s):
            scans.append(isinstance(q, np.ndarray))
            return level_gap(q, w, s)

        monkeypatch.setattr(morse_fit, "_level_gap", counting_level_gap)
        report = fit(exact_table, FitConfig())
        assert scans.count(True) == report.iterations
        assert scans[0] and len(scans) > 2 * report.iterations

    def test_fewer_than_five_sign_runs_raises(self):
        resid = np.array([0.3, 0.2, -0.1, -0.4, 0.5, 0.1])
        with pytest.raises(RuntimeError, match="3 sign runs"):
            alternation_set(resid)

    def test_exchange_keeps_the_peak_and_the_largest_smallest_extremum(self):
        # runs: +1, -0.2, +0.5, -3 (the peak), +0.4, -0.9, +0.1
        resid = np.array([1.0, -0.2, 0.5, 0.2, -3.0, 0.4, -0.9, -0.3, 0.1])
        np.testing.assert_array_equal(alternation_set(resid), [0, 1, 2, 4, 5])
        # with the first run smaller than the last, the window moves right
        resid[1] = -0.05
        np.testing.assert_array_equal(alternation_set(resid[1:]), [1, 3, 4, 5, 7])

    def test_level_gap_of_a_surrogate_reference_vanishes_at_its_kappa(self):
        # at the generating kappa L the level is the ripple E that was added
        # with alternating signs, and the gap is 0; elsewhere it is not
        p = MorseParams(G=-1.5, V0=0.05, kappa=0.7, b=-0.3)
        x = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        signs = [1.0, -1.0, 1.0, -1.0, 1.0]
        w = (morse_w(p, 10.0 * x) - 0.01 * np.array(signs)).tolist()
        level, gap = morse_fit._level_gap(np.exp(-7.0 * x), w, signs)
        assert level == pytest.approx(0.01, abs=1e-13)
        assert abs(gap) <= 1e-13
        assert abs(morse_fit._level_gap(np.exp(-5.0 * x), w, signs)[1]) > 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_level_gap_array_is_column_by_column(self, seed):
        # a (5, K) q gives in each column the bits of the 5-float call,
        # which are those of the divided-difference table as first written
        rng = np.random.default_rng(seed)
        x = np.sort(rng.choice(np.linspace(0.0, 1.0, 200), 5, replace=False))
        w = rng.uniform(-2.0, 0.0, 5).tolist()
        signs = (rng.choice([-1.0, 1.0]) * (-1.0) ** np.arange(5)).tolist()
        kl = np.geomspace(0.05, 60.0, 48)
        q_scan = np.exp(-np.outer(x, kl))
        levels, gaps = morse_fit._level_gap(q_scan, w, signs)
        for q, level, gap in zip(q_scan.T.tolist(), levels.tolist(), gaps.tolist()):
            want = _reference_level_gap(q, w, signs)
            assert morse_fit._level_gap(q, w, signs) == want
            assert (level, gap) == want


def _reference_level_gap(q, w, s):
    """_level_gap as first written, a loop over the divided-difference
    table: the reference whose bits the straight-line form keeps."""
    dw, ds = list(w), list(s)
    for order in (1, 2, 3):
        for i in range(5 - order):
            dq = q[i + order] - q[i]
            dw[i] = (dw[i + 1] - dw[i]) / dq
            ds[i] = (ds[i + 1] - ds[i]) / dq
    level = -dw[0] / ds[0]
    return level, level + dw[1] / ds[1]


class TestExactFit:
    def test_acceptance_window_fit(self, exact_table):
        init = MorseParams(REF_TUPLE[0] * 1.2, REF_TUPLE[1] * 0.8,
                           REF_TUPLE[2] * 1.2, REF_TUPLE[3] * 0.8)
        report = fit(exact_table, FitConfig(init=init))
        got = (report.params.G, report.params.V0, report.params.kappa,
               report.params.b)
        for g, want in zip(got, REF_TUPLE):
            assert abs(g - want) <= 0.05 * abs(want)
        assert report.max_abs_residual <= REFERENCE_MAXRES
        assert report.converged
        assert report.params.kappa > 0

    def test_default_init_reaches_same_basin(self, exact_table):
        report = fit(exact_table, FitConfig())
        for g, want in zip((report.params.G, report.params.V0,
                            report.params.kappa, report.params.b), REF_TUPLE):
            assert abs(g - want) <= 0.05 * abs(want)
        assert report.max_abs_residual <= REFERENCE_MAXRES

    def test_report_residuals_match_params(self, exact_table):
        report = fit(exact_table, FitConfig())
        resid = morse_w(report.params, exact_table.rho_grid) - exact_table.values
        assert report.max_abs_residual == pytest.approx(np.max(np.abs(resid)), abs=1e-14)
        assert report.rms_residual == pytest.approx(
            math.sqrt(float(np.mean(resid ** 2))), abs=1e-14)

    def test_beats_plain_least_squares_peak_residual(self, exact_table):
        # the minimax fit must not leave a worse peak residual than the
        # reference parameters themselves
        report = fit(exact_table, FitConfig())
        ref_resid = np.max(np.abs(morse_w(REFERENCE_MORSE, exact_table.rho_grid)
                                  - exact_table.values))
        assert report.max_abs_residual <= ref_resid


def test_reference_threshold_is_reproducible(exact_table):
    # the frozen threshold really is the reference parameters' own residual
    resid = np.abs(morse_w(REFERENCE_MORSE, exact_table.rho_grid)
                   - exact_table.values)
    assert np.max(resid) == pytest.approx(REFERENCE_MAXRES, abs=1e-9)
