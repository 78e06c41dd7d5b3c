"""Bit pins of the closed-form chain: fit, solve_a, observables, calibrate_nu.

The values are float.hex strings recorded from the straightforward
implementation that the faster 1F1 series loop (specfun._kummer_series)
and the straight-line level gap (morse_fit._level_gap) replaced.  Those
rewrites keep every floating-point operation and its order, so the
results must match to the last bit; accuracy is tested elsewhere (against
mpmath, scipy and the paper's numbers).
"""

import pytest

from bicatom.analytic_solver import calibrate_nu, observables, solve_a
from bicatom.bic_potential import tabulate
from bicatom.morse_fit import REFERENCE_MORSE, FitConfig, fit

# (rho_max, samples on [0, rho_max]): (G, V0, kappa, b), max |r|, rms r, reference solves
FITS = {
    (10.0, 200): (('-0x1.d48951ef0b3c3p+0', '0x1.89f29607623d0p-4', '0x1.2af4ca0753367p-1',
                   '-0x1.d3f5114171d50p-2'),
                  '0x1.a2580b0fccb00p-7', '0x1.209e069602638p-7', 4),
    (8.0, 150): (('-0x1.cd08f556aae53p+0', '0x1.1f9afdac48840p-4', '0x1.2e5bc91bc0b65p-1',
                  '-0x1.a002a631484fbp-2'),
                 '0x1.8029c4d1e5c40p-7', '0x1.142e94ca83427p-7', 4),
    (12.0, 300): (('-0x1.f1a1c6dee2667p+0', '0x1.93f9f92583358p-3', '0x1.1e6de66f00de2p-1',
                   '-0x1.4ef38da5f516cp-1'),
                  '0x1.17a35327eb060p-6', '0x1.80cda1a9a83b3p-7', 3),
}
# (well, nu): (nu, a, X, alpha_beta, eps_over_alpha2)
SOLUTIONS = {
    ('reference', 2.89873):
        ('0x1.730995aaf78ffp+1', '0x1.1a85edc044206p+2', '0x1.b066c08a6ca73p+2',
         '0x1.d2c8a00139302p+0', '-0x1.ffb9ffcad887dp-2'),
    ('reference', 3.3):
        ('0x1.a666666666666p+1', '0x1.36fe239bf7423p+2', '0x1.dbf959909b90bp+2',
         '0x1.1acc92d864ee5p+1', '-0x1.bfc6da27b8cd7p-2'),
    ('fit', 2.89873):
        ('0x1.730995aaf78ffp+1', '0x1.1a72b6ec24c79p+2', '0x1.b098ce5337c4dp+2',
         '0x1.d068503e9f66ep+0', '-0x1.00ba2fd1bf812p-1'),
    ('fit', 3.3):
        ('0x1.a666666666666p+1', '0x1.36e95350e1eb4p+2', '0x1.dc30f69b24100p+2',
         '0x1.195ca3cae8000p+1', '-0x1.c157b98d9ba84p-2'),
}
# (well, target): (nu, a, X, alpha_beta, eps_over_alpha2)
CALIBRATIONS = {
    ('reference', -0.49973):
        ('0x1.730a272c5c936p+1', '0x1.1a863ea2e3b9dp+2', '0x1.b0673c55e35fbp+2',
         '0x1.d2c9ab482ea4ap+0', '-0x1.ffb9389b52005p-2'),
    ('reference', -0.4995):
        ('0x1.73363639786aap+1', '0x1.1a9ebc7ff6c86p+2', '0x1.b08cb85ac792ap+2',
         '0x1.d31a9cf84ee34p+0', '-0x1.ff7ced916872dp-2'),
    ('fit', -0.49973):
        ('0x1.744d50aa8cb49p+1', '0x1.1b269ebf84c1ap+2', '0x1.b1ac5953b8058p+2',
         '0x1.d2b8a8b0b20b2p+0', '-0x1.ffb9389b52005p-2'),
    ('fit', -0.4995):
        ('0x1.74797af27d798p+1', '0x1.1b3f29684356cp+2', '0x1.b1d1efd585134p+2',
         '0x1.d30993c70854ep+0', '-0x1.ff7ced9168729p-2'),
}


def _fit(rho_max, n):
    return fit(tabulate("bic", 0.0, rho_max, n), FitConfig(rho_min=0.0, rho_max=rho_max))


@pytest.fixture(scope="module")
def wells():
    return {"reference": REFERENCE_MORSE, "fit": _fit(10.0, 200).params}


def _hex(values):
    return tuple(float.hex(v) for v in values)


@pytest.mark.parametrize("window", FITS)
def test_fit_bits(window):
    params, peak, rms, solves = FITS[window]
    report = _fit(*window)
    assert _hex(report.params) == params
    assert (report.max_abs_residual.hex(), report.rms_residual.hex()) == (peak, rms)
    assert report.iterations == solves


@pytest.mark.parametrize("well, nu", SOLUTIONS)
def test_solve_a_bits(wells, well, nu):
    morse = wells[well]
    assert _hex(observables(nu, solve_a(nu, morse), morse)) == SOLUTIONS[well, nu]


@pytest.mark.parametrize("well, target", CALIBRATIONS)
def test_calibrate_nu_bits(wells, well, target):
    assert _hex(calibrate_nu(target, wells[well])) == CALIBRATIONS[well, target]
