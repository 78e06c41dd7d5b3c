"""Bit pins of the Numerov route: ground_state and the exact potential's interpolant.

The ground-state values are float.hex strings and sweep counts recorded
from the implementation that read the interpolant's cubics with four
gathers per point.  The packed interpolant that replaced it keeps every
floating-point operation and its order, so the results must match to the
last bit; accuracy is tested elsewhere (tests/test_numerov_oracle.py).
The pins at alpha_beta = 1.83297 and h = 5e-4, Coulomb at 1 and the
lifted well at solve_a's coupling for nu = 1.2 were recorded from the
propagation that held v block by block; the one that holds it in grid
order sums each block's u^2 in another order, which can move lam in its
last bits, but not on these.

FourTakeCubic is that earlier interpolant, kept as the reference the
packed one must equal on every input, refusals included.
"""

import math

import numpy as np
import pytest

from bicatom import numerov_oracle
from bicatom.analytic_solver import observables, solve_a
from bicatom.bic_potential import tabulate
from bicatom.morse_fit import REFERENCE_MORSE, MorseParams, morse_w
from bicatom.numerov_oracle import RadialProblem, bic_interpolator, ground_state

# the lifted well of tests/test_cli.py's GOLDEN: W_s >= 0.646, tending to +1.646
LIFTED = MorseParams(G=-1.0, V0=-2.5, kappa=1.0, b=2.0)
# solve_a's coupling for nu = 1.2 on that well, 1.445000345850686
AB_LIFTED = observables(1.2, solve_a(1.2, LIFTED), LIFTED).alpha_beta
POTENTIALS = {
    "bic": lambda rho_max: bic_interpolator(rho_max),
    "morse": lambda rho_max: lambda r: morse_w(REFERENCE_MORSE, r),
    "coulomb": lambda rho_max: lambda r: -1.0 / r,
    "lifted": lambda rho_max: lambda r: morse_w(LIFTED, r),
}
# (potential, alpha_beta, rho_max, h): (lam, iterations)
GROUND_STATES = {
    ("bic", 1.83297, 40.0, 1e-3): ("-0x1.ae0d4bb4c4a7bp+0", 1),
    ("bic", 1.7, 40.0, 1e-3): ("-0x1.853aaaa6b1963p+0", 1),
    ("bic", 2.1, 40.0, 1e-3): ("-0x1.00d4aa7d2d1e3p+1", 1),
    ("bic", 1.83297, 40.0, 5e-4): ("-0x1.ae0d4bb4c4a7bp+0", 1),
    ("bic", 1.7, 40.0, 5e-4): ("-0x1.853aaaa6b19b0p+0", 1),
    ("bic", 1.7, 38.7371, 5e-4): ("-0x1.853aaaa6b19b0p+0", 1),
    ("morse", 1.823373498, 40.0, 1e-3): ("-0x1.a9554d16cb979p+0", 1),
    ("coulomb", 1.0, 40.0, 1e-3): ("-0x1.ffffe9a71dd4ap-2", 2),
    ("coulomb", 1.3, 40.0, 1e-3): ("-0x1.b0a3b722ff0e6p-1", 2),
    ("coulomb", 1.8, 40.0, 1e-3): ("-0x1.9eb81751b7fd1p+0", 2),
    ("coulomb", 0.45, 40.0, 1e-3): ("-0x1.9eb84e40a147ap-4", 2),
    ("lifted", 0.7200162872432606, 40.0, 1e-3): ("0x1.e153dffb62cbbp-1", 3),
    ("lifted", AB_LIFTED, 40.0, 1e-3): ("0x1.a88a748ff19cdp+0", 2),
}


@pytest.mark.parametrize("case", list(GROUND_STATES), ids=lambda c: "-".join(map(str, c)))
def test_ground_state_bits(case):
    name, alpha_beta, rho_max, h = case
    res = ground_state(RadialProblem(POTENTIALS[name](rho_max), alpha_beta, rho_max, h))
    assert (res.lam.hex(), res.iterations) == GROUND_STATES[case]


class FourTakeCubic:
    """The interpolant as it was: four columns of cubics, each read with a
    bounds-checked gather, and the range checked per 4096-point chunk."""

    def __init__(self, y) -> None:
        stencils = numerov_oracle._END_STENCILS
        y = np.asarray(y, dtype=float)
        s = np.concatenate((stencils @ y[:5],
                            (y[:-4] - y[4:] + 8.0 * (y[3:-1] - y[1:-3])) / 12.0,
                            -(stencils @ y[:-6:-1])[::-1]))
        rise = np.diff(y)
        self._top = len(y) / 128
        self._coef = (s[:-1] + s[1:] - 2.0 * rise, 3.0 * rise - 2.0 * s[:-1] - s[1:],
                      s[:-1], y[:-1])

    def _interval(self, rho):
        if not (rho.min() >= 0.0 and rho.max() <= self._top):
            bad = rho[~((rho >= 0.0) & (rho <= self._top))].flat[0]
            raise ValueError(
                f"rho = {float(bad)!r} is outside the interpolant's range [0, {self._top!r}]")
        return np.fmin(rho * 128, len(self._coef[0]) - 1).astype(np.intp)

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.empty(rho.shape)
        points, values = rho.reshape(-1), out.reshape(-1)
        c3, c2, c1, c0 = self._coef
        for i in range(0, points.size, 4096):
            chunk, value = points[i:i + 4096], values[i:i + 4096]
            k = self._interval(chunk)
            s = chunk * 128 - k
            c3.take(k, out=value)
            for c in (c2, c1, c0):
                value *= s
                value += c.take(k)
        return out


def reference(rho_max):
    """FourTakeCubic on the table bic_interpolator(rho_max) is built from."""
    n = max(math.ceil(128 * rho_max), 4) + 1
    return FourTakeCubic(tabulate("bic", 0.0, (n - 1) / 128, n).values)


def assert_same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("rho_max", [40.0, 38.5, 120.0, 38.7371, 0.01])
def test_interpolant_bits(rho_max):
    spline, old = bic_interpolator(rho_max), reference(rho_max)
    top = spline._top
    assert top == old._top
    rng = np.random.default_rng(3701)
    chunk = numerov_oracle._CHUNK
    inputs = [np.arange(1, int(round(max(rho_max, 20.0) / h)) + 1) * h for h in (1e-3, 5e-4)]
    inputs = [x[x <= top] for x in inputs]
    inputs += [rng.uniform(0.0, top, size)
               for size in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 4095, 4097)]
    inputs += [
        np.float64(top / 3), np.asarray(0.0), 1.0 / 128, [], np.empty((0, 3)),
        rng.uniform(0.0, top, (97, 131)),
        # up to one knot spacing past the last knot x_{n-1} = top - 1/128
        np.linspace(top - 2 / 128, top, 1001), np.array([top]),
    ]
    for rho in inputs:
        assert_same(spline(rho), old(rho))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -5e-324, 50.0,
                                 np.nextafter(40.0 + 1 / 128, np.inf)])
def test_interpolant_refusal_text(bad):
    spline, old = bic_interpolator(), reference(40.0)
    grid = np.arange(1, 40001) * 1e-3
    # alone, in the first or a later chunk, and after or before another bad point
    cases = [bad, [bad], np.insert(grid, 5000, bad), np.insert(grid, 30000, bad),
             np.insert(grid, [9000, 20000], [60.0, bad]),
             np.insert(grid, [9000, 20000], [bad, -3.0])]
    for rho in cases:
        with pytest.raises(ValueError) as want:
            old(rho)
        with pytest.raises(ValueError) as got:
            spline(rho)
        assert str(got.value) == str(want.value)
