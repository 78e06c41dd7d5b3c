"""roots._crossings, the one crossing scan of the fit, first_root and the march.

It yields, in march order, each sample where f is exactly 0, once, and
the Brent-refined root of each sign change between samples; it reads
samples only up to the root it yields.  fit takes every root of a
reference's level gap on its kappa L grid from it, and these keep the
bits of the bracket-by-bracket Brent calls that fit made before.
"""

import math

import numpy as np
import pytest

from bicatom import morse_fit
from bicatom.morse_fit import MorseParams, morse_w
from bicatom.roots import _brent, _crossings


def never(x):
    raise AssertionError(f"f evaluated at {x!r}: no bracket to refine")


@pytest.mark.parametrize("values, want", [
    ([1.0, 0.0, 1.0], [1]),    # a zero the samples touch from above
    ([-1.0, 0.0, -1.0], [1]),  # and from below
    ([1.0, 0.0, -1.0], [1]),   # a zero the samples cross
    ([-1.0, 0.0, 1.0], [1]),
    ([0.0, 1.0], [0]),         # at the first sample
    ([1.0, 0.0], [1]),         # at the last
    ([1.0, 0.0, 0.0, 1.0], [1, 2]),  # two zero samples, one root each
    ([1.0, 0.0, -1.0, 0.0, 1.0], [1, 3]),
    ([1.0, 2.0, 0.5], []),
])
def test_exact_zero_is_yielded_once(values, want):
    assert list(_crossings(never, enumerate(values), 1e-12)) == want


def test_sign_changes_in_march_order():
    samples = [(0.25 + 0.5 * k, math.sin(0.25 + 0.5 * k)) for k in range(20)]
    roots = list(_crossings(math.sin, samples, 1e-13))
    assert roots == sorted(roots)
    assert roots == pytest.approx([math.pi, 2.0 * math.pi, 3.0 * math.pi], abs=1e-12)
    # each is Brent on its bracket, from the sample values in hand
    brackets = [(x, y) for x, y in zip(samples, samples[1:]) if (x[1] > 0.0) != (y[1] > 0.0)]
    assert roots == [_brent(math.sin, lo, hi, f_lo, f_hi, 1e-13)
                     for (lo, f_lo), (hi, f_hi) in brackets]


def test_march_down_yields_the_crossing_nearest_the_start():
    samples = [(9.75 - 0.5 * k, math.sin(9.75 - 0.5 * k)) for k in range(20)]
    assert list(_crossings(math.sin, samples, 1e-13)) == pytest.approx(
        [3.0 * math.pi, 2.0 * math.pi, math.pi], abs=1e-12)


@pytest.mark.parametrize("values, read", [
    ([1.0, 0.5, 0.0, -1.0, 1.0], 3),    # an exact zero: read up to it
    ([1.0, 0.5, -0.25, -1.0, 1.0], 3),  # a sign change: up to its bracket's end
    ([-1.0, -0.5, 2.0, 1.0, -1.0], 3),
])
def test_samples_are_read_only_up_to_the_root_taken(values, read):
    taken = []

    def samples():
        for x, fx in enumerate(values):
            taken.append(x)
            yield float(x), fx

    def f(x):  # linear between the samples
        i = min(int(x), len(values) - 2)
        return values[i] + (x - i) * (values[i + 1] - values[i])

    scan = _crossings(f, samples(), 1e-12)
    next(scan)
    assert len(taken) == read


def test_no_sign_change_yields_nothing():
    assert list(_crossings(never, ((float(k), 1.0 + k) for k in range(5)), 1e-12)) == []
    assert list(_crossings(never, iter(()), 1e-12)) == []


def _reference_roots(gap, scan, g):
    """fit's bracket comprehension as first written: the reference whose
    bits the crossing scan keeps."""
    return [_brent(gap, scan[i], scan[i + 1], g[i], g[i + 1], 0.0)
            for i in range(len(scan) - 1) if (g[i] > 0.0) != (g[i + 1] > 0.0)]


@pytest.mark.parametrize("seed", range(12))
def test_fit_root_list_keeps_its_bits(seed):
    # a surrogate reference with a drawn ripple E: its level gap vanishes
    # at the surrogate's kappa L, and may at other kappa L too
    rng = np.random.default_rng(seed)
    x = np.sort(rng.choice(np.linspace(0.0, 1.0, 200), 5, replace=False))
    x -= x[0]
    p = MorseParams(G=-rng.uniform(0.5, 3.0), V0=rng.uniform(-0.5, 0.5),
                    kappa=rng.uniform(0.2, 1.5), b=rng.uniform(-1.0, 1.0))
    signs = (rng.choice([-1.0, 1.0]) * (-1.0) ** np.arange(5)).tolist()
    w = (morse_w(p, 10.0 * x) - rng.uniform(-0.05, 0.05) * np.array(signs)).tolist()
    scan = morse_fit._KL_SCAN.tolist()
    g = morse_fit._level_gap(np.exp(-np.outer(x, morse_fit._KL_SCAN)), w, signs)[1].tolist()

    def gap(k):
        return morse_fit._level_gap(tuple(math.exp(-k * xi) for xi in x.tolist()), w, signs)[1]

    roots = list(_crossings(gap, zip(scan, g), 0.0))
    assert roots == _reference_roots(gap, scan, g)
    assert any(abs(k - 10.0 * p.kappa) <= 1e-9 for k in roots)
