"""Morse-type surrogate potential and its fit to the exact screened shape.

The four-parameter surrogate

    W_s(rho) = -[G (1 - e^{-kappa (rho - b)})^2 + V0 + B(1/4,1/4)/4]

is exactly solvable downstream, so the library fits (G, V0, kappa, b) to
the screened Born-Infeld-Coulomb potential on a window of rho and hands
the result to the analytic solver.

Fitting strategy.  The fit is the minimax (Chebyshev) fit of the window's
samples, by Remez's exchange (E. Ya. Remez, 1934; G. Meinardus,
Approximation of Functions, 1967, ch. 8).  With x = (rho - rho_0)/L on
the window's samples rho_0 .. rho_0 + L and q = e^{-kappa L x},

    W_s = c0 + c1 q + c2 q^2,

which is linear in c once kappa is fixed, and {1, q, q^2} is a Haar
system.  Each round solves W_s(x_i) - W(x_i) = s_i E on 5 reference
samples with alternating signs s_i by variable projection (G. H. Golub
and V. Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): at fixed kappa L,
the equations of samples 0-3 are linear in (c, E), and so are those of
samples 1-4.  Their two levels E differ except where all 5 hold, so the
gap is one scalar equation in kappa L.  A fixed log grid of kappa L
brackets its roots, Brent refines each, and the root with the smallest
|E| is the reference's best fit, so no start is needed.  The exchange
then takes the 5 alternating extrema of the new residual
(alternation_set).  The first reference is the samples nearest
Chebyshev's alternation points of a quadratic in q at a fixed kappa.

In the Morse form, e^{kappa (b - rho_0)} = -2 c2/c1, G = -c1^2/(4 c2)
and V0 = -c0 - G - B/4, so a real b needs c1 c2 < 0.  A window whose
best quadratic in q has c1 c2 >= 0 (as on [2, 8]), or whose reference
equations have no root (as on [2, 10]), has no Morse well with real b,
and fit raises RuntimeError.

A plain least-squares fit on [0, 10] puts nearly all of its error budget
near the origin and lands ~40% off in V0 with a worse peak residual, so
the minimax objective is what reproduces the reference parameters; for
zero-residual (synthetic) data the first solve already recovers the
generating parameters to machine precision.

MorseParams and REFERENCE_MORSE are defined in analytic_solver, which
needs no numpy, and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic_solver import REFERENCE_MORSE, MorseParams
from .bic_potential import QUARTER_BETA, PotentialTable
from .roots import _crossings

__all__ = [
    "MorseParams",
    "FitConfig",
    "FitReport",
    "REFERENCE_MORSE",
    "morse_w",
    "fit",
    "alternation_set",
]

# the kappa L grid on which each reference's level gap is bracketed
_KL_SCAN = np.geomspace(0.05, 60.0, 48)
# the kappa of the first reference: the fit does not depend on it, and
# 0.35 took the fewest reference solves on windows [0, 8..12]
_FIRST_KAPPA = 0.35
_ZERO_RESIDUAL = 1e-12  # relative to the window's largest |W|
# converged once the relative ripple spread, (max |r| - min |r| on the 5
# reference samples) / max |r|, is below _RIPPLE_TOL; windows with a Morse
# well take 2-5 reference solves, and fit raises after _MAX_SOLVES
_RIPPLE_TOL = 5e-5
_MAX_SOLVES = 120


@dataclass(frozen=True)
class FitConfig:
    """Fit window; ``fit`` consumes whatever samples the supplied table
    holds inside it.

    ``init`` is not read: the fit needs no start (see the module
    docstring).  It stays only because the benchmark's worker
    (perfbench/worker.py) builds ``FitConfig(init=...)`` and reads
    ``FitConfig().init``; the next change to the benchmark drops it.

    A window whose best quadratic in q = e^{-kappa rho} has no Morse well
    with real b, such as one with rho_min = 2 and rho_max >= 8, makes
    ``fit`` raise RuntimeError (``error:computation-failed:`` on the CLI).
    """

    rho_min: float = 0.0
    rho_max: float = 10.0
    init: MorseParams = MorseParams(-2.0, 0.0, 0.5, -0.5)

    def __post_init__(self) -> None:
        if not (0.0 <= self.rho_min < self.rho_max):
            raise ValueError("need 0 <= rho_min < rho_max")


@dataclass(frozen=True)
class FitReport:
    """Fit outcome; ``iterations`` counts reference solves, the first
    (on Chebyshev's reference) included.

    ``converged`` is always true, since ``fit`` raises rather than return
    an unconverged fit.  It stays because the benchmark (perfbench/) reads
    it; the next change to the benchmark drops it.
    """

    params: MorseParams
    rms_residual: float
    max_abs_residual: float
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        if not (self.max_abs_residual >= self.rms_residual >= 0.0):
            raise ValueError("need max_abs_residual >= rms_residual >= 0")


def morse_w(p: MorseParams, rho):
    """Evaluate W_s at scalar or array rho; an overflow gives inf (or NaN
    where G = 0) without a warning, for the caller to reject."""
    r = np.asarray(rho, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = -(p.G * (1.0 - np.exp(-p.kappa * (r - p.b))) ** 2 + p.V0 + QUARTER_BETA)
    if np.ndim(rho) == 0:
        return float(out)
    return out


def _level_gap(q, w, s):
    """The level E of c0 + c1 q_i + c2 q_i^2 - s_i E = w_i on samples 0-3,
    and its gap to the level on samples 1-4, which is 0 where all 5 hold.

    Third divided differences D in q vanish on 1, q and q^2, so E =
    -D[w]/D[s] on each 4 samples; for monotone q and alternating s the
    terms of D[s] share one sign.  q is 5 floats, or a (5, K) array whose
    rows are the 5 samples at K values of kappa L; w and s are 5 floats
    each.  The differences are written out in straight lines, in the
    order of the usual divided-difference table, so a (5, K) array gives
    in each column the bits of 5 floats.
    """
    q0, q1, q2, q3, q4 = q
    w0, w1, w2, w3, w4 = w
    s0, s1, s2, s3, s4 = s
    d01, d12, d23, d34 = q1 - q0, q2 - q1, q3 - q2, q4 - q3
    w01, w12, w23, w34 = (w1 - w0) / d01, (w2 - w1) / d12, (w3 - w2) / d23, (w4 - w3) / d34
    s01, s12, s23, s34 = (s1 - s0) / d01, (s2 - s1) / d12, (s3 - s2) / d23, (s4 - s3) / d34
    d02, d13, d24 = q2 - q0, q3 - q1, q4 - q2
    w02, w13, w24 = (w12 - w01) / d02, (w23 - w12) / d13, (w34 - w23) / d24
    s02, s13, s24 = (s12 - s01) / d02, (s23 - s12) / d13, (s34 - s23) / d24
    d03, d14 = q3 - q0, q4 - q1
    level = -((w13 - w02) / d03) / ((s13 - s02) / d03)
    return level, level + ((w24 - w13) / d14) / ((s24 - s13) / d14)


def alternation_set(residual: np.ndarray) -> np.ndarray:
    """Indices of the 5 alternating extrema that the exchange keeps.

    One extremum (largest |r|) per sign run of ``residual``; of those, the
    5 consecutive ones that contain the largest |r| and have the largest
    smallest |r|.  At a converged fit these are the equal-ripple points.
    Raises RuntimeError when the residual has fewer than 5 sign runs.
    """
    size = np.abs(residual)
    positive = residual > 0.0
    bounds = [0, *(np.flatnonzero(positive[1:] != positive[:-1]) + 1).tolist(),
              residual.size]
    extrema = [lo + int(np.argmax(size[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    if len(extrema) < 5:
        raise RuntimeError(f"the residual has {len(extrema)} sign runs, fewer than "
                           f"the 5 that a minimax fit of 4 parameters alternates on")
    peak = extrema.index(int(np.argmax(size)))
    first = max(range(max(0, peak - 4), min(peak, len(extrema) - 5) + 1),
                key=lambda j: float(np.min(size[extrema[j:j + 5]])))
    return np.array(extrema[first:first + 5])


def fit(table: PotentialTable, cfg: FitConfig = FitConfig()) -> FitReport:
    """Minimax fit of the surrogate to a potential table over the config window.

    Runs Remez's exchange, each reference solved by variable projection
    (see module docstring), until the residual vanishes to rounding or its
    relative ripple spread drops below 5e-5.  ``cfg.init`` is not read (see
    FitConfig).  Raises RuntimeError when 120 reference solves do not get
    there, when the window has no Morse well with real b, and for a
    residual with fewer than 5 sign runs.
    """
    grid = table.rho_grid
    if grid[0] > cfg.rho_min or grid[-1] < cfg.rho_max:
        raise ValueError("table does not cover the configured fit window")
    mask = (grid >= cfg.rho_min) & (grid <= cfg.rho_max)
    rho = grid[mask]
    w_data = table.values[mask]
    if rho.size < 8:
        raise ValueError("fewer than 8 table samples inside the fit window")

    rho0, length = float(rho[0]), float(rho[-1] - rho[0])
    x = (rho - rho0) / length
    no_well = (f"the best quadratic in q = e^(-kappa rho) on [{rho0:.6g}, "
               f"{rho0 + length:.6g}] has no Morse well with real b")
    # the 5 alternation points of a quadratic in q, from q(x = 0) (cheb = 1)
    # to q(x = 1) (cheb = 0), at _FIRST_KAPPA; a vanishing e^{-kappa L}
    # puts the last at infinity, which the clip takes to x = 1
    j = np.arange(5)
    cheb = 0.5 + 0.5 * np.cos(np.pi * j / 4)
    kl = _FIRST_KAPPA * length
    with np.errstate(divide="ignore"):
        nodes = -np.log(cheb + (1.0 - cheb) * math.exp(-kl)) / kl
    ref = np.abs(x[:, None] - np.minimum(nodes, 1.0)).argmin(axis=0)
    # distinct and increasing, and still inside the window
    ref = np.minimum(np.maximum.accumulate(ref - j), rho.size - 5) + j
    signs = (-1.0) ** j
    scan = _KL_SCAN.tolist()
    scale = float(np.max(np.abs(w_data)))
    solves = 0
    while True:
        xs, ws, ss = x[ref].tolist(), w_data[ref].tolist(), signs.tolist()
        x0, x1, x2, x3, x4 = xs

        def level_gap(k):
            return _level_gap((math.exp(-k * x0), math.exp(-k * x1), math.exp(-k * x2),
                               math.exp(-k * x3), math.exp(-k * x4)), ws, ss)

        g = _level_gap(np.exp(-np.outer(xs, _KL_SCAN)), ws, ss)[1].tolist()
        roots = list(_crossings(lambda k: level_gap(k)[1], zip(scan, g), 0.0))
        if not roots:
            raise RuntimeError(f"{no_well}: the reference equations have no root "
                               f"for kappa in [{scan[0] / length:.3g}, "
                               f"{scan[-1] / length:.3g}]")
        # each root's level once; min keeps the first of equal |E|
        kl, level = min(((k, level_gap(k)[0]) for k in roots), key=lambda kv: abs(kv[1]))
        solves += 1
        # the quadratic in q through w + s E on samples 0, 2 and 4
        q = np.exp(-kl * x[ref[::2]])
        c = np.linalg.solve(np.vander(q, 3, increasing=True),
                            w_data[ref[::2]] + signs[::2] * level)
        q = np.exp(-kl * x)
        resid = (c[2] * q + c[1]) * q + c[0] - w_data
        peak = float(np.max(np.abs(resid)))
        spread = peak - float(np.min(np.abs(resid[ref])))
        if peak < _ZERO_RESIDUAL * scale or spread < _RIPPLE_TOL * peak:
            break
        if solves == _MAX_SOLVES:
            raise RuntimeError(f"no convergence in {solves} reference solves: the relative "
                               f"ripple spread {spread / peak:.3g} is not below {_RIPPLE_TOL:g}")
        ref = alternation_set(resid)
        signs = np.sign(resid[ref])

    c0, c1, c2 = c.tolist()
    kappa = kl / length
    if not c1 * c2 < 0.0:
        raise RuntimeError(f"{no_well}: c1 c2 = {c1 * c2:.3g} >= 0 at kappa = {kappa:.6g}")
    G = -c1 * c1 / (4.0 * c2)
    return FitReport(params=MorseParams(G=G, V0=-c0 - G - QUARTER_BETA, kappa=kappa,
                                        b=rho0 + math.log(-2.0 * c2 / c1) / kappa),
                     rms_residual=float(np.sqrt(np.mean(resid ** 2))),
                     max_abs_residual=peak,
                     iterations=solves,
                     converged=True)
