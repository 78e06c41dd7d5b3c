"""Morse-type surrogate potential and its fit to the exact screened shape.

The four-parameter surrogate

    W_s(rho) = -[G (1 - e^{-kappa (rho - b)})^2 + V0 + B(1/4,1/4)/4]

is exactly solvable downstream, so the library fits (G, V0, kappa, b) to
the screened Born-Infeld-Coulomb potential on a window of rho and hands
the result to the analytic solver.

Fitting strategy.  The fit is the minimax (Chebyshev) fit of the window's
samples, by Remez's exchange (E. Ya. Remez, 1934; G. Meinardus,
Approximation of Functions, 1967, ch. 8).  Each round solves
W_s(x_i) - W(x_i) = s_i E on 5 reference samples x_i with alternating
signs s_i, by Newton on the 5 x 5 system, and then exchanges the
reference for the 5 alternating extrema of the new residual
(alternation_set).  In q = e^{-kappa rho}, W_s is a quadratic, so the
first reference is the samples nearest Chebyshev's alternation points
of a quadratic in q, for the initial kappa.  A plain least-squares fit
on [0, 10] puts nearly all of its error budget near the origin and lands
~40% off in V0 with a worse peak residual, so the minimax objective is
what reproduces the reference parameters; for zero-residual (synthetic)
data the first solve already recovers the generating parameters to
machine precision.

kappa is optimized as log(kappa), so the returned inverse-range is
positive by construction regardless of the initial sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bic_potential import QUARTER_BETA, PotentialTable

__all__ = [
    "MorseParams",
    "FitConfig",
    "FitReport",
    "REFERENCE_MORSE",
    "morse_w",
    "fit",
    "alternation_set",
]

_MAX_STEPS = 60  # Newton steps per reference solve
_STEP_TOL = 1e-10  # a step that moves theta less than this ends the solve
_ZERO_RESIDUAL = 1e-12


@dataclass(frozen=True)
class MorseParams:
    """Surrogate parameters: well depth G (< 0 when attractive), offset V0,
    inverse-range kappa > 0, and shift b (expected negative)."""

    G: float
    V0: float
    kappa: float
    b: float

    def __post_init__(self) -> None:
        vals = (self.G, self.V0, self.kappa, self.b)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("MorseParams fields must be finite")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")


#: Reference surrogate parameters reproduced by the acceptance fit and used
#: as CLI defaults for the analytic stage.
REFERENCE_MORSE = MorseParams(G=-1.8300, V0=0.09805, kappa=0.58520, b=-0.45720)


@dataclass(frozen=True)
class FitConfig:
    """Fit window and iteration controls.

    ``fit`` consumes whatever samples the supplied table holds inside the
    window.  ``max_iters`` caps the reference solves and ``step_tol`` is the
    relative ripple spread, (max |r| - min |r| on the 5 reference
    samples) / max |r|, below which the fit is declared converged.

    The tested domain is windows that start near the origin.  A window
    with rho_min = 2 that reaches rho_max >= 8 lies outside it: there the
    level solve drives G and V0 off together, nearly cancelling, and
    ``fit`` raises RuntimeError (``error:computation-failed:`` on the CLI).
    """

    rho_min: float = 0.0
    rho_max: float = 10.0
    max_iters: int = 120
    step_tol: float = 5e-5
    init: MorseParams = field(default_factory=lambda: MorseParams(-2.0, 0.0, 0.5, -0.5))

    def __post_init__(self) -> None:
        if not (0.0 <= self.rho_min < self.rho_max):
            raise ValueError("need 0 <= rho_min < rho_max")
        if self.max_iters < 1:
            raise ValueError("need max_iters >= 1")
        if not self.step_tol > 0.0:  # also rejects NaN
            raise ValueError("need step_tol > 0")


@dataclass(frozen=True)
class FitReport:
    """Fit outcome; ``iterations`` counts reference solves, the first
    (on Chebyshev's reference) included."""

    params: MorseParams
    rms_residual: float
    max_abs_residual: float
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        if not (self.max_abs_residual >= self.rms_residual >= 0.0):
            raise ValueError("need max_abs_residual >= rms_residual >= 0")


def _w_s(G, V0, gap):
    """W_s in terms of gap = 1 - e^{-kappa (rho - b)}."""
    return -(G * gap ** 2 + V0 + QUARTER_BETA)


def morse_w(p: MorseParams, rho):
    """Evaluate W_s at scalar or array rho."""
    r = np.asarray(rho, dtype=float)
    out = _w_s(p.G, p.V0, 1.0 - np.exp(-p.kappa * (r - p.b)))
    if np.ndim(rho) == 0:
        return float(out)
    return out


def _theta_to_params(theta: np.ndarray) -> MorseParams:
    return MorseParams(G=float(theta[0]), V0=float(theta[1]),
                       kappa=float(np.exp(theta[2])), b=float(theta[3]))


def _model(theta: np.ndarray, rho: np.ndarray):
    """W_s at rho and its Jacobian in theta = (G, V0, log kappa, b).

    kappa is exp'd by numpy, so an overflowing step gives inf, not an error.
    """
    G, V0, log_kappa, b = theta
    kappa = np.exp(log_kappa)
    shifted = rho - b
    e = np.exp(-kappa * shifted)
    gap = 1.0 - e
    slope = 2.0 * G * kappa * gap * e  # dW_s/db; dW_s/dlog(kappa) = -slope (rho - b)
    return _w_s(G, V0, gap), np.column_stack(
        (-gap * gap, np.full(rho.size, -1.0), -slope * shifted, slope))


def _qr_step(a, r, theta):
    """The Newton step -a^{-1} r for a square a = Q R, as -R^{-1} Q^T r.

    Raises RuntimeError when a is non-finite, or singular to rounding (G
    or kappa at or near zero, say), naming the parameters where the rank
    was lost.
    """
    if not np.all(np.isfinite(a)):
        raise RuntimeError("non-finite Jacobian in surrogate fit")
    q, upper = np.linalg.qr(a)
    # a pivot at or below rank_tol times the largest is rounding (numpy's
    # matrix_rank tolerance), or pivots so small that the step overflows
    rank_tol = a.shape[0] * np.finfo(float).eps
    pivots = np.abs(np.diag(upper)).tolist()
    if not (min(pivots) > rank_tol * max(pivots)
            and np.all(np.isfinite(step := np.linalg.solve(upper, -(q.T @ r))))):
        G, V0, log_kappa, b = theta
        raise RuntimeError(
            f"singular Jacobian at G = {G:.6g}, V0 = {V0:.6g}, "
            f"kappa = {np.exp(log_kappa):.6g}, b = {b:.6g}: "
            f"the surrogate model is degenerate there")
    return step


# overflow is handled, not warned of: a non-finite Jacobian raises
@np.errstate(over="ignore", invalid="ignore")
def _level_solve(theta, rho, data, signs):
    """Newton on W_s(rho_i; theta) - data_i = signs_i E at the reference.

    The 5 x 5 system's columns are _model's Jacobian and -signs; E starts
    at the mean of signs_i (W_s - data)_i.  Returns theta once a step moves
    it and E by less than _STEP_TOL, which leaves both at rounding.
    """
    w, jac = _model(theta, rho)
    level = float(np.mean(signs * (w - data)))
    for _ in range(_MAX_STEPS):
        step = _qr_step(np.column_stack((jac, -signs)),
                        w - data - signs * level, theta)
        theta = theta + step[:-1]
        level += float(step[-1])
        w, jac = _model(theta, rho)
        if float(np.max(np.abs(step))) < _STEP_TOL:
            break
    return theta


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

    Runs Remez's exchange from Chebyshev's reference (see module
    docstring): the converged flag reports whether the residual vanished
    to rounding, or its relative ripple spread dropped below
    ``cfg.step_tol``, within ``cfg.max_iters`` reference solves.  Raises
    RuntimeError for a singular 5 x 5 system, and for a residual with
    fewer than 5 sign runs.
    """
    grid = table.rho_grid
    if grid[0] > cfg.rho_min or grid[-1] < cfg.rho_max:
        raise ValueError("table does not cover the configured fit window")
    mask = (grid >= cfg.rho_min) & (grid <= cfg.rho_max)
    rho = grid[mask]
    w_data = table.values[mask]
    if rho.size < 8:
        raise ValueError("fewer than 8 table samples inside the fit window")

    p = cfg.init
    theta = np.array([p.G, p.V0, math.log(p.kappa), p.b])
    # the 5 alternation points of a quadratic in q = e^{-kappa rho}, from
    # q(rho[0]) (c = 1) to q(rho[-1]) (c = 0); a vanishing e^{-kappa L}
    # puts the last at infinity, which the clip takes to rho[-1]
    j = np.arange(5)
    c = 0.5 + 0.5 * np.cos(np.pi * j / 4)
    with np.errstate(divide="ignore", over="ignore"):
        nodes = rho[0] - np.log(c + (1.0 - c) * math.exp(
            -p.kappa * (rho[-1] - rho[0]))) / p.kappa
    ref = np.abs(rho[:, None] - np.minimum(nodes, rho[-1])).argmin(axis=0)
    # distinct and increasing, and still inside the window
    ref = np.minimum(np.maximum.accumulate(ref - j), rho.size - 5) + j
    signs = (-1.0) ** j
    solves = 0
    while True:
        theta = _level_solve(theta, rho[ref], w_data[ref], signs)
        solves += 1
        resid = _model(theta, rho)[0] - w_data
        peak = float(np.max(np.abs(resid)))
        converged = (peak < _ZERO_RESIDUAL
                     or peak - float(np.min(np.abs(resid[ref]))) < cfg.step_tol * peak)
        if converged or solves == cfg.max_iters:
            break
        ref = alternation_set(resid)
        signs = np.sign(resid[ref])

    return FitReport(params=_theta_to_params(theta),
                     rms_residual=float(np.sqrt(np.mean(resid ** 2))),
                     max_abs_residual=peak,
                     iterations=solves,
                     converged=converged)
