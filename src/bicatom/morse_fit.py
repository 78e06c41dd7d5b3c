"""Morse-type surrogate potential and its fit to the exact screened shape.

The four-parameter surrogate

    W_s(rho) = -[G (1 - e^{-kappa (rho - b)})^2 + V0 + B(1/4,1/4)/4]

is exactly solvable downstream, so the library fits (G, V0, kappa, b) to
the screened Born-Infeld-Coulomb potential on a window of rho and hands
the result to the analytic solver.

Fitting strategy.  The objective actually minimized is an iteratively
reweighted least squares due to Lawson: each round solves a weighted
least-squares problem by Gauss-Newton steps on the model's closed-form
Jacobian, each step solved by QR, then multiplies each sample weight by
the magnitude of its current residual and renormalizes.  The weighted
iterates converge toward the minimax (Chebyshev) fit of the window.  A plain unweighted
least-squares fit of this model on [0, 10] puts nearly all of its error
budget near the origin and lands ~40% off in V0 with a worse peak
residual, so the reweighted objective is what actually reproduces the
reference parameters; for zero-residual (synthetic) data both objectives
agree and the fit recovers the generating parameters to machine
precision.

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
]

_MAX_STEPS = 60  # Gauss-Newton steps per reweighting round
_STEP_TOL = 1e-10  # a step that moves theta less than this ends the round
_COST_RESOLUTION = 1e-13  # relative change in cost whose sign rounding decides
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
    window.  ``max_iters`` caps the reweighting rounds and ``step_tol`` is
    the parameter-step norm below which the fit is declared converged.
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
    """Fit outcome; ``iterations`` counts reweighting rounds."""

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


# overflow is handled, not warned of: a cost fails descent, a Jacobian raises
@np.errstate(over="ignore", invalid="ignore")
def _gauss_newton(theta, rho, data, sqrt_w):
    """Minimize |sqrt_w (W_s(rho; theta) - data)|^2; returns theta and W_s there.

    Each step is -R^{-1} Q^T r with sqrt_w J = Q R: QR keeps the condition
    number of J, which the normal equations would square.  A step is halved
    until the weighted cost does not increase (theta is returned if it drops
    below _STEP_TOL first); but where the predicted reduction |Q^T r|^2 is
    below _COST_RESOLUTION times the cost, the full step is taken unchecked.
    Raises RuntimeError when the Jacobian is non-finite, or rank-deficient
    to rounding (G or kappa at or near zero, say), naming the parameters
    where the rank was lost.
    """
    w, jac = _model(theta, rho)
    r = sqrt_w * (w - data)
    cost = float(r @ r)
    # a pivot at or below this times the largest is rounding (numpy's
    # matrix_rank tolerance)
    rank_tol = rho.size * np.finfo(float).eps
    for _ in range(_MAX_STEPS):
        a = sqrt_w[:, None] * jac
        if not np.all(np.isfinite(a)):
            raise RuntimeError("non-finite Jacobian in surrogate fit")
        q, upper = np.linalg.qr(a)
        qtr = q.T @ r
        # a pivot at rounding level, or pivots so small that the step overflows
        pivots = np.abs(np.diag(upper)).tolist()
        if not (min(pivots) > rank_tol * max(pivots)
                and np.all(np.isfinite(step := np.linalg.solve(upper, -qtr)))):
            G, V0, log_kappa, b = theta
            raise RuntimeError(
                f"singular Jacobian at G = {G:.6g}, V0 = {V0:.6g}, "
                f"kappa = {np.exp(log_kappa):.6g}, b = {b:.6g}: "
                f"the surrogate model is degenerate there")
        unchecked = float(qtr @ qtr) < _COST_RESOLUTION * cost
        while True:
            candidate = theta + step
            moved = float(np.max(np.abs(candidate - theta)))
            w_new, jac_new = _model(candidate, rho)
            r_new = sqrt_w * (w_new - data)
            cost_new = float(r_new @ r_new)
            if unchecked or cost_new <= cost:
                break
            if moved < _STEP_TOL:
                return theta, w
            step = 0.5 * step
        theta, w, jac, r, cost = candidate, w_new, jac_new, r_new, cost_new
        if moved < _STEP_TOL:
            break
    return theta, w


def fit(table: PotentialTable, cfg: FitConfig = FitConfig()) -> FitReport:
    """Fit the surrogate to a potential table over the config window.

    Runs Lawson-reweighted least squares (see module docstring): the
    converged flag reports whether the between-round parameter step
    dropped below ``cfg.step_tol`` within ``cfg.max_iters`` rounds.
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
    weights = np.full(rho.size, 1.0 / rho.size)
    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_iters + 1):
        theta_new, w_fit = _gauss_newton(theta, rho, w_data, np.sqrt(weights))
        resid = w_fit - w_data
        abs_resid = np.abs(resid)
        step = float(np.max(np.abs(theta_new - theta)))
        theta = theta_new
        if float(abs_resid.max()) < _ZERO_RESIDUAL:
            converged = True
            break
        weights = weights * abs_resid
        total = float(weights.sum())
        if total <= 0.0:
            converged = True
            break
        weights = weights / total
        if step < cfg.step_tol:
            converged = True
            break

    return FitReport(params=_theta_to_params(theta),
                     rms_residual=float(np.sqrt(np.mean(resid ** 2))),
                     max_abs_residual=float(abs_resid.max()),
                     iterations=rounds,
                     converged=converged)
