"""Morse-type surrogate potential and its fit to the exact screened shape.

The four-parameter surrogate

    W_s(rho) = -[G (1 - e^{-kappa (rho - b)})^2 + V0 + B(1/4,1/4)/4]

is exactly solvable downstream, so the library fits (G, V0, kappa, b) to
the screened Born-Infeld-Coulomb potential on a window of rho and hands
the result to the analytic solver.

Fitting strategy.  The objective actually minimized is an iteratively
reweighted least squares due to Lawson: each round solves a weighted
least-squares problem with a damped Gauss-Newton (Levenberg-Marquardt)
inner loop, then multiplies each sample weight by the magnitude of its
current residual and renormalizes.  The weighted iterates converge toward
the minimax (Chebyshev) fit of the window.  A plain unweighted
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

_JAC_REL_STEP = 1e-6
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


def morse_w(p: MorseParams, rho):
    """Evaluate W_s at scalar or array rho."""
    r = np.asarray(rho, dtype=float)
    out = -(p.G * (1.0 - np.exp(-p.kappa * (r - p.b))) ** 2 + p.V0 + QUARTER_BETA)
    if np.ndim(rho) == 0:
        return float(out)
    return out


def _theta_to_params(theta: np.ndarray) -> MorseParams:
    return MorseParams(G=float(theta[0]), V0=float(theta[1]),
                       kappa=float(math.exp(theta[2])), b=float(theta[3]))


def _params_to_theta(p: MorseParams) -> np.ndarray:
    return np.array([p.G, p.V0, math.log(p.kappa), p.b], dtype=float)


def _lm_minimize(resid_fn, theta0, max_steps=60, inner_tol=1e-13):
    """Damped least squares on resid_fn; returns (theta, ssr_trace).

    The trace holds the objective after every *accepted* step, so it is
    non-increasing by construction; a candidate step is retried with a
    larger damping factor until it does not increase the objective.
    Raises RuntimeError when the normal equations are singular (a
    degenerate surrogate, e.g. kappa underflowed to zero range).
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = resid_fn(theta)
    cost = float(r @ r)
    trace = [cost]
    lam = 1e-3
    for _ in range(max_steps):
        jac = np.empty((r.size, theta.size))
        for j in range(theta.size):
            h = _JAC_REL_STEP * max(1.0, abs(theta[j]))
            bumped = theta.copy()
            bumped[j] += h
            jac[:, j] = (resid_fn(bumped) - r) / h
        normal = jac.T @ jac
        grad = jac.T @ r
        if not np.all(np.isfinite(normal)) or not np.all(np.isfinite(grad)):
            raise RuntimeError("non-finite Jacobian in surrogate fit")
        diag = np.diag(normal).copy()
        if np.any(diag <= 0.0):
            raise RuntimeError("singular Jacobian: surrogate model is degenerate "
                               "(kappa collapsed toward zero range?)")
        accepted = False
        for _attempt in range(40):
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = theta - step
            r_new = resid_fn(candidate)
            cost_new = float(r_new @ r_new)
            if math.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        lam = max(lam * 0.3, 1e-14)
        moved = float(np.max(np.abs(candidate - theta)))
        theta, r, cost = candidate, r_new, cost_new
        trace.append(cost)
        if moved < inner_tol:
            break
    return theta, trace


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

    theta = _params_to_theta(cfg.init)
    weights = np.full(rho.size, 1.0 / rho.size)

    def make_resid(wts):
        sqrt_w = np.sqrt(wts)

        def resid(th):
            p = _theta_to_params(th)
            return sqrt_w * (morse_w(p, rho) - w_data)

        return resid

    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_iters + 1):
        theta_new, _ = _lm_minimize(make_resid(weights), theta)
        resid = morse_w(_theta_to_params(theta_new), rho) - w_data
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

    params = _theta_to_params(theta)
    final = morse_w(params, rho) - w_data
    rms = float(np.sqrt(np.mean(final ** 2)))
    return FitReport(params=params,
                     rms_residual=rms,
                     max_abs_residual=float(np.max(np.abs(final))),
                     iterations=rounds,
                     converged=converged)
