"""Independent eigenvalue oracle: Numerov shooting for the radial problem.

Solves -1/2 u'' + alpha_beta W(rho) u = lambda u on [0, rho_max] with
u(0) = 0, u -> 0 at infinity, entirely without special functions, as a
cross-check on the closed-form Whittaker route.  The reported energy is
eps_over_alpha2 = lambda / alpha_beta^2.

The recurrence integrates u'' = f u with f = 2 (alpha_beta W - lambda)
using Numerov's O(h^4) scheme from u(0) = 0, u(h) = h (the s-state grows
linearly at the origin; W(0) itself is never used, which also admits the
singular pure-Coulomb test potential).  The eigenvalue is bisected on the
predicate "interior nodes appeared or the endpoint sign flipped", which
finds the lowest eigenvalue regardless of how many bound states exist.

The exact screened potential enters through bic_interpolator, an
in-house not-a-knot cubic spline of its tabulated values (numpy only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bic_potential import _MAX_POINTS, PotentialKind, tabulate

__all__ = [
    "RadialProblem",
    "OracleResult",
    "shoot",
    "ground_state",
    "bic_interpolator",
]

_RENORM_LIMIT = 1e100
_RENORM_SCALE = 1e-100


@dataclass(frozen=True)
class RadialProblem:
    """Potential shape, coupling, and grid for one radial eigenproblem.

    ``potential`` maps rho to W(rho) and may be vectorized over numpy
    arrays (scalar-only callables are accepted too).  Its value at
    rho = 0 is never evaluated, so an integrable origin singularity
    (e.g. pure Coulomb) is fine.  The grid rho_max/h is capped at 1e6
    points, checked before anything is allocated.
    """

    potential: Callable[[float], float]
    alpha_beta: float
    rho_max: float = 40.0
    h: float = 1e-3

    def __post_init__(self) -> None:
        if not callable(self.potential):
            raise ValueError("potential must be callable")
        if not (self.alpha_beta > 0.0 and math.isfinite(self.alpha_beta)):
            raise ValueError(f"alpha_beta must be positive, got {self.alpha_beta!r}")
        if not (self.rho_max >= 20.0 and math.isfinite(self.rho_max)):
            raise ValueError(f"rho_max must be >= 20, got {self.rho_max!r}")
        if not (0.0 < self.h <= 1e-2):
            raise ValueError(f"h must be in (0, 1e-2], got {self.h!r}")
        if self.rho_max / self.h > _MAX_POINTS:
            raise ValueError(
                f"grid rho_max/h = {self.rho_max / self.h:.3g} points exceeds {_MAX_POINTS}")


@dataclass(frozen=True)
class OracleResult:
    """Converged eigenvalue; ``lam`` is the dimensionless lambda."""

    lam: float
    eps_over_alpha2: float
    node_count: int
    iterations: int
    grid_points: int

    def __post_init__(self) -> None:
        if self.node_count < 0 or self.grid_points < 2:
            raise ValueError("node_count must be >= 0 and grid_points >= 2")


def _w_grid(p: RadialProblem) -> np.ndarray:
    """Tabulate W on the shooting grid; index 0 is a never-used placeholder."""
    n = int(round(p.rho_max / p.h))
    rho = np.arange(1, n + 1) * p.h
    try:
        w = np.asarray(p.potential(rho), dtype=float)
        if w.shape != rho.shape:
            raise TypeError
    except (TypeError, ValueError):
        w = np.array([float(p.potential(float(r))) for r in rho])
    if not np.all(np.isfinite(w)):
        raise ValueError("potential must be finite on (0, rho_max]")
    return np.concatenate(([0.0], w))


def _shoot(w: np.ndarray, alpha_beta: float, h: float, lam: float):
    """Numerov propagation; returns (endpoint, interior node count).

    The endpoint value is meaningful up to a positive scale factor: the
    solution is renormalized whenever |u| exceeds 1e100.
    """
    t = ((2.0 * (alpha_beta * w - lam)) * (h * h / 12.0)).tolist()
    n = len(t) - 1
    u_prev = 0.0
    u = h
    nodes = 0
    last_sign = 1 if u > 0.0 else -1
    for i in range(1, n):
        u_next = ((2.0 + 10.0 * t[i]) * u - (1.0 - t[i - 1]) * u_prev) / (1.0 - t[i + 1])
        u_prev, u = u, u_next
        if u != 0.0:
            sign = 1 if u > 0.0 else -1
            if i + 1 < n and sign != last_sign:
                nodes += 1
            last_sign = sign
        if u > _RENORM_LIMIT or u < -_RENORM_LIMIT:
            u *= _RENORM_SCALE
            u_prev *= _RENORM_SCALE
    return u, nodes


def shoot(p: RadialProblem, lam: float):
    """Propagate once at trial eigenvalue lam < 0.

    Returns (endpoint_value, node_count): u at rho_max (up to a positive
    renormalization scale) and the number of interior sign changes.
    """
    if not (lam < 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be a negative real, got {lam!r}")
    return _shoot(_w_grid(p), p.alpha_beta, p.h, lam)


def ground_state(p: RadialProblem, tol: float = 1e-10) -> OracleResult:
    """Bisect for the lowest eigenvalue; |Delta lambda| <= tol at return.

    The bracket starts at (alpha_beta * min W, ~0-) and bisects on the
    predicate "nodes appeared or the endpoint sign flipped relative to
    the deep end"; the returned lambda is the node-free side of the final
    bracket, so node_count is 0 by construction.  Raises RuntimeError
    when no bound state exists in the bracket.
    """
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"tol must be in (0, 1e-6], got {tol!r}")
    w = _w_grid(p)
    w_min = float(np.min(w[1:]))
    if w_min >= 0.0:
        raise RuntimeError("potential is nowhere attractive: no bound state")
    lam_lo = p.alpha_beta * w_min
    lam_hi = -1e-9 * max(1.0, abs(lam_lo))
    end_lo, nodes_lo = _shoot(w, p.alpha_beta, p.h, lam_lo)
    sign_lo = math.copysign(1.0, end_lo)

    def above_ground(lam: float) -> bool:
        end, nodes = _shoot(w, p.alpha_beta, p.h, lam)
        return nodes >= 1 or math.copysign(1.0, end) != sign_lo

    if nodes_lo >= 1:
        raise RuntimeError("potential floor estimate failed to bracket from below")
    if not above_ground(lam_hi):
        raise RuntimeError(
            f"no bound state found in ({lam_lo:g}, {lam_hi:g}) "
            f"at alpha_beta = {p.alpha_beta:g}")
    iterations = 0
    lo, hi = lam_lo, lam_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above_ground(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    _, nodes = _shoot(w, p.alpha_beta, p.h, lo)
    return OracleResult(
        lam=lo,
        eps_over_alpha2=lo / p.alpha_beta ** 2,
        node_count=nodes,
        iterations=iterations,
        grid_points=len(w),
    )


class _NotAKnotSpline:
    """Not-a-knot cubic spline through (x, y), x strictly increasing.

    The end conditions of scipy's CubicSpline default (C. de Boor, A
    Practical Guide to Splines, 1978, ch. IV): the knot slopes come from
    one O(n) tridiagonal solve, and each interval stores its cubic in
    powers of (t - x_k).  Calls take a scalar or an array; points
    outside [x_0, x_{n-1}] are extrapolated with the end cubics.
    """

    def __init__(self, x, y) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if n < 4:
            raise ValueError(f"a not-a-knot spline needs n >= 4 points, got {n}")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
        lower = np.zeros(n)
        diag = np.zeros(n)
        upper = np.zeros(n)
        rhs = np.zeros(n)
        lower[1:-1] = dx[1:]
        diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
        upper[1:-1] = dx[:-1]
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # not-a-knot: the third derivative is continuous at x_1 and x_{n-2}
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        diag[-1], lower[-1] = dx[-2], d
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = _solve_tridiagonal(lower, diag, upper, rhs)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self._x = x
        self._coef = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        k = np.clip(np.searchsorted(self._x, rho, side="right") - 1, 0, len(self._x) - 2)
        u = rho - self._x[k]
        c3, c2, c1, c0 = (c[k] for c in self._coef)
        return ((c3 * u + c2) * u + c1) * u + c0


def _solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas algorithm: row i reads lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1]."""
    b = diag.tolist()
    d = rhs.tolist()
    a = lower.tolist()
    c = upper.tolist()
    n = len(b)
    for i in range(1, n):
        w = a[i] / b[i - 1]
        b[i] -= w * c[i - 1]
        d[i] -= w * d[i - 1]
    x = [0.0] * n
    x[-1] = d[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - c[i] * x[i + 1]) / b[i]
    return np.array(x)


@lru_cache(maxsize=None)
def bic_interpolator(rho_max: float = 40.0, n: int = 2000):
    """Cached not-a-knot cubic spline of the exact screened potential.

    Shooting grids need ~10^4 potential values per propagation; a
    2000-point spline of the quadrature-grade table is accurate to well
    below the eigenvalue tolerances and costs the quadrature only once.
    The spline is in-house (same end conditions as scipy's CubicSpline
    default) and takes a scalar or an array of rho.
    """
    table = tabulate(PotentialKind.EXACT_BIC, 0.0, rho_max, n)
    return _NotAKnotSpline(table.rho_grid, table.values)
