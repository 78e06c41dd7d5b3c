"""Independent eigenvalue oracle: Numerov shooting for the radial problem.

Solves -1/2 u'' + alpha_beta W(rho) u = lambda u on [0, rho_max] with
u(0) = 0, u -> 0 at infinity, entirely without special functions, as a
cross-check on the closed-form Whittaker route.  The reported energy is
eps_over_alpha2 = lambda / alpha_beta^2.

The recurrence integrates u'' = f u with f = 2 (alpha_beta W - lambda)
using Numerov's O(h^4) scheme from u(0) = 0, u(h) = h (the s-state grows
linearly at the origin; W(0) itself is never used, which also admits the
singular pure-Coulomb test potential) and with u(rho_max) = 0.  The
eigenvalue is found by Cooley's matching-point search (J. W. Cooley,
Math. Comp. 15, 363 (1961)): each sweep propagates out to the outermost
classical turning point and in from rho_max, glues the halves there and
corrects lambda by the Rayleigh quotient of the glued solution.  A bracket
on lambda, narrowed by each sweep's node count and the sign of its
correction, catches the steps that leave it, so the search finds the
lowest eigenvalue regardless of how many bound states exist.

Each propagation is blocked numpy work with no per-point Python loop:
two basis solutions advance through every block of the grid at once, in
summed form, and a short pass over the blocks chains them (see
_propagate).  A grid so coarse that Numerov's 1 - h^2 f/12 reaches 0,
or that puts the outermost turning point of the ground state fewer than
_MIN_ALLOWED_STEPS steps from the origin, raises RuntimeError instead of
returning a wrong number.

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

# the search stops once the correction or the eigenvalue bracket is this small
_LAMBDA_TOL = 1e-10
# least edge decay kappa*rho_max at which the box no longer moves lambda
_MIN_EDGE_DECAY = 15.0
# sweeps one ground_state may spend
_MAX_SWEEPS = 100
# least number of steps from the origin to the outermost classical turning
# point: below it h does not resolve the state (Coulomb at h = 1e-3 is off
# by 1.3e-4 in eps/alpha^2 at 100 steps, by 0.021 at 6)
_MIN_ALLOWED_STEPS = 100
# no basis state of a propagation block grows past exp(this) = 1e100
_LOG_BLOCK_GROWTH = 100.0 * math.log(10.0)


@dataclass(frozen=True)
class RadialProblem:
    """Potential shape, coupling, and grid for one radial eigenproblem.

    ``potential`` maps an array of rho to the array of W(rho); a callable
    that does not return an array of the grid's shape raises ValueError
    when the grid is tabulated.  Its value at rho = 0 is never evaluated,
    so an integrable origin singularity (e.g. pure Coulomb) is fine.  The
    grid rho_max/h is capped at 1e6 points, checked before anything is
    allocated.
    """

    potential: Callable[[np.ndarray], np.ndarray]
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
    """Converged eigenvalue; ``lam`` is the dimensionless lambda.

    ``iterations`` counts propagations: the matched sweeps of the search,
    each one pass across the grid.
    """

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
    w = np.asarray(p.potential(rho), dtype=float)
    if w.shape != rho.shape:
        raise ValueError(
            f"potential must return an array of shape {rho.shape}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("potential must be finite on (0, rho_max]")
    return np.concatenate(([0.0], w))


def _t_grid(w: np.ndarray, alpha_beta: float, h: float, lam: float) -> np.ndarray:
    """Numerov's t_i = f_i h^2 / 12 with f = 2 (alpha_beta W - lam)."""
    return (2.0 * (alpha_beta * w - lam)) * (h * h / 12.0)


def _propagate(t: np.ndarray, h: float):
    """Numerov recurrence from u_0 = 0, u_1 = h along t_0, t_1, t_2, ...

    ``t`` is an array of at least two values, in the direction of
    propagation, with t_i < 1 from t_1 on (t_0 is never used).  Returns
    (u_prev, u, s, nodes): the last two values, s = sum of u_i^2 from u_1
    on, and the number of consecutive pairs from (u_1, u_2) on with
    u_{i-1} u_i <= 0.  u and s share one positive scale.

    The recurrence runs on v = (1 - t) u, v_{i+1} = g_i v_i - v_{i-1} with
    g = (2 + 10 t) / (1 - t), in summed form: the differences dv_{i+1} =
    v_{i+1} - v_i = dv_i + e_i v_i, e = g - 2 = 12 t / (1 - t), carry the
    solution, so that each step rounds relative to the small dv and not
    to v.  There is no per-point Python loop.  v_1, v_2, ... are cut into
    K blocks of L values (the last one padded), and two basis solutions,
    entering every block as (v, dv) = (1, 0) and (0, 1), advance through
    all blocks at once in L numpy steps.  One pass over the blocks then
    chains them: a block entered in state (x, y) holds x times the first
    basis plus y times the second and leaves in the (v, dv) of that sum;
    the carried state is rescaled by 1e-100 whenever x^2 + y^2 passes
    1e200.  Each block is rebuilt at its own scale, so a block far below
    the largest one underflows in s but keeps its signs in the node
    count.  L is about sqrt(N)/3, which balances the L numpy steps
    against the K-step pass, capped so that no basis state grows past
    1e100 in a block: max(|v|, |dv|) grows by at most 2 + |e_i| a step.
    """
    n = len(t) - 1  # the values v_1 ... v_n
    t = t[1:]
    t_lo, t_hi = float(t.min()), float(t.max())
    growth = 2.0 + max(-12.0 * t_lo / (1.0 - t_lo), 12.0 * t_hi / (1.0 - t_hi))
    steps = max(1, min(math.isqrt(n // 9) + 1, int(_LOG_BLOCK_GROWTH / math.log(growth))))
    blocks = -(-n // steps)
    # row k holds e, later 1 - t, at indices k*steps + 1 ... (k + 1)*steps
    coef = np.empty((blocks, steps))
    flat = coef.reshape(-1)
    np.divide(12.0 * t, 1.0 - t, out=flat[:n])
    flat[n:] = 0.0
    coef = coef.T
    # basis[i, 0, k], basis[i, 1, k]: v at row i of block k for the two
    # solutions entering it as (v, dv) = (1, 0) and (0, 1)
    basis = np.empty((steps, 2, blocks))
    basis[0, 0] = 1.0
    basis[0, 1] = 0.0
    dv = np.zeros((2, blocks))
    dv[1] = 1.0
    step = np.empty((2, blocks))
    for i in range(steps - 1):
        dv += np.multiply(coef[i], basis[i], out=step)
        np.add(basis[i], dv, out=basis[i + 1])
    dv += coef[-1] * basis[-1]
    leave_v = basis[-1] + dv

    x = y = (1.0 - float(t[0])) * h  # v_1 and v_1 - v_0
    xs, ys, rescales = [], [], []
    for p_v, q_v, p_dv, q_dv in zip(*leave_v.tolist(), *dv.tolist()):
        xs.append(x)
        ys.append(y)
        x, y = x * p_v + y * q_v, x * p_dv + y * q_dv
        if x * x + y * y > 1e200:
            x, y = x * 1e-100, y * 1e-100
            rescales.append(len(xs))
    x, y = np.array(xs), np.array(ys)
    size = np.maximum(np.abs(x), np.abs(y))
    # block k is entered after this many rescalings
    rescaled = np.searchsorted(rescales, np.arange(blocks), side="right")
    log_scale = rescaled * math.log(1e100) + np.log(size)

    v, other = basis[:, 0], basis[:, 1]
    v *= x / size
    other *= y / size
    v += other  # block k at scale exp(log_scale[k])
    last = n - 1 - (blocks - 1) * steps  # the row of v_n in the last block
    np.multiply(v[1:], v[:-1], out=other[1:])
    nodes = (np.count_nonzero(other[1:, :-1] <= 0.0)
             + np.count_nonzero(other[1:last + 1, -1] <= 0.0)
             + np.count_nonzero(v[0, 1:] * v[-1, :-1] <= 0.0))
    np.subtract(1.0, t, out=flat[:n])
    flat[n:] = 1.0
    u = np.divide(v, coef, out=v)
    u[last + 1:, -1] = 0.0
    scale = np.exp(log_scale - log_scale.max())
    s = float(np.einsum("ik,ik->k", u, u) @ (scale * scale))

    def value(j):
        k, i = divmod(j, steps)
        return float(u[i, k] * scale[k])

    return value(n - 2) if n > 1 else 0.0, value(n - 1), s, int(nodes)


def _turning_index(t: np.ndarray) -> int:
    """The outermost classical turning point: the last i in [1, n - 1] with t_i <= 0, else 1."""
    allowed = t[1:-1] <= 0.0
    return len(allowed) - int(np.argmax(allowed[::-1])) if allowed.any() else 1


def _check_step(w: np.ndarray, alpha_beta: float, h: float, lam: float) -> None:
    """Raise RuntimeError unless t = h^2 f/12 < 1 on the grid w[1:] at lam.

    Numerov divides by 1 - t; t grows with W, so it peaks where W does.
    """
    t_max = float(_t_grid(float(np.max(w[1:])), alpha_beta, h, lam))
    if t_max >= 1.0:
        raise RuntimeError(
            f"h = {h:g} is too coarse at alpha_beta = {alpha_beta:g}: h^2 f/12 reaches "
            f"{t_max:.3g} at lambda = {lam:g} (Numerov needs < 1)")


def _sweep(w: np.ndarray, alpha_beta: float, h: float, lam: float):
    """One matched sweep at trial eigenvalue lam; returns (nodes, dlam).

    Propagates out from the origin and in from u(rho_max) = 0 to the
    matching index m, the outermost classical turning point clamped to
    [1, n - 1], so that neither half runs into the forbidden region where
    the wanted solution decays and rounding errors grow.  With both
    halves scaled to u_m = 1, nodes counts the sign changes of the glued
    solution (outward on (0, m], inward on [m, rho_max)), and dlam is
    Cooley's correction -u_m R_m / (2 h^2 sum u^2), R_m being the Numerov
    residual of the glued solution at m; dlam is 0 when there are nodes.
    """
    t = _t_grid(w, alpha_beta, h, lam)
    m = _turning_index(t)
    out_prev, out, s_out, nodes_out = _propagate(t[:m + 1], h)
    in_prev, in_m, s_in, nodes_in = _propagate(t[m:][::-1], h)
    nodes = nodes_out + nodes_in
    if nodes:
        return nodes, 0.0
    t_before, t_m, t_after = t[m - 1:m + 2].tolist()
    residual = ((1.0 - t_before) * out_prev / out - (2.0 + 10.0 * t_m)
                + (1.0 - t_after) * in_prev / in_m)
    norm = s_out / (out * out) + s_in / (in_m * in_m) - 1.0
    return 0, -residual / (2.0 * h * h * norm)


def shoot(p: RadialProblem, lam: float):
    """Propagate once at trial eigenvalue lam < 0.

    Returns (endpoint_value, node_count): u at rho_max (up to a positive
    renormalization scale) and the number of sign changes of u on
    (0, rho_max].  Raises RuntimeError when h is too coarse for Numerov
    at lam (h^2 f / 12 reaches 1 on the grid).
    """
    if not (lam < 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be a negative real, got {lam!r}")
    w = _w_grid(p)
    _check_step(w, p.alpha_beta, p.h, lam)
    _, end, _, nodes = _propagate(_t_grid(w, p.alpha_beta, p.h, lam), p.h)
    return end, nodes


def ground_state(p: RadialProblem) -> OracleResult:
    """Lowest eigenvalue by Cooley's matching-point search, to 1e-10.

    The search starts at min over rho of 1/(2 rho^2) + alpha_beta W(rho),
    exact for hydrogen, inside the bracket (alpha_beta * min W, ~0-).
    Each sweep (see _sweep) narrows the bracket: one with nodes or a
    downward correction lies above the ground state, any other below it.
    The next trial is lam + dlam when the sweep had no nodes and that
    lies inside the bracket; otherwise it is the bracket's midpoint, or
    its top while no sweep has yet been above, and a sweep there that
    is not above means there is no bound state.  The search stops once
    |dlam| or the bracket falls below _LAMBDA_TOL (or to the resolution
    of a double); the node count of the final matched solution must be
    0, and ``iterations`` reports the number of sweeps.

    Raises RuntimeError when there is no bound state, when h is too coarse
    for Numerov (h^2 f / 12 reaches 1 at the potential floor), after
    _MAX_SWEEPS sweeps, when h does not resolve the state (its outermost
    classical turning point lies fewer than _MIN_ALLOWED_STEPS steps from
    the origin), or when the box truncates the state: u decays as
    exp(-kappa rho) at the edge, kappa = sqrt(2 (alpha_beta W(rho_max) -
    lambda)), and kappa rho_max must reach 15.
    """
    w = _w_grid(p)
    ab, h = p.alpha_beta, p.h
    w_min = float(np.min(w[1:]))
    if w_min >= 0.0:
        raise RuntimeError("potential is nowhere attractive: no bound state")
    lam_lo = ab * w_min
    lam_hi = -1e-9 * max(1.0, abs(lam_lo))
    _check_step(w, ab, h, lam_lo)
    lo, hi, bound = lam_lo, lam_hi, False
    rho = h * np.arange(1, len(w))
    lam = min(hi, float(np.min(ab * w[1:] + 0.5 / rho ** 2)))
    for sweeps in range(1, _MAX_SWEEPS + 1):
        nodes, dlam = _sweep(w, ab, h, lam)
        if nodes == 0 and abs(dlam) <= _LAMBDA_TOL:
            lam += dlam
            break
        if nodes or dlam < 0.0:
            hi, bound = lam, True
        elif lam == lam_hi:
            raise RuntimeError(
                f"no bound state found in ({lam_lo:g}, {lam_hi:g}) "
                f"at alpha_beta = {ab:g}")
        else:
            lo = lam
        if hi - lo <= max(_LAMBDA_TOL, 2.0 * math.ulp(lo)):
            break
        step = lam + dlam
        if nodes == 0 and lo < step < hi:
            lam = step
        else:
            lam = 0.5 * (lo + hi) if bound else lam_hi
    else:
        raise RuntimeError(f"no convergence in {_MAX_SWEEPS} sweeps")
    if nodes:
        raise RuntimeError(
            f"the matched solution at lambda = {lam:g} has {nodes} nodes, "
            f"so it is not the ground state")
    m = _turning_index(_t_grid(w, ab, h, lam))
    if m < _MIN_ALLOWED_STEPS:
        raise RuntimeError(
            f"h = {h:g} does not resolve the state at lambda = {lam:g}: its "
            f"outermost classical turning point is {m} steps from the origin, "
            f"fewer than {_MIN_ALLOWED_STEPS}; decrease h")
    edge = 2.0 * (ab * float(w[-1]) - lam)
    decay = math.sqrt(max(edge, 0.0)) * p.rho_max
    if decay < _MIN_EDGE_DECAY:
        raise RuntimeError(
            f"rho_max = {p.rho_max:g} truncates the state at lambda = {lam:g}: "
            f"edge decay kappa*rho_max = {decay:.4g} < {_MIN_EDGE_DECAY:g}; "
            f"increase rho_max")
    return OracleResult(
        lam=lam,
        eps_over_alpha2=lam / ab ** 2,
        node_count=nodes,
        iterations=sweeps,
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


def bic_interpolator(rho_max: float = 40.0):
    """Cached not-a-knot cubic spline of the exact screened potential.

    Shooting grids need ~10^4 potential values per propagation; a spline
    of the exact table on max(2000, round(50 rho_max)) points (a knot
    spacing of at most 0.02) is accurate to well below the eigenvalue
    tolerances and tabulates Z only once per rho_max.  The cache is keyed
    on float(rho_max), however the call is written, and keeps the four
    most recent values.  The spline is in-house (same end conditions as
    scipy's CubicSpline default) and takes a scalar or an array of rho.
    """
    return _bic_spline(float(rho_max))


@lru_cache(maxsize=4)
def _bic_spline(rho_max: float) -> _NotAKnotSpline:
    n = max(2000, int(round(50.0 * rho_max)))
    table = tabulate(PotentialKind.EXACT_BIC, 0.0, rho_max, n)
    return _NotAKnotSpline(table.rho_grid, table.values)
