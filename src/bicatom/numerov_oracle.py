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
classical turning point and in from where the state has decayed below
rounding (see _sweep), glues the halves there and corrects lambda by the
Rayleigh quotient of the glued solution.  A bracket on lambda, narrowed
by each sweep's node count and the sign of its correction, catches the
steps that leave it, so the search finds the lowest of any number of
bound states; it refuses at once only a W nowhere below max(0,
W(rho_max)).  W enters only through f, so W + c has lambda + alpha_beta
c.  The search starts from the Ritz eigenvalue of a 20-function Laguerre
basis (see spectral) and converges in one sweep on the exact and Morse
potentials, in two on Coulomb, whose Numerov eigenvalue is 3e-7 high.

Each propagation is blocked numpy work with no per-point Python loop:
two basis solutions advance through every block of the grid at once, in
summed form, and a short pass over the blocks chains them (see
_propagate).  A grid so coarse that Numerov's 1 - h^2 f/12 reaches 0,
or that puts the outermost turning point of the ground state fewer than
_MIN_ALLOWED_STEPS steps from the origin, raises RuntimeError instead of
returning a wrong number.  Besides W, a ground state holds one array of
the grid's size, t = h^2 f/12, which _search owns and each sweep rewrites.

The exact screened potential enters through bic_interpolator, a cubic
Hermite interpolant of its values tabulated at 128 knots per unit rho,
whose knot slopes are local fourth-order differences (numpy only, no
linear solve), and which refuses points outside its table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bic_potential import _MAX_POINTS, tabulate
from .spectral import ritz_lowest

__all__ = [
    "RadialProblem",
    "OracleResult",
    "ground_state",
    "bic_interpolator",
]

# the search stops once the correction or the eigenvalue bracket is this small
_LAMBDA_TOL = 1e-10
# least edge decay kappa*rho_max at which the box no longer moves lambda
_MIN_EDGE_DECAY = 15.0
# sweeps one search may spend
_MAX_SWEEPS = 100
# least number of steps from the origin to the outermost classical turning
# point: below it h does not resolve the state (Coulomb at h = 1e-3 is off
# by 1.3e-4 in eps/alpha^2 at 100 steps, by 0.021 at 6)
_MIN_ALLOWED_STEPS = 100
# no basis state of a propagation block grows past exp(this) = 1e100
_LOG_BLOCK_GROWTH = 100.0 * math.log(10.0)
# the inward half starts where a lower bound on the WKB exponent S from the
# turning point, taken per _CUT_BLOCK points, reaches this: u = 0 there
# moves the glued solution by e^(-2S) < 6e-19 of u_m, below double rounding
_CUT_EXPONENT = 21.0
_CUT_BLOCK = 64


@dataclass(frozen=True)
class RadialProblem:
    """Potential shape, coupling, and grid for one radial eigenproblem.

    ``potential`` maps an array of rho to the array of W(rho); a callable
    that does not return an array of the grid's shape raises ValueError
    when the grid is tabulated.  It is called twice: on the grid rho_i =
    i h, i = 0 ... n, with rho_0 given as h, and then on the 60 points of
    the Ritz start, clamped into [h, rho_max].  Its value at rho = 0 is
    never evaluated, so an integrable origin singularity (e.g. pure
    Coulomb) is fine.  The grid rho_max/h is capped at 1e6 points, checked
    before anything is allocated.
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

    ``iterations`` counts the matched sweeps of the search; each sweep
    propagates out from the origin to the outermost classical turning
    point, and in to it from where the state has decayed below rounding
    (point 15 320 of 40 001 for the exact potential at alpha_beta =
    1.83297 and h = 1e-3), not from the grid's end.
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
    """W at rho_i = i h, i = 0 ... n, with rho_0 given as h: index 0 is a
    placeholder that nothing reads.  _search checks that W is finite."""
    n = int(round(p.rho_max / p.h))
    rho = np.arange(n + 1.0)
    rho *= p.h
    rho[0] = p.h
    w = np.asarray(p.potential(rho), dtype=float)
    if w.shape != rho.shape:
        raise ValueError(
            f"potential must return an array of shape {rho.shape}, got {w.shape}")
    return w


def _t_grid(w, alpha_beta: float, h: float, lam: float, out=None):
    """Numerov's t_i = f_i h^2 / 12 with f = 2 (alpha_beta W - lam), into ``out`` if given."""
    t = np.multiply(w, alpha_beta, out=out)
    t -= lam
    t *= 2.0 * (h * h / 12.0)  # rounds as 2 (alpha_beta W - lam) times h^2/12
    return t


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
    to v.  There is no per-point Python loop.  e, v and u share one
    grid-order buffer, cut into K blocks of L values (the last one padded),
    and two basis solutions, entering every block as (v, dv) = (1, 0) and
    (0, 1), advance through all blocks at once in L numpy steps.  One pass
    over the blocks then chains them: a block entered in state (x, y) holds
    x times the first basis plus y times the second and leaves in the (v,
    dv) of that sum; the carried state is rescaled by 1e-100 whenever x^2 +
    y^2 passes 1e200.  Each block is rebuilt at its own scale, so a block
    far below the largest one underflows in s but keeps its signs in the
    node count.  L is about sqrt(N)/3, which balances the L numpy steps
    against the K-step pass, capped so that no basis state grows past 1e100
    in a block: max(|v|, |dv|) grows by at most 2 + |e_i| a step.
    """
    n = len(t) - 1  # the values v_1 ... v_n
    t = t[1:]
    t_lo, t_hi = float(t.min()), float(t.max())
    growth = 2.0 + max(-12.0 * t_lo / (1.0 - t_lo), 12.0 * t_hi / (1.0 - t_hi))
    steps = max(1, min(math.isqrt(n // 9) + 1, int(_LOG_BLOCK_GROWTH / math.log(growth))))
    blocks = -(-n // steps)
    # e, then v, then u in grid order; coef is flat's (steps, blocks) view
    flat = np.empty(blocks * steps)
    coef = flat.reshape(blocks, steps).T
    np.divide(12.0 * t, 1.0 - t, out=flat[:n])
    flat[n:] = 0.0
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

    # v: block k at scale exp(log_scale[k]), over the spent e; a ufunc copies
    # an operand that is a strided view of memory it writes, as basis[:, 0] is
    basis *= np.array((x / size, y / size))
    np.add(basis[:, 0], basis[:, 1], out=coef)
    v = flat[:n]
    spare = basis.reshape(-1)  # scratch in the spent basis
    nodes = np.count_nonzero(np.multiply(v[1:], v[:-1], out=spare[:n - 1]) <= 0.0)
    np.divide(v, np.subtract(1.0, t, out=spare[:n]), out=v)  # u
    flat[n:] = 0.0
    u = flat.reshape(blocks, steps)
    scale = np.exp(log_scale - log_scale.max())
    s = float(np.einsum("ki,ki->k", u, u) @ (scale * scale))
    u_prev = float(flat[n - 2] * scale[(n - 2) // steps]) if n > 1 else 0.0
    return u_prev, float(flat[n - 1] * scale[-1]), s, int(nodes)


def _log_growth(t: np.ndarray) -> np.ndarray:
    """sqrt(12 t) rounded down: at most Numerov's ln mu = arccosh(1 + 6t/(1 - t)) a step."""
    return np.sqrt(12.0 * t) * (1.0 - 1e-15)


def _turning_index(t: np.ndarray) -> int:
    """The outermost classical turning point: the last i in [1, n - 1] with t_i <= 0, else 1."""
    allowed = t[1:-1] <= 0.0
    return len(allowed) - int(np.argmax(allowed[::-1])) if allowed.any() else 1


def _sweep(w: np.ndarray, alpha_beta: float, h: float, lam: float, t: np.ndarray):
    """One matched sweep at trial eigenvalue lam; returns (nodes, dlam, m).

    Writes Numerov's t = h^2 f/12 at lam into ``t``, an array of w's
    shape, and propagates out from the origin and in from u_c = 0 to the
    matching index m, the outermost classical turning point clamped to [1,
    n - 1], so that neither half runs into the forbidden region where the
    wanted solution decays and rounding errors grow.  Past m, t > 0 and the
    inward half grows monotonically; c is the first block end at which a
    lower bound on S = sum of ln mu_i from m, _CUT_BLOCK _log_growth(t) at
    each block's smallest t, reaches _CUT_EXPONENT, else n.  With both
    halves scaled to u_m = 1, nodes counts the sign changes of the glued
    solution (outward on (0, m], inward on [m, c)), and dlam is Cooley's
    correction -u_m R_m / (2 h^2 sum u^2), R_m being the Numerov residual
    of the glued solution at m; dlam is 0 when there are nodes.
    """
    _t_grid(w, alpha_beta, h, lam, t)
    m = _turning_index(t)
    tail = t[m + 1:-1]
    t_min = tail[:len(tail) - len(tail) % _CUT_BLOCK].reshape(-1, _CUT_BLOCK).min(axis=1)
    blocks = np.searchsorted(np.cumsum(_log_growth(t_min)), _CUT_EXPONENT / _CUT_BLOCK)
    c = min(m + 1 + (int(blocks) + 1) * _CUT_BLOCK, len(t) - 1)
    out_prev, out, s_out, nodes_out = _propagate(t[:m + 1], h)
    in_prev, in_m, s_in, nodes_in = _propagate(t[m:c + 1][::-1], h)
    nodes = nodes_out + nodes_in
    if nodes:
        return nodes, 0.0, m
    t_before, t_m, t_after = t[m - 1:m + 2].tolist()
    residual = ((1.0 - t_before) * out_prev / out - (2.0 + 10.0 * t_m)
                + (1.0 - t_after) * in_prev / in_m)
    norm = s_out / (out * out) + s_in / (in_m * in_m) - 1.0
    return 0, -residual / (2.0 * h * h * norm), m


def _search(w: np.ndarray, alpha_beta: float, h: float, lam: float):
    """Cooley's matching-point search on the grid w, started at lam.

    Returns (lam, nodes, sweeps, m): the last trial eigenvalue, the node
    count of its matched solution, the number of sweeps spent and the
    turning index of the last sweep.  The search runs inside the bracket
    (alpha_beta * min W, max(0, alpha_beta * W(rho_max))-) and starts at
    lam clamped into it, or at its floor when lam is not finite.  Each
    sweep (see _sweep) narrows the bracket: one with nodes or a downward
    correction lies above the ground state, any other below it.  The next
    trial is lam + dlam when the sweep had no nodes and that lies inside
    the bracket; otherwise it is the bracket's midpoint, or its top while
    no sweep has yet been above, and a sweep there that is not above means
    there is no bound state.  The search stops once |dlam| or the bracket
    falls below _LAMBDA_TOL (or to the resolution of a double).  Every
    sweep writes its t into one array of the grid's size.

    Raises ValueError when W is not finite on w[1:] (its min and max show
    it), and RuntimeError when W is nowhere below max(0, W(rho_max)), when h
    is too coarse for Numerov at the potential floor, when there is no bound
    state, or after _MAX_SWEEPS sweeps.  W + c moves lam by alpha_beta c.
    """
    w_min, w_max = float(np.min(w[1:])), float(np.max(w[1:]))
    if not (math.isfinite(w_min) and math.isfinite(w_max)):
        raise ValueError("potential must be finite on (0, rho_max]")
    if w_min >= max(0.0, float(w[-1])):
        raise RuntimeError("no bound state: W is nowhere below max(0, W(rho_max))")
    lam_lo = alpha_beta * w_min
    lam_hi = max(0.0, alpha_beta * float(w[-1])) - 1e-9 * max(1.0, abs(lam_lo))
    with np.errstate(over="ignore", invalid="ignore"):
        t_max = float(_t_grid(w_max, alpha_beta, h, lam_lo))
    if not t_max < 1.0:
        if math.isfinite(t_max):
            reach = f"reaches {t_max:.3g} at lambda = {lam_lo:g}"
        elif math.isfinite(lam_lo):
            reach = f"overflows at lambda = {lam_lo:g}"
        else:
            reach = f"overflows, as alpha_beta * min W does, with min W = {w_min:g}"
        raise RuntimeError(f"h = {h:g} is too coarse at alpha_beta = {alpha_beta:g}: "
                           f"h^2 f/12 {reach} (Numerov needs < 1)")
    t = np.empty_like(w)
    lo, hi, bound = lam_lo, lam_hi, False
    lam = min(hi, max(lo, lam)) if math.isfinite(lam) else lo
    for sweeps in range(1, _MAX_SWEEPS + 1):
        nodes, dlam, m = _sweep(w, alpha_beta, h, lam, t)
        if nodes == 0 and abs(dlam) <= _LAMBDA_TOL:
            return lam + dlam, nodes, sweeps, m
        if nodes or dlam < 0.0:
            hi, bound = lam, True
        elif lam == lam_hi:
            raise RuntimeError(
                f"no bound state found in ({lam_lo:g}, {lam_hi:g}) "
                f"at alpha_beta = {alpha_beta:g}")
        else:
            lo = lam
        if hi - lo <= max(_LAMBDA_TOL, 2.0 * math.ulp(lo)):
            return lam, nodes, sweeps, m
        step = lam + dlam
        if nodes == 0 and lo < step < hi:
            lam = step
        else:
            lam = 0.5 * (lo + hi) if bound else lam_hi
    raise RuntimeError(f"no convergence in {_MAX_SWEEPS} sweeps")


def ground_state(p: RadialProblem) -> OracleResult:
    """Lowest eigenvalue by Cooley's matching-point search, to 1e-10.

    The search (see _search) starts from spectral.ritz_lowest on the
    potential with rho clamped into [h, rho_max], so that the start reads
    W only where the search checks it.  The start is never the answer: a
    poor one costs sweeps, not accuracy, and a non-finite one leaves the
    search at the bracket's floor.  The node count of the final matched
    solution must be 0, and ``iterations`` reports the search's sweeps.
    The resolution check reads the turning index of the search's last sweep.

    Raises ValueError when W is not finite on the grid, and RuntimeError
    when W is nowhere below max(0, W(rho_max)) or binds no state, when h is
    too coarse for Numerov (h^2 f/12 reaches 1 at the potential floor),
    after _MAX_SWEEPS sweeps, when h does not resolve the state (its
    outermost classical turning point lies fewer than _MIN_ALLOWED_STEPS
    steps from the origin), or when the box truncates the state: u decays
    as exp(-kappa rho) at the edge, kappa = sqrt(2 (alpha_beta W(rho_max) -
    lambda)), and kappa rho_max must reach 15.  W + c has lambda +
    alpha_beta c.
    """
    w = _w_grid(p)
    ab, h = p.alpha_beta, p.h
    start = ritz_lowest(lambda rho: p.potential(np.clip(rho, h, p.rho_max)), ab)
    lam, nodes, sweeps, m = _search(w, ab, h, start)
    if nodes:
        raise RuntimeError(
            f"the matched solution at lambda = {lam:g} has {nodes} nodes, "
            f"so it is not the ground state")
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


# fourth-order one-sided slopes, in units of 1/dx, at the first and second
# of 5 consecutive knots; on the last 5 read backwards, at the last two
_END_STENCILS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0
# knots per unit rho: a power of two, so that floor(rho * 128) is a point's
# interval with no rounding
_KNOTS_PER_UNIT = 128
# points an interpolant evaluates at a time, so its scratch stays this size
_CHUNK = 8192


class _HermiteCubic:
    """Cubic Hermite interpolant through y_k on the knots x_k = k / 128.

    The knot slopes are fourth-order differences, local to 5 knots: the
    central stencil inside and one-sided stencils on the two knots at each
    end (B. Fornberg, Math. Comp. 51, 699 (1988)), so the interpolant is
    O(dx^4) accurate and needs no linear solve.  Interval k holds its cubic
    in s = 128 t - k, from 0 at x_k to 1 at x_{k+1}, and contains t when k =
    floor(128 t), which no rounding moves.  Row k of one (n - 1, 4) table
    holds that cubic's (c3, c2, c1, c0), so a point reads its four
    coefficients in one gather.  Calls take a scalar or an array, check the
    range once and fill one output array _CHUNK points at a time, in
    scratch allocated once per call.  They answer on [0, x_{n-1} + 1/128],
    the last cubic reaching one knot spacing past the table, and raise
    ValueError, naming the first such point, for any other rho or NaN.
    The stencils need n >= 5 knots: _bic_spline, the one constructor,
    builds max(ceil(128 rho_max), 4) + 1 of them, and that is the one rule.
    """

    def __init__(self, y) -> None:
        y = np.asarray(y, dtype=float)
        n = len(y)
        # slopes times dx, and the rise of each interval
        s = np.concatenate((_END_STENCILS @ y[:5],
                            (y[:-4] - y[4:] + 8.0 * (y[3:-1] - y[1:-3])) / 12.0,
                            -(_END_STENCILS @ y[:-6:-1])[::-1]))
        rise = np.diff(y)
        self._top = n / _KNOTS_PER_UNIT
        self._coef = np.stack((s[:-1] + s[1:] - 2.0 * rise, 3.0 * rise - 2.0 * s[:-1] - s[1:],
                               s[:-1], y[:-1]), axis=1)

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.empty(rho.shape)
        points, values = rho.reshape(-1), out.reshape(-1)
        if points.size and not (points.min() >= 0.0 and points.max() <= self._top):
            bad = points[~((points >= 0.0) & (points <= self._top))][0]
            raise ValueError(
                f"rho = {float(bad)!r} is outside the interpolant's range [0, {self._top!r}]")
        size = min(points.size, _CHUNK)
        s_all, k_all, rows_all = np.empty(size), np.empty(size), np.empty((size, 4))
        index_all = np.empty(size, dtype=np.intp)
        for i in range(0, points.size, _CHUNK):
            chunk, value = points[i:i + _CHUNK], values[i:i + _CHUNK]
            m = len(chunk)
            k, index, rows = k_all[:m], index_all[:m], rows_all[:m]
            # s = 128 rho - k, with k = floor(128 rho) clipped to n - 2
            s = np.multiply(chunk, _KNOTS_PER_UNIT, out=s_all[:m])
            np.floor(np.fmin(s, len(self._coef) - 1, out=k), out=k)
            s -= k
            # k is whole, so the cast is exact; the range check has run, so
            # "clip" never acts, and it skips numpy's slower bounds check
            index[...] = k
            self._coef.take(index, axis=0, mode="clip", out=rows)
            # ((c3 s + c2) s + c1) s + c0 in place
            np.multiply(rows[:, 0], s, out=value)
            value += rows[:, 1]
            value *= s
            value += rows[:, 2]
            value *= s
            value += rows[:, 3]
        return out


def bic_interpolator(rho_max: float = 40.0):
    """Cached cubic Hermite interpolant of the exact screened potential.

    A ground state evaluates the potential on all of its grid (4 x 10^4
    points at the default h = 1e-3), and on the 60 points of its Ritz start.
    The interpolant (see _HermiteCubic) has its knots at k/128, k = 0 ...
    max(ceil(128 rho_max), 4), covering [0, rho_max]; it is within 2.1e-12
    of the exact W on the shooting grids and tabulates Z once per rho_max.
    It answers up to 1/128 past its last knot, as a grid may end h/2 past
    rho_max, and raises ValueError for any other point.  rho_max must be in
    (0, 7812.49], where the table keeps within tabulate's 10^6 points
    (ValueError otherwise).  The cache is keyed on float(rho_max), however
    the call is written, and keeps the four most recent values.
    """
    rho_max, top = float(rho_max), (_MAX_POINTS - 1) / _KNOTS_PER_UNIT
    if not 0.0 < rho_max <= top:
        raise ValueError(f"rho_max must be in (0, {top:.6g}], got {rho_max!r}")
    return _bic_spline(rho_max)


@lru_cache(maxsize=4)
def _bic_spline(rho_max: float) -> _HermiteCubic:
    n = max(math.ceil(_KNOTS_PER_UNIT * rho_max), 4) + 1
    table = tabulate("bic", 0.0, (n - 1) / _KNOTS_PER_UNIT, n)
    return _HermiteCubic(table.values)
