"""Born-Infeld-Coulomb potential pieces.

The point-charge problem of Born-Infeld electrodynamics screens the
Coulomb potential at short range.  In dimensionless form (rho = r/beta,
with beta Born's length parameter) the potential shape is

    W(rho) = -Z(rho)/rho,
    Z(rho) = rho^2 I(rho) + (1/4) B(1/4,1/4) rho,
    I(rho) = int_0^{sqrt(2)/4} q(y; rho) dy,

with the integrand

    q(y; rho) = [2y sqrt(1+y^2) - 2y^2 - 1] /
                [sqrt(1 + 4y^2 - 4y sqrt(1+y^2)) sqrt(1+y^2) sqrt(1+rho^4 y^4)].

q has an integrable inverse-square-root singularity at y* = sqrt(2)/4:
the radicand 1 + 4y^2 - 4y sqrt(1+y^2) equals (1 - 8y^2)/(1 + 4y^2 +
4y sqrt(1+y^2)) identically, so it vanishes linearly at y* (slope
-4 sqrt(2)/3 ~ -1.886) and the stabilized right-hand form is used here to
avoid cancellation near the endpoint.

Z(rho) -> 0 as rho -> 0 and -> 1 from above as rho -> infinity, so W is a
finite-at-origin screened Coulomb shape: W(0) = -B(1/4,1/4)/4 ~ -1.854.

Also provided: Born's dimensionless point-charge potential
phi_hat(r) = int_r^inf ds/sqrt(1+s^4), with phi_hat(0) = B(1/4,1/4)/4.

Accuracy note: Z is assembled from two terms of magnitude ~1.854*rho that
cancel to O(1), so rounding in the screening integral is amplified by ~rho.
Z is evaluated by fixed-node composite Gauss-Legendre (12 nodes on 2 + 7 + 3
panels) whose truncation error lies below that rounding.  Against 30-digit
mpmath the measured absolute error in Z is ~1e-15 up to rho = 10 and grows
as ~1.6e-15*rho beyond: ~1.3e-12 at rho = 1000, ~1.4e-11 at 1e4, ~1.6e-10 at
1e5 and ~1.6e-9 at the supported cap rho = 1e6; beyond the cap the call is
rejected.  The tests hold Z to 4e-15*max(1, rho).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadSpec, integrate
from .specfun import beta

__all__ = [
    "QUARTER_BETA",
    "Y_STAR",
    "PotentialKind",
    "PotentialTable",
    "UnitsNote",
    "z_integrand",
    "z_of_rho",
    "w_of_rho",
    "born_phi",
    "tabulate",
]

# B(1/4,1/4)/4, computed from the library's own Beta (never hard-coded)
QUARTER_BETA = 0.25 * beta(0.25, 0.25)

# upper endpoint of the screening integral
Y_STAR = math.sqrt(2.0) / 4.0

_RHO_CAP = 1e6
# most grid points one tabulate call accepts (checked before allocating)
_MAX_POINTS = 1_000_000
_FINE_STRUCTURE_ALPHA = 1.0 / 137.036


class PotentialKind(enum.Enum):
    EXACT_BIC = "bic"
    MORSE_SURROGATE = "morse"


@dataclass(frozen=True)
class PotentialTable:
    """Sampled (rho, W) pairs tagged with the generating potential kind."""

    rho_grid: np.ndarray
    values: np.ndarray
    kind: PotentialKind

    def __post_init__(self) -> None:
        grid = np.asarray(self.rho_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "rho_grid", grid)
        object.__setattr__(self, "values", vals)
        if grid.ndim != 1 or vals.ndim != 1 or grid.size != vals.size or grid.size < 2:
            raise ValueError("rho_grid and values must be equal-length 1-d arrays, length >= 2")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(vals)):
            raise ValueError("table entries must be finite")
        if grid[0] < 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("rho_grid must be non-negative and strictly increasing")
        if self.kind is PotentialKind.EXACT_BIC and grid[0] == 0.0:
            if abs(vals[0] + QUARTER_BETA) > 1e-9:
                raise ValueError("exact table must start at W(0) = -B(1/4,1/4)/4")


@dataclass(frozen=True)
class UnitsNote:
    """Unit conventions carried alongside emitted tables."""

    alpha: float = _FINE_STRUCTURE_ALPHA
    conventions: str = ("hbar = m_e = c = 1; lengths in Compton wavelengths "
                        "lambda_C = hbar/(m_e c); energies in units of m_e c^2; "
                        "rho = r/beta with beta Born's length parameter")

    def __post_init__(self) -> None:
        if self.alpha != _FINE_STRUCTURE_ALPHA:
            raise ValueError("alpha is fixed to 1/137.036")


def _screen(y):
    """The rho-free factor of q: q(y; rho) = _screen(y) / sqrt(1 + rho^4 y^4)."""
    root1 = np.sqrt(1.0 + y * y)
    numer = 2.0 * y * root1 - 2.0 * y * y - 1.0
    # stabilized radicand: (1 - 8y^2)/(1 + 4y^2 + 4y sqrt(1+y^2)); vanishes
    # linearly at y* with no subtractive cancellation
    radicand = (1.0 - 8.0 * y * y) / (1.0 + 4.0 * y * y + 4.0 * y * root1)
    return numer / (np.sqrt(radicand) * root1)


def z_integrand(y, rho: float):
    """The screening integrand q(y; rho); y scalar or ndarray in [0, sqrt2/4)."""
    rho = float(rho)
    if rho < 0.0:
        raise ValueError(f"rho must be non-negative, got {rho!r}")
    ya = np.asarray(y, dtype=float)
    if ya.size and (float(ya.min()) < 0.0 or float(ya.max()) >= Y_STAR):
        raise ValueError(f"y must lie in [0, {Y_STAR!r})")
    out = _screen(ya) / np.sqrt(1.0 + rho ** 4 * ya ** 4)
    if np.ndim(y) == 0:
        return float(out)
    return out


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1].

    Newton iteration on P_n from Tricomi's initial guesses; this avoids the
    eigenvalue solver behind numpy.polynomial.legendre.leggauss and the
    memory it maps on first use.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):  # quadratic convergence: a few steps reach rounding
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    return 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * dp * dp)


_GL_X, _GL_W = _gauss_legendre(12)


def _composite(edges):
    """Nodes and weights of the composite rule on panels between edges (last axis)."""
    a = edges[..., :-1, None]
    h = edges[..., 1:, None] - a
    shape = edges.shape[:-1] + (-1,)
    return (a + h * _GL_X).reshape(shape), (h * _GL_W).reshape(shape)


# Z(rho) splits [0, y*] at s = min(1/rho, y*/2) and y*/2.  Inner piece
# [0, s] with y = s x: panels in x.
_INNER_X, _INNER_W = _composite(np.array([0.0, 0.5, 1.0]))
# Middle piece [s, y*/2] with y = s e^v, v in [0, log(y*/(2s))]: panels in v,
# graded from the 1/sqrt(1 + rho^4 y^4) branch points at Im v = pi/4 over v = 0;
# edges past the end of the piece collapse onto it.
_MIDDLE_EDGES = np.array([0.0, 0.5, 1.25, 2.5, 4.0, 6.0, 9.0, np.inf])


def _end_piece():
    """Nodes y and weights of the end piece [y*/2, y*] under y = y* - t^2.

    The weights absorb the bounded, rho-free factor 2t _screen(y), with
    1 - 8y^2 = 8t^2 (y* + y) divided out of the radicand so that no
    cancellation occurs near y*.
    """
    t, w = _composite(math.sqrt(Y_STAR / 2.0) * np.array([0.0, 0.4, 0.75, 1.0]))
    y = Y_STAR - t * t
    root1 = np.sqrt(1.0 + y * y)
    numer = 2.0 * y * root1 - 2.0 * y * y - 1.0
    radicand_over_t2 = 8.0 * (Y_STAR + y) / (1.0 + 4.0 * y * y + 4.0 * y * root1)
    return y, 2.0 * w * numer / (np.sqrt(radicand_over_t2) * root1)


_END_Y, _END_W = _end_piece()

# rows per kernel block: keeps the (rows x nodes) temporaries small
_BLOCK_ROWS = 32


def _damping(ry):
    """The rho-dependent factor of q, 1/sqrt(1 + (rho y)^4), from rho*y."""
    ry2 = ry * ry
    return 1.0 / np.sqrt(1.0 + ry2 * ry2)


def _z_kernel(rho: np.ndarray) -> np.ndarray:
    """Z on a 1-d array of rho in [0, 1e6], by fixed composite Gauss-Legendre."""
    out = np.empty(rho.shape)
    for start in range(0, rho.size, _BLOCK_ROWS):
        r = rho[start:start + _BLOCK_ROWS, None]
        ratio = np.maximum(1.0, r * (Y_STAR / 2.0))  # y*/(2s)
        s = (Y_STAR / 2.0) / ratio
        y = s * _INNER_X
        integral = s[:, 0] * np.sum(_INNER_W * _screen(y) * _damping(r * y), axis=1)
        span = np.log(ratio)
        if span.max() > 0.0:  # the middle piece is empty for rho <= 4 sqrt(2)
            v, w = _composite(np.minimum(span, _MIDDLE_EDGES))
            y = s * np.exp(v)
            integral += np.sum(w * y * _screen(y) * _damping(r * y), axis=1)
        integral += np.sum(_END_W * _damping(r * _END_Y), axis=1)
        r = r[:, 0]
        out[start:start + _BLOCK_ROWS] = r * r * integral + QUARTER_BETA * r
    return out


def z_of_rho(rho: float) -> float:
    """Screening function Z(rho), 0 <= rho <= 1e6, to 4e-15 max(1, rho) absolute.

    Z(0) = 0 exactly by the decomposition.  Fixed-node composite
    Gauss-Legendre, split at min(1/rho, sqrt(2)/8) because for large rho
    the integrand drops sharply past y ~ 1/rho.
    """
    rho = float(rho)
    if rho < 0.0 or math.isnan(rho):
        raise ValueError(f"rho must be non-negative, got {rho!r}")
    if rho > _RHO_CAP:
        raise ValueError(f"rho beyond the supported cap {_RHO_CAP:g} "
                         "(cancellation budget exceeded)")
    if rho == 0.0:
        return 0.0
    return float(_z_kernel(np.array([rho]))[0])


def w_of_rho(rho: float) -> float:
    """Potential shape W(rho) = -Z(rho)/rho, with the finite limit at rho = 0."""
    rho = float(rho)
    if rho < 0.0 or math.isnan(rho):
        raise ValueError(f"rho must be non-negative, got {rho!r}")
    if rho == 0.0:
        return -QUARTER_BETA
    return -z_of_rho(rho) / rho


def born_phi(r: float) -> float:
    """Born's dimensionless potential phi_hat(r) = int_r^inf (1+s^4)^{-1/2} ds."""
    r = float(r)
    if r < 0.0 or math.isnan(r):
        raise ValueError(f"r must be non-negative, got {r!r}")
    res = integrate(lambda s: 1.0 / np.sqrt(1.0 + s ** 4), QuadSpec(r, math.inf))
    return res.value


def tabulate(kind: PotentialKind, rho_min: float, rho_max: float, n: int,
             morse=None) -> PotentialTable:
    """Uniform-grid table of W, exact or Morse surrogate, n <= 1e6 points."""
    kind = PotentialKind(kind)
    rho_min = float(rho_min)
    rho_max = float(rho_max)
    if not (0.0 <= rho_min < rho_max):
        raise ValueError("need 0 <= rho_min < rho_max")
    if n < 2:
        raise ValueError("need n >= 2")
    if n > _MAX_POINTS:
        raise ValueError(f"need n <= {_MAX_POINTS}, got {n}")
    if kind is PotentialKind.EXACT_BIC and rho_max > _RHO_CAP:
        raise ValueError(f"rho beyond the supported cap {_RHO_CAP:g} "
                         "(cancellation budget exceeded)")
    grid = np.linspace(rho_min, rho_max, int(n))
    if kind is PotentialKind.EXACT_BIC:
        vals = np.full(grid.shape, -QUARTER_BETA)
        inside = grid > 0.0
        vals[inside] = -_z_kernel(grid[inside]) / grid[inside]
    else:
        if morse is None:
            raise ValueError("MorseSurrogate tabulation requires morse parameters")
        from .morse_fit import morse_w  # deferred: morse_fit imports this module
        vals = np.asarray(morse_w(morse, grid), dtype=float)
    return PotentialTable(grid, vals, kind)
