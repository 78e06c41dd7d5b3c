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
phi_hat(r) = int_r^inf ds/sqrt(1+s^4), with phi_hat(0) = B(1/4,1/4)/4,
by a fixed 15-point Kronrod rule on two panels of each finite range.

Accuracy note: Z is assembled from two terms of magnitude ~1.854*rho that
cancel to O(1), so rounding in the screening integral is amplified by ~rho.
Z is evaluated by fixed-node composite Gauss-Legendre, 12 nodes a panel on
an inner, a middle and an end piece of 2, up to 7 and 3 panels, whose
truncation error lies below that rounding.  The middle piece shrinks to
zero width as rho falls to 4 sqrt(2); only its panels that carry weight
are evaluated (at most 3 for rho <= 40).  Against 30-digit mpmath the
measured absolute error in Z is ~1e-15 up to rho = 10 and grows as
~1.6e-15*rho beyond: ~1.3e-12 at rho = 1000, ~1.4e-11 at 1e4, ~1.6e-10 at
1e5 and ~1.6e-9 at the supported cap rho = 1e6; beyond the cap the call is
rejected.  The tests hold Z to 4e-15*max(1, rho).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QUARTER_BETA",
    "Y_STAR",
    "FINE_STRUCTURE_ALPHA",
    "UNIT_CONVENTIONS",
    "PotentialKind",
    "PotentialTable",
    "z_integrand",
    "z_of_rho",
    "w_of_rho",
    "born_phi",
    "tabulate",
]

# B(1/4,1/4)/4 = Gamma(1/4)^2/(4 sqrt(pi)) (DLMF 5.12.1), correctly rounded;
# the tests check it against mpmath and against born_phi(0), its quadrature
QUARTER_BETA = 1.8540746773013719

# upper endpoint of the screening integral
Y_STAR = math.sqrt(2.0) / 4.0

_RHO_CAP = 1e6
# most grid points one tabulate call accepts (checked before allocating)
_MAX_POINTS = 1_000_000

# unit conventions carried alongside emitted tables
FINE_STRUCTURE_ALPHA = 1.0 / 137.036
UNIT_CONVENTIONS = ("hbar = m_e = c = 1; lengths in Compton wavelengths "
                    "lambda_C = hbar/(m_e c); energies in units of m_e c^2; "
                    "rho = r/beta with beta Born's length parameter")


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
# Middle piece [s, y*/2] with y = s e^v, v in [0, span], span = log(y*/(2s)):
# panels in v, graded from the 1/sqrt(1 + rho^4 y^4) branch points at
# Im v = pi/4 over v = 0.  Only the searchsorted(_MIDDLE_EDGES, span) panels
# that start below span carry weight; the last of them ends at span.
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
_BLOCK_ROWS = 128


def _damping(ry):
    """The rho-dependent factor of q, 1/sqrt(1 + (rho y)^4), from rho*y."""
    ry2 = ry * ry
    return 1.0 / np.sqrt(1.0 + ry2 * ry2)


# rho-free inner factors.  For rho <= 4 sqrt(2), s = y*/2 fixes the nodes
# and their _screen; for rho > 4 sqrt(2), s = 1/rho makes rho y = x, which
# fixes their _damping.
_NEAR_Y = (Y_STAR / 2.0) * _INNER_X
_NEAR_W = _INNER_W * _screen(_NEAR_Y)
_FAR_W = _INNER_W * _damping(_INNER_X)


def _w_rows(r: np.ndarray, panels: int) -> np.ndarray:
    """W on a column r of rho whose middle pieces all have `panels` weighted panels."""
    if panels == 0:  # rho <= 4 sqrt(2): the middle piece is empty
        integral = (Y_STAR / 2.0) * np.sum(_NEAR_W * _damping(r * _NEAR_Y), axis=1)
    else:
        ratio = r * (Y_STAR / 2.0)  # y*/(2s)
        s = (Y_STAR / 2.0) / ratio
        integral = s[:, 0] * np.sum(_FAR_W * _screen(s * _INNER_X), axis=1)
        v, w = _composite(np.minimum(np.log(ratio), _MIDDLE_EDGES[:panels + 1]))
        ry = np.exp(v)  # rho y = e^v on the middle piece
        y = s * ry
        integral += np.sum(w * y * _screen(y) * _damping(ry), axis=1)
    integral += np.sum(_END_W * _damping(r * _END_Y), axis=1)
    return -(r[:, 0] * integral + QUARTER_BETA)


def _w_kernel(rho: np.ndarray) -> np.ndarray:
    """W = -(rho I + B(1/4,1/4)/4) on a 1-d array of rho in [0, 1e6], by fixed
    composite Gauss-Legendre; no division by rho, so tiny rho loses nothing.

    Rows are grouped by their number of weighted middle panels, so each row
    sums the same nodes in the same order whatever else is in the array.
    """
    out = np.empty(rho.shape)
    span = np.log(np.maximum(1.0, rho * (Y_STAR / 2.0)))
    panels = np.searchsorted(_MIDDLE_EDGES, span)
    for k in range(len(_MIDDLE_EDGES)):
        rows = np.flatnonzero(panels == k)
        for start in range(0, rows.size, _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            out[block] = _w_rows(rho[block, None], k)
    return out


def _checked_rho(rho: float) -> np.ndarray:
    """[rho] as an array, once 0 <= rho <= 1e6 is checked."""
    rho = float(rho)
    if rho < 0.0 or math.isnan(rho):
        raise ValueError(f"rho must be non-negative, got {rho!r}")
    if rho > _RHO_CAP:
        raise ValueError(f"rho beyond the supported cap {_RHO_CAP:g} "
                         "(cancellation budget exceeded)")
    return np.array([rho])


def z_of_rho(rho: float) -> float:
    """Screening function Z(rho), 0 <= rho <= 1e6, to 4e-15 max(1, rho) absolute.

    Z(0) = 0 exactly by the decomposition.  Fixed-node composite
    Gauss-Legendre, split at min(1/rho, sqrt(2)/8) because for large rho
    the integrand drops sharply past y ~ 1/rho.
    """
    r = _checked_rho(rho)
    return float(-r[0] * _w_kernel(r)[0])


def w_of_rho(rho: float) -> float:
    """Potential shape W(rho) = -Z(rho)/rho, 0 <= rho <= 1e6, finite at rho = 0."""
    return float(_w_kernel(_checked_rho(rho))[0])


# QUADPACK's qk15 rule (R. Piessens et al., QUADPACK, 1983): the 15-point
# Kronrod nodes on [-1, 1], positive half, and their weights
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
        0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
        0.2077849550078985, 0.0)
_WGK = (0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
        0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
        0.2044329400752989, 0.2094821410847278)
_K15_X = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_K15_W = np.array(_WGK[:-1] + _WGK[::-1])


def integrate(f, lower: float, upper: float) -> float:
    """int_lower^upper f by the 15-point Kronrod rule on two equal panels.

    f must accept an ndarray.  math.fsum sums the 30 weighted values; a
    plain sum costs born_phi several ulp.  The rule is fixed, with no error
    estimate, and suits born_phi's integrand, analytic within 1/sqrt(2) of
    [0, 1].  It stays a module-level name because perfbench/tracer.py
    wraps it.
    """
    h = 0.25 * (upper - lower)  # half-width of each panel
    centers = np.array([[lower + h], [upper - h]])
    return math.fsum((h * _K15_W * f(centers + h * _K15_X)).ravel().tolist())


def _born_integrand(t):
    return 1.0 / np.sqrt(1.0 + t ** 4)


def born_phi(r: float) -> float:
    """Born's dimensionless potential phi_hat(r) = int_r^inf (1+s^4)^{-1/2} ds.

    Under s = 1/t the tail past 1 is G(x) = int_0^x of the same integrand
    at x = min(1, 1/r), so phi_hat is G(1/r) for r >= 1 and
    (G(1) - G(r)) + G(1) below, each term a finite-range integrate call;
    neither branch cancels.  Within 2 ulp of 30-digit mpmath on
    0 <= r <= 1e6; negative, infinite or NaN r raises ValueError.
    """
    r = float(r)
    if not 0.0 <= r < math.inf:
        raise ValueError(f"r must be finite and non-negative, got {r!r}")
    if r >= 1.0:
        return integrate(_born_integrand, 0.0, 1.0 / r)
    return (integrate(_born_integrand, r, 1.0)
            + integrate(_born_integrand, 0.0, 1.0))


def tabulate(kind: PotentialKind, rho_min: float, rho_max: float, n: int) -> PotentialTable:
    """Uniform-grid table of the exact W, 2 <= n <= 1e6 points on [rho_min, rho_max].

    Any other kind raises ValueError: a Morse surrogate table is
    PotentialTable(rho, morse_w(params, rho), PotentialKind.MORSE_SURROGATE).
    """
    if PotentialKind(kind) is not PotentialKind.EXACT_BIC:
        raise ValueError(f"tabulate builds exact tables only, got {kind!r}")
    rho_min = float(rho_min)
    rho_max = float(rho_max)
    if not (0.0 <= rho_min < rho_max):
        raise ValueError("need 0 <= rho_min < rho_max")
    if n < 2:
        raise ValueError("need n >= 2")
    if n > _MAX_POINTS:
        raise ValueError(f"need n <= {_MAX_POINTS}, got {n}")
    if rho_max > _RHO_CAP:
        raise ValueError(f"rho beyond the supported cap {_RHO_CAP:g} "
                         "(cancellation budget exceeded)")
    grid = np.linspace(rho_min, rho_max, int(n))
    return PotentialTable(grid, _w_kernel(grid), PotentialKind.EXACT_BIC)
