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

q has an integrable inverse-square-root singularity at y* = sqrt(2)/4.
Z(rho) -> 0 as rho -> 0 and -> 1 from above as rho -> infinity, so W is a
finite-at-origin screened Coulomb shape: W(0) = -B(1/4,1/4)/4 ~ -1.854.

Also provided: Born's dimensionless point-charge potential
phi_hat(r) = int_r^inf ds/sqrt(1+s^4), with phi_hat(0) = B(1/4,1/4)/4,
on two panels of each finite range.  Both integrals use one 14-point
Gauss-Legendre rule, stored as correctly rounded literals.

Accuracy note: W is not evaluated from the y-integral, whose two terms of
size ~1.854*rho cancel to O(1), but from two forms of it that add no terms
of opposite sign (see _w_kernel), by fixed-node composite Gauss-Legendre
with 14 nodes a panel.  Against 30-digit mpmath of the y-integral, Z is
within 1e-15 relative on the supported range 0 <= rho <= 1e6 (the worst
measured is 6.7e-16); beyond it the call is rejected.  The kernel sorts an
array's rows by rule and evaluates each rule's rows in blocks of about 16 k
(row, node) elements, in three work buffers allocated per call; every row
sums the same nodes in the same order, so a value never depends on the
other rho in its array.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import QUARTER_BETA

__all__ = [
    "QUARTER_BETA",
    "Y_STAR",
    "FINE_STRUCTURE_ALPHA",
    "UNIT_CONVENTIONS",
    "PotentialKind",
    "PotentialTable",
    "z_of_rho",
    "w_of_rho",
    "born_phi",
    "tabulate",
]

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


@dataclass(frozen=True)
class PotentialTable:
    """Sampled (rho, W) pairs, of the exact W (tabulate) or any other."""

    rho_grid: np.ndarray
    values: np.ndarray

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


def z_integrand(y, rho: float):
    """The screening integrand q(y; rho); y scalar or ndarray in [0, sqrt2/4)."""
    rho = float(rho)
    if rho < 0.0:
        raise ValueError(f"rho must be non-negative, got {rho!r}")
    ya = np.asarray(y, dtype=float)
    if ya.size and (float(ya.min()) < 0.0 or float(ya.max()) >= Y_STAR):
        raise ValueError(f"y must lie in [0, {Y_STAR!r})")
    root1 = np.sqrt(1.0 + ya * ya)
    numer = 2.0 * ya * root1 - 2.0 * ya * ya - 1.0
    # stabilized radicand: (1 - 8y^2)/(1 + 4y^2 + 4y sqrt(1+y^2)); vanishes
    # linearly at y* with no subtractive cancellation
    radicand = (1.0 - 8.0 * ya * ya) / (1.0 + 4.0 * ya * ya + 4.0 * ya * root1)
    out = numer / (np.sqrt(radicand) * root1 * np.sqrt(1.0 + rho ** 4 * ya ** 4))
    if np.ndim(y) == 0:
        return float(out)
    return out


# the 14-point Gauss-Legendre rule on [-1, 1], positive half, mirrored so the
# rule is exactly symmetric.  Each node and weight is its 50-digit value
# rounded to double (Newton's method in double leaves them 10-20 ulp off).
# 14 nodes a panel keep Z within 1e-15 relative of mpmath
_GL_X = (0.9862838086968123, 0.9284348836635735, 0.827201315069765,
         0.6872929048116855, 0.5152486363581541, 0.31911236892788974,
         0.10805494870734367)
_GL_W = (0.03511946033175186, 0.08015808715976021, 0.12151857068790319,
         0.15720316715819355, 0.18553839747793782, 0.2051984637212956,
         0.2152638534631578)
_NODES = np.array([-x for x in _GL_X] + list(_GL_X[::-1]))
_WEIGHTS = np.array(_GL_W + _GL_W[::-1])


def _panels(edges):
    """Composite nodes and weights of the rule on the panels between edges."""
    edges = np.array(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return ((edges[:-1, None] + half) + half * _NODES).ravel(), (half * _WEIGHTS).ravel()


def _rule(edges, far: bool):
    """(1 + sin s)^2, cos^4 s, sin^2 s / 4 and half the weights on composite
    nodes s between edges; the far form's weights also carry its P - Q."""
    s, w = _panels(edges)
    sin = np.sin(s)
    lead = (1.0 + sin) ** 2
    if far:
        w = w * lead * sin * (2.0 - sin)
    return lead, np.cos(s) ** 4, 0.25 * sin * sin, 0.5 * w


# _RULES[0] is the near form's one panel.  _RULES[m], m >= 1, is the far
# form's, for m = ceil(log2(pi rho/2)): edges 0, 3 pi/8 and (pi/2) 2^-j for
# j = 0..m, halving toward its layer of width ~2/rho at s = 0
_RULES = [_rule([0.0, math.pi / 2.0], far=False)] + [
    _rule(sorted({0.0, 3.0 * math.pi / 8.0, *(math.pi / 2.0 ** j for j in range(1, m + 2))}),
          far=True)
    for m in range(1, math.ceil(math.log2(math.pi / 2.0 * _RHO_CAP)) + 1)]

# elements per kernel block: rows x nodes, at 14 to 322 nodes a row, so 1170
# to 50 rows.  Each of the three work buffers holds one block, 128 KB at most
_BLOCK_SIZE = 16384
# nodes of each rule, for sizing the buffers
_NODE_COUNTS = np.array([w.size for *_, w in _RULES])


def _w_kernel(rho: np.ndarray) -> np.ndarray:
    """W on a 1-d array of rho in [0, 1e6], by fixed composite Gauss-Legendre.

    With q = rho^2 sin^2 s / 4, P = (1 + sin s)^2 + q^2 and Q = cos^4 s + q^2,
    both forms integrate over s in [0, pi/2]:

        rho < 1:   W = -B(1/4,1/4)/4 + (rho/2) int ds / sqrt(P),
        rho >= 1:  W = -(rho/2) int (P - Q) / (sqrt(P) sqrt(Q) (sqrt(P) + sqrt(Q))) ds.

    The first is the screening integral under y = sinh t, v = sqrt(2e^{-2t} - 1)
    and v = tan((pi/2 - s)/2); the second subtracts it from
    B/4 = (rho/2) int ds / sqrt(Q), Born's integral under x = (rho/2) tan s.
    Neither adds terms of opposite sign, and neither divides by rho, so tiny
    rho loses nothing.  A stable sort by rule makes each rule's rows one
    slice, evaluated _BLOCK_SIZE elements at a time in three work buffers;
    each row sums the same nodes in the same order whatever else is in the
    array.
    """
    far = rho >= 1.0
    rule = np.zeros(rho.shape, dtype=np.int8)
    rule[far] = np.ceil(np.log2((math.pi / 2.0) * rho[far]))
    counts = np.bincount(rule, minlength=1)
    order = np.argsort(rule, kind="stable")
    r = rho[order]
    # the work buffers hold this call's biggest block, no more
    work = np.empty((3, min(int((counts * _NODE_COUNTS[:counts.size]).max()), _BLOCK_SIZE)))
    # each block reads its rho^2 from sums before its own sums overwrite it
    sums = r * r
    start = 0
    for m, count in enumerate(counts.tolist()):
        if not count:
            continue
        lead, cos4, sin2, w = _RULES[m]
        stop = start + count
        step = _BLOCK_SIZE // w.size
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            q2, root_p, root_q = work[:, :(hi - lo) * w.size].reshape(3, hi - lo, w.size)
            np.multiply(sums[lo:hi, None], sin2, out=q2)
            q2 *= q2
            np.sqrt(np.add(lead, q2, out=root_p), out=root_p)
            if m:
                # the denominator, in q2's buffer
                np.sqrt(np.add(cos4, q2, out=root_q), out=root_q)
                np.add(root_p, root_q, out=q2)
                q2 *= root_p
                q2 *= root_q
                root_p = q2
            np.add.reduce(np.divide(w, root_p, out=q2), axis=1, out=sums[lo:hi])
        start = stop
    sums *= r
    # the near form's rows come first
    sums[:counts[0]] -= QUARTER_BETA
    np.negative(sums[counts[0]:], out=sums[counts[0]:])
    # back to the caller's order, in r's spent buffer
    r[order] = sums
    return r


def _checked_rho(rho: float) -> np.ndarray:
    """[rho] as an array, once 0 <= rho <= 1e6 is checked."""
    rho = float(rho)
    if rho < 0.0 or math.isnan(rho):
        raise ValueError(f"rho must be non-negative, got {rho!r}")
    if rho > _RHO_CAP:
        raise ValueError(f"rho beyond the supported cap {_RHO_CAP:g} "
                         "(the kernel's tested range)")
    return np.array([rho])


def z_of_rho(rho: float) -> float:
    """Screening function Z(rho) = -rho W(rho), 0 <= rho <= 1e6, to 1e-15
    relative; Z(0) = 0 exactly."""
    r = _checked_rho(rho)
    return float(-r[0] * _w_kernel(r)[0])


def w_of_rho(rho: float) -> float:
    """Potential shape W(rho) = -Z(rho)/rho, 0 <= rho <= 1e6, to 1e-15 relative;
    W(0) = -B(1/4,1/4)/4 exactly, as W is never formed by dividing by rho."""
    return float(_w_kernel(_checked_rho(rho))[0])


def integrate(f, lower: float, upper: float) -> float:
    """int_lower^upper f by the kernel's Gauss-Legendre rule on two equal panels.

    f must accept an ndarray.  math.fsum sums the 28 weighted values; a
    plain sum costs born_phi several ulp.  The rule is fixed, with no error
    estimate, and suits born_phi's integrand, analytic within 1/sqrt(2) of
    [0, 1].  It stays a module-level name because perfbench/tracer.py
    wraps it.
    """
    s, w = _panels([lower, 0.5 * (lower + upper), upper])
    return math.fsum((w * f(s)).tolist())


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


def tabulate(kind: PotentialKind | str, rho_min: float, rho_max: float, n: int) -> PotentialTable:
    """Exact W at n uniform grid points on [rho_min, rho_max], n integral in [2, 1e6].

    kind is PotentialKind.EXACT_BIC or its value "bic"; any other kind
    raises ValueError.  A Morse surrogate table is
    PotentialTable(rho, morse_w(params, rho)).
    """
    if kind not in (PotentialKind.EXACT_BIC, "bic"):
        raise ValueError(f"tabulate builds exact tables only, got {kind!r}")
    rho_min = float(rho_min)
    rho_max = float(rho_max)
    if not (0.0 <= rho_min < rho_max):
        raise ValueError("need 0 <= rho_min < rho_max")
    if not (2 <= n <= _MAX_POINTS and float(n).is_integer()):
        raise ValueError(f"need an integral n from 2 to {_MAX_POINTS}, got {n!r}")
    _checked_rho(rho_max)
    grid = np.linspace(rho_min, rho_max, int(n))
    return PotentialTable(grid, _w_kernel(grid))
