"""Adaptive one-dimensional quadrature for Born's potential.

Gauss-Kronrod 7/15 pairs with greedy interval bisection.  A
semi-infinite upper limit is mapped onto a finite interval by
r = t/(1-t) before adaptive refinement begins.  The only library caller
is bic_potential.born_phi; Z(rho) has its own fixed-node kernel.

The error estimator is the QUADPACK rescaling of |K15 - G7|, so the
reported abs_err_estimate is conservative for non-smooth panels.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadSpec", "QuadResult", "QuadratureError", "integrate"]

_MAX_SUBDIVISIONS = 10000
_EPS = np.finfo(float).eps

# 15-point Kronrod abscissae (positive half; embedded 7-point Gauss rule
# sits at the odd-index entries) and the matching weights.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
)
_WG = (
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
)

# per-node vectors over the 15 points ordered left-far .. center .. right-far
_OFFSETS = np.array([-x for x in _XGK[:-1]] + [0.0] + [x for x in _XGK[-2::-1]])
_W_K = np.array(list(_WGK[:-1]) + [_WGK[-1]] + list(_WGK[-2::-1]))
_W_G = np.zeros(15)
for _i, _w in zip((1, 3, 5), _WG[:-1]):
    _W_G[_i] = _w
    _W_G[14 - _i] = _w
_W_G[7] = _WG[-1]


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted or non-finite integrand values."""


@dataclass(frozen=True)
class QuadSpec:
    """Integration request: bounds and tolerances.

    upper may be math.inf for a semi-infinite range; lower must be finite.
    """

    lower: float
    upper: float
    abs_tol: float = 1e-13
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if math.isinf(self.lower):
            raise ValueError("lower bound must be finite")


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err_estimate: float
    subdivisions: int


def _kronrod_panel(f, a: float, b: float):
    """One G7/K15 evaluation on [a, b]: (K15 value, error estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = np.asarray(f(center + half * _OFFSETS), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise QuadratureError(f"non-finite integrand value on [{a!r}, {b!r}]")
    resk = float(np.dot(_W_K, fv))
    resg = float(np.dot(_W_G, fv))
    reskh = 0.5 * resk
    resabs = float(np.dot(_W_K, np.abs(fv))) * half
    resasc = float(np.dot(_W_K, np.abs(fv - reskh))) * half
    value = resk * half
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    if floor > 0.0:
        err = max(err, floor)
    return value, err


def _adaptive(f, a: float, b: float, abs_tol: float, rel_tol: float) -> QuadResult:
    value, err = _kronrod_panel(f, a, b)
    heap = [(-err, 0, a, b, value, err)]
    total_val = value
    total_err = err
    count = 1
    serial = 1
    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        if count >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"subdivision budget ({_MAX_SUBDIVISIONS}) exhausted; "
                f"error estimate {total_err:.3e}")
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            raise QuadratureError(
                f"interval [{pa!r}, {pb!r}] unsplittable; error estimate {total_err:.3e}")
        lv, le = _kronrod_panel(f, pa, mid)
        rv, re = _kronrod_panel(f, mid, pb)
        total_val += lv + rv - pval
        total_err += le + re - perr
        heapq.heappush(heap, (-le, serial, pa, mid, lv, le))
        serial += 1
        heapq.heappush(heap, (-re, serial, mid, pb, rv, re))
        serial += 1
        count += 1
    # re-sum from the heap for a cancellation-free total
    total_val = math.fsum(item[4] for item in heap)
    total_err = math.fsum(item[5] for item in heap)
    return QuadResult(total_val, total_err, count)


def integrate(f, spec: QuadSpec) -> QuadResult:
    """Integrate f over spec's interval; f must accept ndarray arguments.

    Returns QuadResult(value, abs_err_estimate, subdivisions).  Raises
    QuadratureError when the subdivision budget is exhausted or f returns
    non-finite values.
    """
    a, b = spec.lower, spec.upper

    if math.isinf(b):
        # r = t/(1-t) maps t in [t0, 1) onto [a, inf)
        t0 = a / (1.0 + a) if a != 0.0 else 0.0

        def g(t):
            om = 1.0 - t
            return f(t / om) / (om * om)

        return _adaptive(g, t0, 1.0, spec.abs_tol, spec.rel_tol)

    return _adaptive(f, a, b, spec.abs_tol, spec.rel_tol)
