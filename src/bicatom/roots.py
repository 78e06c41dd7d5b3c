"""Bracketed root refinement shared by the fit and the analytic solver.

_crossings is the one crossing scan: it walks samples in march order and
hands each sign change to _brent, Brent's zeroin on a bracket whose end
values the scan already has.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Iterator, Tuple

_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAX_ITER = 100


def _brent(f: Callable[[float], float], lo: float, hi: float,
           f_lo: float, f_hi: float, xtol: float) -> float:
    """Root of f on [lo, hi] by Brent's zeroin, given f_lo = f(lo), f_hi = f(hi).

    A line-for-line port of scipy.optimize.brentq (R. P. Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4): the same relative
    tolerance 4 eps, the same 100-iteration limit and the same
    interpolate / extrapolate / bisect steps, so it returns the same bits.
    The end values are passed in and never re-evaluated.  Raises
    ValueError when f_lo and f_hi have the same sign and RuntimeError when
    the iteration limit is reached.
    """
    x_pre, x_cur, f_pre, f_cur = lo, hi, f_lo, f_hi
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if math.copysign(1.0, f_pre) == math.copysign(1.0, f_cur):
        raise ValueError("f(lo) and f(hi) must have different signs")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if (f_pre != 0.0 and f_cur != 0.0
                and math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur)):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + _BRENT_RTOL * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                den = d_blk * d_pre * (f_blk - f_pre)
                # where den underflows to 0, brentq's C code takes an inf
                # or NaN step, which the test below rejects for bisection
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / den if den else math.inf
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0.0 else -delta
        f_cur = f(x_cur)
    raise RuntimeError(
        f"Brent did not converge in {_BRENT_MAX_ITER} iterations, value is {x_cur!r}")


def _crossings(f: Callable[[float], float],
               samples: Iterable[Tuple[float, float]],
               xtol: float) -> Iterator[float]:
    """Roots of f along samples, (x, f(x)) pairs in march order, lazily.

    Yields each sample where f is exactly 0 and the Brent-refined root of
    each bracketed sign change, in march order.  No bracket starts or ends
    at an exact 0, so the scan yields it once.  samples is read only up to
    the root yielded last.
    """
    x_prev = f_prev = None
    for x, fx in samples:
        if fx == 0.0:
            yield x
            fx = None  # the next bracket starts after the 0
        elif f_prev is not None and (f_prev > 0.0) != (fx > 0.0):
            yield _brent(f, x_prev, x, f_prev, fx, xtol)
        x_prev, f_prev = x, fx
