"""Closed-form ground-state solution of the Morse-surrogate radial problem.

With the surrogate potential and the substitutions u(rho) = rho R(rho),
x = kappa (rho - b), z = 2 a e^{-x}, the s-state radial equation becomes
Whittaker's equation, and the regular solution is M_{a,nu}(z) with

    a  = sqrt(2 |A|),        |A| = alpha_beta |G| / kappa^2,
    nu = sqrt(2 |E|),        E = -nu^2 / 2.

The u(0) = 0 boundary condition lands at z0 = 2 a e^{-kappa |b|} (rho = 0
maps to x = kappa |b| for b < 0, hence z = z0; rho -> infinity maps to
z -> 0+).  A ground state requires M_{a,nu}(z0) = 0 with z0 the FIRST
positive root of M: the wavefunction is then nodeless on the interior.

Given nu, the solver finds the a whose first Whittaker root X satisfies
X = 2 a e^{-kappa |b|}, then reports the observables

    alpha_beta = kappa^2 a^2 / (2 |G|),
    eps_over_alpha2 = -[kappa^2 nu^2 / 2
                        + alpha_beta (V0 + B/4 - |G|)] / alpha_beta^2.

The eps_over_alpha2 expression is the inversion of the energy relation
E = -nu^2/2 written in terms of the total dimensionless eigenvalue; the
closed-form variant sometimes quoted with the opposite relative sign
(+kappa^2 nu^2/2 - alpha_beta(...)) does not reproduce the reference
chain's own numbers and is deliberately not implemented (the regression
suite pins this down).

calibrate_nu closes the loop: it tunes nu until eps_over_alpha2 matches a
target (by default the empirical hydrogen ground-state value -0.49973).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .bic_potential import QUARTER_BETA
from .morse_fit import REFERENCE_MORSE, MorseParams
from .specfun import _Z_CAP, whittaker_m

__all__ = [
    "AnalyticSolution",
    "ModelConstants",
    "quantization_residual",
    "first_root",
    "solve_a",
    "observables",
    "calibrate_nu",
]

_SCAN_STEP = 0.05
_A_CAP = 50.0
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAX_ITER = 100


@dataclass(frozen=True)
class AnalyticSolution:
    """Ground-state solution bundle.

    |A| = a^2/2 and E = -nu^2/2 are derived from a and nu on access.  The
    degenerate a = 0 case (no well) is representable: every derived field
    collapses to 0 and eps_over_alpha2 to -infinity.
    """

    nu: float
    a: float
    X: float
    alpha_beta: float
    eps_over_alpha2: float

    def __post_init__(self) -> None:
        if not (self.nu > 0.0 and math.isfinite(self.nu)):
            raise ValueError("nu must be a positive real")
        for name in ("a", "X", "alpha_beta"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite non-negative real")
        if not self.eps_over_alpha2 < 0.0:
            raise ValueError("eps_over_alpha2 must be negative")

    @property
    def A_abs(self) -> float:
        return 0.5 * self.a ** 2

    @property
    def E(self) -> float:
        return -0.5 * self.nu ** 2


@dataclass(frozen=True)
class ModelConstants:
    """Surrogate parameters (B(1/4,1/4)/4 and alpha are bic_potential constants)."""

    morse: MorseParams = REFERENCE_MORSE


def _boundary_z(a: float, morse: MorseParams) -> float:
    return 2.0 * a * math.exp(-morse.kappa * abs(morse.b))


def quantization_residual(a: float, nu: float, morse: MorseParams) -> float:
    """M_{a,nu} evaluated at the boundary point z0 = 2a e^{-kappa|b|}.

    A root in a (together with z0 being the first root of M) enforces
    u = 0 at rho = 0 for a nodeless interior solution.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"a must be a positive real, got {a!r}")
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError(f"nu must be a positive real, got {nu!r}")
    return whittaker_m(a, nu, _boundary_z(a, morse))


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


def _first_crossing(f: Callable[[float], float],
                    samples: Iterable[Tuple[float, float]],
                    xtol: float) -> Optional[float]:
    """First root of f along samples, (x, f(x)) pairs at increasing x.

    Returns the first sample where f is exactly 0, or the Brent-refined
    root of the first bracketed sign change; None when f never changes
    sign.  samples is consumed only up to the crossing.
    """
    x_prev = f_prev = None
    for x, fx in samples:
        if fx == 0.0:
            return x
        if f_prev is not None and (f_prev > 0.0) != (fx > 0.0):
            return _brent(f, x_prev, x, f_prev, fx, xtol)
        x_prev, f_prev = x, fx
    return None


def _m_samples(a: float, nu: float):
    """(z, M_{a,nu}(z)) along the first_root scan, in increasing z.

    When M < 0 at the scan start z = 0.05, the first root lies below it;
    the scan is then preceded by the first of 0.025, 0.0125, ... at which
    M >= 0 (M > 0 near z = 0+).
    """
    chunk = 256
    v = whittaker_m(a, nu, _SCAN_STEP)
    if v < 0.0:
        z_lo = 0.5 * _SCAN_STEP
        while (v_lo := whittaker_m(a, nu, z_lo)) < 0.0:
            z_lo *= 0.5
        yield z_lo, v_lo
    yield _SCAN_STEP, v
    start = _SCAN_STEP
    while start < _Z_CAP:
        stop = min(start + chunk * _SCAN_STEP, _Z_CAP)
        n = max(2, int(round((stop - start) / _SCAN_STEP)) + 1)
        zs = np.linspace(start, stop, n)
        yield from zip(zs[1:].tolist(), whittaker_m(a, nu, zs)[1:].tolist())
        start = stop


def first_root(a: float, nu: float) -> float:
    """Smallest z > 0 with M_{a,nu}(z) = 0, by scan + Brent refinement.

    Scans in steps of 0.05 from z = 0.05 up to z = 200 and refines the
    first bracketed sign change to 1e-10.  M > 0 near z = 0+, so the first
    root flips the sign; when M(0.05) < 0 the root below 0.05 is bracketed
    by halving toward 0.  For a <= 50 at most one root lies below 0.05.
    When nu - a + 1/2 >= 0 every series coefficient of the rising factor
    is positive and M has no positive roots at all; that case (and any
    other scan without a sign change) raises RuntimeError.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"a must be a positive real, got {a!r}")
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError(f"nu must be a positive real, got {nu!r}")
    if nu - a + 0.5 >= 0.0:
        raise RuntimeError(
            f"M_({a!r},{nu!r}) has only positive series terms: no positive roots")
    root = _first_crossing(lambda z: whittaker_m(a, nu, z),
                           _m_samples(a, nu), 1e-10)
    if root is None:
        raise RuntimeError(
            f"no root of M_({a!r},{nu!r}) found below z = {_Z_CAP:g}")
    return root


def solve_a(nu: float, morse: MorseParams) -> float:
    """Smallest a > 0 whose first Whittaker root sits at the boundary point.

    Marches a upward from 0.1 in steps of 0.1 (values with no positive
    root are skipped), tracks F(a) = first_root(a, nu) - 2a e^{-kappa|b|},
    and Brent-refines the first sign change of F to 1e-10.  F is strictly
    decreasing (the first root slides down while the boundary point grows
    linearly), so the crossing is unique.
    """
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError(f"nu must be a positive real, got {nu!r}")

    def gap(a: float) -> float:
        return first_root(a, nu) - _boundary_z(a, morse)

    def samples():
        a = 0.1
        while a <= _A_CAP + 1e-12:
            if nu - a + 0.5 < 0.0:
                try:
                    yield a, gap(a)
                except RuntimeError:  # no first root below the z cap
                    pass
            a = round(a + 0.1, 10)

    root = _first_crossing(gap, samples(), 1e-10)
    if root is None:
        raise RuntimeError(
            f"no ground-state a in (0, {_A_CAP:g}] for nu = {nu!r}")
    return root


def observables(nu: float, a: float, c: ModelConstants) -> AnalyticSolution:
    """Assemble the solution bundle from (nu, a); a = 0 degenerates cleanly."""
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError(f"nu must be a positive real, got {nu!r}")
    if not (a >= 0.0 and math.isfinite(a)):
        raise ValueError(f"a must be a non-negative real, got {a!r}")
    m = c.morse
    alpha_beta = m.kappa ** 2 * a ** 2 / (2.0 * abs(m.G))
    if alpha_beta > 0.0:
        eps = -(0.5 * m.kappa ** 2 * nu ** 2
                + alpha_beta * (m.V0 + QUARTER_BETA - abs(m.G))) / alpha_beta ** 2
    else:
        eps = -math.inf
    return AnalyticSolution(
        nu=nu,
        a=a,
        X=_boundary_z(a, m),
        alpha_beta=alpha_beta,
        eps_over_alpha2=eps,
    )


def calibrate_nu(target_eps: float, c: ModelConstants) -> AnalyticSolution:
    """Tune nu so that eps_over_alpha2 hits target_eps (within ~1e-7).

    Starts from the bracket (2.0, 4.0) and widens it automatically toward
    (0.5, 10] until the target is straddled; raises RuntimeError when the
    target is unattainable on that range.
    """
    if not math.isfinite(target_eps):
        raise ValueError("target_eps must be finite")

    def eps_of(nu: float) -> float:
        return observables(nu, solve_a(nu, c.morse), c).eps_over_alpha2

    lo, hi = 2.0, 4.0
    f_lo = eps_of(lo) - target_eps
    f_hi = eps_of(hi) - target_eps
    while (f_lo > 0.0) == (f_hi > 0.0):
        widened = False
        if lo > 0.5:
            lo = max(0.5, lo - 1.0)
            f_lo = eps_of(lo) - target_eps
            widened = True
        if (f_lo > 0.0) == (f_hi > 0.0) and hi < 10.0:
            hi = min(10.0, hi + 2.0)
            f_hi = eps_of(hi) - target_eps
            widened = True
        if not widened:
            raise RuntimeError(
                f"target eps/alpha^2 = {target_eps!r} not attainable for nu in (0.5, 10]")
    nu_star = _brent(lambda nu: eps_of(nu) - target_eps, lo, hi, f_lo, f_hi, 1e-9)
    return observables(nu_star, solve_a(nu_star, c.morse), c)
