"""Special functions for the screened-hydrogen problem.

From-scratch implementations of log-Gamma, Euler's Beta, the Kummer
confluent hypergeometric function 1F1(alpha; gamma; z), and the
Whittaker function of the first kind,

    M_{a,nu}(z) = e^{-z/2} z^{nu+1/2} 1F1(nu - a + 1/2; 1 + 2 nu; z),

which carries the bound-state quantization condition downstream.  All
routines work in double precision; the 1F1 series is summed by forward
term recurrence (at -z for negative z, through Kummer's transformation),
which is adequate for the moderate arguments used here (|z| <= 200 is
enforced rather than switching to asymptotic expansions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesControl",
    "SeriesNonConvergence",
    "ln_gamma",
    "beta",
    "kummer_m",
    "whittaker_m",
]

_Z_CAP = 200.0


class SeriesNonConvergence(RuntimeError):
    """Raised when the 1F1 series does not converge within max_terms."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for the 1F1 power series.

    rel_tol is relative to the accumulated magnitude of the summed terms,
    not to the current partial sum; near a zero of the function the sum
    itself is small through cancellation and a sum-relative test would
    never trigger.
    """

    rel_tol: float = 1e-14
    max_terms: int = 5000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


_DEFAULT_CTL = SeriesControl()

# Lanczos approximation, g = 7, 9 coefficients.  Empirical relative error
# of the resulting Gamma is a few 1e-15 over the positive axis, well inside
# the 1e-13 budget for ln Gamma on [1e-3, 170].
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for real x > 0.

    Lanczos series for x >= 0.5, reflection formula below that.  Relative
    accuracy <= 1e-13 on [1e-3, 170].
    """
    x = float(x)
    if not x > 0.0:  # also rejects NaN
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x); x in (0, 0.5) keeps sin positive
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    y = x - 1.0
    acc = _LANCZOS_COEF[0]
    for k, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (y + k)
    t = y + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (y + 0.5) * math.log(t) - t + math.log(acc)


def beta(p: float, q: float) -> float:
    """Euler's Beta function B(p, q) = Gamma(p)Gamma(q)/Gamma(p+q), p, q > 0."""
    p = float(p)
    q = float(q)
    if not (p > 0.0 and q > 0.0):
        raise ValueError(f"beta requires positive arguments, got ({p!r}, {q!r})")
    return math.exp(ln_gamma(p) + ln_gamma(q) - ln_gamma(p + q))


def _kummer_scalar(alpha: float, gamma: float, z: float,
                   rel_tol: float, max_terms: int) -> float:
    term = 1.0
    total = 1.0
    magnitude = 1.0  # running sum of |term|: the cancellation-safe scale
    streak = 0
    for n in range(max_terms):
        ratio = (alpha + n) * z / ((gamma + n) * (n + 1))
        term *= ratio
        total += term
        magnitude += abs(term)
        if abs(term) <= rel_tol * magnitude and (term == 0.0 or abs(ratio) < 1.0):
            streak += 1
            if streak >= 2:
                return total
        else:
            streak = 0
    raise SeriesNonConvergence(
        f"1F1({alpha}, {gamma}, {z}) did not converge in {max_terms} terms")


def _kummer_array(alpha: float, gamma: float, z: np.ndarray,
                  rel_tol: float, max_terms: int) -> np.ndarray:
    term = np.ones_like(z)
    total = np.ones_like(z)
    magnitude = np.ones_like(z)
    streak = np.zeros(z.shape, dtype=np.int64)
    abs_z = np.abs(z)
    for n in range(max_terms):
        c = (alpha + n) / ((gamma + n) * (n + 1))
        term = term * c * z
        total = total + term
        at = np.abs(term)
        magnitude += at
        small = (at <= rel_tol * magnitude) & ((term == 0.0) | (abs(c) * abs_z < 1.0))
        streak = np.where(small, streak + 1, 0)
        if int(streak.min()) >= 2:
            return total
    raise SeriesNonConvergence(
        f"1F1({alpha}, {gamma}, <array>) did not converge in {max_terms} terms")


def kummer_m(alpha: float, gamma: float, z, ctl: SeriesControl | None = None):
    """Kummer's confluent hypergeometric 1F1(alpha; gamma; z).

    Forward term recurrence t_{n+1} = t_n (alpha+n) z / ((gamma+n)(n+1)),
    stopped once |t_n| is below ctl.rel_tol times the accumulated term
    magnitude for two consecutive terms that are zero or shrinking (tiny
    but growing leading terms, as for alpha near 0 or a negative integer,
    do not end the sum).  For z < 0 the series is summed at -z through
    Kummer's transformation M(alpha, gamma, z) = e^z M(gamma - alpha,
    gamma, -z) (DLMF 13.2.39), which avoids the alternating terms whose
    cancellation ruins the direct sum.  z may be a scalar or ndarray, of
    either sign; |z| <= 200 (supported range).

    Raises ValueError for gamma in {0, -1, -2, ...} or |z| > 200, and
    SeriesNonConvergence when ctl.max_terms is exhausted.
    """
    ctl = ctl or _DEFAULT_CTL
    alpha = float(alpha)
    gamma = float(gamma)
    if gamma <= 0.0 and gamma == math.floor(gamma):
        raise ValueError(f"kummer_m undefined for gamma = {gamma} (non-positive integer)")
    if np.ndim(z) == 0:
        zf = float(z)
        if abs(zf) > _Z_CAP:
            raise ValueError(f"kummer_m supports |z| <= {_Z_CAP:g}, got {zf!r}")
        if zf < 0.0:
            return math.exp(zf) * _kummer_scalar(gamma - alpha, gamma, -zf,
                                                 ctl.rel_tol, ctl.max_terms)
        return _kummer_scalar(alpha, gamma, zf, ctl.rel_tol, ctl.max_terms)
    za = np.asarray(z, dtype=float)
    if za.size and float(np.max(np.abs(za))) > _Z_CAP:
        raise ValueError(f"kummer_m supports |z| <= {_Z_CAP:g}")
    neg = za < 0.0
    if not neg.any():
        return _kummer_array(alpha, gamma, za, ctl.rel_tol, ctl.max_terms)
    out = np.empty(za.shape)
    out[neg] = np.exp(za[neg]) * _kummer_array(gamma - alpha, gamma, -za[neg],
                                               ctl.rel_tol, ctl.max_terms)
    if not neg.all():
        out[~neg] = _kummer_array(alpha, gamma, za[~neg], ctl.rel_tol, ctl.max_terms)
    return out


def whittaker_m(a: float, nu: float, z, ctl: SeriesControl | None = None):
    """Whittaker function of the first kind M_{a,nu}(z), z > 0, nu > 0.

    Computed through the Kummer representation (single code path); z may
    be a scalar or ndarray.
    """
    a = float(a)
    nu = float(nu)
    if not nu > 0.0:
        raise ValueError(f"whittaker_m requires nu > 0, got {nu!r}")
    if np.ndim(z) == 0:
        zf = float(z)
        if not zf > 0.0:
            raise ValueError(f"whittaker_m requires z > 0, got {zf!r}")
        pref = math.exp(-0.5 * zf) * zf ** (nu + 0.5)
        return pref * kummer_m(nu - a + 0.5, 1.0 + 2.0 * nu, zf, ctl)
    za = np.asarray(z, dtype=float)
    if za.size and not float(za.min()) > 0.0:
        raise ValueError("whittaker_m requires z > 0")
    pref = np.exp(-0.5 * za) * za ** (nu + 0.5)
    return pref * kummer_m(nu - a + 0.5, 1.0 + 2.0 * nu, za, ctl)
