"""Special functions for the screened-hydrogen problem.

From-scratch implementations of the Kummer confluent hypergeometric
function 1F1(alpha; gamma; z) and the Whittaker function of the first
kind,

    M_{a,nu}(z) = e^{-z/2} z^{nu+1/2} 1F1(nu - a + 1/2; 1 + 2 nu; z),

which carries the bound-state quantization condition downstream.  All
routines work in double precision; the 1F1 series is summed by forward
term recurrence, which is adequate for the moderate arguments used here
(0 <= z <= 200 is enforced rather than switching to asymptotic
expansions; M also needs a z > 0 large enough that its prefactor
e^(-z/2) z^(nu+1/2) is a normal float).

Also the constant B(1/4,1/4)/4, the screened potential's depth at the
origin, which the surrogate and its closed-form solution share.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "QUARTER_BETA",
    "SeriesNonConvergence",
    "kummer_m",
    "whittaker_m",
]

# B(1/4,1/4)/4 = Gamma(1/4)^2/(4 sqrt(pi)) (DLMF 5.12.1), correctly rounded;
# the tests check it against mpmath and against born_phi(0), its quadrature
QUARTER_BETA = 1.8540746773013719

_Z_CAP = 200.0
# 1F1 series truncation: relative tolerance and term budget
_REL_TOL = 1e-14
_MAX_TERMS = 5000
# largest rounding floor eps sum |t_n| / max(|sum t_n|, 1) returned: above
# the 7.9e-13 that the tests' root scans reach, far below the 4.3e-6 of
# 1F1(-45.2; 1.2; 190)
_CANCEL_TOL = 1e-11
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # the smallest normal float


class SeriesNonConvergence(RuntimeError):
    """Raised when the 1F1 series cannot be summed to its tolerance in double
    precision: no convergence within _MAX_TERMS terms, or too much cancellation."""


def kummer_m(alpha: float, gamma: float, z: float) -> float:
    """Kummer's confluent hypergeometric 1F1(alpha; gamma; z), 0 <= z <= 200.

    Forward term recurrence t_{n+1} = t_n (alpha+n) z / ((gamma+n)(n+1)),
    stopped once |t_n| is below 1e-14 times the accumulated term
    magnitude sum |t_k| for two consecutive terms that are zero or
    shrinking (tiny but growing leading terms, as for alpha near 0 or a
    negative integer, do not end the sum).  The stop is relative to that
    magnitude, not to the partial sum: near a zero of the function the
    sum itself is small through cancellation and a sum-relative test
    would never trigger.  Negative z, where the alternating series
    cancels catastrophically, is rejected.

    Accuracy: each term carries at most 3n eps relative rounding from its
    n recurrence steps, and the running sum adds at most (N/2) eps
    sum |t_n| over its N terms, so the result is within 4 N eps sum |t_n|
    of the series.  It is returned only when eps sum |t_n| <= 1e-11
    max(|sum t_n|, 1), so within 4 N 1e-11 max(|1F1|, 1).  On |alpha| <=
    50, 1 <= gamma <= 21 and 0 <= z <= 200, N stays below 330, which
    bounds the error by 1.5e-8 max(|1F1|, 1), the truncated tail
    included.

    Raises ValueError for a NaN or infinite alpha or gamma, gamma in
    {0, -1, -2, ...} or any z outside [0, 200] (NaN included), and
    SeriesNonConvergence when 5000 terms do not converge or when the
    terms cancel beyond that bound, as for 1F1(-45.2; 1.2; 190), whose
    terms of total size 1.3e50 sum to 6.6e39.
    """
    alpha = float(alpha)
    gamma = float(gamma)
    z = float(z)
    if not (math.isfinite(alpha) and math.isfinite(gamma)):
        raise ValueError(f"kummer_m needs finite alpha and gamma, got {alpha!r}, {gamma!r}")
    if gamma <= 0.0 and gamma == math.floor(gamma):
        raise ValueError(f"kummer_m undefined for gamma = {gamma} (non-positive integer)")
    if not 0.0 <= z <= _Z_CAP:
        raise ValueError(f"kummer_m supports 0 <= z <= {_Z_CAP:g}, got {z!r}")
    rel_tol, max_terms = _REL_TOL, _MAX_TERMS
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
                if _EPS * magnitude > _CANCEL_TOL * max(abs(total), 1.0):
                    raise SeriesNonConvergence(
                        f"1F1({alpha}, {gamma}, {z}): terms of total size {magnitude:.3g} "
                        f"cancel to {total:.3g}, beyond double precision")
                return total
        else:
            streak = 0
    raise SeriesNonConvergence(
        f"1F1({alpha}, {gamma}, {z}) did not converge in {max_terms} terms")


def whittaker_m(a: float, nu: float, z: float) -> float:
    """Whittaker function of the first kind M_{a,nu}(z), z > 0, finite nu > 0 and a.

    Computed through the Kummer representation.  1F1 is taken first, so
    a z beyond kummer_m's range raises its ValueError before z^(nu+1/2)
    can overflow.  A z so small that the prefactor e^(-z/2) z^(nu+1/2)
    is not a normal float, below 2.2e-308, raises ValueError: M would
    come out as 0 or subnormal whatever 1F1 is.  Since z <= 200 keeps
    e^(-z/2) >= e^-100, that needs z < 1, and it is z < 10^(-307.65 /
    (nu + 1/2)) to within rounding, as z < 3.3e-91 at nu = 2.9; up to
    nu = 0.45 every positive float passes.
    """
    a = float(a)
    nu = float(nu)
    z = float(z)
    if not math.isfinite(a):
        raise ValueError(f"whittaker_m requires a finite a, got {a!r}")
    if not 0.0 < nu < math.inf:
        raise ValueError(f"whittaker_m requires 0 < nu < inf, got {nu!r}")
    if not z > 0.0:
        raise ValueError(f"whittaker_m requires z > 0, got {z!r}")
    m = kummer_m(nu - a + 0.5, 1.0 + 2.0 * nu, z)
    prefactor = math.exp(-0.5 * z) * z ** (nu + 0.5)
    if not prefactor >= _TINY:
        raise ValueError(f"whittaker_m's prefactor e^(-z/2) z^(nu+1/2) underflows at "
                         f"z = {z!r}, nu = {nu!r}")
    return prefactor * m
