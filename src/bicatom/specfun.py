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
e^(-z/2) z^(nu+1/2) is a normal float, and M and z^(nu+1/2) below the
largest float).

Each public function checks its arguments once and then calls the
unchecked series _kummer_series: kummer_m checks alpha, gamma and z;
whittaker_m checks a, nu and z, and the alpha and gamma it forms,
itself, so that its refusals name its own arguments.

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
    precision: no convergence in _MAX_TERMS terms, cancellation or overflow."""


def kummer_m(alpha: float, gamma: float, z: float) -> float:
    """Kummer's confluent hypergeometric 1F1(alpha; gamma; z), 0 <= z <= 200.

    Checks its arguments, then sums the series with _kummer_series.
    Negative z, where the alternating series cancels catastrophically,
    is rejected.

    Raises ValueError for a NaN or infinite alpha or gamma, gamma in
    {0, -1, -2, ...} or any z outside [0, 200] (NaN included), and
    SeriesNonConvergence when 5000 terms do not converge, when terms that
    overflow sum to NaN (so it never returns NaN), or when the terms
    cancel beyond the bound of _kummer_series, as for
    1F1(-45.2; 1.2; 190), whose terms of total size 1.3e50 sum to 6.6e39.
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
    return _kummer_series(alpha, gamma, z)


def _kummer_series(alpha: float, gamma: float, z: float) -> float:
    """1F1(alpha; gamma; z) by its series, for floats that kummer_m's checks pass.

    Checks nothing itself: kummer_m and whittaker_m check the arguments
    first, so that a value runs each check once.

    Forward term recurrence t_{n+1} = t_n (alpha+n) z / ((gamma+n)(n+1)),
    stopped once |t_n| is below 1e-14 times the accumulated term
    magnitude sum |t_k| for two consecutive terms that are zero or
    shrinking (tiny but growing leading terms, as for alpha near 0 or a
    negative integer, do not end the sum).  The stop is relative to that
    magnitude, not to the partial sum: near a zero of the function the
    sum itself is small through cancellation and a sum-relative test
    would never trigger.  n counts as a float, which is exact below 2^53
    and so rounds every step as an int n converted to float would, but
    spares that conversion in each term; |t_n| is taken by a comparison
    for the same reason.

    Accuracy: each term carries at most 3n eps relative rounding from its
    n recurrence steps, and the running sum adds at most (N/2) eps
    sum |t_n| over its N terms, so the result is within 4 N eps sum |t_n|
    of the series.  It is returned only when eps sum |t_n| <= 1e-11
    max(|sum t_n|, 1), so within 4 N 1e-11 max(|1F1|, 1).  On |alpha| <=
    50, 1 <= gamma <= 21 and 0 <= z <= 200, N stays below 330, which
    bounds the error by 1.5e-8 max(|1F1|, 1), the truncated tail
    included.  An overflowed term passes the stop test's size check, which
    raises there once the sum is NaN.  Raises SeriesNonConvergence as
    kummer_m documents.
    """
    rel_tol = _REL_TOL
    term = total = magnitude = 1.0  # magnitude, sum |t_k|: the cancellation-safe scale
    streak = 0
    n = 0.0
    for _ in range(_MAX_TERMS):
        n_next = n + 1.0
        ratio = (alpha + n) * z / ((gamma + n) * n_next)
        n = n_next
        term *= ratio
        total += term
        size = term if term >= 0.0 else -term
        magnitude += size
        if not size > rel_tol * magnitude:  # an inf or NaN term passes too
            if total != total:
                raise SeriesNonConvergence(f"1F1({alpha}, {gamma}, {z}): the terms overflow "
                                           f"and sum to NaN, beyond double precision")
            if term == 0.0 or -1.0 < ratio < 1.0:
                streak += 1
                if streak >= 2:
                    if _EPS * magnitude > _CANCEL_TOL * max(abs(total), 1.0):
                        raise SeriesNonConvergence(
                            f"1F1({alpha}, {gamma}, {z}): terms of total size {magnitude:.3g} "
                            f"cancel to {total:.3g}, beyond double precision")
                    return total
                continue
        streak = 0
    raise SeriesNonConvergence(
        f"1F1({alpha}, {gamma}, {z}) did not converge in {_MAX_TERMS} terms")


def whittaker_m(a: float, nu: float, z: float) -> float:
    """Whittaker function of the first kind M_{a,nu}(z), z > 0, finite nu > 0 and a.

    Computed through the Kummer representation.  whittaker_m checks a, nu
    and z, including 1F1's range z <= 200, and a finite alpha = nu - a +
    1/2 and gamma = 1 + 2 nu, which overflow for finite a and nu of order
    1e308, as at nu = 1e308; either refusal is a ValueError naming a, nu
    and z.  A z so small that the prefactor e^(-z/2) z^(nu+1/2) is not a
    normal float, below 2.2e-308, raises ValueError too: M would come out
    as 0 or subnormal whatever 1F1 is.  Since z <= 200 keeps e^(-z/2) >=
    e^-100, that needs z < 1, and it is z < 10^(-307.65 / (nu + 1/2)) to
    within rounding, as z < 3.3e-91 at nu = 2.9; up to nu = 0.45 every
    positive float passes.  Only then does it sum 1F1 with the unchecked
    _kummer_series, so that each check runs once (gamma > 0 follows from
    nu > 0) and a z refused so far costs no series.  An M beyond the largest
    float raises ValueError too, as does z^(nu+1/2) alone past it: that is
    nu + 1/2 > 709.78 / ln z, as nu > 133.5 at z = 200.  Terms of 1F1 that
    overflow to a NaN sum raise SeriesNonConvergence, as at a = 1e200.
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
    if not z <= _Z_CAP:
        raise ValueError(f"whittaker_m supports z <= {_Z_CAP:g}, 1F1's range, "
                         f"got a = {a!r}, nu = {nu!r}, z = {z!r}")
    alpha, gamma = nu - a + 0.5, 1.0 + 2.0 * nu
    if not (math.isfinite(alpha) and math.isfinite(gamma)):
        raise ValueError(f"whittaker_m overflows at a = {a!r}, nu = {nu!r}, z = {z!r}: "
                         "alpha = nu - a + 1/2 or gamma = 1 + 2 nu is not a finite float")
    try:
        prefactor = math.exp(-0.5 * z) * z ** (nu + 0.5)
    except OverflowError:  # z^(nu+1/2) past the largest float
        prefactor = math.inf
    if not prefactor >= _TINY:
        raise ValueError(f"whittaker_m's prefactor e^(-z/2) z^(nu+1/2) underflows at "
                         f"z = {z!r}, nu = {nu!r}")
    value = prefactor * _kummer_series(alpha, gamma, z)
    if not math.isfinite(value):
        raise ValueError(f"whittaker_m overflows at a = {a!r}, nu = {nu!r}, z = {z!r}: "
                         f"M is not a finite float")
    return value
