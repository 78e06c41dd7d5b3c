"""Closed-form ground-state solution of the Morse-surrogate radial problem.

With the surrogate potential and the substitutions u(rho) = rho R(rho),
x = kappa (rho - b), z = 2 a e^{-x}, the s-state radial equation becomes
Whittaker's equation, and the regular solution is M_{a,nu}(z) with

    a  = sqrt(2 |A|),        |A| = -alpha_beta G / kappa^2,
    nu = sqrt(2 |E|),        E = -nu^2 / 2.

The reduction needs an attractive well, G < 0.  The u(0) = 0 boundary
condition lands at z0 = 2 a e^{kappa b} (rho = 0 maps to x = -kappa b,
for either sign of b; rho -> infinity maps to z -> 0+).  A ground state
requires M_{a,nu}(z0) = 0 with z0 the FIRST positive root of M: the
wavefunction is then nodeless on the interior.

Both solvers march along a path in (nu, a) on M_{a,nu}(X(a))
(quantization_residual) from where M gets its first root, and
Brent-refine its first sign change.  solve_a marches a up at fixed nu:
each root enters from z = +inf and slides down as X(a) grows, so the
first sign change is the first root's crossing.

The refined point is certified without a root scan.  With F_c(z) =
1F1(c; 1 + 2 nu; z) and alpha = nu - a + 1/2 < 0, F_alpha has exactly
m = ceil(-alpha) positive zeros, all simple (DLMF 13.9.1), and
F_{alpha+m}, ..., F_{alpha+1}, F_alpha is a Sturm sequence: at a zero of
F_c, c < 0, DLMF 13.3.1 gives F_{c-1} and F_{c+1} opposite signs, and
z F_c' = c (F_{c+1} - F_c) gives F_c' the sign opposite to F_{c+1}.  So
X is the first root exactly when F_{alpha+k}(X) > 0 for each k >= 1
with alpha + k < 0: no series sum for -1 < alpha < 0, one for
-2 < alpha <= -1.  Observables:

    alpha_beta = -kappa^2 a^2 / (2 G),
    eps_over_alpha2 = -[kappa^2 nu^2 / 2
                        + alpha_beta (V0 + B/4 + G)] / alpha_beta^2.

The eps_over_alpha2 expression is the inversion of the energy relation
E = -nu^2/2 written in terms of the total dimensionless eigenvalue; the
closed-form variant sometimes quoted with the opposite relative sign
(+kappa^2 nu^2/2 - alpha_beta(...)) does not reproduce the reference
chain's own numbers and is deliberately not implemented (the regression
suite pins this down).

calibrate_nu closes the loop: it marches nu down the curve on which
eps_over_alpha2 equals a target below 0 (by default the empirical
hydrogen value -0.49973); it takes wells with V0 + B/4 + G > 0 only, on
which the first sign change is the ground state (see calibrate_nu).

The records, MorseParams (G, V0, kappa, b) and AnalyticSolution (nu, a,
X, alpha_beta, eps_over_alpha2), are immutable typing.NamedTuples whose
__new__ checks the fields; _make goes through __new__ too, so _replace,
copy and pickle check them as well.  This module, specfun and roots are
the CLI's solve and calibrate route, which loads the standard library
only, and dataclasses would cost each such process about 10 ms, mostly
its import of inspect.  The numpy modules keep dataclasses: numpy
imports inspect itself, so a dataclass costs about 0.6 ms there.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional, Tuple

from .roots import _brent, _first_crossing
from .specfun import _TINY, _Z_CAP, QUARTER_BETA, kummer_m, whittaker_m

__all__ = [
    "AnalyticSolution",
    "MorseParams",
    "REFERENCE_MORSE",
    "quantization_residual",
    "solve_a",
    "observables",
    "calibrate_nu",
]

_SCAN_STEP = 0.05
_A_CAP = 50.0


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be a positive real, got {v!r}")


def _make_through_new(cls, iterable):
    """namedtuple's _make, but through __new__, so that _replace, copy and
    pickle check the fields as the constructor does."""
    return cls(*iterable)


class _MorseFields(NamedTuple):
    G: float
    V0: float
    kappa: float
    b: float


class MorseParams(_MorseFields):
    """Surrogate parameters: depth G, offset V0, inverse range kappa > 0 and
    signed shift b, all finite.  The closed form (solve_a, observables,
    calibrate_nu) needs an attractive well, G < 0."""

    __slots__ = ()
    _make = classmethod(_make_through_new)

    def __new__(cls, G: float, V0: float, kappa: float, b: float) -> MorseParams:
        if not all(math.isfinite(v) for v in (G, V0, kappa, b)):
            raise ValueError("MorseParams fields must be finite")
        if kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {kappa!r}")
        return super().__new__(cls, G, V0, kappa, b)


#: Reference surrogate parameters reproduced by the acceptance fit and used
#: as CLI defaults for the analytic stage.
REFERENCE_MORSE = MorseParams(G=-1.8300, V0=0.09805, kappa=0.58520, b=-0.45720)


def _require_well(morse: MorseParams) -> None:
    if not morse.G < 0.0:
        raise ValueError(f"the Morse depth G must be negative, got {morse.G!r}")


class _SolutionFields(NamedTuple):
    nu: float
    a: float
    X: float
    alpha_beta: float
    eps_over_alpha2: float


class AnalyticSolution(_SolutionFields):
    """Ground-state solution bundle.

    |A| = a^2/2 and E = -nu^2/2 are derived from a and nu on access; a, X
    and alpha_beta are positive (a bound state needs a well, a > 0).
    eps_over_alpha2 takes either sign: a well whose potential tends to a
    positive value, V0 + B/4 + G < 0, can bind its ground state above 0.
    """

    __slots__ = ()
    _make = classmethod(_make_through_new)

    def __new__(cls, nu: float, a: float, X: float, alpha_beta: float,
                eps_over_alpha2: float) -> AnalyticSolution:
        _require_positive(nu=nu, a=a, X=X, alpha_beta=alpha_beta)
        return super().__new__(cls, nu, a, X, alpha_beta, eps_over_alpha2)

    @property
    def A_abs(self) -> float:
        return 0.5 * self.a ** 2

    @property
    def E(self) -> float:
        return -0.5 * self.nu ** 2


# Kept only for perfbench/worker.py, which calls ModelConstants(morse=m);
# it goes with the next benchmark change (ROADMAP item 1).
def ModelConstants(morse: MorseParams = REFERENCE_MORSE) -> MorseParams:
    return morse


def _boundary_z(a: float, morse: MorseParams) -> float:
    """X(a) = 2a e^{kappa b}; inf when e^{kappa b} overflows."""
    try:
        return 2.0 * a * math.exp(morse.kappa * morse.b)
    except OverflowError:
        return math.inf


def quantization_residual(a: float, nu: float, morse: MorseParams) -> float:
    """M_{a,nu} evaluated at the boundary point z0 = 2a e^{kappa b}.

    A root in a (together with z0 being the first root of M) enforces
    u = 0 at rho = 0 for a nodeless interior solution.  Raises ValueError,
    naming kappa and b, when z0 lies beyond 1F1's range z <= 200, or so
    close to 0 that M's prefactor e^(-z0/2) z0^(nu+1/2) is not a normal
    float (see whittaker_m), where M would read as an exact root.
    """
    _require_positive(a=a, nu=nu)
    x = _boundary_z(a, morse)
    if not x <= _Z_CAP:
        where = f"beyond 1F1's range z <= {_Z_CAP:g}"
    elif x < 1.0 and not math.exp(-0.5 * x) * x ** (nu + 0.5) >= _TINY:  # whittaker_m's test
        where = f"so near 0 that e^(-X/2) X^(nu+1/2) underflows at nu = {nu:.6g}"
    else:
        return whittaker_m(a, nu, x)
    raise ValueError(f"kappa = {morse.kappa!r}, b = {morse.b!r} put X = 2a e^(kappa b) = "
                     f"{x:.6g} at a = {a:.6g} {where}")


def first_root(a: float, nu: float) -> float:
    """Smallest z > 0 with M_{a,nu}(z) = 0, by scan + Brent refinement.

    A diagnostic that no solver calls: the tests check the solvers'
    certificate (_not_first_root) against it.  Scans in steps of 0.05
    from z = 0.05 up to z = 200 and refines the first bracketed sign
    change to 1e-10.  M > 0 near z = 0+, so the first root flips the
    sign; when M(0.05) < 0 the root below 0.05 is bracketed by halving
    toward 0.  For a <= 50 at most one root lies below 0.05.
    When nu - a + 1/2 >= 0 every series coefficient of the rising factor
    is positive and M has no positive roots at all; that case (and any
    other scan without a sign change) raises RuntimeError.
    """
    _require_positive(a=a, nu=nu)
    if nu - a + 0.5 >= 0.0:
        raise RuntimeError(
            f"M_({a!r},{nu!r}) has only positive series terms: no positive roots")
    m = partial(whittaker_m, a, nu)
    z_lo = _SCAN_STEP
    while m(z_lo) < 0.0:  # the first root lies below z_lo
        z_lo *= 0.5
    zs = chain((z_lo,) if z_lo < _SCAN_STEP else (),
               (round(k * _SCAN_STEP, 10) for k in range(1, round(_Z_CAP / _SCAN_STEP) + 1)))
    root = _first_crossing(m, ((z, m(z)) for z in zs), 1e-10)
    if root is None:
        raise RuntimeError(
            f"no root of M_({a!r},{nu!r}) found below z = {_Z_CAP:g}")
    return root


def _not_first_root(a: float, nu: float, x: float) -> Optional[str]:
    """None when x, a root of M_{a,nu}, is certified as its first root, else why not.

    Tests 1F1(alpha + k; 1 + 2 nu; x) > 0, alpha = nu - a + 1/2, for
    k = 1, 2, ... while alpha + k < 0 (see the module docstring).
    """
    alpha = nu - a + 0.5
    k = 1
    while alpha + k < 0.0:
        if not kummer_m(alpha + k, 1.0 + 2.0 * nu, x) > 0.0:
            return f"a = {a!r} puts a later root of M at X = {x!r}"
        k += 1
    return None


def _march(path: Callable[[float], Tuple[float, float]], ts: Iterable[float],
           morse: MorseParams, xtol: float, missing: str,
           later_root_missing: bool = False) -> Tuple[float, float]:
    """(nu, a) at the first sign change of M_{a,nu}(X(a)) along path(t), t in ts.

    Skips points with a outside (0, 50] or with no positive root of M
    (alpha = nu - a + 1/2 > 0), Brent-refines the first sign change in t
    to xtol and raises RuntimeError(missing) when there is none.  A kept
    point that follows one skipped for alpha > 0 and has a negative
    residual is preceded by the point where alpha = 0 (Brent in t), at
    which M has no root and the residual is positive.  A step in which two
    roots cross X(a) keeps the sign of M, so the point is certified once
    (_not_first_root): RuntimeError when that fails, prefixed by missing
    when later_root_missing.
    """
    def residual(t: float) -> float:
        nu, a = path(t)
        return quantization_residual(a, nu, morse)

    def alpha(t: float) -> float:
        nu, a = path(t)
        return nu - a + 0.5

    def samples():
        t_out = None  # the last point skipped for alpha > 0
        for t in ts:
            nu, a = path(t)
            if not 0.0 < a <= _A_CAP:
                t_out = None
            elif nu - a + 0.5 > 0.0:
                t_out = t
            else:
                r = quantization_residual(a, nu, morse)
                if t_out is not None and r < 0.0:
                    t0 = _brent(alpha, t_out, t, alpha(t_out), nu - a + 0.5, xtol)
                    yield t0, residual(t0)
                t_out = None
                yield t, r

    t = _first_crossing(residual, samples(), xtol)
    if t is None:
        raise RuntimeError(missing)
    nu, a = path(t)
    detail = _not_first_root(a, nu, _boundary_z(a, morse))
    if detail is not None:
        raise RuntimeError(f"{missing}: {detail}" if later_root_missing else detail)
    return nu, a


def solve_a(nu: float, morse: MorseParams) -> float:
    """Smallest a > 0 whose first Whittaker root sits at X(a) = 2a e^{kappa b}.

    a marches up from 0.1 to 50 in steps of 0.1; the first sign change of
    M_{a,nu}(X(a)) is refined to 1e-10 and certified (_march).  Raises
    ValueError unless G < 0.
    """
    _require_positive(nu=nu)
    _require_well(morse)
    return _march(lambda a: (nu, a), (round(0.1 * k, 10) for k in range(1, 501)), morse,
                  1e-10, f"no ground-state a in (0, {_A_CAP:g}] for nu = {nu!r}")[1]


def observables(nu: float, a: float, morse: MorseParams) -> AnalyticSolution:
    """Assemble the solution bundle from (nu, a), both positive, on the well morse.

    Raises ValueError unless G < 0, and when eps is not finite, as when
    alpha_beta = -kappa^2 a^2 / (2 G) squared underflows to 0.
    """
    _require_positive(nu=nu, a=a)
    _require_well(morse)
    alpha_beta = (morse.kappa * morse.kappa) * (a * a) / (-2.0 * morse.G)
    ab2 = alpha_beta * alpha_beta
    eps = (-(0.5 * (morse.kappa * morse.kappa) * (nu * nu)
             + alpha_beta * (morse.V0 + QUARTER_BETA + morse.G)) / ab2
           if 0.0 < ab2 < math.inf else math.nan)
    if not math.isfinite(eps):
        raise ValueError(
            f"alpha_beta^2 underflows to 0, or it or eps overflows, at a = {a!r}")
    return AnalyticSolution(
        nu=nu,
        a=a,
        X=_boundary_z(a, morse),
        alpha_beta=alpha_beta,
        eps_over_alpha2=eps,
    )


def calibrate_nu(target_eps: float, morse: MorseParams) -> AnalyticSolution:
    """The nu in (0.5, 10] whose ground state has eps_over_alpha2 = target_eps < 0.

    With c0 = V0 + B/4 + G, alpha_beta is the positive root of
    -target ab^2 - c0 ab - kappa^2 nu^2 / 2 = 0, which gives a_T(nu) on
    the target curve.  nu marches down it from 10 to 0.5 in steps of 0.1;
    the first sign change of M at X(a_T) is refined to 1e-12 and certified
    (_march).  For c0 > 0 that is the ground state: above the answer the
    ground-state eps exceeds the target (it increases with nu), and eps
    increases with a, so a_T lies below the ground-state a and M has no
    root in (0, X]; a first crossing at a later root then means the target
    lies above the ground-state curve at every nu.  ValueError unless
    G < 0.  RuntimeError for a target >= 0, which the march does not
    search; for c0 <= 0, where eps need not be monotone in nu and a target
    can be met at two nu; and when the target is not attainable.
    """
    _require_well(morse)
    if not math.isfinite(target_eps):
        raise ValueError("target_eps must be finite")
    if not target_eps < 0.0:
        raise RuntimeError(
            f"target eps/alpha^2 = {target_eps!r} is not below 0: calibrate_nu searches "
            "only for targets below 0, and its march is proved only for V0 + B/4 + G > 0")
    t = -target_eps
    c0 = morse.V0 + QUARTER_BETA + morse.G
    if not c0 > 0.0:
        raise RuntimeError(
            f"V0 + B/4 + G = {c0!r} is not above 0: calibrate_nu's march is proved only "
            "for V0 + B/4 + G > 0, and otherwise eps/alpha^2 can meet a target at two nu")

    def on_target(nu: float) -> Tuple[float, float]:
        s = math.hypot(c0, morse.kappa * nu * math.sqrt(2.0 * t))
        alpha_beta = (c0 + s) / (2.0 * t)
        return nu, math.sqrt(-2.0 * morse.G * alpha_beta) / morse.kappa

    return observables(*_march(
        on_target, (round(10.0 - 0.1 * k, 10) for k in range(96)), morse, 1e-12,
        f"target eps/alpha^2 = {target_eps!r} not attainable for nu in (0.5, 10]",
        later_root_missing=True), morse)
