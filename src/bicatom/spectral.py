"""Laguerre-Ritz estimate of the lowest eigenvalue of a radial problem.

Solves -1/2 u'' + alpha_beta W(rho) u = lambda u, u(0) = 0, in the basis
chi_n = x e^{-x/2} L_n^(2)(x) / sqrt((n+1)(n+2)), n < 20, with x = 2 k rho
and k = alpha_beta (Laguerre functions; H. Shull and P.-O. Lowdin,
J. Chem. Phys. 30, 617 (1959)); chi_0 is the hydrogen 1s state of charge
alpha_beta.  The basis is orthonormal in x.  Every matrix element is
taken by one 60-node Gauss-Laguerre rule, which is exact for the overlap
and kinetic integrands, e^{-x} times polynomials of degree <= 40: the
overlap is exactly I/(2k), so the problem is the standard symmetric one,
and only the potential term is a quadrature estimate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["ritz_lowest"]

_FUNCTIONS = 20
_NODES = 60


def _laguerre(x: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """Rows L_0^(alpha)(x) ... L_n^(alpha)(x), n >= 1, by the three-term recurrence."""
    out = np.empty((n + 1, len(x)))
    out[0] = 1.0
    out[1] = 1.0 + alpha - x
    for j in range(1, n):
        out[j + 1] = ((2 * j + 1 + alpha - x) * out[j] - (j + alpha) * out[j - 1]) / (j + 1)
    return out


@lru_cache(maxsize=None)
def _rule():
    """(x, w, phi, kinetic): the Gauss-Laguerre rule and the basis on it, built once.

    The nodes x are the eigenvalues of the Jacobi matrix.  The weights are
    the Christoffel numbers w_i = 1 / sum_{n<N} L_n(x_i)^2.  They fall to
    1e-94 at x = 219, where eigenvector components, good to 1e-16
    absolute, would lose them.  The equivalent x_i / ((N+1) L_{N+1}(x_i))^2
    divides by a polynomial with a root next to each node: on these nodes
    it puts the first weight 2e-11 off and the rule's integral of e^{-x}
    2e-12 off, where the Christoffel numbers give 1.2e-14.  phi holds
    sqrt(w) e^{x/2} chi, node by function, so that phi^T diag(g) phi is
    the rule's int chi_n g chi_m dx; kinetic is int chi_n' chi_m' dx.
    """
    j = np.arange(1.0, _NODES)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(_NODES) + 1.0) + np.diag(j, -1))
    lag = _laguerre(x, _NODES - 1, 0.0)
    w = 1.0 / np.einsum("ni,ni->i", lag, lag)
    n = np.arange(_FUNCTIONS)[:, None]
    lag = _laguerre(x, _FUNCTIONS - 1, 2.0)
    scale = np.sqrt(w / ((n + 1.0) * (n + 2.0)))
    # x L_n^(2)' = n L_n^(2) - (n + 2) L_{n-1}^(2)
    lower = np.concatenate((np.zeros((1, _NODES)), lag[:-1]))
    dphi = (((n + 1.0 - 0.5 * x) * lag - (n + 2.0) * lower) * scale).T
    phi = (lag * scale * x).T
    kinetic = dphi.T @ dphi
    for table in (x, w, phi, kinetic):
        table.flags.writeable = False
    return x, w, phi, kinetic


def ritz_lowest(potential: Callable[[np.ndarray], np.ndarray], alpha_beta: float) -> float:
    """Lowest Ritz eigenvalue of -1/2 u'' + alpha_beta W u in 20 Laguerre functions.

    ``potential`` is called once, on the array of the 60 quadrature
    points rho = x / (2 alpha_beta), from about 0.012 / alpha_beta to
    110 / alpha_beta, and must return an array of their shape
    (ValueError otherwise).  A non-finite matrix, from a W that is not
    finite there or alpha_beta above about 1e154, gives NaN and no warning.
    alpha_beta must be positive and finite (ValueError otherwise).
    """
    k = float(alpha_beta)
    if not 0.0 < k < math.inf:
        raise ValueError(f"alpha_beta must be positive and finite, got {alpha_beta!r}")
    x, _, phi, kinetic = _rule()
    w = np.asarray(potential(x / (2.0 * k)), dtype=float)
    if w.shape != x.shape:
        raise ValueError(f"potential must return an array of shape {x.shape}, got {w.shape}")
    # 2k times the Hamiltonian's matrix in rho, whose overlap is I/(2k)
    with np.errstate(over="ignore", invalid="ignore"):
        h = (2.0 * k * k) * kinetic + k * ((phi * w[:, None]).T @ phi)
    if not np.all(np.isfinite(h)):
        return float("nan")
    return float(np.linalg.eigvalsh(h)[0])
