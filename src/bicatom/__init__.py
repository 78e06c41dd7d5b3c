"""Born-Infeld hydrogen ground state.

Library layout:

- specfun: Kummer 1F1 and Whittaker M at a scalar z > 0 (from scratch)
- bic_potential: the screening function Z, W = -Z/rho, exact tables of W,
  and Born's potential, every integral by one fixed Gauss-Legendre rule
- morse_fit: Morse-type surrogate W_s and its four-parameter fit
- roots: Brent's bracketed root refinement, shared by the fit and solver
- analytic_solver: Whittaker quantization, alpha*beta and energy closed forms
- numerov_oracle: Numerov ground state by a matching-point search, the cross-check
- cli: CSV/JSON emitters for all of the above

The names most callers need are re-exported here, each resolved on first
access (PEP 562).  specfun, roots and analytic_solver need the standard
library only, so ``import bicatom`` loads no numpy; the first touch of a
name from bic_potential, morse_fit or numerov_oracle imports numpy.
"""

import importlib

__version__ = "0.1.0"

# each re-exported name and the module that defines it
_HOMES = {
    "AnalyticSolution": "analytic_solver", "calibrate_nu": "analytic_solver",
    "observables": "analytic_solver", "quantization_residual": "analytic_solver",
    "solve_a": "analytic_solver",
    "PotentialKind": "bic_potential", "PotentialTable": "bic_potential",
    "QUARTER_BETA": "specfun", "born_phi": "bic_potential",
    "tabulate": "bic_potential", "w_of_rho": "bic_potential",
    "z_of_rho": "bic_potential",
    "FitConfig": "morse_fit", "FitReport": "morse_fit",
    "MorseParams": "analytic_solver", "REFERENCE_MORSE": "analytic_solver",
    "fit": "morse_fit", "morse_w": "morse_fit",
    "OracleResult": "numerov_oracle", "RadialProblem": "numerov_oracle",
    "bic_interpolator": "numerov_oracle", "ground_state": "numerov_oracle",
    "SeriesNonConvergence": "specfun", "kummer_m": "specfun",
    "whittaker_m": "specfun",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
