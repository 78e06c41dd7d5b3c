"""Born-Infeld hydrogen ground state.

Library layout:

- specfun: Kummer 1F1 and Whittaker M for z > 0 (from scratch)
- bic_potential: the screening function Z, W = -Z/rho, and Born's
  potential by a fixed Kronrod rule
- morse_fit: Morse-type surrogate W_s and its four-parameter fit
- roots: Brent's bracketed root refinement, shared by the fit and solver
- analytic_solver: Whittaker quantization, alpha*beta and energy closed forms
- numerov_oracle: direct Numerov shooting cross-check
- cli: CSV/JSON emitters for all of the above

The names most callers need are re-exported here.
"""

from .analytic_solver import (AnalyticSolution, ModelConstants, calibrate_nu,
                              first_root, observables, quantization_residual,
                              solve_a)
from .bic_potential import (PotentialKind, PotentialTable, QUARTER_BETA,
                            born_phi, tabulate, w_of_rho, z_integrand,
                            z_of_rho)
from .morse_fit import (FitConfig, FitReport, MorseParams, REFERENCE_MORSE,
                        fit, morse_w)
from .numerov_oracle import (OracleResult, RadialProblem, bic_interpolator,
                             ground_state, shoot)
from .specfun import SeriesNonConvergence, kummer_m, whittaker_m

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution", "ModelConstants", "calibrate_nu", "first_root",
    "observables", "quantization_residual", "solve_a",
    "PotentialKind", "PotentialTable", "QUARTER_BETA", "born_phi",
    "tabulate", "w_of_rho", "z_integrand", "z_of_rho",
    "FitConfig", "FitReport", "MorseParams", "REFERENCE_MORSE", "fit",
    "morse_w",
    "OracleResult", "RadialProblem", "bic_interpolator", "ground_state",
    "shoot",
    "SeriesNonConvergence", "kummer_m", "whittaker_m",
    "__version__",
]
