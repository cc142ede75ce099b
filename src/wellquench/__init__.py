"""Dynamics of a box eigenstate released by a sudden shift of one wall.

Spectral representation, survival/escape probabilities with their short-time
power laws, the shift-independent limit profile, its curve-length fractal
dimension, and independent numerical oracles for all of it.
"""

__version__ = "0.1.0"

from .spectral import (ModeCoefficients, WellConfig, density_field,
                       mode_coefficients, truncation_for_tolerance,
                       wavefunction)
from .survival import (RegimeReport, asymptote_confined,
                       asymptote_free, crossover_time, escape_integral,
                       escape_probability_aligned, escape_probability_exact,
                       escape_small_delta, regime_report, survival_amplitude)
from .universal import (UniversalCurve, ValleyList, scaled_escape_limit,
                        universal_curve, universal_function,
                        universal_tail_bound, valley_locations)
from .fractal import (CurveLength, DimensionFit, PhaseSumSample, dimension_fit,
                      normality_diagnostics, phase_sum_samples, profile_dimension)
from .oracle import (GridState, adaptive_quadrature, initial_state, overlap,
                     propagate)

__all__ = [
    "WellConfig", "ModeCoefficients",
    "mode_coefficients", "wavefunction", "density_field",
    "truncation_for_tolerance",
    "RegimeReport", "survival_amplitude",
    "escape_probability_exact", "escape_probability_aligned",
    "escape_small_delta", "escape_integral", "asymptote_free",
    "asymptote_confined", "crossover_time", "regime_report",
    "UniversalCurve", "ValleyList", "universal_function", "universal_curve",
    "universal_tail_bound", "scaled_escape_limit", "valley_locations",
    "CurveLength", "DimensionFit", "PhaseSumSample", "dimension_fit",
    "phase_sum_samples", "normality_diagnostics", "profile_dimension",
    "GridState", "initial_state", "propagate", "overlap",
    "adaptive_quadrature",
    "__version__",
]
