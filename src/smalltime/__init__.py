"""Short-maturity expansions of expectations and option prices under
exponential jump-diffusion models, verified by Monte Carlo simulation.

The package evaluates the frozen-coefficient integro-differential generator
of an Ito-type model, the leading small-t behavior of call prices in every
moneyness regime, and provides a reproducible simulator of the same model
so every analytic coefficient can be checked against an empirical slope.
"""

from .asymptotics import (ATM_DIFFUSIVE, ATM_FINITE_VARIATION, ATM_STABLE,
                          ITM, OTM, AsymptoticResult, atm_coefficient,
                          classify_regime, itm_slope, otm_slope,
                          stable_positive_part_constant)
from .characteristics import (ExpModelCharacteristics, LocalCharacteristics,
                              from_markov, from_time_changed_levy)
from .compensators import (AtomicCompensator, DensityCompensator,
                           JumpCompensator, PushforwardCompensator,
                           StableLikeCompensator, atomic, density,
                           exp_double_tail_down, exp_double_tail_up,
                           integrate, kappa, laplace_jumps, no_jumps,
                           normal_jumps, stable_like)
from .errors import (ConfigError, CutoffTooCoarse, DegenerateGradient,
                     DimensionMismatch, DomainError, InsufficientSignal,
                     InvariantViolation, QuadratureDivergence, RegimeUnknown,
                     SmallTimeError, SpecError)
from .functions import (SmoothFunction, affine, exp_affine, gaussian_bump,
                        mollified_call, polynomial)
from .generator import (apply_exp_generator, apply_generator,
                        short_time_expectation)
from .montecarlo import (Estimate, SimConfig, SlopeRow, SlopeStudy,
                         estimate_call, price_grid, simulate_terminal,
                         slope_study)

__version__ = "0.1.0"

__all__ = [
    "ATM_DIFFUSIVE", "ATM_FINITE_VARIATION", "ATM_STABLE", "ITM", "OTM",
    "AsymptoticResult", "AtomicCompensator", "ConfigError", "CutoffTooCoarse",
    "DegenerateGradient", "DensityCompensator", "DimensionMismatch",
    "DomainError", "Estimate", "ExpModelCharacteristics", "InsufficientSignal",
    "InvariantViolation", "JumpCompensator", "LocalCharacteristics",
    "PushforwardCompensator", "QuadratureDivergence", "RegimeUnknown",
    "SimConfig", "SlopeRow", "SlopeStudy", "SmallTimeError", "SmoothFunction",
    "SpecError", "StableLikeCompensator", "affine", "apply_exp_generator",
    "apply_generator", "atm_coefficient", "atomic", "classify_regime",
    "density", "estimate_call", "exp_affine", "exp_double_tail_down",
    "exp_double_tail_up", "from_markov", "from_time_changed_levy",
    "gaussian_bump", "integrate", "itm_slope", "kappa", "laplace_jumps",
    "mollified_call", "no_jumps", "normal_jumps", "otm_slope", "polynomial",
    "price_grid", "short_time_expectation", "simulate_terminal",
    "slope_study", "stable_like", "stable_positive_part_constant",
]
