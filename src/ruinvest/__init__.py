"""Minimal ruin probability with constrained investment fractions.

The surplus of an insurer follows a compound-Poisson risk process; a fraction
theta in [-b, a] of the surplus may be held in a risky asset.  This package
solves the associated Hamilton-Jacobi-Bellman equation for the maximal
survival probability, extracts the optimal feedback policy with its regime
switching structure, and verifies both by Monte Carlo simulation of the
controlled surplus.
"""

__version__ = "0.1.0"

from .curve import RegimeSegment, SolutionCurve
from .exp_solver import SolveOptions, SolverAbort, extrapolate_tail, solve, third_order_check
from .general_solver import general_solve, solve_constant_regime_near_zero
from .model import (ExponentialClaims, GeneralClaims, ModelParams, RegimeConstants,
                    convex_start_condition, regime_constants, validate)
from .simulator import (ConstantPolicy, FeedbackPolicy, SimConfig, SimulationReport,
                        compare_policies, estimate_survival, lundberg_ruin_probability)

__all__ = [
    "__version__",
    "ModelParams", "ExponentialClaims", "GeneralClaims", "RegimeConstants",
    "validate", "regime_constants", "convex_start_condition",
    "SolutionCurve", "RegimeSegment",
    "solve", "SolveOptions", "SolverAbort", "third_order_check", "extrapolate_tail",
    "general_solve", "solve_constant_regime_near_zero",
    "ConstantPolicy", "FeedbackPolicy", "SimConfig", "SimulationReport",
    "estimate_survival", "compare_policies",
    "lundberg_ruin_probability",
]
