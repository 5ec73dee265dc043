"""Impulse control of a bank investment ratio under Cox default:
QVI finite-difference solver, controlled-path simulation, and
lemma-level diagnostics."""

from .model import (
    CheckEntry,
    CostParams,
    Curve,
    ModelSpec,
    UtilitySpec,
    ValidationReport,
    diffusion,
    drift,
    hazard_grid,
    injection_cost,
    invert_hazard,
    survival_grid,
    validate,
)
from .dynamics import (
    FeedbackPolicy,
    ImpulseSchedule,
    MCEstimate,
    PathRecord,
    ReductionReport,
    filtration_reduction_check,
    simulate,
    simulate_paths,
)
from .solver import (
    Grid,
    NumericalError,
    SolveResult,
    ValueSurface,
    impulse_max,
    pde_step,
    solve,
)
from .diagnostics import (
    CheckReport,
    ConvergenceStudy,
    check_bounds,
    check_obstacle,
    check_regularity,
    check_smooth_fit,
    check_theta_structure,
    convergence_study,
    dpp_residual,
    standard_checks,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
