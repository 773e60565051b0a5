"""Ergodic eigenvalue solver for weakly coupled viscous Hamilton-Jacobi systems.

Computes the critical long-run average cost and solution pair of the
two-state coupled system, extracts the optimal feedback control, and
cross-validates the eigenvalue through an occupation-measure linear program
and Monte Carlo simulation of the underlying regime-switching diffusion.
"""

from . import fields
from .config import RunConfig, load_config, save_config
from .discretize import Grid, assemble_generator, build_grid, gradient_central
from .dual_lp import OccupationMeasure, assemble_lp, build_control_mesh, solve_lp
from .errors import (
    ConvergenceError,
    CoefficientError,
    ErgodicHJBError,
    LPError,
    MonotonicityError,
    ParameterError,
    SolverError,
    WorkerError,
)
from .model import (
    HamiltonianSpec,
    ProblemSpec,
    load_problem,
    other_state,
    save_problem,
    truncate_hamiltonian,
    validate_assumptions,
)
from .simulate import FeedbackControl, empirical_measure, simulate_controls, simulate_paths
from .solver import (
    DiscountedSolution,
    ErgodicSolution,
    LUFactor,
    SolverOptions,
    extract_control,
    nested_domains,
    penalty_source,
    policy_evaluation,
    solve_discounted,
    solve_ergodic_normalized,
    vanishing_discount,
)

__all__ = [
    "fields",
    "Grid",
    "build_grid",
    "gradient_central",
    "assemble_generator",
    "HamiltonianSpec",
    "ProblemSpec",
    "other_state",
    "truncate_hamiltonian",
    "validate_assumptions",
    "load_problem",
    "save_problem",
    "SolverOptions",
    "DiscountedSolution",
    "ErgodicSolution",
    "penalty_source",
    "LUFactor",
    "policy_evaluation",
    "solve_discounted",
    "vanishing_discount",
    "solve_ergodic_normalized",
    "nested_domains",
    "extract_control",
    "build_control_mesh",
    "assemble_lp",
    "solve_lp",
    "OccupationMeasure",
    "FeedbackControl",
    "simulate_paths",
    "simulate_controls",
    "empirical_measure",
    "RunConfig",
    "load_config",
    "save_config",
    "ErgodicHJBError",
    "ParameterError",
    "CoefficientError",
    "SolverError",
    "ConvergenceError",
    "MonotonicityError",
    "LPError",
    "WorkerError",
]

__version__ = "0.1.0"
