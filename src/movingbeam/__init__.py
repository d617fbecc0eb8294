"""Solver for the damped nonlinear beam equation on a domain with moving ends.

C1 Hermite finite elements in space, a three-level Newmark-theta scheme in
time with Newton solves per step, and a manufactured-solution verification
harness (error tables, convergence rates, theta sweeps, energy decay).
"""

from .geometry import (
    BeamParameters,
    BoundaryKind,
    HypothesisReport,
    InvalidBoundaryError,
    MovingBoundary,
    SingularMappingError,
    eval_boundary,
    validate_hypotheses,
)
from .fem import (
    AssembledOperators,
    HermiteSpace,
    KroneckerOperators,
    Mesh,
    assemble_constant,
    assemble_load,
    gauss_rule,
    interpolate_initial,
)
from .newmark import (
    BeamSystem,
    NewmarkConfig,
    NewtonNoConvergence,
    SingularJacobian,
    StepProblem,
    Trajectory,
    advance,
    newton_solve,
)
from .manufactured import CASE_IDS, ManufacturedCase, make_source
from .verification import (
    ConvergenceTable,
    ErrorReport,
    SimulationResult,
    ThetaSweepResult,
    cells_for_h,
    convergence_study,
    error_norms,
    simulate,
    theta_sweep,
)
from .energy import DecayFit, decay_fit, energy_series

__version__ = "0.1.0"
