"""Stabilized SQP solver for degenerate constrained problems.

The subproblem augments the multiplier update with a proximal weight
rho_k, which keeps the saddle-point systems nonsingular and restores
fast local convergence when the constraint Jacobian is rank deficient
and multipliers are nonunique.  All norms are taken in user-supplied
mass-matrix metrics.
"""

from .bench import (
    BenchmarkProblem,
    get_benchmark,
    list_benchmarks,
    make_cone_instance,
    make_degenerate_line,
    make_eigencontrol,
)
from .diagnostics import (
    DegeneracyReport,
    InvalidReference,
    ReferenceSolution,
    coercivity_margin,
    degeneracy_report,
    error_estimate_ratio,
    multiplier_distance,
)
from .model import (
    ConeSpec,
    KKTResidual,
    ProblemDef,
    empty_cone,
    validate_problem,
)
from .solver import (
    ErrorProportional,
    Fixed,
    IterateRecord,
    SolveReport,
    SolveStatus,
    SolverOptions,
    TrueErrorOracle,
    observed_order,
    rho_rule,
    run,
)
from .spaces import (
    DimensionMismatch,
    Functional,
    InnerProductSpace,
    PrimalVec,
    ProductSpace,
    mass_from_spec,
)
from .subproblem import (
    NoConvergence,
    SaddleSystem,
    SingularSubproblem,
    SubproblemSolution,
    assemble_saddle_matrix,
    saddle_condition_estimate,
    solve_cone,
    solve_equality,
)

__version__ = "0.1.0"
