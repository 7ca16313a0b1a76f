"""Certified low-rank solver for block-structured semidefinite programs.

Workflow: factorize the PSD blocks, solve the nonconvex problem with an
augmented-Lagrangian trust-region method, recover multipliers, and certify
global optimality through the slack-matrix spectrum, escalating the factor
rank when certification fails.  A dense interior-point oracle provides
independent ground truth for testing.
"""

from .model import (
    BlockStructure,
    ConicSdpProblem,
    Constraint,
    ConstraintKind,
    CooSymmetric,
    PrimalPoint,
    ProblemFormatError,
    SymmetricMatrix,
    read_problem,
    validate,
    write_problem,
)
from .factorization import (
    FactorizedPoint,
    NotPsdError,
    RankBoundReport,
    RankTooSmallError,
    append_column,
    factor,
    initial_rank_bound,
    lift,
    m_prime_conic,
    m_prime_inequality,
    triangular,
)
from .dense import DenseProblem, densify
from .solver import (
    InfeasibleError,
    LagrangianState,
    NumericalFailure,
    SolverConfig,
    al_hessian_vector,
    al_solve,
    al_value_grad,
)
from .certification import (
    Certificate,
    EscapeDirection,
    KktResiduals,
    LicqResult,
    Multipliers,
    SolveReport,
    StageRecord,
    active_set,
    certify,
    escape_direction,
    estimate_multipliers,
    kkt_residuals,
    licq_check,
    staircase_solve,
)
from .oracle import (
    MaxIterationsError,
    NoPsdBlockError,
    NotStrictlyFeasibleError,
    OracleSolution,
    brute_force_2x2,
    oracle_solve,
)

__version__ = "0.1.0"
