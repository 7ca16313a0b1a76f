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
    append_column,
    initial_rank_bound,
    m_prime_conic,
    m_prime_inequality,
    psd_factor,
    triangular,
)
from .dense import DenseProblem, densify
from .solver import (
    InfeasibleError,
    LagrangianState,
    NumericalFailure,
    SolverConfig,
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
    oracle_solve,
)

__version__ = "0.1.0"
