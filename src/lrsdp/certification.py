"""Optimality certificates for factorized points, and the rank staircase.

A point is certified globally optimal when some multiplier vector makes the
slack matrix S(lambda) = C - A*(lambda) vanish against the point (stationarity
and complementarity) while staying PSD on every block.  A negative slack
eigenvalue with eigenvector v instead yields an explicit escape: the staircase
appends the column a v, lifting X to X + a^2 v v^T.  At a rank-deficient
factor that is also the lift of the same-rank move Y + a v z^T, z in ker Y
(``escape_direction`` reports which kind applies), a direction the local
solve's curvature probe already covers.  The staircase alternates local
solves with certification until a certificate, a full-rank stop, or the
restart budget ends the run; a local solve that stalls as infeasible grows
the rank at once, and at full rank its ``InfeasibleError`` propagates.

The certificate's building blocks take the problem's dense view
(``DenseProblem``) rather than the problem, and none of them builds it:
``staircase_solve`` calls ``densify`` once per solve and passes the view to
every local solve, check and escape line search, and each CLI command builds
its own once.  ``licq_check`` reports constraint qualification for the CLI;
the certificate itself does not need it.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from .dense import CERT_TOL, DenseProblem, densify
from .factorization import (
    FactorizedPoint,
    RankBoundReport,
    _numerical_rank,
    _rank_from_singular_values,
    append_column,
    initial_rank_bound,
)
from .model import ConicSdpProblem
from .solver import (
    InfeasibleError,
    LagrangianState,
    SolverConfig,
    _internal_factors,
    al_solve,
    al_value_grad,
)

__all__ = [
    "CERT_TOL",
    "Multipliers",
    "KktResiduals",
    "Certificate",
    "EscapeDirection",
    "LicqResult",
    "StageRecord",
    "SolveReport",
    "active_set",
    "estimate_multipliers",
    "kkt_residuals",
    "certify",
    "escape_direction",
    "licq_check",
    "staircase_solve",
]


@dataclass(frozen=True, eq=False)
class Multipliers:
    values: np.ndarray
    source: str  # FromSolver | LeastSquares
    residual: float | None = None


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    feasibility: float
    complementarity: float
    sign: float
    free: float


@dataclass(frozen=True, eq=False)
class Certificate:
    slack_spectrum: tuple[np.ndarray, ...]
    kkt: KktResiduals
    multipliers: Multipliers
    objective: float  # primal objective at the lifted point
    duality_gap: float
    verdict: str  # GlobalOptimal | Escapable | Indeterminate
    escape_block: int | None = None
    escape_vector: np.ndarray | None = None
    escape_eigenvalue: float | None = None
    tolerances: dict = field(default_factory=dict)

    @property
    def slack_min_eig(self) -> float:
        return min((float(s[0]) for s in self.slack_spectrum), default=0.0)


@dataclass(frozen=True, eq=False)
class EscapeDirection:
    kind: str  # kernel | rank_increment
    block: int
    vector: np.ndarray                 # slack eigenvector v
    matrix: np.ndarray | None = None   # U = v z^T for kernel escapes
    eigenvalue: float = 0.0


@dataclass(frozen=True)
class LicqResult:
    holds: bool
    jacobian_rank: int
    active_count: int


@dataclass(frozen=True, eq=False)
class StageRecord:
    ranks: tuple[int, ...]
    seed: int
    objective: float
    kkt: KktResiduals
    slack_min_eig: float
    verdict: str
    action: str


@dataclass(frozen=True, eq=False)
class SolveReport:
    seed: int
    rank_bound: RankBoundReport
    stages: tuple[StageRecord, ...]
    verdict: str
    objective: float
    state: LagrangianState
    certificate: Certificate
    time_s: float


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def _lifted_blocks(point: FactorizedPoint) -> list[np.ndarray]:
    """Dense X_j: Y_j Y_j^T for factor blocks, tail blocks as given."""
    return [y @ y.T for y in point.factors] + [t.to_dense() for t in point.tail_blocks]


def active_set(dp: DenseProblem, point: FactorizedPoint) -> frozenset:
    """Equalities plus the inequalities tight at the point: |<A_i, X> - b_i| <= CERT_TOL * (1 + |b_i|)."""
    c = dp.apply(_lifted_blocks(point), point.free) - dp.b
    tight = dp.eq_mask | (np.abs(c) <= CERT_TOL * (1.0 + np.abs(dp.b)))
    return frozenset(int(i) for i in np.flatnonzero(tight))


def estimate_multipliers(dp: DenseProblem, point: FactorizedPoint) -> Multipliers:
    """Least-squares stationarity fit for the multipliers.

    Minimizes the norm of the Lagrangian gradient over lambda, with the
    multipliers of inequalities inactive at the point (``active_set``) pinned
    to zero and active ones constrained nonnegative.  Tail blocks participate
    through their full-rank factors.
    """
    ys = _internal_factors(point)

    r0 = np.concatenate([(2.0 * c @ y).ravel() for c, y in zip(dp.C, ys)] + [dp.c_free])
    act = sorted(active_set(dp, point))
    g_cols = dp.jacobian(ys, act).T

    lam = np.zeros(dp.m)
    ineq_cols = [col for col, i in enumerate(act) if not dp.eq_mask[i]]
    if not ineq_cols:
        sol = np.linalg.lstsq(g_cols, r0, rcond=None)[0]
    else:
        lb = np.full(len(act), -np.inf)
        ub = np.full(len(act), np.inf)
        for col in ineq_cols:
            lb[col] = 0.0
        res = scipy.optimize.lsq_linear(g_cols, r0, bounds=(lb, ub), method="bvls")
        sol = res.x
    for col, i in enumerate(act):
        lam[i] = sol[col]
    residual = float(np.linalg.norm(r0 - g_cols @ sol))
    # enforce the sign invariant against roundoff from the bounded solver
    lam[dp.ineq_mask] = np.maximum(lam[dp.ineq_mask], 0.0)
    return Multipliers(lam, "LeastSquares", residual)


def kkt_residuals(dp: DenseProblem, point: FactorizedPoint, mult: Multipliers) -> KktResiduals:
    X = _lifted_blocks(point)
    return _kkt_residuals(dp, point, mult, X, dp.apply(X, point.free) - dp.b, dp.slack(mult.values))


def _kkt_residuals(dp, point, mult, X, c, slack) -> KktResiduals:
    """KKT residuals from the lifted blocks X, c = A(X) - b and ``dp.slack(mult.values)``."""
    S, s_free = slack
    stationarity = 0.0
    for j, y in enumerate(point.factors):
        stationarity = max(stationarity, float(np.linalg.norm(S[j] @ y)))

    ineq = dp.ineq_mask
    feasibility = float(np.linalg.norm(np.where(ineq, np.minimum(c, 0.0), c)))

    comp = float(np.max(np.abs(mult.values * c)[ineq], initial=0.0))
    for j in range(len(point.factors), len(X)):
        comp = max(comp, abs(float(np.vdot(S[j], X[j]))))

    sign = max(0.0, -float(np.min(mult.values[ineq], initial=0.0)))
    return KktResiduals(
        stationarity=stationarity,
        feasibility=feasibility,
        complementarity=comp,
        sign=sign,
        free=float(np.linalg.norm(s_free)),
    )


def certify(
    dp: DenseProblem,
    point: FactorizedPoint,
    candidates: Sequence[Multipliers],
    cert_tol: float = CERT_TOL,
) -> Certificate:
    """Slack-matrix certificate at the point.

    A(X) - b is evaluated once, the slack and KKT residuals once per candidate
    ``Multipliers``; the candidate of least stationarity (the earlier one on a
    tie) is certified and returned as ``Certificate.multipliers``.
    GlobalOptimal requires every KKT residual under its tolerance and every
    slack block PSD up to -tolerances["slack"] * (1 + ||S_j||_2), so the verdict
    uses every entry of ``Certificate.tolerances``; a clearly negative slack
    eigenvalue gives Escapable with the offending eigenpair; everything else is
    Indeterminate.  The primal objective at the point and the duality
    gap it gives are reported as an independent numerical witness.
    """
    X = _lifted_blocks(point)
    c = dp.apply(X, point.free) - dp.b
    slacks = [dp.slack(m.values) for m in candidates]
    scored = [(_kkt_residuals(dp, point, m, X, c, sl), m, sl[0]) for m, sl in zip(candidates, slacks)]
    kkt, mult, S = min(scored, key=lambda entry: entry[0].stationarity)
    spectra = []
    eigvecs = []
    for sm in S:
        w, v = np.linalg.eigh(sm)
        spectra.append(w)
        eigvecs.append(v)

    primal = dp.objective(X, point.free)
    duality_gap = primal - float(dp.b @ mult.values)

    tols = dp.tolerances(mult.values, cert_tol)

    residuals_ok = (
        kkt.stationarity <= tols["stationarity"]
        and kkt.feasibility <= tols["feasibility"]
        and kkt.complementarity <= tols["complementarity"]
        and kkt.sign <= tols["sign"]
        and kkt.free <= tols["free"]
    )

    worst_block, worst_rel = None, 0.0
    for j, w in enumerate(spectra):
        scale = 1.0 + max(abs(float(w[0])), abs(float(w[-1])))
        rel = float(w[0]) / scale
        if rel < -tols["slack"] and rel < worst_rel:
            worst_rel = rel
            worst_block = j

    if residuals_ok and worst_block is None:
        verdict = "GlobalOptimal"
    elif worst_block is not None:
        verdict = "Escapable"
    else:
        verdict = "Indeterminate"

    esc_vec = eigvecs[worst_block][:, 0] if worst_block is not None else None
    esc_val = float(spectra[worst_block][0]) if worst_block is not None else None
    return Certificate(
        slack_spectrum=tuple(spectra),
        kkt=kkt,
        multipliers=mult,
        objective=primal,
        duality_gap=duality_gap,
        verdict=verdict,
        escape_block=worst_block,
        escape_vector=esc_vec,
        escape_eigenvalue=esc_val,
        tolerances=tols,
    )


def escape_direction(point: FactorizedPoint, certificate: Certificate) -> EscapeDirection:
    """Descent move out of a point whose slack has a negative eigenvalue.

    If the block's factor is column rank deficient, U = v z^T with z in the
    kernel of Y is feasible to first order and has <S, U U^T> < 0; otherwise
    the rank must grow by one column along v.
    """
    block = certificate.escape_block
    if block is None or certificate.escape_vector is None:
        raise ValueError("certificate carries no escape data")
    v = certificate.escape_vector
    k = len(point.factors)
    y = point.factors[block] if block < k else _internal_factors(point)[block]

    _, svals, vt = np.linalg.svd(y)
    if _rank_from_singular_values(svals) < y.shape[1]:
        # unit kernel vector of Y: smallest right singular vector
        u = np.outer(v, vt[-1])
        return EscapeDirection("kernel", block, v, u, float(certificate.escape_eigenvalue))
    return EscapeDirection("rank_increment", block, v, None, float(certificate.escape_eigenvalue))


def licq_check(dp: DenseProblem, point: FactorizedPoint) -> LicqResult:
    """Linear independence of active constraint gradients at the point."""
    act = sorted(active_set(dp, point))
    rank = _numerical_rank(dp.jacobian(_internal_factors(point), act))
    return LicqResult(rank == len(act), rank, len(act))


# ---------------------------------------------------------------------------
# staircase
# ---------------------------------------------------------------------------


def staircase_solve(
    problem: ConicSdpProblem,
    config: SolverConfig,
    ranks=None,
) -> SolveReport:
    """Solve-certify-escalate loop.

    Starts at the rank bound (or the override), solving with the augmented
    Lagrangian, recovering multipliers both from the solver and by least
    squares, and certifying with the more stationary of the two.  The dense
    view is built once here and shared by every stage's local solve, checks
    and escape line searches.

    Every stage ends in exactly one outcome, recorded by one ``StageRecord``:
    ``certified`` on GlobalOptimal; ``rank-increment`` when some blocks can
    grow by one column; else ``restart`` while the restart budget
    (``SolverConfig.restarts`` per rank) lasts; else ``stop``.  The
    blocks to grow are the escape block of an Escapable certificate, whose
    slack eigenvector is appended as a column with a line search on its scale
    and warm-starts the next stage, and, after a local solve raises
    ``InfeasibleError``, every block below full rank (verdict Infeasible).
    There is no same-rank retry after an infeasible stage, since below the
    rank bound the rank-p matrices can miss the feasible set altogether; when
    no block can grow the error propagates.  A rank increment resets the
    restart budget, and a stage that passes no warm start to the next one
    advances the seed.  The loop ends only through these budgets: from the
    starting ranks p_j there are at most sum_j (n_j - p_j) rank increments and
    at most ``restarts`` restarts per rank, so at most
    (sum_j (n_j - p_j) + 1) * (restarts + 1) stages.
    """
    t0 = time.perf_counter()
    sizes = problem.structure.psd_sizes
    dp = densify(problem)
    bound = initial_rank_bound(problem)
    start = bound.p_per_block if ranks is None else ranks
    cur_ranks = [min(max(1, int(r)), sizes[j]) for j, r in enumerate(start)]

    stages: list[StageRecord] = []
    warm = None
    cur_seed = config.seed
    restarts_left = config.restarts

    def growable(j):
        return j < len(cur_ranks) and cur_ranks[j] < sizes[j]

    while True:
        ranks_at_solve, seed = tuple(cur_ranks), cur_seed
        warm_in, warm = warm, None  # only an escape column sets the next warm start
        try:
            state, _ = al_solve(dp, cur_ranks, replace(config, seed=seed), warm_start=warm_in)
        except InfeasibleError:
            # below full rank the rank constraint itself can exclude every
            # feasible point, so grow every block that can
            grow = [j for j in range(len(cur_ranks)) if growable(j)]
            if not grow:
                raise
            kkt = KktResiduals(np.inf, np.inf, np.inf, 0.0, 0.0)
            verdict, objective, slack_min_eig = "Infeasible", float("nan"), 0.0
        else:
            candidates = (
                Multipliers(np.array(state.lam), "FromSolver"),
                estimate_multipliers(dp, state.point),
            )
            cert = certify(dp, state.point, candidates)
            verdict, objective, kkt = cert.verdict, state.objective, cert.kkt
            slack_min_eig = cert.slack_min_eig
            blk = cert.escape_block
            grow = [blk] if blk is not None and growable(blk) else []
            if grow:
                # line search on the column's scale: the first trial that
                # lowers the AL, else the smallest
                trials = [append_column(state.point, blk, cert.escape_vector, alpha)
                          for alpha in (0.3, 0.1, 0.03, 0.01, 1e-3)]
                base = al_value_grad(dp, state.point, state.lam, state.rho)[0]
                thresh = base - 1e-12 * (1.0 + abs(base))
                lower = (t for t in trials if al_value_grad(dp, t, state.lam, state.rho)[0] < thresh)
                warm = (next(lower, trials[-1]), state.lam)

        if verdict == "GlobalOptimal":
            action = "certified"
        elif grow:
            for j in grow:
                cur_ranks[j] += 1
            restarts_left = config.restarts
            action = "rank-increment"
        elif restarts_left > 0:
            restarts_left -= 1
            action = "restart"
        else:
            action = "stop"
        if warm is None:
            cur_seed += 1
        stages.append(StageRecord(ranks_at_solve, seed, objective, kkt, slack_min_eig, verdict, action))
        if action in ("certified", "stop"):
            break

    final_verdict = cert.verdict if cert.verdict == "GlobalOptimal" else "Indeterminate"
    return SolveReport(
        seed=config.seed,
        rank_bound=bound,
        stages=tuple(stages),
        verdict=final_verdict,
        objective=state.objective,
        state=state,
        certificate=cert,
        time_s=time.perf_counter() - t0,
    )
