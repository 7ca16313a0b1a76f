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
retry budget ends the run.

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

from .dense import DenseProblem, densify
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
    kkt_scales,
)

__all__ = [
    "CERT_TOL",
    "ACTIVE_TOL",
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

# relative tolerance of the certificate's KKT and slack tests (``certify``)
CERT_TOL = 1e-7
# an inequality is active when |<A_i, X> - b_i| <= ACTIVE_TOL * (1 + |b_i|)
ACTIVE_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class Multipliers:
    values: np.ndarray
    active_set: frozenset
    source: str  # FromSolver | LeastSquares
    residual: float | None = None


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    feasibility: float
    complementarity: float
    sign: float
    free: float

    def as_dict(self) -> dict:
        return {
            "stationarity": self.stationarity,
            "feasibility": self.feasibility,
            "complementarity": self.complementarity,
            "sign": self.sign,
            "free": self.free,
        }


@dataclass(frozen=True, eq=False)
class Certificate:
    slack_spectrum: tuple[np.ndarray, ...]
    kkt: KktResiduals
    multipliers: Multipliers
    duality_gap: float
    verdict: str  # GlobalOptimal | Escapable | Indeterminate
    escape_block: int | None = None
    escape_vector: np.ndarray | None = None
    escape_eigenvalue: float | None = None
    tolerances: dict = field(default_factory=dict)

    @property
    def slack_min_eig(self) -> float:
        return min(float(s[0]) for s in self.slack_spectrum) if self.slack_spectrum else 0.0


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
    stage: int
    ranks: tuple[int, ...]
    seed: int
    objective: float
    kkt: KktResiduals
    slack_min_eig: float
    verdict: str
    action: str
    duality_gap: float


@dataclass(frozen=True, eq=False)
class SolveReport:
    problem_name: str
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
    """Equalities plus the inequalities tight at the point (``ACTIVE_TOL``)."""
    c = dp.apply(_lifted_blocks(point), point.free) - dp.b
    tight = dp.eq_mask | (np.abs(c) <= ACTIVE_TOL * (1.0 + np.abs(dp.b)))
    return frozenset(int(i) for i in np.flatnonzero(tight))


def estimate_multipliers(
    dp: DenseProblem,
    point: FactorizedPoint,
    active: frozenset | None = None,
) -> Multipliers:
    """Least-squares stationarity fit for the multipliers.

    Minimizes the norm of the Lagrangian gradient over lambda, with inactive
    inequality multipliers pinned to zero and active ones constrained
    nonnegative.  Tail blocks participate through their full-rank factors.
    """
    if active is None:
        active = active_set(dp, point)
    ys = _internal_factors(point)

    r0 = np.concatenate(
        [(2.0 * c @ y).ravel() for c, y in zip(dp.C, ys)] + ([dp.c_free] if dp.d else [])
    )
    act = sorted(active)
    g_cols = dp.jacobian(ys, act).T

    lam = np.zeros(dp.m)
    if act:
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
    else:
        residual = float(np.linalg.norm(r0))
    # enforce the sign invariant against roundoff from the bounded solver
    for i in np.flatnonzero(dp.ineq_mask):
        if lam[i] < 0.0:
            lam[i] = 0.0 if lam[i] > -1e-10 else lam[i]
    return Multipliers(lam, frozenset(active), "LeastSquares", residual)


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
    slack block PSD up to -cert_tol * (1 + ||S_j||_2); a clearly negative
    slack eigenvalue gives Escapable with the offending eigenpair; everything
    else is Indeterminate.  The duality gap is reported as an independent
    numerical witness.
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

    stat_scale, feas_scale, lam_scale = kkt_scales(dp, mult.values)
    tols = {
        "stationarity": cert_tol * stat_scale,
        "feasibility": cert_tol * feas_scale,
        "complementarity": cert_tol * lam_scale * feas_scale,
        "sign": cert_tol,
        "free": cert_tol * stat_scale,
        "slack": cert_tol,
    }

    residuals_ok = (
        kkt.stationarity <= tols["stationarity"]
        and kkt.feasibility <= tols["feasibility"]
        and kkt.complementarity <= tols["complementarity"]
        and kkt.sign <= tols["sign"]
        and kkt.free <= tols["free"]
    )

    worst_block, worst_rel = None, 0.0
    psd_ok = True
    for j, w in enumerate(spectra):
        scale = 1.0 + max(abs(float(w[0])), abs(float(w[-1])))
        rel = float(w[0]) / scale
        if rel < -cert_tol:
            psd_ok = False
            if rel < worst_rel:
                worst_rel = rel
                worst_block = j

    if residuals_ok and psd_ok:
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
    if not act:
        return LicqResult(True, 0, 0)
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
    and escape line searches.  An Escapable certificate appends the slack
    eigenvector as one column to its block, with a line search on its scale;
    when that block is at full rank, and on an Indeterminate certificate, the
    stage burns a fresh-seed restart.  Terminates on GlobalOptimal, on full
    rank, or when the per-rank restart budget is exhausted.
    """
    t0 = time.perf_counter()
    st = problem.structure
    dp = densify(problem)
    bound = initial_rank_bound(problem)
    if ranks is None:
        cur_ranks = list(bound.p_per_block)
    else:
        cur_ranks = [int(r) for r in ranks]
    cur_ranks = [min(max(1, r), st.psd_sizes[j]) for j, r in enumerate(cur_ranks)]

    stages: list[StageRecord] = []
    warm = None
    cur_seed = config.seed
    restarts_left = config.restarts
    infeasible_retry_left = 1
    state = None
    cert = None

    for stage in range(1, 101):
        ranks_at_solve = tuple(cur_ranks)
        stage_cfg = replace(config, seed=cur_seed)
        try:
            state, _ = al_solve(dp, cur_ranks, stage_cfg, warm_start=warm)
        except InfeasibleError:
            # infeasibility at a restricted rank may be the rank constraint
            # biting, not the problem: retry once, then escalate while any
            # block can grow
            if warm is None and infeasible_retry_left > 0:
                infeasible_retry_left -= 1
                cur_seed += 1
                action = "restart"
            else:
                growable = [j for j, r in enumerate(cur_ranks) if r < st.psd_sizes[j]]
                if not growable:
                    raise
                for j in growable:
                    cur_ranks[j] += 1
                restarts_left = config.restarts
                infeasible_retry_left = 1
                action = "rank-increment"
            stages.append(
                StageRecord(
                    stage=stage,
                    ranks=ranks_at_solve,
                    seed=stage_cfg.seed,
                    objective=float("nan"),
                    kkt=KktResiduals(np.inf, np.inf, np.inf, 0.0, 0.0),
                    slack_min_eig=0.0,
                    verdict="Infeasible",
                    action=action,
                    duality_gap=float("nan"),
                )
            )
            warm = None
            continue
        act = active_set(dp, state.point)
        candidates = (
            Multipliers(np.array(state.lam), act, "FromSolver"),
            estimate_multipliers(dp, state.point, act),
        )
        cert = certify(dp, state.point, candidates)

        action = "stop"
        if cert.verdict == "GlobalOptimal":
            action = "certified"
        elif cert.verdict == "Escapable":
            blk = cert.escape_block
            if blk < len(cur_ranks) and cur_ranks[blk] < st.psd_sizes[blk]:
                # line search on the column's scale: the first trial that
                # lowers the AL, else the smallest
                trials = [append_column(state.point, blk, cert.escape_vector, alpha)
                          for alpha in (0.3, 0.1, 0.03, 0.01, 1e-3)]
                base = al_value_grad(dp, state.point, state.lam, state.rho)[0]
                thresh = base - 1e-12 * (1.0 + abs(base))
                lower = (t for t in trials if al_value_grad(dp, t, state.lam, state.rho)[0] < thresh)
                warm = (next(lower, trials[-1]), state.lam)
                cur_ranks[blk] += 1
                restarts_left = config.restarts
                action = "rank-increment"
        # Indeterminate, or Escapable with no room to grow
        if action == "stop" and restarts_left > 0:
            restarts_left -= 1
            cur_seed += 1
            warm = None
            action = "restart"

        stages.append(
            StageRecord(
                stage=stage,
                ranks=ranks_at_solve,
                seed=stage_cfg.seed,
                objective=state.objective,
                kkt=cert.kkt,
                slack_min_eig=cert.slack_min_eig,
                verdict=cert.verdict,
                action=action,
                duality_gap=cert.duality_gap,
            )
        )
        if action in ("certified", "stop"):
            break

    if state is None or cert is None:
        raise InfeasibleError("no rank admitted a feasible point")
    final_verdict = cert.verdict if cert.verdict == "GlobalOptimal" else "Indeterminate"
    return SolveReport(
        problem_name=problem.name,
        seed=config.seed,
        rank_bound=bound,
        stages=tuple(stages),
        verdict=final_verdict,
        objective=state.objective,
        state=state,
        certificate=cert,
        time_s=time.perf_counter() - t0,
    )
