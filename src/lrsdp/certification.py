"""Optimality certificates for factorized points, and the rank staircase.

A point is certified globally optimal when some multiplier vector makes the
slack matrix S(lambda) = C - A*(lambda) vanish against the point (stationarity
and complementarity) while staying PSD on every block.  A negative slack
eigenvalue instead yields an explicit escape: either a descent direction at
the same rank (when the factor has a kernel) or one appended column.  The
staircase alternates local solves with certification until a certificate, a
full-rank stop, or the retry budget ends the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from .dense import densify
from .factorization import (
    FactorizedPoint,
    RankBoundReport,
    _numerical_rank,
    _rank_from_singular_values,
    append_column,
    initial_rank_bound,
    lift,
)
from .model import ConicSdpProblem, PrimalPoint, SymmetricMatrix, apply_adjoint, apply_map
from .solver import (
    InfeasibleError,
    LagrangianState,
    SolverConfig,
    _internal_factors,
    _slack_hessian,
    al_solve,
    al_value_grad,
    kkt_scales,
)

__all__ = [
    "Multipliers",
    "KktResiduals",
    "Certificate",
    "EscapeDirection",
    "SecondOrderResult",
    "LicqResult",
    "StageRecord",
    "SolveReport",
    "active_set",
    "estimate_multipliers",
    "slack_matrix",
    "kkt_residuals",
    "second_order_check",
    "certify",
    "escape_direction",
    "licq_check",
    "staircase_solve",
]

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
    duality_gap: float
    verdict: str  # GlobalOptimal | Escapable | Indeterminate
    escape_block: int | None = None
    escape_vector: np.ndarray | None = None
    escape_eigenvalue: float | None = None
    licq: bool | None = None
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


@dataclass(frozen=True, eq=False)
class SecondOrderResult:
    passes: bool
    min_eig: float
    worst_direction: FactorizedPoint | None
    null_dim: int
    vacuous: bool = False


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


def _as_primal(problem: ConicSdpProblem, point) -> PrimalPoint:
    return lift(point) if isinstance(point, FactorizedPoint) else point


def active_set(problem: ConicSdpProblem, point, tol: float = 1e-7) -> frozenset:
    """Equalities plus the inequalities tight at the point (relative tol)."""
    c = apply_map(problem, _as_primal(problem, point)) - problem.b
    idx = set(int(i) for i in problem.equality_indices())
    for i in problem.inequality_indices():
        if abs(c[i]) <= tol * (1.0 + abs(problem.b[i])):
            idx.add(int(i))
    return frozenset(idx)


def slack_matrix(problem: ConicSdpProblem, lam) -> tuple[list[SymmetricMatrix], np.ndarray]:
    """S(lambda) = C - A*(lambda), per block, plus the free component."""
    adj, adj_free = apply_adjoint(problem, lam)
    blocks = [c - a for c, a in zip(problem.cost_blocks, adj)]
    return blocks, problem.cost_free - adj_free


def estimate_multipliers(
    problem: ConicSdpProblem,
    point: FactorizedPoint,
    active: frozenset | None = None,
) -> Multipliers:
    """Least-squares stationarity fit for the multipliers.

    Minimizes the norm of the Lagrangian gradient over lambda, with inactive
    inequality multipliers pinned to zero and active ones constrained
    nonnegative.  Tail blocks participate through their full-rank factors.
    """
    dp = densify(problem)
    if active is None:
        active = active_set(problem, point)
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
    for i in problem.inequality_indices():
        if lam[i] < 0.0:
            lam[i] = 0.0 if lam[i] > -1e-10 else lam[i]
    return Multipliers(lam, frozenset(active), "LeastSquares", residual)


def kkt_residuals(problem: ConicSdpProblem, point: FactorizedPoint, mult: Multipliers) -> KktResiduals:
    S, s_free = slack_matrix(problem, mult.values)
    k = len(point.factors)
    stationarity = 0.0
    for j, y in enumerate(point.factors):
        stationarity = max(stationarity, float(np.linalg.norm(S[j].to_dense() @ y)))

    c = apply_map(problem, lift(point)) - problem.b
    eq = problem.equality_indices()
    ineq = problem.inequality_indices()
    viol = np.zeros(problem.m)
    viol[eq] = c[eq]
    if ineq.size:
        viol[ineq] = np.minimum(c[ineq], 0.0)
    feasibility = float(np.linalg.norm(viol))

    comp = 0.0
    for i in ineq:
        comp = max(comp, abs(float(mult.values[i] * c[i])))
    for t, sm in enumerate(point.tail_blocks):
        comp = max(comp, abs(S[k + t].inner(sm)))

    sign = 0.0
    if ineq.size:
        sign = max(0.0, -float(np.min(mult.values[ineq])))
    return KktResiduals(
        stationarity=stationarity,
        feasibility=feasibility,
        complementarity=comp,
        sign=sign,
        free=float(np.linalg.norm(s_free)),
    )


def second_order_check(
    problem: ConicSdpProblem,
    point: FactorizedPoint,
    mult: Multipliers,
    tol: float = 1e-7,
) -> SecondOrderResult:
    """Minimum eigenvalue of the Lagrangian Hessian on the active null space.

    Variables are the factor blocks plus the free part; the Hessian quadratic
    form is sum_j 2 <S_j, U_j U_j^T>, restricted to directions annihilating
    the active-constraint Jacobian U |-> <A_i, U Y^T + Y U^T>.
    """
    dp = densify(problem)
    k = dp.k
    ys = [np.asarray(y, dtype=float) for y in point.factors]
    dim = sum(y.size for y in ys) + dp.d
    if dim == 0:
        return SecondOrderResult(True, 0.0, None, 0, vacuous=True)

    act = sorted(mult.active_set)
    if act:
        # right singular vectors past the numerical rank span the null space
        _, svals, vt = np.linalg.svd(dp.jacobian(ys, act))
        null = vt[_rank_from_singular_values(svals):].T
    else:
        null = np.eye(dim)
    if null.shape[1] == 0:
        return SecondOrderResult(True, 0.0, None, 0, vacuous=True)

    S, _ = slack_matrix(problem, mult.values)
    h = _slack_hessian([sm.to_dense() for sm in S[:k]], [y.shape[1] for y in ys], dim)
    reduced = null.T @ h @ null
    w, v = np.linalg.eigh(0.5 * (reduced + reduced.T))
    min_eig = float(w[0])
    worst_vec = null @ v[:, 0]

    factors = []
    off = 0
    for j in range(k):
        n, p = ys[j].shape
        factors.append(worst_vec[off:off + n * p].reshape(n, p))
        off += n * p
    worst = FactorizedPoint(
        tuple(factors),
        tuple(SymmetricMatrix.zeros(sm.dim) for sm in point.tail_blocks),
        worst_vec[off:] if dp.d else np.zeros(0),
    )
    return SecondOrderResult(min_eig >= -tol, min_eig, worst, null.shape[1])


def certify(
    problem: ConicSdpProblem,
    point: FactorizedPoint,
    mult: Multipliers,
    cert_tol: float = 1e-7,
    licq: bool | None = None,
) -> Certificate:
    """Slack-matrix certificate at the point.

    GlobalOptimal requires every KKT residual under its tolerance and every
    slack block PSD up to -cert_tol * (1 + ||S_j||_2); a clearly negative
    slack eigenvalue gives Escapable with the offending eigenpair; everything
    else is Indeterminate.  The duality gap is reported as an independent
    numerical witness.
    """
    S, _ = slack_matrix(problem, mult.values)
    spectra = []
    eigvecs = []
    for sm in S:
        w, v = np.linalg.eigh(sm.to_dense())
        spectra.append(w)
        eigvecs.append(v)

    kkt = kkt_residuals(problem, point, mult)
    primal = lift(point)
    duality_gap = primal.objective(problem) - float(problem.b @ mult.values)

    stat_scale, feas_scale, lam_scale = kkt_scales(problem, mult.values)
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
        duality_gap=duality_gap,
        verdict=verdict,
        escape_block=worst_block,
        escape_vector=esc_vec,
        escape_eigenvalue=esc_val,
        licq=licq,
        tolerances=tols,
    )


def escape_direction(point: FactorizedPoint, certificate: Certificate, block: int | None = None) -> EscapeDirection:
    """Descent move out of a point whose slack has a negative eigenvalue.

    If the block's factor is column rank deficient, U = v z^T with z in the
    kernel of Y is feasible to first order and has <S, U U^T> < 0; otherwise
    the rank must grow by one column along v.
    """
    if block is None:
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


def licq_check(problem: ConicSdpProblem, point: FactorizedPoint, tol: float = 1e-7) -> LicqResult:
    """Linear independence of active constraint gradients at the point."""
    dp = densify(problem)
    act = sorted(active_set(problem, point, tol))
    if not act:
        return LicqResult(True, 0, 0)
    rank = _numerical_rank(dp.jacobian(_internal_factors(point), act))
    return LicqResult(rank == len(act), rank, len(act))


# ---------------------------------------------------------------------------
# staircase
# ---------------------------------------------------------------------------


def _pick_multipliers(problem, point, state: LagrangianState) -> Multipliers:
    act = active_set(problem, point)
    from_solver = Multipliers(np.array(state.lam), act, "FromSolver")
    ls = estimate_multipliers(problem, point, act)
    stat_solver = kkt_residuals(problem, point, from_solver).stationarity
    stat_ls = kkt_residuals(problem, point, ls).stationarity
    return ls if stat_ls < stat_solver else from_solver


def _escape_line_search(problem, state: LagrangianState, trial_points) -> FactorizedPoint | None:
    base, _ = al_value_grad(problem, state.point, state.lam, state.rho)
    thresh = base - 1e-12 * (1.0 + abs(base))
    for cand in trial_points:
        val, _ = al_value_grad(problem, cand, state.lam, state.rho)
        if val < thresh:
            return cand
    return None


def staircase_solve(
    problem: ConicSdpProblem,
    config: SolverConfig,
    ranks=None,
    cert_tol: float = 1e-7,
) -> SolveReport:
    """Solve-certify-escalate loop.

    Starts at the rank bound (or the override), solving with the augmented
    Lagrangian, recovering multipliers both from the solver and by least
    squares, and certifying.  Escapable certificates trigger a kernel descent
    at the same rank or a one-column rank increment; Indeterminate ones burn a
    fresh-seed restart.  Terminates on GlobalOptimal, on full rank, or when
    the per-rank restart budget is exhausted.
    """
    t0 = time.perf_counter()
    st = problem.structure
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
    kernel_left = 5
    infeasible_retry_left = 1
    state = None
    cert = None

    for stage in range(1, 101):
        ranks_at_solve = tuple(cur_ranks)
        stage_cfg = replace(config, seed=cur_seed)
        try:
            state, _ = al_solve(problem, cur_ranks, stage_cfg, warm_start=warm)
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
                kernel_left = 5
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
        mult = _pick_multipliers(problem, state.point, state)
        licq = licq_check(problem, state.point)
        cert = certify(problem, state.point, mult, cert_tol, licq=licq.holds)

        action = "stop"
        if cert.verdict == "GlobalOptimal":
            action = "certified"
        elif cert.verdict == "Escapable":
            esc = escape_direction(state.point, cert)
            stepped = None
            if esc.kind == "kernel" and esc.block < len(state.point.factors) and kernel_left > 0:
                trials = []
                for alpha in (1.0, 0.3, 0.1, 0.03, 0.01, 1e-3):
                    factors = list(state.point.factors)
                    factors[esc.block] = factors[esc.block] + alpha * esc.matrix
                    trials.append(
                        FactorizedPoint(tuple(factors), state.point.tail_blocks, state.point.free)
                    )
                stepped = _escape_line_search(problem, state, trials)
                if stepped is not None:
                    kernel_left -= 1
                    warm = (stepped, state.lam, state.rho)
                    action = "kernel-escape"
            if stepped is None:
                blk = esc.block
                can_grow = blk < len(cur_ranks) and cur_ranks[blk] < st.psd_sizes[blk]
                if can_grow:
                    trials = []
                    for alpha in (0.3, 0.1, 0.03, 0.01, 1e-3):
                        trials.append(append_column(state.point, blk, esc.vector, alpha))
                    stepped = _escape_line_search(problem, state, trials)
                    if stepped is None:
                        stepped = append_column(state.point, blk, esc.vector, 1e-3)
                    cur_ranks[blk] += 1
                    warm = (stepped, state.lam, state.rho)
                    restarts_left = config.restarts
                    kernel_left = 5
                    action = "rank-increment"
                elif restarts_left > 0:
                    restarts_left -= 1
                    cur_seed += 1
                    warm = None
                    action = "restart"
        else:  # Indeterminate
            if restarts_left > 0:
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
