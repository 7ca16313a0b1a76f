"""Local solver for the factorized problem.

Outer loop: safeguarded augmented Lagrangian with Powell-Hestenes-Rockafellar
treatment of inequality rows, stopped by the scale-relative tolerances of
``DenseProblem.tolerances`` that certification also uses, at one relative
tolerance (``SolverConfig.tol``) for stationarity and feasibility.  Inner loop:
trust-region Newton with truncated CG on exact Hessian-vector products, plus
a negative-curvature probe at (near-)stationary points so the method settles
only at second-order points.
Both go through the constraint Jacobian J at the point: the Hessian is
H = blockdiag(2 S_j (x) I_q) + J^T diag(w) J, with w the penalty on active
rows and 0 elsewhere, and a Hessian-vector product is 2 S_j U_j + J^T (w * J u).
The probe rotates the active rows of J into the slack eigenbasis, where
H = diag(d) + rho Jq^T Jq, and decides H + tau I >= 0 at the settle floor tau
from a Schur complement of order k q (k negative slack eigenvalues) through a
factor of order m_a (active rows), so it forms no matrix of order dim; when
no d lies below the floor of max(max d, tr H / dim) <= lambda_max(H) it
settles at once, unrotated.  It runs at most once per point: a rejected escape
step reuses the direction.  The truncated-CG path is recorded once per point
(``_CgPath``): a rejected CG step replays it at the smaller radius with no new
Hessian-vector product, and the recorded z.Hz, d.Hz and d.Hd give each step's
model decrease (an escape step pays one product).  A trial point computes only
its AL value; its slack, gradient and Jacobian wait until it is accepted.

Tail PSD blocks are parameterized internally at full rank (any PSD matrix of
size n factors at rank n), so one variable layout serves every block; the
factorized/tail distinction matters again only for rank bounds and for
certification reporting.  One evaluator, ``_Eval``, gives the AL value and
gradient to ``al_solve`` and, in the point's shape, to ``al_value_grad``; every
point enters the layout through ``_Work.pack``, which checks its block list.

``al_solve`` and ``al_value_grad`` take the problem's dense view
(``densify``) from their caller and build none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

# densify is unused here; it stays importable for tools that wrap solver.densify
from .dense import CERT_TOL, DenseProblem, densify  # noqa: F401
from .factorization import FactorizedPoint, psd_factor
from .model import SymmetricMatrix

__all__ = [
    "SolverConfig",
    "LagrangianState",
    "InfeasibleError",
    "NumericalFailure",
    "al_value_grad",
    "al_solve",
]


class InfeasibleError(RuntimeError):
    pass


class NumericalFailure(RuntimeError):
    pass


# penalty schedule, multiplier safeguard and initial trust radius of the AL
PENALTY_INIT = 10.0
PENALTY_GROWTH = 10.0
PENALTY_CAP = 1e12
STALL_RATIO = 0.5
DUAL_CAP = 1e10
TR_RADIUS_INIT = 1.0
# trust-region iterations per outer iteration
MAX_INNER = 500


@dataclass(frozen=True)
class SolverConfig:
    tol: float = CERT_TOL / 10  # ``al_solve``'s relative stop, ten times inside the certificate
    max_outer: int = 50
    seed: int = 0
    restarts: int = 3
    # not settable; readable on a config for callers that compare rho with the cap
    penalty_cap: ClassVar[float] = PENALTY_CAP

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.restarts < 0:
            raise ValueError(f"restarts must be at least 0, got {self.restarts}")


@dataclass(frozen=True, eq=False)
class LagrangianState:
    point: FactorizedPoint
    lam: np.ndarray
    rho: float
    objective: float
    infeasibility: float
    stationarity: float
    converged: bool = True


# ---------------------------------------------------------------------------
# internal all-factor variable layout
# ---------------------------------------------------------------------------


def _internal_factors(point: FactorizedPoint) -> list[np.ndarray]:
    """Factor matrices for every block: given factors plus full-rank tails."""
    ys = [np.asarray(y, dtype=float) for y in point.factors]
    return ys + [psd_factor(t.to_dense()) for t in point.tail_blocks]


# the probe settles when lambda_min(H) >= -CURV_FLOOR * max(1, lambda_max(H))
CURV_FLOOR = 1e-8


def _schur_escape(d: np.ndarray, jq: np.ndarray, rho: float, tau: float) -> np.ndarray | None:
    """u with u^T (H + tau I) u < 0, H = diag(d) + rho jq^T jq, or None if H + tau I >= 0.

    H + tau I is positive definite on P = {d + tau > 0}, so (Haynsworth) it is
    PSD iff its Schur complement on the rest, N, is: by Woodbury
    C = diag(d_N + tau) + jq_N^T K^-1 jq_N, K = I/rho + jq_P diag(d_P + tau)^-1 jq_P^T.
    C's bottom eigenvector w, with -diag(d_P + tau)^-1 jq_P^T K^-1 jq_N w on P,
    gives u^T (H + tau I) u = w^T C w (rho, tau > 0).
    """
    neg = d + tau <= 0.0
    if not np.any(neg):
        return None
    e = d[~neg] + tau
    jp, jn = jq[:, ~neg], jq[:, neg]
    kappa, vk = np.linalg.eigh((jp / e) @ jp.T)
    kappa = np.maximum(kappa, 0.0) + 1.0 / rho  # the eigenvalues of K, held at >= 1/rho
    g = vk.T @ jn
    mu, w = np.linalg.eigh(np.diag(d[neg] + tau) + (g.T / kappa) @ g)
    if mu[0] >= 0.0:
        return None
    u = np.empty_like(d)
    u[neg] = w[:, 0]
    u[~neg] = -(jp.T @ (vk @ (g @ w[:, 0] / kappa))) / e
    return u


def _lambda_max(d: np.ndarray, jq: np.ndarray, rho: float) -> float:
    """lambda_max(diag(d) + rho jq^T jq), rho > 0, by Newton's method from below.

    Start at the largest diagonal entry t <= lambda_max: a zero column of jq is
    an eigenvector of eigenvalue d <= t, and over the others, whose d lie below
    t, f(t) = lambda_min(I/rho - jq diag(t - d)^-1 jq^T) is increasing and
    concave, so Newton's iterates rise to its root, lambda_max, unless f(t) >= 0.
    """
    t = float(np.max(d + rho * np.sum(jq * jq, axis=0)))
    d = np.where(np.any(jq != 0.0, axis=0), d, -np.inf)  # zero columns drop out of f
    step = np.inf
    while step > 1e-15 * max(1.0, abs(t)):
        w = 1.0 / (t - d)
        f, v = np.linalg.eigh(np.eye(len(jq)) / rho - (jq * w) @ jq.T)
        if f[0] >= 0.0:
            break
        step = -float(f[0]) / float((v[:, 0] @ jq) ** 2 @ (w * w))
        t += step
    return t


class _Work:
    """Dense data plus the flattened (Y_1..Y_L, x) variable layout, with
    every tail block held as a full-rank factor."""

    def __init__(self, dp: DenseProblem, ranks):
        if len(ranks) != dp.k:
            raise ValueError(f"need {dp.k} factor ranks, got {len(ranks)}")
        self.dp = dp
        self.shapes = list(zip(dp.sizes, [int(q) for q in ranks] + list(dp.sizes[dp.k:])))
        sizes = [n * q for n, q in self.shapes]
        self.offsets = [sum(sizes[:j]) for j in range(len(sizes))]
        self.free_off = sum(sizes)
        self.dim = self.free_off + dp.d

    def pack(self, ys, x) -> np.ndarray:
        self.dp._check(ys)
        z = np.empty(self.dim)
        for off, (n, q), y in zip(self.offsets, self.shapes, ys):
            z[off:off + n * q] = y.ravel()
        z[self.free_off:] = x
        return z

    def unpack(self, z):
        ys = [z[off:off + n * q].reshape(n, q) for off, (n, q) in zip(self.offsets, self.shapes)]
        return ys, z[self.free_off:]

    def to_point(self, z) -> FactorizedPoint:
        """z as a point, with the tail factors lifted to tail blocks."""
        ys, x = self.unpack(z)
        k = self.dp.k
        tails = tuple(SymmetricMatrix.from_dense(y @ y.T) for y in ys[k:])
        return FactorizedPoint(tuple(np.array(y) for y in ys[:k]), tails, np.array(x))


class _Eval:
    """AL value, gradient and exact Hessian-vector products at a point.

    Second-order terms go through J, the constraint Jacobian at the point
    (``DenseProblem.jacobian``): the Hessian is
    blockdiag(kron(2 S_j, I_q)) + J^T diag(w) J, with w = rho on active rows
    and 0 elsewhere.

    The constructor computes only what a trial point needs: the AL value at
    X_j = Y_j Y_j^T (checked finite), c = A(X) - b, lam~ = lam - rho c clipped at
    0 on inequality rows, and the active rows (an inequality while lam_i - rho c_i > 0).
    The slack and 2 S_j, gradient (checked finite), J, ``hvp`` weights, CG path
    and probe are computed on first use.
    """

    def __init__(self, work: _Work, z: np.ndarray, lam: np.ndarray, rho: float):
        self.work = work
        self.z = z
        self.lam = lam
        self.rho = rho
        self.ys, x = work.unpack(z)
        dp, eq = work.dp, work.dp.eq_mask
        X = [y.dot(y.T) for y in self.ys]
        self.c = c = dp.apply(X, x) - dp.b
        self.sdp_objective = value = dp.objective(X, x)
        shifted = lam - rho * c
        if eq.all():  # no PHR terms: the same bits as the masked formulas below
            value += float((-lam * c + 0.5 * rho * c * c).sum())
            self.lam_tilde, self.active = shifted, eq
        else:
            if rho <= 0.0:
                raise NumericalFailure("PHR terms need rho > 0 with inequality rows")
            self.lam_tilde = lam_t = np.where(eq, shifted, np.maximum(0.0, shifted))
            value += float(np.sum((-lam * c + 0.5 * rho * c * c)[eq]))
            value += float(np.sum((lam_t[~eq] ** 2 - lam[~eq] ** 2))) / (2.0 * rho)
            self.active = eq | (shifted > 0.0)
        if not math.isfinite(value):
            raise NumericalFailure("non-finite augmented Lagrangian evaluation")
        self.value = value

    @cached_property
    def hvp_weight(self) -> np.ndarray:
        return np.where(self.active, self.rho, 0.0)

    @cached_property
    def _slack(self) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
        S, free = self.work.dp.slack(self.lam_tilde)
        return S, free, [2.0 * s for s in S]  # 2 S_j: the blocks of the gradient and of H

    @property
    def S(self) -> list[np.ndarray]:
        """Slack matrices C_j - sum_i lam~_i A_ij, one per PSD block."""
        return self._slack[0]

    @cached_property
    def grad(self) -> np.ndarray:
        _, free, S2 = self._slack
        grad = self.work.pack([s2 @ y for s2, y in zip(S2, self.ys)], free)
        if not np.all(np.isfinite(grad)):
            raise NumericalFailure("non-finite augmented Lagrangian gradient")
        return grad

    @cached_property
    def J(self) -> np.ndarray:
        return self.work.dp.jacobian(self.ys)

    def hvp(self, u: np.ndarray) -> np.ndarray:
        """H u."""
        out = self.J.T.dot(self.hvp_weight * self.J.dot(u))  # .dot: the bits of @, without its dispatch cost
        for off, (n, q), s2 in zip(self.work.offsets, self.work.shapes, self._slack[2]):
            out[off:off + n * q] += s2.dot(u[off:off + n * q].reshape(n, q)).ravel()
        return out

    @cached_property
    def curvature(self) -> np.ndarray | None:
        """The probe at this point, computed once: None when lambda_min(H) >=
        -CURV_FLOOR * max(1, lambda_max(H)), else a unit u with u^T H u below it.

        With S_j = V_j diag(lam_j) V_j^T and Q = blockdiag(V_j (x) I_q, I),
        Q^T H Q = diag(d) + rho Jq^T Jq for Jq = J_a Q, J_a the active rows of
        J, and d = 2 lam_j repeated q times (0 on free variables).
        lambda_max(H) lies between its largest diagonal entry lo and
        hi = max d + rho lambda_max(Jq Jq^T): escape when ``_schur_escape``
        fails at the floor of hi, settle when it passes at that of lo, else
        use the exact one.  No d below the floor of max(max d, tr H / dim) <= lo settles unrotated.
        """
        work, rho = self.work, self.rho
        eigs = [np.linalg.eigh(s) for s in self.S]
        d = np.concatenate([np.repeat(2.0 * lam, q) for (_, q), (lam, _) in zip(work.shapes, eigs)]
                           + [np.zeros(work.dp.d)])
        jq = self.J[self.active]
        lo_bound = max(float(np.max(d)), (float(np.sum(d)) + rho * float(np.vdot(jq, jq))) / work.dim)
        if float(np.min(d)) > -CURV_FLOOR * max(1.0, lo_bound):
            return None
        for off, (n, q), (_, v) in zip(work.offsets, work.shapes, eigs):
            cols = jq[:, off:off + n * q]
            cols[:] = (v.T @ cols.reshape(-1, n, q)).reshape(cols.shape)
        lo = float(np.max(d + rho * np.sum(jq * jq, axis=0)))
        hi = float(np.max(d)) + rho * float(np.max(np.linalg.eigvalsh(jq @ jq.T), initial=0.0))
        u = _schur_escape(d, jq, rho, CURV_FLOOR * max(1.0, hi))
        if u is None and _schur_escape(d, jq, rho, CURV_FLOOR * max(1.0, lo)) is not None:
            u = _schur_escape(d, jq, rho, CURV_FLOOR * max(1.0, _lambda_max(d, jq, rho)))
        if u is None:
            return None
        for off, (n, q), (_, v) in zip(work.offsets, work.shapes, eigs):
            u[off:off + n * q] = (v @ u[off:off + n * q].reshape(n, q)).ravel()
        return u / math.sqrt(float(u @ u))

    @cached_property
    def cg_path(self) -> _CgPath:
        return _CgPath(self.grad, 2 * self.work.dim)

    def infeasibility(self) -> float:
        viol = np.where(self.work.dp.eq_mask, self.c, np.minimum(self.c, 0.0))
        return math.sqrt(float(viol @ viol))


class _CgPath:
    """Steihaug's truncated CG for the trust-region step at one point.

    CG on H s = -g from s = 0 stops at the radius delta, on negative
    curvature (which also covers the PHR kink set) or at the residual
    min(0.5, sqrt|g|) |g|.  Until a step leaves the region the iterates do not
    depend on delta, so the path is recorded once: ``step`` replays it with
    delta's exit tests and runs CG, one Hessian-vector product per iteration,
    only past the end of the record.  A smaller radius after a rejected step
    costs no product, and every step equals a fresh run at its radius.  As r_k =
    g + H z_k, z_k.(r_k - g) and d_k.(r_k - g) give s.H s for the model decrease.
    """

    def __init__(self, g: np.ndarray, max_cg: int):
        rr = float(g.dot(g))
        gnorm = math.sqrt(rr)
        self.g = g
        self.stop = min(0.5, math.sqrt(gnorm)) * gnorm
        # (z_k, d_k, |z_{k+1}|^2 or inf on negative curvature, z_k.H z_k, d_k.H z_k,
        # d_k.H d_k) per iteration; d_k is None once CG converged or ran max_cg iterations
        self.record = []
        self._state = (np.zeros_like(g), g, -g, rr, max_cg)  # (z, r, d, r.r, iterations left)

    def step(self, delta: float, hvp) -> tuple[np.ndarray, float]:
        """The truncated-CG step s at radius delta, and s.H s.  ``hvp`` is H at the
        point, passed per call so the path holds no reference cycle through it."""
        k = 0
        while True:
            if k == len(self.record):
                self.record.append(self._iterate(hvp))
            z, d, zz, zhz, dhz, dhd = self.record[k]
            if d is None:
                return z, zhz
            if zz >= delta * delta:  # the step from z along d meets the boundary
                a = float(d.dot(d))
                bq = 2.0 * float(z.dot(d))
                cq = float(z.dot(z)) - delta * delta
                disc = max(bq * bq - 4.0 * a * cq, 0.0)
                tau = (-bq + math.sqrt(disc)) / (2.0 * a)
                return z + tau * d, zhz + tau * (2.0 * dhz + tau * dhd)
            k += 1

    def _iterate(self, hvp):
        z, r, d, rr, left = self._state
        rg = r - self.g
        zhz = float(z.dot(rg))
        if left == 0:
            return z, None, None, zhz, None, None
        hd = hvp(d)
        dhd = float(d.dot(hd))
        dhz = float(d.dot(rg))
        if dhd <= 1e-14 * float(d.dot(d)):
            self._state = (z, r, d, rr, 0)
            return z, d, np.inf, zhz, dhz, dhd
        alpha = rr / dhd
        z_next = z + alpha * d
        r = r + alpha * hd
        rr_next = float(r.dot(r))
        left = 0 if math.sqrt(rr_next) <= self.stop else left - 1
        self._state = (z_next, r, (rr_next / rr) * d - r, rr_next, left)
        return z, d, float(z_next.dot(z_next)), zhz, dhz, dhd


def _inner(ev: _Eval, tol, max_iter):
    """Trust-region Newton on the AL from ev's point; returns (eval, accepted)."""
    work = ev.work
    delta = TR_RADIUS_INIT
    accepted = 0
    for _ in range(max_iter):
        g = ev.grad
        if math.sqrt(float(g @ g)) <= tol:
            # gradient is flat: probe the spectrum for escapable curvature
            direction = ev.curvature
            if direction is None:
                break
            step = delta * (-direction if float(g @ direction) > 0.0 else direction)
            curv = float(step @ ev.hvp(step))
        else:
            step, curv = ev.cg_path.step(delta, ev.hvp)
        model_dec = -(float(g @ step) + 0.5 * curv)

        ratio = -np.inf  # a step the model cannot rank is rejected
        if 0.0 < model_dec < np.inf:
            ev_trial = _Eval(work, ev.z + step, ev.lam, ev.rho)
            ratio = (ev.value - ev_trial.value) / model_dec
        if ratio >= 0.1:
            ev = ev_trial
            accepted += 1
        if ratio >= 0.75:
            delta = min(delta * 2.0, 1e10)
        elif ratio < 0.1:
            delta *= 0.25
            if delta < 1e-13 * (1.0 + math.sqrt(float(ev.z @ ev.z))):
                break
    return ev, accepted


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def al_value_grad(dp: DenseProblem, point: FactorizedPoint, lam, rho: float):
    """Augmented-Lagrangian value and gradient on the problem's dense view: ``_Eval``
    at the point, with tail blocks factored through ``psd_factor`` (a tail that
    is not PSD raises ``NotPsdError``).

    Gradient is returned in the same shape as the point: 2*S_j*Y_j for factor
    blocks, the slack-matrix component for tail blocks, and the free-part
    slack for the free variables, with S built from lam~.
    """
    work = _Work(dp, point.ranks)
    ev = _Eval(work, work.pack(_internal_factors(point), point.free), np.asarray(lam, dtype=float), rho)
    ys, free = work.unpack(ev.grad)
    tails = tuple(SymmetricMatrix.from_dense(s) for s in ev.S[dp.k:])
    return ev.value, FactorizedPoint(tuple(ys[:dp.k]), tails, free)


def _initial_z(work: _Work, rng: np.random.Generator, b: np.ndarray) -> np.ndarray:
    # i.i.d. normal factors scaled so lifted diagonals start near the rhs scale
    theta = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    ys = [rng.standard_normal((n, q)) * np.sqrt(theta / q) for n, q in work.shapes]
    return work.pack(ys, np.zeros(work.dp.d))


def al_solve(
    problem: DenseProblem,
    ranks,
    config: SolverConfig,
    warm_start: tuple[FactorizedPoint, np.ndarray] | None = None,
):
    """Full augmented-Lagrangian solve on a dense view at the given factor ranks.

    Starts from ``warm_start = (point, lam)`` or a random point, at penalty ``PENALTY_INIT``.
    Stops when infeasibility <= tol * (1 + ||b||_inf) and the AL gradient
    norm <= tol * (1 + ||C|| + ||lam||_inf) (``DenseProblem.tolerances``);
    the penalty grows only while infeasibility is above its tolerance.
    Returns (final LagrangianState, trace of per-outer-iteration records).
    Raises InfeasibleError after 5 stalls in a row: infeasibility above its
    tolerance with the penalty at its cap, or at least ``STALL_RATIO`` of the
    best earlier outer iterate's after a multiplier step as large as the
    multipliers (infeasibility on a face without strictly feasible points
    falls only once the multipliers are large).
    """
    work = _Work(problem, ranks)
    rng = np.random.default_rng(config.seed)

    if warm_start is not None:
        point0, lam = warm_start
        z = work.pack(_internal_factors(point0), point0.free)
        lam = np.array(lam, dtype=float)
    else:
        z = _initial_z(work, rng, problem.b)
        lam = np.zeros(problem.m)
    rho = PENALTY_INIT

    feas_tol = problem.tolerances(lam, config.tol)["feasibility"]
    trace = []
    ev = _Eval(work, z, lam, rho)
    best_infeas = ev.infeasibility()
    stall_ref = np.inf  # best outer-iterate infeasibility; a warm start may begin far more feasible
    stall = 0
    for outer in range(1, config.max_outer + 1):
        tol_inner = max(config.tol, 0.1 * best_infeas)
        ev, accepted = _inner(ev, tol_inner, MAX_INNER)
        lam_prev, lam = lam, np.clip(ev.lam_tilde, -DUAL_CAP, DUAL_CAP)
        infeas = ev.infeasibility()
        stationarity = math.sqrt(float(ev.grad @ ev.grad))
        trace.append(
            {
                "outer": outer,
                "objective": ev.sdp_objective,
                "infeasibility": infeas,
                "stationarity": stationarity,
                "rho": rho,
                "inner_accepted": accepted,
            }
        )
        stat_tol = problem.tolerances(lam, config.tol)["stationarity"]
        if infeas <= feas_tol and stationarity <= stat_tol:
            break

        if infeas > feas_tol and infeas > best_infeas / 4.0:
            rho = min(rho * PENALTY_GROWTH, PENALTY_CAP)
        moved = np.max(np.abs(lam - lam_prev), initial=0.0) >= np.max(np.abs(lam_prev), initial=0.0)
        if infeas > feas_tol and (rho >= PENALTY_CAP or (moved and infeas >= STALL_RATIO * stall_ref)):
            stall += 1
            if stall >= 5:
                raise InfeasibleError(f"infeasibility {infeas:.3e} stalled at rho {rho:.0e}")
        else:
            stall = 0
        best_infeas = min(best_infeas, infeas)
        stall_ref = min(stall_ref, infeas)
        ev = _Eval(work, ev.z, lam, rho)

    # the last outer iterate (ev holds its point) and its stopping test
    state = LagrangianState(work.to_point(ev.z), lam, trace[-1]["rho"], ev.sdp_objective, infeas, stationarity,
                            infeas <= feas_tol and stationarity <= stat_tol)
    return state, trace
