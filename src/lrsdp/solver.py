"""Local solver for the factorized problem.

Outer loop: safeguarded augmented Lagrangian with Powell-Hestenes-Rockafellar
treatment of inequality rows, stopped by the scale-relative tolerances of
``kkt_scales`` that certification also uses, with one relative tolerance
(``SolverConfig.tol``) for stationarity and feasibility.  Inner loop:
trust-region Newton with truncated CG on exact Hessian-vector products, plus
a negative-curvature probe at (near-)stationary points so the method settles
only at second-order points.
Both go through the constraint Jacobian J at the point: the Hessian is
H = blockdiag(2 S_j (x) I_q) + J^T diag(w) J, with w the penalty on active
rows and 0 elsewhere, and a Hessian-vector product is 2 S_j U_j + J^T (w * J u).
The probe reads the slack matrices S_j first: it settles when their smallest
eigenvalue bounds lambda_min(H) above the floor, and escapes along a
Rayleigh-Ritz direction built from their negative eigenvectors when that
clears the floor.  Only points neither test decides, and points whose
negative slack eigenspace fills half the variable space or more, form H as
the Hessian-vector product of the identity and decide from its full
eigendecomposition (``_probe``).  The probe runs at most once per evaluation
point: a rejected escape step shrinks the radius and reuses the direction.
Likewise the truncated-CG path is recorded once per point (``_CgPath``): a
rejected CG step replays it at the smaller radius with no new Hessian-vector
product.  A trial point computes only its AL value; its slack, gradient and
Jacobian are built once it is accepted.

Tail PSD blocks are parameterized internally at full rank (any PSD matrix of
size n factors at rank n), so one variable layout serves every block; the
factorized/tail distinction matters again only for rank bounds and for
certification reporting.

``al_solve`` and the public evaluators ``al_value_grad`` and
``al_hessian_vector`` take the problem's dense view (``densify``) from their
caller and build none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

# densify is unused here; it stays importable for tools that wrap solver.densify
from .dense import DenseProblem, densify  # noqa: F401
from .factorization import FactorizedPoint, factor
from .model import PrimalPoint, SymmetricMatrix

__all__ = [
    "SolverConfig",
    "LagrangianState",
    "InfeasibleError",
    "NumericalFailure",
    "kkt_scales",
    "al_value_grad",
    "al_hessian_vector",
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
    tol: float = 1e-8  # relative stationarity and feasibility tolerance of ``al_solve``
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


def kkt_scales(dp: DenseProblem, lam) -> tuple[float, float, float]:
    """Scales of the KKT tolerances, shared by ``al_solve`` and certification.

    Returns (1 + ||C|| + ||lam||_inf, 1 + ||b||_inf, 1 + ||lam||_inf), with
    ||C|| the largest cost-block Frobenius norm plus the free cost's norm.
    Stationarity scales with the first, feasibility with the second and
    complementarity with the product of the last two.
    """
    norm_c = max([float(np.linalg.norm(c)) for c in dp.C] + [0.0])
    norm_c += float(np.linalg.norm(dp.c_free))
    lam_scale = float(np.max(np.abs(lam))) if np.size(lam) else 0.0
    b_scale = float(np.max(np.abs(dp.b))) if dp.m else 0.0
    return 1.0 + norm_c + lam_scale, 1.0 + b_scale, 1.0 + lam_scale


# ---------------------------------------------------------------------------
# internal all-factor variable layout
# ---------------------------------------------------------------------------


def _internal_factors(point: FactorizedPoint) -> list[np.ndarray]:
    """Factor matrices for every block: given factors plus full-rank tails."""
    ys = [np.asarray(y, dtype=float) for y in point.factors]
    if point.tail_blocks:
        tail = factor(
            PrimalPoint(tuple(point.tail_blocks), np.zeros(0)),
            [sm.dim for sm in point.tail_blocks],
        )
        ys.extend(tail.factors)
    return ys


# the probe settles when lambda_min >= -CURV_FLOOR * max(|lambda_min|, |lambda_max|, 1)
CURV_FLOOR = 1e-8


def _probe(h: np.ndarray) -> np.ndarray | None:
    """Unit eigenvector of lambda_min(h), or None when h settles.

    The floor's scale reads max(1, lambda_max): for lambda_min < 0 the
    |lambda_min| term of the rule never decides.
    """
    w, v = np.linalg.eigh(h)
    return None if -w[0] <= CURV_FLOOR * max(1.0, w[-1]) else v[:, 0]


class _Work:
    """Dense data plus the flattened (Y_1..Y_L, x) variable layout.

    The solver holds tail blocks as full-rank factors.  With
    ``tail_matrices`` the tail slots hold the n x n matrices X_j themselves,
    which are the public coordinates of ``al_value_grad`` and
    ``al_hessian_vector``.
    """

    def __init__(self, dp: DenseProblem, ranks, tail_matrices: bool = False):
        if len(ranks) != dp.k:
            raise ValueError(f"need {dp.k} factor ranks, got {len(ranks)}")
        self.dp = dp
        self.nf = dp.k if tail_matrices else len(dp.sizes)  # blocks held as factors
        self.qs = [int(q) for q in ranks] + [n for n in dp.sizes[dp.k:]]
        self.shapes = [(n, q) for n, q in zip(dp.sizes, self.qs)]
        self.offsets = []
        off = 0
        for n, q in self.shapes:
            self.offsets.append(off)
            off += n * q
        self.free_off = off
        self.dim = off + dp.d

    def pack(self, ys, x) -> np.ndarray:
        z = np.empty(self.dim)
        for off, (n, q), y in zip(self.offsets, self.shapes, ys):
            z[off:off + n * q] = y.ravel()
        z[self.free_off:] = x
        return z

    def unpack(self, z):
        ys = [
            z[off:off + n * q].reshape(n, q)
            for off, (n, q) in zip(self.offsets, self.shapes)
        ]
        return ys, z[self.free_off:]

    def to_point(self, z) -> FactorizedPoint:
        """z as a point: tails held as factors are lifted, tails held as matrices kept."""
        ys, x = self.unpack(z)
        k, nf = self.dp.k, self.nf
        tails = tuple(SymmetricMatrix.from_dense(t) for t in [y @ y.T for y in ys[k:nf]] + ys[nf:])
        return FactorizedPoint(tuple(np.array(y) for y in ys[:k]), tails, np.array(x))


class _Eval:
    """AL value, gradient and exact Hessian-vector products at a point.

    Second-order terms go through J, the constraint Jacobian at the point
    (``DenseProblem.jacobian``): the Hessian is
    blockdiag(kron(2 S_j, I_q)) + J^T diag(w) J, with w = rho on active rows
    and 0 elsewhere.  A tail held as a matrix enters J as the factor I/2, whose
    columns 2 A_i (I/2) = A_i are the derivative of <A_i, X_j>, and it carries
    no S-curvature term.

    The constructor computes only what a trial point needs: the AL value,
    checked finite.  The slack, gradient (checked finite), J, CG path and
    probe are computed on first use and kept.
    """

    def __init__(self, work: _Work, z: np.ndarray, lam: np.ndarray, rho: float):
        dp = work.dp
        nf = work.nf
        self.work = work
        self.z = z
        self.lam = lam
        self.rho = rho
        ys, x = work.unpack(z)
        X = [y @ y.T for y in ys[:nf]] + ys[nf:]
        self.c = dp.apply(X, x) - dp.b
        self.sdp_objective = dp.objective(X, x)

        shifted = lam - rho * self.c
        lam_t = np.where(dp.eq_mask, shifted, np.maximum(0.0, shifted))
        self.lam_tilde = lam_t
        self.active = dp.eq_mask | (shifted > 0.0)

        eq, c = dp.eq_mask, self.c
        value = self.sdp_objective
        value += float(np.sum((-lam * c + 0.5 * rho * c * c)[eq]))
        if np.any(~eq):
            if rho <= 0.0:
                raise NumericalFailure("PHR terms need rho > 0 with inequality rows")
            value += float(np.sum((lam_t[~eq] ** 2 - lam[~eq] ** 2))) / (2.0 * rho)
        self.value = value
        self.hvp_weight = np.where(self.active, rho, 0.0)
        if not np.isfinite(value):
            raise NumericalFailure("non-finite augmented Lagrangian evaluation")

    @cached_property
    def _slack(self) -> tuple[list[np.ndarray], np.ndarray]:
        return self.work.dp.slack(self.lam_tilde)

    @property
    def S(self) -> list[np.ndarray]:
        """Slack matrices C_j - sum_i lam~_i A_ij, one per PSD block."""
        return self._slack[0]

    @cached_property
    def grad(self) -> np.ndarray:
        (S, free), ys, nf = self._slack, self.work.unpack(self.z)[0], self.work.nf
        grad = self.work.pack([2.0 * s @ y for s, y in zip(S, ys[:nf])] + S[nf:], free)
        if not np.all(np.isfinite(grad)):
            raise NumericalFailure("non-finite augmented Lagrangian gradient")
        return grad

    @cached_property
    def J(self) -> np.ndarray:
        ys, nf = self.work.unpack(self.z)[0], self.work.nf
        return self.work.dp.jacobian(ys[:nf] + [0.5 * np.eye(n) for n in self.work.dp.sizes[nf:]])

    def hvp(self, u: np.ndarray) -> np.ndarray:
        """H u, for a vector u or for each column of a (dim, r) matrix u."""
        work = self.work
        # .T puts the row axis last, where the weights broadcast; a no-op on vectors
        out = self.J.T @ (self.hvp_weight * (self.J @ u).T).T
        for off, (n, q), s in zip(work.offsets, work.shapes, self.S[:work.nf]):
            uj = u[off:off + n * q]
            out[off:off + n * q] += (2.0 * s @ uj.reshape(n, -1)).reshape(uj.shape)
        return out

    @cached_property
    def curvature(self) -> np.ndarray | None:
        """The probe at this point, computed once: None when it settles, else
        a unit direction of negative curvature, by ``_probe``'s settle rule.

        H = D + rho J_a^T J_a, with J_a the active rows of J and
        D = blockdiag(2 S_j (x) I_q, 0): blocks held as matrices and free
        variables carry no slack term.  So lambda_min(H) >= 2 min_j
        lambda_min(S_j) when that is negative, and max diag(H) <= lambda_max(H)
        <= max(2 max_j lambda_max(S_j), 0) + rho lambda_max(J_a J_a^T).

        1. Settle when the slack bound clears the floor at the scale max diag(H).
        2. Escape along the Rayleigh-Ritz minimizer of H over span(B, H B),
           B an orthonormal basis of V (x) R^q with V the slack eigenvectors of
           negative eigenvalue, when its Ritz value clears the floor at the
           upper scale and B spans under half the space.  B holds v z^T for
           every kernel vector z of Y_j, so at a rank-deficient factor the
           Ritz value is 2 lambda_min(S) = lambda_min(H); H B adds the part of
           a direction that cancels its constraint term J u, which the
           penalty makes costly.
        3. Otherwise decide on the dense H = hvp(I) with ``_probe``.
        """
        work = self.work
        eigs = [np.linalg.eigh(s) for s in self.S[:work.nf]]
        lo = min((float(lam[0]) for lam, _ in eigs), default=0.0)
        if lo >= 0.0:
            return None  # H >= 0
        ja = self.J[self.active]
        diag = self.rho * np.sum(ja * ja, axis=0)
        for off, (n, q), s in zip(work.offsets, work.shapes, self.S[:work.nf]):
            diag[off:off + n * q] += np.repeat(2.0 * np.diag(s), q)
        if -2.0 * lo <= CURV_FLOOR * max(1.0, float(np.max(diag))):
            return None

        # orthonormal basis B of V (x) R^q: column (k, i) of block j is vec(v_k e_i^T)
        negs = [v[:, lam < 0.0] for lam, v in eigs]
        size = sum(neg.shape[1] * q for neg, q in zip(negs, work.qs))
        if 2 * size < work.dim:  # else span(B, H B) may be the whole space
            basis = np.zeros((work.dim, size))
            col = 0
            for off, (n, q), neg in zip(work.offsets, work.shapes, negs):
                k, idx = neg.shape[1], np.arange(q)
                basis[off:off + n * q, col:col + k * q].reshape(n, q, k, q)[:, idx, :, idx] = neg
                col += k * q
            q_mat = np.linalg.qr(np.hstack([basis, self.hvp(basis)]))[0]
            theta, c = np.linalg.eigh(q_mat.T @ self.hvp(q_mat))
            top_j = float(np.max(np.linalg.eigvalsh(ja @ ja.T), initial=0.0))
            hi = max(2.0 * max(float(lam[-1]) for lam, _ in eigs), 0.0) + self.rho * top_j
            if -float(theta[0]) > CURV_FLOOR * max(1.0, hi):
                return q_mat @ c[:, 0]
        return _probe(self.hvp(np.eye(work.dim)))

    @cached_property
    def cg_path(self) -> _CgPath:
        return _CgPath(self.grad, 2 * self.work.dim)

    def infeasibility(self) -> float:
        viol = np.where(self.work.dp.eq_mask, self.c, np.minimum(self.c, 0.0))
        return float(np.linalg.norm(viol))


class _CgPath:
    """Steihaug's truncated CG for the trust-region step at one point.

    CG on H s = -g from s = 0 stops at the radius delta, on negative
    curvature (which also covers the PHR kink set) or at the residual
    min(0.5, sqrt|g|) |g|.  Until a step leaves the region the iterates do not
    depend on delta, so the path is recorded once: ``step`` replays it with
    delta's exit tests and runs CG, one Hessian-vector product per iteration,
    only past the end of the record.  A smaller radius after a rejected step
    costs no product, and every step equals a fresh run at its radius.
    """

    def __init__(self, g: np.ndarray, max_cg: int):
        rr = float(g @ g)
        gnorm = np.sqrt(rr)
        self.stop = min(0.5, np.sqrt(gnorm)) * gnorm
        # (z_k, d_k, |z_{k+1}|^2) per iteration, with inf for negative
        # curvature; d_k is None once CG has converged or run max_cg iterations
        self.record = []
        self._state = (np.zeros_like(g), g, -g, rr, max_cg)  # (z, r, d, r.r, iterations left)

    def step(self, delta: float, hvp) -> np.ndarray:
        """The truncated-CG step at radius delta.  ``hvp`` is H at the point,
        passed per call so the path holds no reference cycle through its point."""
        k = 0
        while True:
            if k == len(self.record):
                self.record.append(self._iterate(hvp))
            z, d, zz = self.record[k]
            if d is None:
                return z
            if zz >= delta * delta:  # the step from z along d meets the boundary
                a = float(d @ d)
                bq = 2.0 * float(z @ d)
                cq = float(z @ z) - delta * delta
                disc = max(bq * bq - 4.0 * a * cq, 0.0)
                return z + ((-bq + np.sqrt(disc)) / (2.0 * a)) * d
            k += 1

    def _iterate(self, hvp):
        z, r, d, rr, left = self._state
        if left == 0:
            return z, None, None
        hd = hvp(d)
        dhd = float(d @ hd)
        if dhd <= 1e-14 * float(d @ d):
            self._state = (z, r, d, rr, 0)
            return z, d, np.inf
        alpha = rr / dhd
        z_next = z + alpha * d
        r = r + alpha * hd
        rr_next = float(r @ r)
        left = 0 if np.sqrt(rr_next) <= self.stop else left - 1
        self._state = (z_next, r, -r + (rr_next / rr) * d, rr_next, left)
        return z, d, float(z_next @ z_next)


def _inner(ev: _Eval, tol, max_iter):
    """Trust-region Newton on the AL from ev's point; returns (eval, accepted)."""
    work = ev.work
    delta = TR_RADIUS_INIT
    accepted = 0
    for _ in range(max_iter):
        g = ev.grad
        if float(np.linalg.norm(g)) <= tol:
            # gradient is flat: probe the spectrum for escapable curvature
            direction = ev.curvature
            if direction is None:
                break
            step = delta * (-direction if float(g @ direction) > 0.0 else direction)
        else:
            step = ev.cg_path.step(delta, ev.hvp)
        model_dec = -(float(g @ step) + 0.5 * float(step @ ev.hvp(step)))

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
            if delta < 1e-13 * (1.0 + float(np.linalg.norm(ev.z))):
                break
    return ev, accepted


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _public_eval(dp: DenseProblem, point: FactorizedPoint, lam, rho) -> _Eval:
    """_Eval in the public (Y, X-tail, x) coordinates."""
    work = _Work(dp, point.ranks, tail_matrices=True)
    ys = list(point.factors) + [t.to_dense() for t in point.tail_blocks]
    z = work.pack(ys, np.asarray(point.free, dtype=float))
    return _Eval(work, z, np.asarray(lam, dtype=float), rho)


def al_value_grad(dp: DenseProblem, point: FactorizedPoint, lam, rho: float):
    """Augmented-Lagrangian value and gradient on the problem's dense view.

    Gradient is returned in the same shape as the point: 2*S_j*Y_j for factor
    blocks, the slack-matrix component for tail blocks, and the free-part
    slack for the free variables.
    """
    ev = _public_eval(dp, point, lam, rho)
    return ev.value, ev.work.to_point(ev.grad)


def al_hessian_vector(
    dp: DenseProblem,
    point: FactorizedPoint,
    lam,
    rho: float,
    direction: FactorizedPoint,
) -> FactorizedPoint:
    """Exact Hessian-vector product of the AL, in the public coordinates."""
    ev = _public_eval(dp, point, lam, rho)
    us = list(direction.factors) + [t.to_dense() for t in direction.tail_blocks]
    hu = ev.hvp(ev.work.pack(us, np.asarray(direction.free, dtype=float)))
    if not np.all(np.isfinite(hu)):
        raise NumericalFailure("non-finite Hessian-vector product")
    return ev.work.to_point(hu)


def _initial_z(work: _Work, rng: np.random.Generator, b: np.ndarray) -> np.ndarray:
    # i.i.d. normal factors scaled so lifted diagonals start near the rhs scale
    theta = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
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
    norm <= tol * (1 + ||C|| + ||lam||_inf) (``kkt_scales``);
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

    feas_tol = config.tol * kkt_scales(problem, lam)[1]
    trace = []
    ev = _Eval(work, z, lam, rho)
    best_infeas = ev.infeasibility()
    stall_ref = np.inf  # best outer-iterate infeasibility; a warm start may begin far more feasible
    stall = 0
    state = None
    for outer in range(1, config.max_outer + 1):
        tol_inner = max(config.tol, 0.1 * best_infeas)
        ev, accepted = _inner(ev, tol_inner, MAX_INNER)
        lam_prev, lam = lam, np.clip(ev.lam_tilde, -DUAL_CAP, DUAL_CAP)
        infeas = ev.infeasibility()
        stationarity = float(np.linalg.norm(ev.grad))
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
        state = LagrangianState(
            point=work.to_point(ev.z),
            lam=lam,
            rho=rho,
            objective=ev.sdp_objective,
            infeasibility=infeas,
            stationarity=stationarity,
        )
        stat_tol = config.tol * kkt_scales(problem, lam)[0]
        if infeas <= feas_tol and stationarity <= stat_tol:
            return state, trace

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

    return replace(state, converged=False), trace
