"""Local solver for the factorized problem.

Outer loop: safeguarded augmented Lagrangian with Powell-Hestenes-Rockafellar
treatment of inequality rows, stopped by the scale-relative tolerances of
``kkt_scales`` that certification also uses.  Inner loop: trust-region
Newton with truncated CG on exact Hessian-vector products, plus a dense
negative-curvature probe at (near-)stationary points so the method settles
only at second-order points.
Both go through the constraint Jacobian J at the point: a Hessian-vector
product is 2 S_j U_j + J^T (w * J u), and the probe assembles
blockdiag(2 S_j (x) I_q) + J^T diag(w) J directly, writing 2 S_j into the q
diagonal sub-blocks of each block, with w the penalty on active rows and 0
elsewhere.  The probe takes only lambda_min and its eigenvector, by a
partial LAPACK eigensolve, and at most once per evaluation point: a rejected
escape step shrinks the radius and reuses the direction.

Tail PSD blocks are parameterized internally at full rank (any PSD matrix of
size n factors at rank n), so one variable layout serves every block; the
factorized/tail distinction matters again only for rank bounds and for
certification reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .dense import DenseProblem, densify
from .factorization import FactorizedPoint, factor
from .model import ConicSdpProblem, PrimalPoint, SymmetricMatrix

__all__ = [
    "SolverConfig",
    "LagrangianState",
    "InfeasibleError",
    "NumericalFailure",
    "kkt_scales",
    "al_value_grad",
    "al_hessian_vector",
    "inner_minimize",
    "al_solve",
]


class InfeasibleError(RuntimeError):
    pass


class NumericalFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    outer_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_outer: int = 50
    max_inner: int = 500
    penalty_init: float = 10.0
    penalty_growth: float = 10.0
    tr_radius_init: float = 1.0
    seed: int = 0
    init_scale: float = 1.0
    penalty_cap: float = 1e12
    dual_cap: float = 1e10
    restarts: int = 3


@dataclass(frozen=True, eq=False)
class LagrangianState:
    point: FactorizedPoint
    lam: np.ndarray
    rho: float
    objective: float
    infeasibility: float
    stationarity: float
    converged: bool = True


def kkt_scales(problem: ConicSdpProblem, lam) -> tuple[float, float, float]:
    """Scales of the KKT tolerances, shared by ``al_solve`` and certification.

    Returns (1 + ||C|| + ||lam||_inf, 1 + ||b||_inf, 1 + ||lam||_inf), with
    ||C|| the largest cost-block Frobenius norm plus the free cost's norm.
    Stationarity scales with the first, feasibility with the second and
    complementarity with the product of the last two.
    """
    norm_c = max([sm.norm() for sm in problem.cost_blocks] + [0.0])
    norm_c += float(np.linalg.norm(problem.cost_free))
    lam_scale = float(np.max(np.abs(lam))) if np.size(lam) else 0.0
    b_scale = float(np.max(np.abs(problem.b))) if problem.m else 0.0
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


def _slack_hessian(S, qs, dim: int) -> np.ndarray:
    """blockdiag_j kron(2 S_j, I_q_j), zero-padded to dim.

    This is the Hessian of sum_j <S_j, Y_j Y_j^T> in the row-major
    (Y_1, ..., x) layout, for the leading len(S) blocks.  Entry (a q + i,
    b q + k) of block j is 2 S_j[a, b] when i == k, so 2 S_j is written into
    the q diagonal sub-blocks of the block's (n, q, n, q) view.
    """
    h = np.zeros((dim, dim))
    off = 0
    for s, q in zip(S, qs):
        n = s.shape[0]
        size = n * q
        diag = np.arange(q)
        h[off:off + size, off:off + size].reshape(n, q, n, q)[:, diag, :, diag] = 2.0 * s
        off += size
    return h


# the probe settles when lambda_min >= -CURV_FLOOR * max(|lambda_min|, |lambda_max|, 1)
CURV_FLOOR = 1e-8


def _probe(h: np.ndarray) -> np.ndarray | None:
    """Unit eigenvector of lambda_min(h), or None when h settles.

    Only lambda_min is computed (LAPACK syevr on one index).  lambda_max
    enters the settle rule through its scale alone, so it is bracketed by
    max diag(h) <= lambda_max <= max row-sum |h| and computed only when
    that bracket leaves the decision open.
    """
    w, v = scipy.linalg.eigh(h, subset_by_index=[0, 0], check_finite=False)
    lo = float(w[0])
    if lo >= 0.0:
        return None
    # for lo < 0, max(|lo|, |lambda_max|, 1) == max(|lo|, lambda_max, 1)
    base = max(-lo, 1.0)
    if -lo <= CURV_FLOOR * max(base, float(np.max(np.diag(h)))):
        return None
    if -lo > CURV_FLOOR * max(base, float(np.max(np.sum(np.abs(h), axis=1)))):
        return v[:, 0]
    dim = h.shape[0]
    hi = scipy.linalg.eigh(h, eigvals_only=True, subset_by_index=[dim - 1, dim - 1],
                           check_finite=False)
    return None if -lo <= CURV_FLOOR * max(base, float(hi[0])) else v[:, 0]


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
        ys, x = self.unpack(z)
        k = self.dp.k
        tails = tuple(SymmetricMatrix.from_dense(y @ y.T) for y in ys[k:])
        return FactorizedPoint(tuple(np.array(y) for y in ys[:k]), tails, np.array(x))


class _Eval:
    """AL value, gradient and exact Hessian-vector products at a point.

    Second-order terms go through J, the constraint Jacobian at the point
    (``DenseProblem.jacobian``): the Hessian is
    blockdiag(kron(2 S_j, I_q)) + J^T diag(w) J, with w = rho on active rows
    and 0 elsewhere.  A tail held as a matrix enters J as the factor I/2, whose
    columns 2 A_i (I/2) = A_i are the derivative of <A_i, X_j>, and it carries
    no S-curvature term.
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

        adj, adj_free = dp.adjoint(lam_t)
        self.S = [cj - aj for cj, aj in zip(dp.C, adj)]
        grad_blocks = [2.0 * s @ y for s, y in zip(self.S, ys[:nf])] + self.S[nf:]
        grad_free = dp.c_free - adj_free if dp.d else np.zeros(0)
        self.grad = work.pack(grad_blocks, grad_free)

        self.J = dp.jacobian(ys[:nf] + [0.5 * np.eye(n) for n in dp.sizes[nf:]])
        self.hvp_weight = np.where(self.active, rho, 0.0)
        if not np.all(np.isfinite(self.grad)) or not np.isfinite(value):
            raise NumericalFailure("non-finite augmented Lagrangian evaluation")

    def hvp(self, u: np.ndarray) -> np.ndarray:
        work = self.work
        us, _ = work.unpack(u)
        out = self.J.T @ (self.hvp_weight * (self.J @ u))
        for off, (n, q), s, uj in zip(work.offsets, work.shapes, self.S[:work.nf], us):
            out[off:off + n * q] += (2.0 * s @ uj).ravel()
        return out

    def dense_hessian(self) -> np.ndarray:
        work = self.work
        h = _slack_hessian(self.S[:work.nf], work.qs, work.dim)
        h += self.J.T @ (self.hvp_weight[:, None] * self.J)
        return 0.5 * (h + h.T)

    @cached_property
    def curvature(self) -> np.ndarray | None:
        """The probe at this point (``_probe`` of the dense Hessian), computed once."""
        return _probe(self.dense_hessian())

    def infeasibility(self) -> float:
        viol = np.where(self.work.dp.eq_mask, self.c, np.minimum(self.c, 0.0))
        return float(np.linalg.norm(viol))


def _steihaug(g: np.ndarray, hvp, delta: float, max_cg: int):
    """Truncated-CG trust-region subproblem; stops at the boundary or on
    negative curvature (which also covers the PHR kink set)."""
    z = np.zeros_like(g)
    r = g.copy()
    d = -r
    rr = float(r @ r)
    gnorm = np.sqrt(rr)
    stop = min(0.5, np.sqrt(gnorm)) * gnorm

    def boundary(zv, dv):
        a = float(dv @ dv)
        bq = 2.0 * float(zv @ dv)
        cq = float(zv @ zv) - delta * delta
        disc = max(bq * bq - 4.0 * a * cq, 0.0)
        tau = (-bq + np.sqrt(disc)) / (2.0 * a)
        return zv + tau * dv

    for _ in range(max_cg):
        hd = hvp(d)
        dhd = float(d @ hd)
        if dhd <= 1e-14 * float(d @ d):
            return boundary(z, d)
        alpha = rr / dhd
        z_next = z + alpha * d
        if float(z_next @ z_next) >= delta * delta:
            return boundary(z, d)
        z = z_next
        r = r + alpha * hd
        rr_next = float(r @ r)
        if np.sqrt(rr_next) <= stop:
            return z
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return z


def _inner(ev: _Eval, tol, max_iter, tr0):
    """Trust-region Newton on the AL from ev's point; returns (eval, accepted, stalled)."""
    work = ev.work
    delta = tr0
    accepted = 0

    it = 0
    while it < max_iter:
        it += 1
        g = ev.grad
        gnorm = float(np.linalg.norm(g))
        step = None
        if gnorm <= tol:
            # gradient is flat: probe the spectrum for escapable curvature
            direction = ev.curvature
            if direction is None:
                break
            if float(g @ direction) > 0.0:
                direction = -direction
            step = delta * direction
            model_dec = -(float(g @ step) + 0.5 * float(step @ ev.hvp(step)))
        else:
            step = _steihaug(g, ev.hvp, delta, max_cg=2 * work.dim)
            model_dec = -(float(g @ step) + 0.5 * float(step @ ev.hvp(step)))

        if model_dec <= 0.0 or not np.all(np.isfinite(step)):
            delta *= 0.25
            if delta < 1e-13 * (1.0 + float(np.linalg.norm(ev.z))):
                return ev, accepted, True
            continue

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
                return ev, accepted, True
    return ev, accepted, it >= max_iter


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _public_eval(problem: ConicSdpProblem, point: FactorizedPoint, lam, rho) -> _Eval:
    """_Eval in the public (Y, X-tail, x) coordinates."""
    dp = densify(problem)
    work = _Work(dp, point.ranks, tail_matrices=True)
    ys = list(point.factors) + [t.to_dense() for t in point.tail_blocks]
    z = work.pack(ys, np.asarray(point.free, dtype=float))
    return _Eval(work, z, np.asarray(lam, dtype=float), rho)


def _public_point(work: _Work, z: np.ndarray) -> FactorizedPoint:
    ys, x = work.unpack(z)
    k = work.dp.k
    return FactorizedPoint(
        tuple(ys[:k]), tuple(SymmetricMatrix.from_dense(t) for t in ys[k:]), x
    )


def al_value_grad(problem: ConicSdpProblem, point: FactorizedPoint, lam, rho: float):
    """Augmented-Lagrangian value and gradient.

    Gradient is returned in the same shape as the point: 2*S_j*Y_j for factor
    blocks, the slack-matrix component for tail blocks, and the free-part
    slack for the free variables.
    """
    ev = _public_eval(problem, point, lam, rho)
    return ev.value, _public_point(ev.work, ev.grad)


def al_hessian_vector(
    problem: ConicSdpProblem,
    point: FactorizedPoint,
    lam,
    rho: float,
    direction: FactorizedPoint,
) -> FactorizedPoint:
    """Exact Hessian-vector product of the AL, in the public coordinates."""
    ev = _public_eval(problem, point, lam, rho)
    us = list(direction.factors) + [t.to_dense() for t in direction.tail_blocks]
    hu = ev.hvp(ev.work.pack(us, np.asarray(direction.free, dtype=float)))
    if not np.all(np.isfinite(hu)):
        raise NumericalFailure("non-finite Hessian-vector product")
    return _public_point(ev.work, hu)


def inner_minimize(problem: ConicSdpProblem, state: LagrangianState, config: SolverConfig) -> LagrangianState:
    """Minimize the AL at fixed multipliers/penalty from the state's point."""
    dp = densify(problem)
    work = _Work(dp, state.point.ranks)
    z0 = work.pack(_internal_factors(state.point), state.point.free)
    ev0 = _Eval(work, z0, state.lam, state.rho)
    tol = max(config.outer_tol, 0.1 * ev0.infeasibility())
    ev, accepted, stalled = _inner(ev0, tol, config.max_inner, config.tr_radius_init)
    return LagrangianState(
        point=work.to_point(ev.z),
        lam=np.array(state.lam),
        rho=state.rho,
        objective=ev.sdp_objective,
        infeasibility=ev.infeasibility(),
        stationarity=float(np.linalg.norm(ev.grad)),
        converged=not stalled,
    )


def _initial_z(work: _Work, rng: np.random.Generator, sigma: float, b: np.ndarray) -> np.ndarray:
    # i.i.d. normal factors scaled so lifted diagonals start near the rhs scale
    theta = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    ys = []
    for n, q in work.shapes:
        ys.append(rng.standard_normal((n, q)) * (sigma * np.sqrt(theta / q)))
    x = np.zeros(work.dp.d)
    return work.pack(ys, x)


def al_solve(
    problem: ConicSdpProblem,
    ranks,
    config: SolverConfig,
    warm_start: tuple[FactorizedPoint, np.ndarray, float] | None = None,
):
    """Full augmented-Lagrangian solve at the given factor ranks.

    Stops when infeasibility <= feas_tol * (1 + ||b||_inf) and the AL
    gradient norm <= outer_tol * (1 + ||C|| + ||lam||_inf) (``kkt_scales``);
    the penalty grows only while infeasibility is above its tolerance.
    Returns (final LagrangianState, trace of per-outer-iteration records).
    Raises InfeasibleError when infeasibility stalls above its tolerance with
    the penalty at its cap.
    """
    dp = densify(problem)
    work = _Work(dp, ranks)
    rng = np.random.default_rng(config.seed)

    if warm_start is not None:
        point0, lam, rho = warm_start
        z = work.pack(_internal_factors(point0), point0.free)
        lam = np.array(lam, dtype=float)
        rho = float(rho)
    else:
        z = _initial_z(work, rng, config.init_scale, dp.b)
        lam = np.zeros(dp.m)
        rho = config.penalty_init

    feas_tol = config.feas_tol * kkt_scales(problem, lam)[1]
    trace = []
    ev = _Eval(work, z, lam, rho)
    best_infeas = ev.infeasibility()
    stall = 0
    state = None
    for outer in range(1, config.max_outer + 1):
        tol_inner = max(config.outer_tol, 0.1 * best_infeas)
        ev, accepted, _ = _inner(ev, tol_inner, config.max_inner, config.tr_radius_init)
        lam = np.clip(ev.lam_tilde, -config.dual_cap, config.dual_cap)
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
            converged=True,
        )
        stat_tol = config.outer_tol * kkt_scales(problem, lam)[0]
        if infeas <= feas_tol and stationarity <= stat_tol:
            return state, trace

        if infeas > feas_tol and infeas > best_infeas / 4.0:
            rho = min(rho * config.penalty_growth, config.penalty_cap)
        if rho >= config.penalty_cap and infeas > feas_tol:
            stall += 1
            if stall >= 5:
                raise InfeasibleError(
                    f"infeasibility {infeas:.3e} stalled with penalty at cap"
                )
        else:
            stall = 0
        best_infeas = min(best_infeas, infeas)
        ev = _Eval(work, ev.z, lam, rho)

    return replace(state, converged=False), trace
