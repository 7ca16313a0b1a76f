"""Independent ground-truth solvers for desk-scale problems.

``oracle_solve`` is a dense primal-dual path-following interior-point method
(Mehrotra predictor-corrector, HKM direction) on the equality-form problem:
the inequality slacks are one extra diagonal PSD block, and free variables are
eliminated directly from the Schur system.  Residuals, objective and search
directions go through the ``DenseProblem`` operator the solver and certifier
use.  It anchors every derived test value in the suite, so it is deliberately
boring: dense factorizations, no randomness, fraction-to-boundary 0.99.

``brute_force_2x2`` is a second, structurally unrelated oracle for single
2x2-block problems: it sweeps the eigenbasis angle on a fine grid and solves
the remaining two-variable linear program exactly at each angle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
import scipy.linalg as sla

from .dense import DenseProblem, densify
from .model import (
    BlockStructure,
    ConicSdpProblem,
    Constraint,
    ConstraintKind,
    CooSymmetric,
    PrimalPoint,
    SymmetricMatrix,
)

__all__ = [
    "OracleSolution",
    "NotStrictlyFeasibleError",
    "MaxIterationsError",
    "oracle_solve",
    "brute_force_2x2",
    "active_subset_feasible",
    "min_active_violation",
]


class NotStrictlyFeasibleError(RuntimeError):
    pass


class MaxIterationsError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class OracleSolution:
    X: PrimalPoint
    lam: np.ndarray
    objective: float
    dual_objective: float
    gap: float
    iterations: int


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD (x PD up to roundoff)."""
    w, v = np.linalg.eigh(_sym(x))
    floor = max(float(w[-1]), 1e-300) * 1e-14
    w = np.clip(w, floor, None)
    inv_sqrt = v / np.sqrt(w)
    lam_min = float(np.linalg.eigvalsh(_sym(inv_sqrt.T @ dx @ inv_sqrt)).min())
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _pd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a PD matrix, eigenvalue-floored against roundoff."""
    try:
        cf = sla.cho_factor(a, lower=True)
        return sla.cho_solve(cf, np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(_sym(a))
        floor = max(float(w[-1]), 1e-300) * 1e-14
        w = np.clip(w, floor, None)
        return (v / w) @ v.T


def _equality_form(dp: DenseProblem) -> DenseProblem:
    """The view with every row an equality: the s inequality slacks are one
    extra s x s block, whose data on the k-th inequality row is -e_k e_k^T.

    The block's data and starting point are diagonal, so every HKM update
    keeps it exactly diagonal.  With no inequality rows the view comes back
    as it is, so no 0x0 block reaches ``_max_step``.
    """
    ineq = np.flatnonzero(dp.ineq_mask)
    s = ineq.size
    if s == 0:
        return dp
    slack = np.zeros((dp.m, s, s))
    slack[ineq, np.arange(s), np.arange(s)] = -1.0
    return replace(
        dp,
        sizes=dp.sizes + (s,),
        C=dp.C + [np.zeros((s, s))],
        A=dp.A + [slack],
        eq_mask=np.ones(dp.m, dtype=bool),
    )


def _ipm(dp: DenseProblem, tol: float, max_iter: int):
    """Path-following solve of an equality-form view (``_equality_form``)."""
    N = float(sum(dp.sizes))
    if N == 0:
        raise ValueError("interior-point solve needs at least one PSD block")
    m, d = dp.m, dp.d
    scale_b = 1.0 + float(np.linalg.norm(dp.b, np.inf)) if m else 1.0
    scale_c = 1.0 + max(
        [float(np.linalg.norm(c)) for c in dp.C] + [float(np.linalg.norm(dp.c_free))]
    )

    eta_p = max(1.0, float(np.linalg.norm(dp.b)) / max(1.0, np.sqrt(max(m, 1))))
    eta_d = scale_c
    X = [eta_p * np.eye(n) for n in dp.sizes]
    S = [eta_d * np.eye(n) for n in dp.sizes]
    lam = np.zeros(m)
    x = np.zeros(d)

    it = 0
    best = None
    best_measure = np.inf
    stagnant = 0
    for it in range(1, max_iter + 1):
        r_p = dp.b - dp.apply(X, x)
        slack, r_f = dp.slack(lam)
        R_d = [sl - s_ for sl, s_ in zip(slack, S)]

        gap = sum(float(np.vdot(x_, s_)) for x_, s_ in zip(X, S))
        mu = gap / N
        pobj = dp.objective(X, x)
        dobj = float(dp.b @ lam)

        pinf = float(np.linalg.norm(r_p, np.inf)) / scale_b
        dinf = max(
            max(float(np.linalg.norm(rd, np.inf)) for rd in R_d),
            float(np.linalg.norm(r_f, np.inf)) if d else 0.0,
        ) / scale_c
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        if pinf <= tol and dinf <= tol and relgap <= tol:
            return X, lam, S, x, it - 1, pobj, dobj

        # near the float64 floor the iteration can degrade; keep the best
        # iterate and stop once progress stalls
        measure = max(pinf, dinf, abs(relgap))
        if measure < 0.9 * best_measure:
            best_measure = measure
            best = ([x_.copy() for x_ in X], lam.copy(), [s_.copy() for s_ in S], x.copy(), it - 1, pobj, dobj)
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= 12:
                break

        Sinv = [_pd_inverse(s_) for s_ in S]

        # Schur complement M[i,l] = sum_j <A_ij, T_lj>, T_lj = sym(X_j A_lj Sinv_j);
        # explicit shapes: with m = 0 a -1 in a reshape is ambiguous
        T = []
        M = np.zeros((m, m))
        for a, x_, si, n in zip(dp.A, X, Sinv, dp.sizes):
            t = x_ @ a @ si
            t = 0.5 * (t + np.transpose(t, (0, 2, 1)))
            T.append(t)
            M += a.reshape(m, n * n) @ t.reshape(m, n * n).T
        M = _sym(M)

        try:
            cfM = sla.cho_factor(M + (1e-13 * (np.trace(M) / max(m, 1))) * np.eye(m), lower=True)
        except np.linalg.LinAlgError:
            raise MaxIterationsError("Schur complement lost positive definiteness")

        def msolve(rhs: np.ndarray) -> np.ndarray:
            y = sla.cho_solve(cfM, rhs)
            # one refinement pass: the Schur system turns ill-conditioned as mu -> 0
            y += sla.cho_solve(cfM, rhs - M @ y)
            return y

        def solve_kkt(h: np.ndarray, rf: np.ndarray):
            if d == 0:
                return msolve(h), np.zeros(0)
            y1 = msolve(h)
            Y2 = np.column_stack([msolve(dp.Af[:, t]) for t in range(d)])
            small = dp.Af.T @ Y2
            dx = np.linalg.solve(small, dp.Af.T @ y1 - rf)
            return y1 - Y2 @ dx, dx

        def directions(K: list[np.ndarray]):
            W = [_sym(k - x_ @ rd @ si) for k, x_, rd, si in zip(K, X, R_d, Sinv)]
            dlam, dx = solve_kkt(r_p - dp.apply(W, np.zeros(d)), r_f)
            adj, _ = dp.adjoint(dlam)
            dS = [rd - a for rd, a in zip(R_d, adj)]
            dX = [w + np.tensordot(dlam, t, axes=1) for w, t in zip(W, T)]
            return dX, dlam, dS, dx

        def steps(dX, dS):
            ap = min(1.0, 0.99 * min(_max_step(x_, dx_) for x_, dx_ in zip(X, dX)))
            ad = min(1.0, 0.99 * min(_max_step(s_, ds_) for s_, ds_ in zip(S, dS)))
            return ap, ad

        # predictor (affine scaling)
        dX, dlam, dS, dx = directions([-x_ for x_ in X])
        ap, ad = steps(dX, dS)
        mu_aff = sum(
            float(np.vdot(x_ + ap * dx_, s_ + ad * ds_))
            for x_, dx_, s_, ds_ in zip(X, dX, S, dS)
        ) / N
        sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)
        # centering floor: never let complementarity outrun feasibility, or the
        # Schur system degenerates before the residuals are cleaned up
        sigma = max(sigma, min(0.5, 0.1 * max(pinf, dinf) / max(relgap, 1e-300)))

        # corrector
        K = [sigma * mu * si - x_ - dx_ @ ds_ @ si for si, x_, dx_, ds_ in zip(Sinv, X, dX, dS)]
        dX, dlam, dS, dx = directions(K)
        ap, ad = steps(dX, dS)

        X = [_sym(x_ + ap * dx_) for x_, dx_ in zip(X, dX)]
        S = [_sym(s_ + ad * ds_) for s_, ds_ in zip(S, dS)]
        lam = lam + ad * dlam
        if d:
            x = x + ap * dx

    if best is not None and best_measure <= tol:
        return best
    raise MaxIterationsError(
        f"stalled after {it} iterations (best residual measure {best_measure:.3e})"
    )


def _feasibility_gap(eqf: DenseProblem, tol: float = 1e-8) -> float:
    """Big-M phase on an equality-form view: min theta with
    A(X) + a.x + theta*v = b; 0 iff feasible."""
    # strictly feasible start (X = I, x = 0, theta = 1) by construction of v
    v = eqf.b - eqf.apply([np.eye(n) for n in eqf.sizes], np.zeros(eqf.d))
    phase = replace(
        eqf,
        sizes=eqf.sizes + (1,),
        C=[np.zeros_like(c) for c in eqf.C] + [np.ones((1, 1))],
        A=eqf.A + [v.reshape(eqf.m, 1, 1)],
        c_free=np.zeros(eqf.d),
    )
    try:
        X, lam, S, x, it, pobj, dobj = _ipm(phase, tol, 200)
    except MaxIterationsError:
        return np.inf
    return float(X[-1][0, 0])


def oracle_solve(problem: ConicSdpProblem, tol: float = 1e-9, max_iter: int = 100) -> OracleSolution:
    """Solve to (relative) tolerance `tol` with the dense interior-point method.

    Raises NotStrictlyFeasibleError when a feasibility phase certifies the
    instance as (near-)infeasible, MaxIterationsError otherwise on stall.
    """
    dp = densify(problem)
    eqf = _equality_form(dp)
    try:
        X, lam, S, x, it, pobj, dobj = _ipm(eqf, tol, max_iter)
    except (MaxIterationsError, np.linalg.LinAlgError) as exc:
        theta = _feasibility_gap(eqf)
        if theta > 1e-7 * (1.0 + float(np.linalg.norm(dp.b, np.inf))):
            raise NotStrictlyFeasibleError(
                f"feasibility phase residual {theta:.3e}"
            ) from exc
        raise MaxIterationsError(str(exc)) from exc

    nb_orig = len(dp.sizes)
    point = PrimalPoint(
        psd_blocks=tuple(SymmetricMatrix.from_dense(X[j]) for j in range(nb_orig)),
        free=np.array(x),
    )
    return OracleSolution(
        X=point,
        lam=np.array(lam),
        objective=pobj,
        dual_objective=dobj,
        gap=pobj - dobj,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# active-subset feasibility (used by the m' enumeration)
# ---------------------------------------------------------------------------


def min_active_violation(problem: ConicSdpProblem, active: tuple[int, ...]) -> float:
    """Least uniform violation t over X >= 0 with the given rows forced active.

    Builds  min t + eps*tr(X)  s.t.  |<A_i,X> - b_i| <= t on forced rows,
    <A_j,X> - b_j >= -t on the remaining inequality rows; always strictly
    feasible, so the interior-point solve is routine.
    """
    st = problem.structure
    if st.num_blocks != 1 or st.free_dim != 0:
        raise ValueError("active-subset feasibility supports one PSD block, d = 0")
    n = st.psd_sizes[0]
    forced = set(int(i) for i in active) | set(int(i) for i in problem.equality_indices())
    eps = 1e-10

    t_one = CooSymmetric.from_entries(1, [(0, 0, 1.0)])
    t_zero = CooSymmetric.empty(1)
    rows = []
    for i, con in enumerate(problem.constraints):
        a = con.blocks[0]
        if i in forced:
            neg = CooSymmetric(a.dim, a.rows, a.cols, -a.vals)
            rows.append(Constraint((a, t_one), np.zeros(0), con.rhs, ConstraintKind.INEQUALITY))
            rows.append(Constraint((neg, t_one), np.zeros(0), -con.rhs, ConstraintKind.INEQUALITY))
        else:
            rows.append(Constraint((a, t_one), np.zeros(0), con.rhs, ConstraintKind.INEQUALITY))

    cost0 = SymmetricMatrix.from_dense(eps * np.eye(n))
    cost_t = SymmetricMatrix.from_dense(np.array([[1.0]]))
    aux = ConicSdpProblem.normalized(
        structure=BlockStructure((n, 1), 0, 0),
        cost_blocks=(cost0, cost_t),
        cost_free=np.zeros(0),
        constraints=rows,
        name="active-subset-feasibility",
    )
    sol = oracle_solve(aux, tol=1e-9, max_iter=200)
    return float(sol.X.psd_blocks[1].packed[0])


def active_subset_feasible(problem: ConicSdpProblem, active: tuple[int, ...]) -> bool:
    scale = 1.0 + float(np.max(np.abs(problem.b))) if problem.m else 1.0
    return min_active_violation(problem, active) <= 1e-7 * scale


# ---------------------------------------------------------------------------
# brute-force oracle for 2x2 problems
# ---------------------------------------------------------------------------


def _lp2_value(a: np.ndarray, b: np.ndarray, eq: np.ndarray, c: np.ndarray, tol: float) -> float:
    """Exact min of c.d over {d >= 0, a_i.d = b_i (eq), a_i.d >= b_i (ineq)}.

    Vertex enumeration over all pairs of boundary lines (constraints + axes);
    returns +inf when infeasible, -inf when unbounded.
    """
    m = b.size
    rows = np.vstack([a, np.eye(2)])
    rhs = np.concatenate([b, np.zeros(2)])

    best = np.inf
    for p, q in combinations(range(m + 2), 2):
        mat = rows[[p, q]]
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if abs(det) < 1e-12 * (np.abs(mat).max() ** 2 + 1e-30):
            continue
        d = np.array(
            [
                (rhs[p] * mat[1, 1] - rhs[q] * mat[0, 1]) / det,
                (mat[0, 0] * rhs[q] - mat[1, 0] * rhs[p]) / det,
            ]
        )
        if d.min() < -tol:
            continue
        vals = a @ d - b
        if m and (np.any(np.abs(vals[eq]) > tol) or np.any(vals[~eq] < -tol)):
            continue
        best = min(best, float(c @ d))

    if not np.isfinite(best):
        return np.inf

    # recession rays: boundary angles of each constraint plus the axes
    angles = [0.0, np.pi / 2]
    for i in range(m):
        ax, ay = a[i]
        if abs(ax) > 1e-15 or abs(ay) > 1e-15:
            phi = np.arctan2(-ax, ay)  # a . (cos, sin) = 0
            for cand in (phi, phi + np.pi):
                if -1e-12 <= cand <= np.pi / 2 + 1e-12:
                    angles.append(min(max(cand, 0.0), np.pi / 2))
    for phi in angles:
        w = np.array([np.cos(phi), np.sin(phi)])
        vals = a @ w
        if m and (np.any(np.abs(vals[eq]) > 1e-9) or np.any(vals[~eq] < -1e-9)):
            continue
        if c @ w < -1e-9:
            return -np.inf
    return best


def _rotated(M: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """(r1^T M_i r1, r2^T M_i r2) for every angle and every symmetric 2x2 M_i,
    with r1 = (cos, sin) and r2 = (-sin, cos); shape (angles, len(M), 2)."""
    ct, sn = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    a00, a01, a11 = M[:, 0, 0], M[:, 0, 1], M[:, 1, 1]
    cross = 2.0 * a01 * ct * sn
    return np.stack([a00 * ct * ct + cross + a11 * sn * sn,
                     a00 * sn * sn - cross + a11 * ct * ct], axis=-1)


def brute_force_2x2(problem: ConicSdpProblem, grid: int = 10000, refine_rounds: int = 4) -> float:
    """Grid-parameterized second oracle for a single 2x2 block, d = 0.

    Writes X = R(theta) diag(d1, d2) R(theta)^T, sweeps theta over [0, pi/2)
    and solves the resulting two-variable LP in (d1, d2) exactly; the best
    angle is refined on nested grids.
    """
    st = problem.structure
    if st.num_blocks != 1 or st.psd_sizes[0] != 2 or st.free_dim != 0:
        raise ValueError("unsupported shape: brute force needs one 2x2 block, d = 0")

    dp = densify(problem)
    A = dp.A[0]  # (m, 2, 2)
    C = dp.C[0]
    b = dp.b
    eq = dp.eq_mask
    m = b.size
    tol = 1e-9 * (1.0 + (np.abs(b).max() if m else 0.0))

    # three independent equalities pin X down: solve directly, no grid
    eq_idx = np.flatnonzero(eq)
    if eq_idx.size >= 3:
        emat = np.array([[A[i, 0, 0], 2.0 * A[i, 0, 1], A[i, 1, 1]] for i in eq_idx])
        if np.linalg.matrix_rank(emat, tol=1e-12 * max(1.0, np.abs(emat).max())) == 3:
            xv, res, _, _ = np.linalg.lstsq(emat, b[eq_idx], rcond=None)
            x = np.array([[xv[0], xv[1]], [xv[1], xv[2]]])
            if np.linalg.norm(emat @ xv - b[eq_idx]) > 1e-7 * (1.0 + np.abs(b).max()):
                return np.inf
            vals = dp.apply([x], np.zeros(0))
            if np.any(np.abs((vals - b)[eq]) > 1e-7) or np.any((vals - b)[~eq] < -1e-7):
                return np.inf
            if np.linalg.eigvalsh(x).min() < -1e-9 * (1.0 + abs(x).max()):
                return np.inf
            return dp.objective([x], np.zeros(0))

    def values(thetas: np.ndarray) -> np.ndarray:
        rows = _rotated(A, thetas)
        costs = _rotated(C[None], thetas)[:, 0]
        return np.array([_lp2_value(r, b, eq, c, tol) for r, c in zip(rows, costs)])

    lo, hi = 0.0, np.pi / 2
    thetas = np.linspace(lo, hi, grid, endpoint=False)
    vals = values(thetas)
    if np.any(np.isneginf(vals)):
        return -np.inf
    best_i = int(np.argmin(vals))
    best = float(vals[best_i])
    span = (hi - lo) / grid
    center = thetas[best_i]
    for _ in range(refine_rounds):
        ts = np.linspace(center - span, center + span, 201)
        vs = values(ts)
        if np.any(np.isneginf(vs)):
            return -np.inf
        i = int(np.argmin(vs))
        if vs[i] < best:
            best = float(vs[i])
            center = float(ts[i])
        span /= 50.0
    return best
