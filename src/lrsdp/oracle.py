"""Independent ground-truth solvers for desk-scale problems.

``oracle_solve`` is a dense primal-dual path-following interior-point method
(Mehrotra predictor-corrector, HKM direction) on the equality-form problem:
the inequality slacks are one extra diagonal PSD block, and free variables are
eliminated directly from the Schur system.  Residuals, objective and search
directions go through the ``DenseProblem`` operator the solver and certifier
use.  It anchors every derived test value in the suite, so it is deliberately
boring: one eigendecomposition of each block of X and S per iterate, one
convergence measure, no randomness, fraction-to-boundary 0.99.

One phase I (``_min_violation``: the least uniform violation of the rows,
some forced active) answers every feasibility question on a view of the same
``DenseProblem``.  The m' enumeration forces each candidate active set;
``oracle_solve`` forces none to diagnose a stall.  Both decide with the one
rule ``_feasible``.

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
from .model import ConicSdpProblem, PrimalPoint, SymmetricMatrix

__all__ = [
    "OracleSolution",
    "NotStrictlyFeasibleError",
    "MaxIterationsError",
    "NoPsdBlockError",
    "oracle_solve",
    "brute_force_2x2",
    "active_subset_feasible",
    "min_active_violation",
]


class NotStrictlyFeasibleError(RuntimeError):
    pass


class MaxIterationsError(RuntimeError):
    pass


class NoPsdBlockError(ValueError):
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


def _inv_sqrt(a: np.ndarray) -> np.ndarray:
    """F = V diag(w)^(-1/2) from a = V diag(w) V^T, a PD up to roundoff, with
    w floored at 1e-14 * w_max: F^T a F = I and F F^T = a^-1."""
    w, v = np.linalg.eigh(a)
    floor = max(float(w[-1]), 1e-300) * 1e-14
    return v / np.sqrt(np.clip(w, floor, None))


def _max_step(f: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD, given f = _inv_sqrt(x)."""
    lam_min = float(np.linalg.eigvalsh(_sym(f.T @ dx @ f)).min())
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _equality_form(dp: DenseProblem) -> DenseProblem:
    """The view with every row an equality: the s inequality slacks are one
    extra s x s block, whose data on the k-th inequality row is -e_k e_k^T.

    The block's data and starting point are diagonal, so every HKM update
    keeps it exactly diagonal.  With no inequality rows the view comes back
    as it is, so no 0x0 block reaches ``_inv_sqrt``.
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
        raise NoPsdBlockError("interior-point solve needs at least one PSD block")
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
        # |relgap|: an S that lost PSD can make <X, S> negative
        measure = max(pinf, dinf, abs(relgap))
        if measure <= tol:
            return X, lam, S, x, it - 1, pobj, dobj

        # near the float64 floor the iteration can degrade; stop once the
        # measure stops falling
        if measure < 0.9 * best_measure:
            best_measure = measure
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= 12:
                break

        # S^-1 for the HKM direction, X^-1/2 and S^-1/2 for the step lengths
        FX = [_inv_sqrt(x_) for x_ in X]
        FS = [_inv_sqrt(s_) for s_ in S]
        Sinv = [f @ f.T for f in FS]

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
            ap = min(1.0, 0.99 * min(_max_step(f, dx_) for f, dx_ in zip(FX, dX)))
            ad = min(1.0, 0.99 * min(_max_step(f, ds_) for f, ds_ in zip(FS, dS)))
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

    raise MaxIterationsError(
        f"stalled after {it} iterations (best residual measure {best_measure:.3e})"
    )


def _feasible(t: float, b: np.ndarray) -> bool:
    """The one feasibility rule: a least uniform violation t (``_min_violation``)
    counts as feasible up to 1e-7 * (1 + ||b||_inf)."""
    return t <= 1e-7 * (1.0 + float(np.linalg.norm(b, np.inf)))


def _min_violation(dp: DenseProblem, active) -> float:
    """Phase I: min t + eps * sum_j tr X_j over PSD X_j, free x and t, with
    |r_i| <= t on the forced rows (``active`` and every equality) and
    r_i >= -t on the other inequality rows, r = A(X) + a.x - b.

    The view adds a 1x1 block for t and holds every row as an inequality, a
    forced row twice with its negation right after it.  Strictly feasible on
    both sides: X = I, x = 0 and a large t; lambda = 0 thanks to eps * I.
    """
    forced = dp.eq_mask.copy()
    forced[list(active)] = True
    rows = np.repeat(np.arange(dp.m), np.where(forced, 2, 1))
    neg = np.zeros(rows.size, dtype=bool)
    neg[1:] = rows[1:] == rows[:-1]

    def signed(a: np.ndarray) -> np.ndarray:
        a = a[rows]
        a[neg] = 0.0 - a[neg]  # 0.0 - a: no -0.0 enters the data
        return a

    eps = 1e-10
    phase = replace(
        dp,
        sizes=dp.sizes + (1,),
        C=[eps * np.eye(n) for n in dp.sizes] + [np.ones((1, 1))],
        A=[signed(a) for a in dp.A] + [np.ones((rows.size, 1, 1))],
        Af=signed(dp.Af),
        c_free=np.zeros(dp.d),
        b=signed(dp.b),
        eq_mask=np.zeros(rows.size, dtype=bool),
    )
    X = _ipm(_equality_form(phase), 1e-8, 200)[0]
    return float(X[len(dp.sizes)][0, 0])


def oracle_solve(problem: ConicSdpProblem, tol: float = 1e-9, max_iter: int = 100) -> OracleSolution:
    """Solve to (relative) tolerance `tol` with the dense interior-point method.

    On a stall, NotStrictlyFeasibleError when the phase I (``_min_violation``
    with no active rows forced) fails ``_feasible``, else MaxIterationsError,
    also when the phase I fails; NoPsdBlockError with neither a PSD block nor
    an inequality row.
    """
    dp = densify(problem)
    try:
        X, lam, S, x, it, pobj, dobj = _ipm(_equality_form(dp), tol, max_iter)
    except (MaxIterationsError, np.linalg.LinAlgError) as exc:
        try:
            t = _min_violation(dp, ())
        except (MaxIterationsError, np.linalg.LinAlgError):
            raise MaxIterationsError(str(exc)) from exc
        if not _feasible(t, dp.b):
            raise NotStrictlyFeasibleError(f"least uniform violation {t:.3e}") from exc
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
    """Least uniform violation t with the given rows forced active
    (``_min_violation`` on the problem's dense view)."""
    return _min_violation(densify(problem), active)


def active_subset_feasible(problem: ConicSdpProblem, active: tuple[int, ...]) -> bool:
    return _feasible(min_active_violation(problem, active), problem.b)


# ---------------------------------------------------------------------------
# brute-force oracle for 2x2 problems
# ---------------------------------------------------------------------------


def _violated(a: np.ndarray, d: np.ndarray, b, eq: np.ndarray, tol: float) -> np.ndarray:
    """Whether a_ti.d_tj misses b_i by more than tol (eq) or falls below it
    (ineq) for some row i; a is (T, m, 2), d (T, J, 2), the result (T, J)."""
    vals = np.einsum("tik,tjk->tji", a, d) - b
    return np.where(eq, np.abs(vals) > tol, vals < -tol).any(axis=-1)


def _lp2_values(a: np.ndarray, b: np.ndarray, eq: np.ndarray, c: np.ndarray, tol: float) -> np.ndarray:
    """Exact min of c_t.d over {d >= 0, a_ti.d = b_i (eq), a_ti.d >= b_i (ineq)}
    for every angle t, with a of shape (T, m, 2) and c of shape (T, 2).

    Vertex enumeration over all pairs of boundary lines (constraints + axes);
    +inf where infeasible, -inf where unbounded.
    """
    t, m = a.shape[:2]
    rows = np.concatenate([a, np.broadcast_to(np.eye(2), (t, 2, 2))], axis=1)
    rhs = np.concatenate([b, np.zeros(2)])
    p, q = np.array(list(combinations(range(m + 2), 2))).T
    r0, r1 = rows[:, p], rows[:, q]  # (T, pairs, 2)
    det = r0[..., 0] * r1[..., 1] - r0[..., 1] * r1[..., 0]
    scale = np.maximum(np.abs(r0).max(axis=-1), np.abs(r1).max(axis=-1)) ** 2 + 1e-30
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.stack([(rhs[p] * r1[..., 1] - rhs[q] * r0[..., 1]) / det,
                      (r0[..., 0] * rhs[q] - r1[..., 0] * rhs[p]) / det], axis=-1)
    vertex = (np.abs(det) >= 1e-12 * scale) & (d.min(axis=-1) >= -tol) & ~_violated(a, d, b, eq, tol)
    best = np.where(vertex, np.einsum("tk,tpk->tp", c, d), np.inf).min(axis=1)

    # recession rays: boundary angles of each constraint plus the axes
    phi = np.arctan2(-a[..., 0], a[..., 1])  # a . (cos, sin) = 0
    cand = np.concatenate([phi, phi + np.pi], axis=1)
    keep = np.tile((np.abs(a) > 1e-15).any(axis=-1), 2) & (cand >= -1e-12) & (cand <= np.pi / 2 + 1e-12)
    angles = np.concatenate([np.broadcast_to([0.0, np.pi / 2], (t, 2)), np.clip(cand, 0.0, np.pi / 2)], axis=1)
    keep = np.concatenate([np.ones((t, 2), dtype=bool), keep], axis=1)
    w = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    ray = keep & ~_violated(a, w, 0.0, eq, 1e-9) & (np.einsum("tk,tjk->tj", c, w) < -1e-9)
    return np.where(np.isfinite(best), np.where(ray.any(axis=1), -np.inf, best), np.inf)


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
        step = max(1, 2**22 // (m + 2) ** 3)  # (angles, pairs, rows) temporaries under 2**21 floats
        return np.concatenate([_lp2_values(rows[i:i + step], b, eq, costs[i:i + step], tol)
                               for i in range(0, thetas.size, step)])

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
