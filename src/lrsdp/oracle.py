"""Independent ground-truth solvers for desk-scale problems.

``oracle_solve`` is a dense primal-dual path-following interior-point method
(Mehrotra predictor-corrector, HKM direction) on the problem's dense view as
posed: the inequality slacks and their duals are a vector pair (SDPT3's linear
block: ratio-test steps, w/z on the Schur diagonal), and free variables are
eliminated directly from the Schur system.  Residuals, objective and search
directions go through the ``DenseProblem`` operator the solver and certifier
use.  It anchors every derived test value in the suite, so it is deliberately
boring: one eigendecomposition of each block of X and S per iterate, one
convergence measure, no randomness, fraction-to-boundary 0.99.

One phase I (``_min_violation``: the least uniform violation of the rows,
some forced active) answers every feasibility question on a view of the same
``DenseProblem``.  The m' enumeration forces the full inequality set first,
then each candidate active set whose rank could raise m'; ``oracle_solve``
forces none to diagnose a stall.  Both decide with the one rule ``_feasible``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    "active_subset_feasible",
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
    return _ratio_step(np.linalg.eigvalsh(_sym(f.T @ dx @ f)))


def _ratio_step(q: np.ndarray) -> float:
    """Largest alpha with 1 + alpha*q >= 0 entrywise: the ratio test at q = dx / x."""
    q_min = float(np.min(q, initial=0.0))
    return np.inf if q_min >= -1e-14 else -1.0 / q_min


def _ipm(dp: DenseProblem, tol: float, max_iter: int):
    """Path-following solve of the view: PSD blocks X_j with duals S_j, and a
    slack vector w >= 0 (SDPT3's linear block) whose k-th entry enters the k-th
    inequality row, rows[k], with -1, so A_i(X) + a_i.x - w_k = b_i; its duals
    are z = lambda[rows] at the dual solution.  w is empty with no inequality."""
    rows = np.flatnonzero(dp.ineq_mask)
    N = float(sum(dp.sizes) + rows.size)
    if N == 0:
        raise NoPsdBlockError("interior-point solve needs a PSD block or an inequality row")
    m, d = dp.m, dp.d
    scale_b = 1.0 + float(np.max(np.abs(dp.b), initial=0.0))
    scale_c = 1.0 + max(
        [float(np.linalg.norm(c)) for c in dp.C] + [float(np.linalg.norm(dp.c_free))]
    )

    eta_p = max(1.0, float(np.linalg.norm(dp.b)) / max(1.0, np.sqrt(max(m, 1))))
    eta_d = scale_c
    X = [eta_p * np.eye(n) for n in dp.sizes]
    S = [eta_d * np.eye(n) for n in dp.sizes]
    w, z = np.full(rows.size, eta_p), np.full(rows.size, eta_d)
    lam = np.zeros(m)
    x = np.zeros(d)

    it = 0
    best_measure = np.inf
    stagnant = 0
    for it in range(1, max_iter + 1):
        r_p = dp.b - dp.apply(X, x)
        r_p[rows] += w
        slack, r_f = dp.slack(lam)
        R_d = [sl - s_ for sl, s_ in zip(slack, S)]
        r_z = lam[rows] - z

        gap = sum(float(np.vdot(x_, s_)) for x_, s_ in zip(X, S)) + float(w @ z)
        mu = gap / N
        pobj = dp.objective(X, x)
        dobj = float(dp.b @ lam)

        pinf = float(np.linalg.norm(r_p, np.inf)) / scale_b
        dinf = max(
            [float(np.linalg.norm(rd, np.inf)) for rd in R_d]
            + [float(np.max(np.abs(r_z), initial=0.0)), float(np.max(np.abs(r_f), initial=0.0))]
        ) / scale_c
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        # |relgap|: an S that lost PSD can make <X, S> negative
        measure = max(pinf, dinf, abs(relgap))
        if measure <= tol:
            return X, lam, w, x, it - 1, pobj, dobj

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

        # Schur complement M[i,l] = sum_j <A_ij, T_lj> (+ w/z on the slack rows),
        # T_lj = sym(X_j A_lj Sinv_j); explicit shapes: m = 0 makes -1 ambiguous
        T = []
        M = np.zeros((m, m))
        for a, x_, si, n in zip(dp.A, X, Sinv, dp.sizes):
            t = x_ @ a @ si
            t = 0.5 * (t + np.transpose(t, (0, 2, 1)))
            T.append(t)
            M += a.reshape(m, n * n) @ t.reshape(m, n * n).T
        M = _sym(M)
        M[rows, rows] += w / z

        try:
            cfM = sla.cho_factor(M + (1e-13 * (np.trace(M) / max(m, 1))) * np.eye(m), lower=True)
        except np.linalg.LinAlgError:
            raise MaxIterationsError("Schur complement lost positive definiteness")

        def msolve(rhs: np.ndarray) -> np.ndarray:
            y = sla.cho_solve(cfM, rhs)
            # one refinement pass: the Schur system turns ill-conditioned as mu -> 0
            y += sla.cho_solve(cfM, rhs - M @ y)
            return y

        # free-variable elimination, once per iterate: Y2 = M^-1 A_f and A_f^T Y2
        if d:
            Y2 = np.column_stack([msolve(dp.Af[:, t]) for t in range(d)])
            small = dp.Af.T @ Y2

        def solve_kkt(h: np.ndarray, rf: np.ndarray):
            if d == 0:
                return msolve(h), np.zeros(0)
            y1 = msolve(h)
            dx = np.linalg.solve(small, dp.Af.T @ y1 - rf)
            return y1 - Y2 @ dx, dx

        def directions(K: list[np.ndarray], k_w: np.ndarray):
            W = [_sym(k - x_ @ rd @ si) for k, x_, rd, si in zip(K, X, R_d, Sinv)]
            W_w = k_w - w * r_z / z
            h = r_p - dp.apply(W, np.zeros(d))
            h[rows] += W_w
            dlam, dx = solve_kkt(h, r_f)
            adj, _ = dp.adjoint(dlam)
            dS = [rd - a for rd, a in zip(R_d, adj)]
            dX = [w_ + np.tensordot(dlam, t, axes=1) for w_, t in zip(W, T)]
            return dX, W_w - w * dlam[rows] / z, dlam, dS, r_z + dlam[rows], dx

        def steps(dX, dw, dS, dz):
            ap = min([_max_step(f, dx_) for f, dx_ in zip(FX, dX)] + [_ratio_step(dw / w)])
            ad = min([_max_step(f, ds_) for f, ds_ in zip(FS, dS)] + [_ratio_step(dz / z)])
            return min(1.0, 0.99 * ap), min(1.0, 0.99 * ad)

        # predictor (affine scaling)
        dX, dw, dlam, dS, dz, dx = directions([-x_ for x_ in X], -w)
        ap, ad = steps(dX, dw, dS, dz)
        mu_aff = (sum(
            float(np.vdot(x_ + ap * dx_, s_ + ad * ds_))
            for x_, dx_, s_, ds_ in zip(X, dX, S, dS)
        ) + float((w + ap * dw) @ (z + ad * dz))) / N
        sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)
        # centering floor: never let complementarity outrun feasibility, or the
        # Schur system degenerates before the residuals are cleaned up
        sigma = max(sigma, min(0.5, 0.1 * max(pinf, dinf) / max(relgap, 1e-300)))

        # corrector
        K = [sigma * mu * si - x_ - dx_ @ ds_ @ si for si, x_, dx_, ds_ in zip(Sinv, X, dX, dS)]
        dX, dw, dlam, dS, dz, dx = directions(K, (sigma * mu - dw * dz) / z - w)
        ap, ad = steps(dX, dw, dS, dz)

        X = [_sym(x_ + ap * dx_) for x_, dx_ in zip(X, dX)]
        S = [_sym(s_ + ad * ds_) for s_, ds_ in zip(S, dS)]
        w, z = w + ap * dw, z + ad * dz
        lam = lam + ad * dlam
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

    ``_ipm`` solves a view that adds a 1x1 block for t and holds every row as
    an inequality with its slack, a forced row twice with its negation right
    after it.  Strictly feasible on both sides: X = I, x = 0 and a large t;
    lambda = 0 thanks to eps * I.
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
    X = _ipm(phase, 1e-8, 200)[0]
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
        X, lam, _, x, it, pobj, dobj = _ipm(dp, tol, max_iter)
    except (MaxIterationsError, np.linalg.LinAlgError) as exc:
        try:
            t = _min_violation(dp, ())
        except (MaxIterationsError, np.linalg.LinAlgError):
            raise MaxIterationsError(str(exc)) from exc
        if not _feasible(t, dp.b):
            raise NotStrictlyFeasibleError(f"least uniform violation {t:.3e}") from exc
        raise MaxIterationsError(str(exc)) from exc

    return OracleSolution(
        X=PrimalPoint(tuple(SymmetricMatrix.from_dense(xb) for xb in X), np.array(x)),
        lam=np.array(lam),
        objective=pobj,
        dual_objective=dobj,
        gap=pobj - dobj,
        iterations=it,
    )


def active_subset_feasible(problem: ConicSdpProblem, active: tuple[int, ...]) -> bool:
    """Whether a feasible point holds the rows `active` at equality (the m' enumeration's test):
    the phase I ``_min_violation`` with those rows forced active, judged by ``_feasible``."""
    return _feasible(_min_violation(densify(problem), active), problem.b)
