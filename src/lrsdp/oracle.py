"""Independent ground-truth solvers for desk-scale problems.

``oracle_solve`` is a dense primal-dual path-following interior-point method
(Mehrotra predictor-corrector, HKM direction) on the problem's view as posed:
the inequality slacks and their duals are a vector pair (SDPT3's linear block:
ratio-test steps, w/z on the Schur diagonal), and free variables are eliminated
directly from the Schur system.  Residuals, objective, search directions and
the stop measure's scales (``_scales``) come from the ``DenseProblem`` view the
solver and certifier use, and the Schur complement is read off its triplets:
sums over pairs of stored entries on sparse blocks, a Gram matrix of
``jacobian`` rows on dense ones (``_schur_complement``).  It anchors every
derived test value, so it is deliberately boring: Cholesky factors of X and S
with triangular inverses (``_inv_factor``, as in SDPT3), one eigvalsh per block
and step length, one convergence measure, no randomness, step fraction 0.99.

One phase I (``_min_violation``: the least uniform violation of the rows,
some forced active) answers every feasibility question on a view remapped
from the problem's.  The m' enumeration forces the full inequality set first,
then each candidate active set whose rank could raise m'; ``oracle_solve``
forces none to diagnose a stall.  Both decide with the one rule ``_feasible``,
the certificate's feasibility tolerance at ``CERT_TOL`` (``DenseProblem.tolerances``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .dense import CERT_TOL, DenseProblem, _norm, densify
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


def _cholesky(a: np.ndarray) -> np.ndarray:
    """L with a = L L^T, from LAPACK potrf; LinAlgError when a is not numerically PD."""
    u, info = sla.lapack.dpotrf(a)
    if info:
        raise np.linalg.LinAlgError(f"iterate lost positive definiteness (potrf info {info})")
    return u.T


def _inv_factor(a: np.ndarray) -> np.ndarray:
    """F = L^-T from a = L L^T, by one potrf and one trtri: F^T a F = I and F F^T = a^-1."""
    return sla.lapack.dtrtri(_cholesky(a).T)[0]


def _max_step(f: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD, given f = _inv_factor(x)."""
    return _ratio_step(np.linalg.eigvalsh(_sym(f.T @ dx @ f)))


def _ratio_step(q: np.ndarray) -> float:
    """Largest alpha with 1 + alpha*q >= 0 entrywise: the ratio test at q = dx / x."""
    q_min = float(np.min(q, initial=0.0))
    return np.inf if q_min >= -1e-14 else -1.0 / q_min


def _schur_complement(dp: DenseProblem, X, FS, Sinv, pair=None) -> np.ndarray:
    """HKM Schur complement M[i,l] = sum_j <A_ij, X_j A_lj S_j^-1>, without the
    slack rows' w/z, by one of two rules per block: the pair rule when the
    block's nt triplets give nt^2 <= m n_j^2 (n_j + m), the Gram rule's work,
    else the Gram rule (``pair`` forces one rule on every block).

    Pair rule (Fujisawa, Kojima & Nakata 1997): with (a, b) = divmod(pos, n_j),
    M[i,l] += sum_{t in i, s in l} v_t v_s X_j[b_t, a_s] S_j^-1[b_s, a_t], the
    nt x nt products summed by row with ``np.add.reduceat`` on both axes (the
    triplets are sorted by row); on diagonal rows it is X_j o S_j^-1.
    Gram rule: sum_j K_j K_j^T of the rows K_ij = L_j^T A_ij FS_j, where X_j's
    Cholesky factor has L_j L_j^T = X_j (``_cholesky``, taken again here so that
    no L_j is held beside FX_j in this step, MaxCut's memory peak), FS_j FS_j^T =
    S_j^-1, and row i of ``dp.jacobian`` at FS_j holds 2 A_ij FS_j; the pair blocks
    enter it with no columns.  M is the upper triangle mirrored, exactly symmetric."""
    M = np.zeros((dp.m, dp.m))
    pairs = [(row.size ** 2 <= dp.m * n * n * (n + dp.m)) if pair is None else pair
             for (row, _, _), n in zip(dp.triplets, dp.sizes)]
    if not all(pairs):
        qs = [0 if p else n for p, n in zip(pairs, dp.sizes)]
        J = np.split(dp.jacobian([f[:, :q] for f, q in zip(FS, qs)]),
                     np.cumsum([n * q for n, q in zip(dp.sizes, qs)], dtype=int), axis=1)  # the last: A_f
    for j, (x_, si, (row, pos, val), n) in enumerate(zip(X, Sinv, dp.triplets, dp.sizes)):
        if not pairs[j]:
            k = (_cholesky(x_).T @ J[j].reshape(dp.m, n, n)).reshape(dp.m, n * n)  # 2 K_j
            M += 0.25 * (k @ k.T)
        elif row.size:
            first = np.flatnonzero(np.diff(row, prepend=-1))  # each stored row's first triplet
            a, b = np.divmod(pos, n)
            p = np.outer(val, val) * x_[b[:, None], a] * si[b, a[:, None]]
            M[np.ix_(row[first], row[first])] += np.add.reduceat(np.add.reduceat(p, first, 0), first, 1)
    return np.triu(M) + np.triu(M, 1).T


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
    norm_c, norm_b = dp._scales  # the tolerance policy's ||C|| and ||b||_inf
    eta_p = max(1.0, _norm(dp.b) / max(1.0, np.sqrt(max(m, 1))))
    eta_d = 1.0 + norm_c
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

        pinf = float(np.linalg.norm(r_p, np.inf)) / (1.0 + norm_b)
        dinf = float(np.max(
            [float(np.linalg.norm(rd, np.inf)) for rd in R_d]
            + [float(np.max(np.abs(r_z), initial=0.0)), float(np.max(np.abs(r_f), initial=0.0))]
        )) / (1.0 + norm_c)
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        # |relgap|: an S that lost PSD can make <X, S> negative; np.max keeps a NaN
        measure = float(np.max([pinf, dinf, abs(relgap)]))
        if not np.isfinite(measure):
            raise MaxIterationsError(f"non-finite residual measure after {it - 1} iterations")
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

        # F = L^-T of X and S for the step lengths, F_S and S^-1 for the Schur complement and direction
        FX = [_inv_factor(x_) for x_ in X]
        FS = [_inv_factor(s_) for s_ in S]
        Sinv = [f @ f.T for f in FS]

        M = _schur_complement(dp, X, FS, Sinv)
        M[rows, rows] += w / z

        try:
            cfM = sla.cho_factor(M + (1e-13 * (np.trace(M) / max(m, 1))) * np.eye(m),
                                 lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise MaxIterationsError("Schur complement lost positive definiteness")

        def msolve(rhs: np.ndarray) -> np.ndarray:
            y = sla.cho_solve(cfM, rhs, check_finite=False)
            # one refinement pass: the Schur system turns ill-conditioned as mu -> 0
            y += sla.cho_solve(cfM, rhs - M @ y, check_finite=False)
            return y

        # free-variable elimination, once per iterate: Y2 = M^-1 A_f and A_f^T Y2
        Y2 = msolve(dp.Af)
        small = dp.Af.T @ Y2

        def directions(K: list[np.ndarray], k_w: np.ndarray):
            W = [_sym(k - x_ @ rd @ si) for k, x_, rd, si in zip(K, X, R_d, Sinv)]
            W_w = k_w - w * r_z / z
            h = r_p - dp.apply(W, np.zeros(d))
            h[rows] += W_w
            y1 = msolve(h)
            dx = np.linalg.solve(small, dp.Af.T @ y1 - r_f)
            dlam = y1 - Y2 @ dx
            adj, _ = dp.adjoint(dlam)
            dS = [rd - a for rd, a in zip(R_d, adj)]
            dX = [_sym(w_ + x_ @ a @ si) for w_, x_, a, si in zip(W, X, adj, Sinv)]
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


def _feasible(t: float, dp: DenseProblem) -> bool:
    """The one feasibility rule: a least uniform violation t (``_min_violation``)
    counts as feasible up to the certificate's feasibility tolerance at CERT_TOL."""
    return t <= dp.tolerances((), CERT_TOL)["feasibility"]


def _min_violation(dp: DenseProblem, active) -> float:
    """Phase I: min t + eps * sum_j tr X_j over PSD X_j, free x and t, with
    |r_i| <= t on the forced rows (``active`` and every equality) and
    r_i >= -t on the other inequality rows, r = A(X) + a.x - b.

    ``_ipm`` solves a view that adds a 1x1 block for t and holds every row as
    an inequality with its slack, a forced row twice with its negation right
    after it: the rows and triplets of ``dp``, remapped.  Strictly feasible on
    both sides: X = I, x = 0 and a large t; lambda = 0 thanks to eps * I.
    """
    forced = dp.eq_mask.copy()
    forced[list(active)] = True
    rows = np.repeat(np.arange(dp.m), np.where(forced, 2, 1))
    neg = np.zeros(rows.size, dtype=bool)
    neg[1:] = rows[1:] == rows[:-1]
    first = np.flatnonzero(~neg)  # the new index of each row's first copy

    def signed(a: np.ndarray) -> np.ndarray:
        a = a[rows]
        a[neg] = 0.0 - a[neg]  # 0.0 - a: no -0.0 enters the data
        return a

    def remapped(row, pos, val):
        dup = forced[row]
        new = np.concatenate([first[row], first[row[dup]] + 1])
        order = np.argsort(new, kind="stable")
        return new[order], np.concatenate([pos, pos[dup]])[order], np.concatenate([val, -val[dup]])[order]

    eps, t_rows = 1e-10, np.arange(rows.size)
    phase = DenseProblem(
        sizes=dp.sizes + (1,), k=dp.k, d=dp.d, C=[eps * np.eye(n) for n in dp.sizes] + [np.ones((1, 1))],
        triplets=[remapped(*t) for t in dp.triplets] + [(t_rows, np.zeros_like(t_rows), np.ones(rows.size))],
        Af=signed(dp.Af), c_free=np.zeros(dp.d), b=signed(dp.b), eq_mask=np.zeros(rows.size, dtype=bool),
    )
    X = _ipm(phase, CERT_TOL / 10, 200)[0]
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
        if not _feasible(t, dp):
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
    the phase I ``_min_violation`` with those rows forced active, judged by ``_feasible``;
    MaxIterationsError when it stalls."""
    dp = densify(problem)
    try:
        t = _min_violation(dp, active)
    except np.linalg.LinAlgError as exc:
        raise MaxIterationsError(str(exc)) from exc
    return _feasible(t, dp)
