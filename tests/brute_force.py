"""A second, structurally unrelated oracle for single 2x2-block problems.

``brute_force_2x2`` writes X = R(theta) diag(d1, d2) R(theta)^T, sweeps the
eigenbasis angle theta on a fine grid and solves the remaining two-variable
linear program exactly at each angle.  It reads its rows from the model's
dense stacks and shares only the problem's dense view with the interior-point
oracle, so the tests use it as an independent check of both that oracle and
the staircase.
"""

from itertools import combinations

import numpy as np

from lrsdp.dense import densify
from lrsdp.model import ConicSdpProblem

from helpers import dense_rows


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
    A = dense_rows(problem)[0][0]  # (m, 2, 2)
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
