"""Problem data in the layout the numerical kernels read.

Constraint blocks are stored sparse in the model.  ``DenseProblem`` keeps the
cost blocks, free-variable columns and right-hand side dense, and each PSD
block's rows as triplets (row i, position a n_j + b in the row-major layout,
value; an off-diagonal entry at both (a, b) and (b, a)).  Its ``apply``,
``adjoint``, ``slack`` and ``jacobian`` are the one constraint operator,
``np.bincount`` gathers and scatters over the triplets used by the solver,
the certifier and the oracle, with one entry per PSD block in every block
list (another length raises ``ValueError``); no dense (m, n_j, n_j) stack is
built.  ``tolerances`` is the one tolerance policy: of the local solve's inner
and outer stops, the certificate and the phase I.

Callers build the view and pass it down: ``staircase_solve`` once per solve,
each oracle entry point once per call (the phase I remaps its triplets), and
each CLI command once; ``al_solve`` and ``al_value_grad`` build none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import BlockStructure, ConicSdpProblem, ConstraintKind

CERT_TOL = 1e-7  # relative tolerance of certify, active_set and the phase-I rule _feasible


def _cat(parts, dtype) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=dtype)] + list(parts))  # also takes no parts


def _scatter(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    # sums of `weights` by `index`; bincount returns integers on empty weights
    return np.bincount(index, weights, minlength=size).astype(float, copy=False)


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a), taken of a / max|a| and scaled back where it overflows on finite entries."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if np.isinf(norm) and np.all(np.isfinite(a)):
        peak = float(np.max(np.abs(a)))
        norm = peak * float(np.linalg.norm(a / peak))
    return norm


@dataclass(frozen=True, eq=False)
class DenseProblem:
    sizes: tuple[int, ...]
    k: int
    d: int
    C: list[np.ndarray]          # per block, (n_j, n_j)
    triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # per block, (row, pos, val)
    Af: np.ndarray               # (m, d)
    c_free: np.ndarray           # (d,)
    b: np.ndarray                # (m,)
    eq_mask: np.ndarray          # (m,) bool
    _jacobian_index: dict = field(default_factory=dict, init=False, repr=False)  # latest tuple of ranks only

    # unused in src; it stays for tools that read it off the view (benchmarks/tracing.py)
    @property
    def structure(self) -> BlockStructure:
        return BlockStructure(self.sizes, self.k, self.d)

    @property
    def m(self) -> int:
        return self.b.size

    @property
    def ineq_mask(self) -> np.ndarray:
        return ~self.eq_mask

    def _check(self, blocks) -> None:
        if len(blocks) != len(self.sizes):
            raise ValueError(f"need one entry per PSD block ({len(self.sizes)}), got {len(blocks)}")

    def apply(self, blocks: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        """<A_i, X> + a_i . x for every row i."""
        self._check(blocks)
        out = self.Af @ x if self.d else np.zeros(self.m)
        for (row, pos, val), xb in zip(self.triplets, blocks):
            out += np.bincount(row, val * xb.ravel()[pos], minlength=self.m)
        return out

    def adjoint(self, lam: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        blocks = [_scatter(pos, val * lam[row], n * n).reshape(n, n)
                  for (row, pos, val), n in zip(self.triplets, self.sizes)]
        return blocks, self.Af.T @ lam if self.d else np.zeros(0)

    def slack(self, lam: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """S(lambda) = C_j - sum_i lam_i A_ij per block, and c_free - A_f^T lam."""
        adj, adj_free = self.adjoint(lam)
        return [c - a for c, a in zip(self.C, adj)], self.c_free - adj_free

    def jacobian(self, ys, rows=None) -> np.ndarray:
        """Constraint Jacobian at X_j = Y_j Y_j^T: row i is [2 A_i1 Y_1, ..., a_i].

        Row i applied to the row-major (U_1, ..., u) gives
        <A_i, sum_j U_j Y_j^T + Y_j U_j^T> + a_i . u.  `ys` has one factor
        per block; `rows` selects constraint rows (all by default).  Entry (a, b)
        of row i scatters 2 A_i[a, b] Y_j[b, :] into U_j's row a."""
        self._check(ys)
        qs = tuple(y.shape[1] for y in ys)
        if qs not in self._jacobian_index:
            dim, off = sum(n * q for n, q in zip(self.sizes, qs)) + self.d, 0
            scatter, gather, weight = [], [], []
            for (row, pos, val), n, q in zip(self.triplets, self.sizes, qs):
                (a, b), cols = np.divmod(pos, n), off + np.arange(q)
                scatter.append(((row * dim + a * q)[:, None] + cols).ravel())
                gather.append(((b * q)[:, None] + cols).ravel())
                weight.append(np.repeat(2.0 * val, q))
                off += n * q
            self._jacobian_index.clear()  # one index per staircase stage would pile up on dense rows
            self._jacobian_index[qs] = (_cat(scatter, int), _cat(gather, int), _cat(weight, float))
        scatter, gather, weight = self._jacobian_index[qs]
        yflat = _cat([y.ravel() for y in ys], float)
        dim = yflat.size + self.d
        jac = _scatter(scatter, weight * yflat[gather], self.m * dim).reshape(self.m, dim)
        if self.d:
            jac[:, yflat.size:] = self.Af
        return jac if rows is None else jac[np.asarray(rows, dtype=int)]

    @cached_property
    def _scales(self) -> tuple[float, float]:
        norm_c = max([_norm(c) for c in self.C] + [0.0])
        return norm_c + _norm(self.c_free), float(np.max(np.abs(self.b), initial=0.0))

    def tolerances(self, lam, rel: float) -> dict:
        """Absolute KKT and slack tolerances at multipliers `lam`: `rel` times SDPT3's scales,
        1 + ||C|| + ||lam||_inf for stationarity and free (||C|| the largest cost-block
        Frobenius norm plus ||c_free||, each by the overflow-safe ``_norm``), 1 + ||b||_inf for
        feasibility, and (1 + ||lam||_inf)(1 + ||b||_inf) for complementarity; ||C|| and
        ||b||_inf once per view (``_scales``, which the oracle's stop measure reads too)."""
        norm_c, b_scale = self._scales
        lam_scale = float(np.max(np.abs(lam), initial=0.0))
        stat = rel * (1.0 + norm_c + lam_scale)
        return {"stationarity": stat, "feasibility": rel * (1.0 + b_scale),
                "complementarity": rel * (1.0 + lam_scale) * (1.0 + b_scale),
                "sign": rel, "free": stat, "slack": rel}

    def objective(self, blocks: list[np.ndarray], x: np.ndarray) -> float:
        self._check(blocks)
        val = sum(float(np.vdot(c, xb)) for c, xb in zip(self.C, blocks))
        if self.d:
            val += float(self.c_free @ x)
        return val


def densify(problem: ConicSdpProblem) -> DenseProblem:
    st, cons = problem.structure, problem.constraints
    triplets = []
    for j, n in enumerate(st.psd_sizes):
        # entry (a, b) of row i at a n + b, an off-diagonal one also at b n + a, sorted by row
        blocks = [con.blocks[j] for con in cons]
        row = np.repeat(np.arange(len(cons)), [bl.nnz for bl in blocks])
        a, b = _cat([bl.rows for bl in blocks], int), _cat([bl.cols for bl in blocks], int)
        v, off = _cat([bl.vals for bl in blocks], float), a != b
        row = np.concatenate([row, row[off]])
        order = np.argsort(row, kind="stable")
        pos, val = np.concatenate([a * n + b, (b * n + a)[off]]), np.concatenate([v, v[off]])
        triplets.append((row[order], pos[order], val[order]))
    return DenseProblem(
        sizes=st.psd_sizes, k=st.factorized_count, d=st.free_dim,
        C=[c.to_dense() for c in problem.cost_blocks],
        triplets=triplets,
        Af=np.array([con.free for con in cons], dtype=float).reshape(len(cons), st.free_dim),
        c_free=np.array(problem.cost_free, dtype=float),
        b=np.array([con.rhs for con in cons], dtype=float),
        eq_mask=np.array([con.kind is ConstraintKind.EQUALITY for con in cons], dtype=bool),
    )
