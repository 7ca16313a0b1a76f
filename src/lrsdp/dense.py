"""Dense views of problem data for the numerical kernels.

Constraint blocks are stored sparse in the model; the local solver, the
certification routines and the interior-point oracle all want stacked dense
arrays.  ``DenseProblem`` is that one conversion, and its ``apply``,
``adjoint``, ``slack`` and ``jacobian`` are the one constraint operator: the
solver, the certifier and the interior-point oracle evaluate A(X),
A*(lambda) and C - A*(lambda) through the same view, with one entry per PSD
block in every block list (another length raises ``ValueError``).
``tolerances`` is the one tolerance policy, read by the local solve's stop,
the certificate and the oracle's phase-I rule.

Callers build the view and pass it down.  Only these build one:
``staircase_solve`` once per solve, for every local solve, certificate check
and escape line search; each oracle entry point once per call; and each CLI
command once.  ``al_solve`` and ``al_value_grad`` take the view from their
caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BlockStructure, ConicSdpProblem, ConstraintKind

CERT_TOL = 1e-7  # relative tolerance of certify, active_set and the phase-I rule _feasible


@dataclass(frozen=True, eq=False)
class DenseProblem:
    sizes: tuple[int, ...]
    k: int
    d: int
    C: list[np.ndarray]          # per block, (n_j, n_j)
    A: list[np.ndarray]          # per block, (m, n_j, n_j)
    Af: np.ndarray               # (m, d)
    c_free: np.ndarray           # (d,)
    b: np.ndarray                # (m,)
    eq_mask: np.ndarray          # (m,) bool

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

    def apply(self, blocks: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        """<A_i, X> + a_i . x for every row i."""
        out = np.zeros(self.m)
        for a, xb in zip(self.A, blocks, strict=True):
            out += np.einsum("iab,ab->i", a, xb)
        if self.d:
            out += self.Af @ x
        return out

    def adjoint(self, lam: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        blocks = [np.einsum("i,iab->ab", lam, a) for a in self.A]
        free = self.Af.T @ lam if self.d else np.zeros(0)
        return blocks, free

    def slack(self, lam: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """S(lambda) = C_j - sum_i lam_i A_ij per block, and c_free - A_f^T lam."""
        adj, adj_free = self.adjoint(lam)
        return [c - a for c, a in zip(self.C, adj)], self.c_free - adj_free

    def jacobian(self, ys, rows=None) -> np.ndarray:
        """Constraint Jacobian at X_j = Y_j Y_j^T: row i is [2 A_i1 Y_1, ..., a_i].

        Row i applied to the row-major (U_1, ..., u) gives
        <A_i, sum_j U_j Y_j^T + Y_j U_j^T> + a_i . u.  `ys` has one factor
        per block; `rows` selects constraint rows (all by default).
        """
        sel = slice(None) if rows is None else np.asarray(rows, dtype=int)
        r = self.m if rows is None else sel.size
        parts = []
        for a, y in zip(self.A, ys, strict=True):
            n, q = y.shape
            # explicit shapes: with r = 0 a -1 in a reshape is ambiguous
            parts.append(2.0 * (a[sel].reshape(r * n, n) @ y).reshape(r, n * q))
        if self.d:
            parts.append(self.Af[sel])
        return np.hstack(parts) if parts else np.zeros((r, 0))

    def tolerances(self, lam, rel: float) -> dict:
        """Absolute KKT and slack tolerances at multipliers `lam`: `rel` times SDPT3's scales,
        1 + ||C|| + ||lam||_inf for stationarity and free (||C|| the largest cost-block
        Frobenius norm plus ||c_free||), 1 + ||b||_inf for feasibility, and
        (1 + ||lam||_inf)(1 + ||b||_inf) for complementarity."""
        norm_c = max([float(np.linalg.norm(c)) for c in self.C] + [0.0])
        norm_c += float(np.linalg.norm(self.c_free))
        lam_scale = float(np.max(np.abs(lam), initial=0.0))
        b_scale = float(np.max(np.abs(self.b), initial=0.0))
        stat = rel * (1.0 + norm_c + lam_scale)
        return {"stationarity": stat, "feasibility": rel * (1.0 + b_scale),
                "complementarity": rel * (1.0 + lam_scale) * (1.0 + b_scale),
                "sign": rel, "free": stat, "slack": rel}

    def objective(self, blocks: list[np.ndarray], x: np.ndarray) -> float:
        val = sum(float(np.vdot(c, xb)) for c, xb in zip(self.C, blocks, strict=True))
        if self.d:
            val += float(self.c_free @ x)
        return val


def densify(problem: ConicSdpProblem) -> DenseProblem:
    st = problem.structure
    m = problem.m
    C = [c.to_dense() for c in problem.cost_blocks]
    A = [np.zeros((m, n, n)) for n in st.psd_sizes]
    Af = np.zeros((m, st.free_dim))
    b = np.zeros(m)
    eq = np.zeros(m, dtype=bool)
    for i, con in enumerate(problem.constraints):
        for j, bl in enumerate(con.blocks):
            A[j][i] = bl.to_dense()
        Af[i] = con.free
        b[i] = con.rhs
        eq[i] = con.kind is ConstraintKind.EQUALITY
    return DenseProblem(
        sizes=st.psd_sizes,
        k=st.factorized_count,
        d=st.free_dim,
        C=C,
        A=A,
        Af=Af,
        c_free=np.array(problem.cost_free, dtype=float),
        b=b,
        eq_mask=eq,
    )
