"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

from lrsdp.model import BlockStructure, ConicSdpProblem, Constraint, ConstraintKind, CooSymmetric, SymmetricMatrix
from lrsdp.factorization import FactorizedPoint


def make_problem(sizes, k, d, cost_blocks, cost_free, rows, name=""):
    """Rows are (dense_blocks, free_vec, rhs, 'E'|'I') tuples."""
    return ConicSdpProblem.from_dense(BlockStructure(tuple(sizes), k, d), cost_blocks, cost_free, rows, name)


def apply_reference(problem, blocks, x):
    """A(X) row by row from the sparse data: sum_j <A_ij, X_j> + a_i . x.

    Independent of ``DenseProblem``; ``blocks`` are dense X_j.
    """
    return np.array([
        sum(float(np.tensordot(a.to_dense(), xb)) for a, xb in zip(con.blocks, blocks))
        + float(np.dot(con.free, x))
        for con in problem.constraints
    ])


def dense_rows(problem):
    """The (m, n_j, n_j) row stacks and the (m, d) free columns, from ``to_dense``.

    Independent of ``DenseProblem``, which keeps no dense stacks."""
    cons, st = problem.constraints, problem.structure
    stacks = [np.array([con.blocks[j].to_dense() for con in cons]).reshape(len(cons), n, n)
              for j, n in enumerate(st.psd_sizes)]
    return stacks, np.array([con.free for con in cons]).reshape(len(cons), st.free_dim)


def lifted(point: FactorizedPoint):
    """Dense X_j (Y_j Y_j^T, tails as given) and the free part of a point."""
    blocks = [y @ y.T for y in point.factors] + [t.to_dense() for t in point.tail_blocks]
    return blocks, point.free


def trivial_sdp():
    """min <I, X> s.t. X_11 = 1 over 2x2 PSD; optimum E_11, value 1, lam (1)."""
    return make_problem(
        (2,), 1, 0,
        [np.eye(2)], [],
        [([np.array([[1.0, 0.0], [0.0, 0.0]])], [], 1.0, "E")],
        name="trivial",
    )


def indefinite_trace_sdp():
    """min <diag(1,-1), X> s.t. tr X = 1; optimum e2 e2^T, value -1."""
    return make_problem(
        (2,), 1, 0,
        [np.diag([1.0, -1.0])], [],
        [([np.eye(2)], [], 1.0, "E")],
        name="indefinite-trace",
    )


def correlation_sdp():
    """min -X_12 s.t. X_11 = X_22 = 1; optimum all-ones matrix, value -1."""
    c = np.array([[0.0, -0.5], [-0.5, 0.0]])
    return make_problem(
        (2,), 1, 0,
        [c], [],
        [
            ([np.array([[1.0, 0.0], [0.0, 0.0]])], [], 1.0, "E"),
            ([np.array([[0.0, 0.0], [0.0, 1.0]])], [], 1.0, "E"),
        ],
        name="correlation",
    )


def maxcut_sdp(n: int, seed: int):
    """MaxCut relaxation of G(n, 0.3): min <-L/4, X> s.t. X_ii = 1, each row one sparse entry."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.3, 1).astype(float)
    adj = upper + upper.T
    laplacian = np.diag(adj.sum(axis=1)) - adj
    rows = [Constraint((CooSymmetric.from_entries(n, [(i, i, 1.0)]),), np.zeros(0), 1.0, ConstraintKind.EQUALITY)
            for i in range(n)]
    return ConicSdpProblem.normalized(BlockStructure((n,), 1, 0), (SymmetricMatrix.from_dense(-0.25 * laplacian),),
                                      np.zeros(0), rows, name=f"maxcut-n{n}-s{seed}")


def iqm_cost(a: float, b: float, c: float) -> np.ndarray:
    """Cost matrix encoding the quadratic a x^2 + b x + c through (x, 1)."""
    return np.array([[a, b / 2.0], [b / 2.0, c]])


def random_factor_point(problem: ConicSdpProblem, ranks, seed: int, scale=1.0) -> FactorizedPoint:
    """Random point matching the problem layout, tails PSD by construction."""
    st = problem.structure
    rng = np.random.default_rng(seed)
    factors = tuple(
        scale * rng.standard_normal((st.psd_sizes[j], ranks[j]))
        for j in range(st.factorized_count)
    )
    tails = []
    for n in st.tail_sizes:
        g = rng.standard_normal((n, n)) / np.sqrt(n)
        tails.append(SymmetricMatrix.from_dense(g @ g.T + 0.1 * np.eye(n)))
    free = rng.standard_normal(st.free_dim)
    return FactorizedPoint(factors, tuple(tails), free)


def point_axpy(point: FactorizedPoint, direction: FactorizedPoint, t: float) -> FactorizedPoint:
    factors = tuple(y + t * u for y, u in zip(point.factors, direction.factors))
    tails = tuple(
        SymmetricMatrix(sm.dim, sm.packed + t * dm.packed)
        for sm, dm in zip(point.tail_blocks, direction.tail_blocks)
    )
    return FactorizedPoint(factors, tails, point.free + t * direction.free)


def point_dot(a: FactorizedPoint, b: FactorizedPoint) -> float:
    """Pairing of a gradient-shaped object with a direction-shaped object."""
    val = sum(float(np.sum(x * y)) for x, y in zip(a.factors, b.factors))
    val += sum(float(np.sum(x.to_dense() * y.to_dense())) for x, y in zip(a.tail_blocks, b.tail_blocks))
    return val + float(np.dot(a.free, b.free))


def random_direction(problem: ConicSdpProblem, ranks, seed: int) -> FactorizedPoint:
    st = problem.structure
    rng = np.random.default_rng(seed)
    factors = tuple(
        rng.standard_normal((st.psd_sizes[j], ranks[j]))
        for j in range(st.factorized_count)
    )
    tails = tuple(
        SymmetricMatrix.from_dense(
            0.5 * (lambda g: g + g.T)(rng.standard_normal((n, n)))
        )
        for n in st.tail_sizes
    )
    return FactorizedPoint(factors, tails, rng.standard_normal(st.free_dim))


def mixed_instance(seed: int):
    """Seeded mixed-structure instance for derivative checks (n<=15, m<=12)."""
    from lrsdp.apps import generate_random

    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, 3))
    sizes = tuple(int(rng.integers(2, 8 if nb == 2 else 16)) for _ in range(nb))
    k = int(rng.integers(1, nb + 1))
    d = int(rng.integers(0, 3))
    m = int(rng.integers(1, 13))
    n_ineq = int(rng.integers(0, m + 1))
    kinds = "E" * (m - n_ineq) + "I" * n_ineq
    problem = generate_random(BlockStructure(sizes, k, d), m, kinds, seed)
    ranks = [max(1, sizes[j] - 1) for j in range(k)]
    return problem, ranks
