"""Problem builders: worked applications and seeded test corpora.

Generators guarantee two things the rest of the suite leans on: every
instance is strictly feasible (right-hand sides come from an interior point)
and bounded (costs are assembled as a positive-definite part plus an adjoint
term, which hands the dual a strictly feasible point).  All randomness flows
from an explicit seed.  Builders state their rows as dense matrices for
``ConicSdpProblem.from_dense``; a ``BuiltProblem`` carries data only, with no
derived rank bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorization import FactorizedPoint, triangular
from .model import BlockStructure, ConicSdpProblem

__all__ = [
    "BuiltProblem",
    "build_integer_quadratic",
    "build_sensing_psd",
    "build_sensing_symmetric",
    "build_soc_embedding",
    "build_adversarial_cost",
    "adversarial_instance",
    "generate_random",
    "random_soc_fixture",
    "embed_cone_point",
    "extract_cone_point",
    "recover_difference",
]


@dataclass(frozen=True, eq=False)
class BuiltProblem:
    problem: ConicSdpProblem
    planted_point: FactorizedPoint | None = None
    extras: dict = field(default_factory=dict)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _random_sym(rng: np.random.Generator, n: int) -> np.ndarray:
    return _sym(rng.standard_normal((n, n)))


def _unit_frobenius(blocks: list[np.ndarray], free: np.ndarray):
    nrm = np.sqrt(sum(float(np.sum(b * b)) for b in blocks) + float(free @ free))
    if nrm == 0.0:
        return blocks, free
    return [b / nrm for b in blocks], free / nrm


# ---------------------------------------------------------------------------
# integer quadratic minimization relaxation
# ---------------------------------------------------------------------------


def build_integer_quadratic(cost: np.ndarray) -> BuiltProblem:
    """Relaxation of min f(x) over integer x, f encoded as (x,1)^T C (x,1).

    One PSD block of size n+1 with the corner entry pinned to 1 and the
    inequalities X_ii >= X_{i,n+1} expressing x_i^2 >= x_i.
    """
    cost = np.asarray(cost, dtype=float)
    n1 = cost.shape[0]
    if cost.shape != (n1, n1) or n1 < 2:
        raise ValueError(f"cost must be square of size >= 2, got {cost.shape}")
    n = n1 - 1

    corner = np.zeros((n1, n1))
    corner[n, n] = 1.0
    rows = [([corner], (), 1.0, "E")]
    for i in range(n):
        a = np.zeros((n1, n1))
        a[i, i] = 1.0
        a[i, n] = a[n, i] = -0.5
        rows.append(([a], (), 0.0, "I"))
    return BuiltProblem(
        ConicSdpProblem.from_dense(BlockStructure((n1,), 1, 0), [cost], (), rows, f"iqm-n{n}")
    )


# ---------------------------------------------------------------------------
# matrix sensing
# ---------------------------------------------------------------------------


def build_sensing_psd(n: int, rank: int, num_measurements: int, seed: int) -> BuiltProblem:
    """PSD matrix sensing: minimize trace subject to random measurements of a
    planted rank-`rank` PSD matrix, whose factor is the planted point."""
    rng = np.random.default_rng(seed)
    y_star = rng.standard_normal((n, rank))
    x_star = y_star @ y_star.T

    rows = []
    for _ in range(num_measurements):
        a = _random_sym(rng, n)
        a /= np.linalg.norm(a)
        rows.append(([a], (), float(np.tensordot(a, x_star)), "E"))
    problem = ConicSdpProblem.from_dense(
        BlockStructure((n,), 1, 0),
        [np.eye(n)],
        (),
        rows,
        f"sensing-psd-n{n}-r{rank}-m{num_measurements}-s{seed}",
    )
    return BuiltProblem(
        problem,
        planted_point=FactorizedPoint((y_star,), (), np.zeros(0)),
        extras={
            "planted": x_star.tolist(),
            "planted_rank": rank,
            "nuclear_norm": float(np.trace(x_star)),
        },
    )


def build_sensing_symmetric(
    n: int, num_measurements: int, seed: int, x_star: np.ndarray | None = None
) -> BuiltProblem:
    """Symmetric (possibly indefinite) sensing via the split X = X1 - X2.

    Two PSD blocks, both factorized at a common rank, cost I on each; the
    nuclear norm of the planted matrix is the target objective.
    """
    rng = np.random.default_rng(seed)
    if x_star is None:
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        x_star = np.outer(u, u) - np.outer(v, v)
    x_star = _sym(np.asarray(x_star, dtype=float))

    rows = []
    for _ in range(num_measurements):
        a = _random_sym(rng, n)
        a /= np.linalg.norm(a)
        rows.append(([a, -a], (), float(np.tensordot(a, x_star)), "E"))
    problem = ConicSdpProblem.from_dense(
        BlockStructure((n, n), 2, 0),
        [np.eye(n), np.eye(n)],
        (),
        rows,
        f"sensing-sym-n{n}-m{num_measurements}-s{seed}",
    )
    nuc = float(np.sum(np.abs(np.linalg.eigvalsh(x_star))))
    return BuiltProblem(
        problem,
        extras={"planted": x_star.tolist(), "nuclear_norm": nuc},
    )


def recover_difference(point: FactorizedPoint) -> np.ndarray:
    """X1 - X2 for a two-block symmetric-sensing point."""
    y1, y2 = point.factors
    return y1 @ y1.T - y2 @ y2.T


# ---------------------------------------------------------------------------
# second-order cone embedding
# ---------------------------------------------------------------------------


def embed_cone_point(x: np.ndarray) -> np.ndarray:
    """Arrow matrix of a second-order-cone point: constant diagonal x[0],
    first row/column x[1:]."""
    x = np.asarray(x, dtype=float)
    n = x.size
    a = np.zeros((n, n))
    np.fill_diagonal(a, x[0])
    a[0, 1:] = x[1:]
    a[1:, 0] = x[1:]
    return a


def extract_cone_point(x2: np.ndarray) -> np.ndarray:
    x2 = np.asarray(x2, dtype=float)
    out = np.empty(x2.shape[0])
    out[0] = float(np.mean(np.diag(x2)))
    out[1:] = x2[0, 1:]
    return out


def _soc_row_matrix(g: np.ndarray) -> np.ndarray:
    """Matrix M with <M, arrow(x)> = g . x."""
    a = np.zeros((g.size, g.size))
    a[0, 0] = g[0]
    a[0, 1:] = a[1:, 0] = g[1:] / 2.0
    return a


def build_soc_embedding(
    psd_cost: np.ndarray,
    soc_cost: np.ndarray,
    psd_rows: list[np.ndarray],
    soc_rows: list[np.ndarray],
    rhs: np.ndarray,
) -> BuiltProblem:
    """Linear cost over S+^{n1} x Q^{n2} with m1 equalities, embedded as a
    two-block SDP.

    The cone variable becomes an n2 x n2 arrow matrix, pinned down by exactly
    tau(n2-1) structure equalities: n2-1 equal-diagonal rows plus tau(n2-2)
    zero rows for the off-arrow entries.  The first block is factorized, the
    arrow block stays a tail block.
    """
    psd_cost = np.asarray(psd_cost, dtype=float)
    soc_cost = np.asarray(soc_cost, dtype=float)
    n1 = psd_cost.shape[0]
    n2 = soc_cost.size
    if n2 < 2:
        raise ValueError("second-order cone block needs dimension >= 2")
    if len(psd_rows) != len(soc_rows) or len(psd_rows) != len(rhs):
        raise ValueError("inconsistent row counts")

    rows = [
        ([bmat, _soc_row_matrix(np.asarray(g, dtype=float))], (), bi, "E")
        for bmat, g, bi in zip(psd_rows, soc_rows, rhs)
    ]
    zero1 = np.zeros((n1, n1))
    for i in range(1, n2):
        a = np.zeros((n2, n2))
        a[0, 0], a[i, i] = -1.0, 1.0
        rows.append(([zero1, a], (), 0.0, "E"))
    for i in range(1, n2):
        for j in range(i + 1, n2):
            a = np.zeros((n2, n2))
            a[i, j] = a[j, i] = 1.0
            rows.append(([zero1, a], (), 0.0, "E"))

    problem = ConicSdpProblem.from_dense(
        BlockStructure((n1, n2), 1, 0),
        [psd_cost, _soc_row_matrix(soc_cost)],
        (),
        rows,
        f"soc-n{n1}x{n2}-m{len(rhs)}",
    )
    assert problem.m == len(rhs) + triangular(n2 - 1)
    return BuiltProblem(problem, extras={"m1": len(rhs), "n2": n2})


def random_soc_fixture(n1: int, n2: int, m1: int, seed: int) -> BuiltProblem:
    """Seeded bounded SOC instance: interior primal point, dual built in."""
    rng = np.random.default_rng(seed)
    psd_rows, soc_rows = [], []
    for _ in range(m1):
        bmat = _random_sym(rng, n1)
        g = rng.standard_normal(n2)
        nrm = np.sqrt(np.sum(bmat * bmat) + g @ g)
        psd_rows.append(bmat / nrm)
        soc_rows.append(g / nrm)

    q1 = rng.standard_normal((n1, n1)) / np.sqrt(n1)
    x1_0 = q1 @ q1.T + 0.3 * np.eye(n1)
    u = 0.3 * rng.standard_normal(n2 - 1)
    x_0 = np.concatenate([[1.0 + np.linalg.norm(u)], u])
    rhs = np.array(
        [float(np.tensordot(b, x1_0)) + float(g @ x_0) for b, g in zip(psd_rows, soc_rows)]
    )

    lam = rng.standard_normal(m1)
    r = rng.standard_normal((n1, 2 * n1)) / np.sqrt(2 * n1)
    w1 = r @ r.T + 0.1 * np.eye(n1)
    psd_cost = w1 + sum(l * b for l, b in zip(lam, psd_rows))
    qbar = 0.2 * rng.standard_normal(n2 - 1)
    # embedded dual feasibility needs q1 > sqrt(n2-1) * ||qbar||
    qvec = np.concatenate([[1.5 * np.sqrt(n2 - 1) * np.linalg.norm(qbar) + 0.3], qbar])
    soc_cost = qvec + sum(l * g for l, g in zip(lam, soc_rows))

    built = build_soc_embedding(psd_cost, soc_cost, psd_rows, soc_rows, rhs)
    extras = dict(built.extras)
    extras["interior_point"] = x_0.tolist()
    return BuiltProblem(built.problem, extras=extras)


# ---------------------------------------------------------------------------
# adversarial costs: plant a first-order point with an indefinite slack
# ---------------------------------------------------------------------------


def build_adversarial_cost(
    constraint_mats: list[np.ndarray],
    b: np.ndarray,
    planted_factor: np.ndarray,
    seed: int,
    name: str = "",
) -> BuiltProblem:
    """Given equality data and a feasible factor Y of rank p, build a cost
    C = S + A*(lambda) with S Y = 0, rank S <= n - p and S indefinite.

    The planted Y is then exactly first-order critical with slack S, and is
    spurious whenever the true optimum is strictly better.
    """
    y = np.asarray(planted_factor, dtype=float)
    n, p = y.shape
    if p >= n:
        raise ValueError("cannot place a negative slack eigenvalue when p = n")
    rng = np.random.default_rng(seed)

    # orthonormal basis of range(Y)^perp
    qfull, _ = np.linalg.qr(np.hstack([y, rng.standard_normal((n, n))]))
    q = qfull[:, p:]
    mcore = _random_sym(rng, n - p)
    w, v = np.linalg.eigh(mcore)
    w[0] = -max(0.5, abs(float(w[0])))  # guarantee a clearly negative eigenvalue
    mcore = (v * w) @ v.T
    s_mat = q @ mcore @ q.T

    lam = rng.standard_normal(len(constraint_mats))
    c = s_mat + sum(l * np.asarray(a, dtype=float) for l, a in zip(lam, constraint_mats))

    problem = ConicSdpProblem.from_dense(
        BlockStructure((n,), 1, 0),
        [c],
        (),
        [([a], (), bi, "E") for a, bi in zip(constraint_mats, b)],
        name or f"adversarial-n{n}-p{p}-s{seed}",
    )
    planted = FactorizedPoint((y.copy(),), (), np.zeros(0))
    return BuiltProblem(
        problem,
        planted_point=planted,
        extras={
            "planted_objective": float(np.tensordot(c, y @ y.T)),
            "slack_eigenvalues": np.linalg.eigvalsh(s_mat).tolist(),
            "multipliers": lam.tolist(),
        },
    )


def adversarial_instance(n: int, p: int, m: int, seed: int) -> BuiltProblem:
    """Full adversarial fixture: random equality map (with a trace row and a
    guaranteed interior feasible point), planted rank-p factor, planted cost."""
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal((n, p))
    x0 = y0 @ y0.T

    # an interior point sharing all measurements with x0 keeps the instance
    # strictly feasible for the oracle; the trace row keeps it bounded
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    x1 = g @ g.T + 0.2 * np.eye(n)
    x1 *= np.trace(x0) / np.trace(x1)
    diff = x1 - x0

    mats = [np.eye(n)]
    for _ in range(m - 1):
        a = _random_sym(rng, n)
        a -= (np.tensordot(a, diff) / np.tensordot(diff, diff)) * diff
        a /= np.linalg.norm(a)
        mats.append(a)
    b = np.array([float(np.tensordot(a, x0)) for a in mats])
    return build_adversarial_cost(mats, b, y0, seed=rng.integers(2**31), name=f"adversarial-n{n}-p{p}-m{m}-s{seed}")


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------


def generate_random(structure: BlockStructure, m: int, kinds: str, seed: int) -> ConicSdpProblem:
    """Seeded random instance, strictly feasible and bounded by construction.

    Rows are unit-Frobenius Gaussian; b comes from a random interior point
    (with strict slack on inequality rows, and zero entries resampled away);
    the cost is a random PD matrix plus an adjoint term with the right
    multiplier signs, so the dual is strictly feasible as well.
    """
    if len(kinds) != m:
        raise ValueError("kinds string must have length m")
    if any(ch not in "EI" for ch in kinds):
        raise ValueError("kinds must be E/I")
    sizes = structure.psd_sizes
    d = structure.free_dim

    for attempt in range(16):
        rng = np.random.default_rng((seed, attempt))
        rows = []
        for _ in range(m):
            blocks = [_random_sym(rng, n) for n in sizes]
            free = rng.standard_normal(d)
            blocks, free = _unit_frobenius(blocks, free)
            rows.append((blocks, free))

        x0_blocks = []
        for n in sizes:
            g = rng.standard_normal((n, n)) / np.sqrt(n)
            x0_blocks.append(g @ g.T + 0.3 * np.eye(n))
        x0_free = rng.standard_normal(d)

        mu = rng.standard_normal(m)
        b = np.zeros(m)
        for i, (blocks, free) in enumerate(rows):
            b[i] = sum(float(np.tensordot(a, x)) for a, x in zip(blocks, x0_blocks))
            b[i] += float(free @ x0_free)
            if kinds[i] == "I":
                mu[i] = abs(mu[i]) + 0.1
                b[i] -= abs(rng.standard_normal()) + 0.1

        if m and np.min(np.abs(b)) < 1e-10:
            continue  # resample: nonzero right-hand sides required

        cost_blocks = []
        for j, n in enumerate(sizes):
            r = rng.standard_normal((n, 2 * n)) / np.sqrt(2 * n)
            w = r @ r.T + 0.1 * np.eye(n)
            w += sum(mu[i] * rows[i][0][j] for i in range(m))
            cost_blocks.append(w)
        cost_free = sum((mu[i] * rows[i][1] for i in range(m)), np.zeros(d))

        return ConicSdpProblem.from_dense(
            structure,
            cost_blocks,
            cost_free,
            [(blocks, free, b[i], kinds[i]) for i, (blocks, free) in enumerate(rows)],
            f"random-{'x'.join(str(n) for n in sizes)}-m{m}-s{seed}",
        )
    raise RuntimeError("could not generate nonzero right-hand sides")

