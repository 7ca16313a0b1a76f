"""Low-rank factorization of PSD blocks and the rank bounds that drive it.

The solver replaces each of the leading ``factorized_count`` PSD blocks by a
rectangular factor ``Y_j`` (n_j x p_j) with ``X_j = Y_j Y_j^T``.  The starting
rank comes from a combinatorial quantity m': the largest number of linearly
independent constraints that can be simultaneously active.  Whenever the
triangular number tau(p) exceeds m' (capped at tau(n)), solving the factorized
problem is equivalent to solving the convex one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import oracle
from .model import (
    BlockStructure,
    ConicSdpProblem,
    SymmetricMatrix,
    packed_index,
)

__all__ = [
    "FactorizedPoint",
    "RankBoundReport",
    "NotPsdError",
    "triangular",
    "psd_factor",
    "m_prime_inequality",
    "m_prime_conic",
    "append_column",
    "single_factor_block",
    "initial_rank_bound",
]

RANK_TOL = 1e-9  # relative threshold for numerical ranks, and psd_factor's PSD floor


class NotPsdError(ValueError):
    pass


def triangular(k: int) -> int:
    """k-th triangular number k(k+1)/2, the dimension of S^k."""
    if k < 0:
        raise ValueError("triangular numbers need k >= 0")
    return k * (k + 1) // 2


@dataclass(frozen=True, eq=False)
class FactorizedPoint:
    """Factors for the leading blocks, matrices for the tail, free variables."""

    factors: tuple[np.ndarray, ...]
    tail_blocks: tuple[SymmetricMatrix, ...]
    free: np.ndarray

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(y.shape[1] for y in self.factors)


@dataclass(frozen=True)
class RankBoundReport:
    m_prime: int
    p_per_block: tuple[int, ...]
    method: str  # ExactEnumeration | RankUpperBound | ConicFormula


def psd_factor(a: np.ndarray) -> np.ndarray:
    """Full-rank factor Y with Y Y^T = a for a PSD matrix a.

    Uses symmetric eigendecomposition: eigenvalues down to -RANK_TOL * max(1,
    lambda_max) are clamped to zero, and one below raises NotPsdError.  Columns
    run in descending eigenvalue order and are zero beyond the numerical rank.
    """
    w, v = np.linalg.eigh(a)
    scale = max(1.0, float(w[-1]))
    if w[0] < -RANK_TOL * scale:
        raise NotPsdError(f"eigenvalue {w[0]:.3e} below -{RANK_TOL:.0e}")
    # descending order, as the numerical-rank rule reads it
    w = np.clip(w, 0.0, None)[::-1]
    w[_rank_from_singular_values(w):] = 0.0
    return v[:, ::-1] * np.sqrt(w)


def append_column(point: FactorizedPoint, block: int, v: np.ndarray, alpha: float) -> FactorizedPoint:
    """Grow factor `block` by one column alpha*v; Y Y^T changes by alpha^2 v v^T."""
    v = np.asarray(v, dtype=float)
    y = point.factors[block]
    if v.shape != (y.shape[0],):
        raise ValueError(f"dimension mismatch: direction has shape {v.shape}, block dim {y.shape[0]}")
    new = np.hstack([y, (alpha * v)[:, None]])
    factors = list(point.factors)
    factors[block] = new
    return FactorizedPoint(tuple(factors), point.tail_blocks, np.array(point.free))


# ---------------------------------------------------------------------------
# rank bounds
# ---------------------------------------------------------------------------


def _min_rank_for(m_prime: int, n: int) -> int:
    """Least p with tau(p) > min(m_prime, tau(n)), capped at n (and >= 1)."""
    target = min(m_prime, triangular(n))
    p = 0
    while triangular(p) <= target:
        p += 1
        if p >= n:
            return n
    return max(1, p)


def _stack_rows(problem: ConicSdpProblem, idx) -> np.ndarray:
    """Rows `idx` as packed vectors, restricted to the packed columns some of
    them touch: all-zero columns do not change the singular values."""
    n = problem.structure.psd_sizes[0]
    blocks = [problem.constraints[i].blocks[0] for i in idx]
    pos = [packed_index(n, bl.rows, bl.cols) for bl in blocks]
    cols = np.unique(np.concatenate([np.zeros(0, dtype=int)] + pos))
    rows = np.zeros((len(blocks), cols.size))
    for r, (bl, p) in enumerate(zip(blocks, pos)):
        # off-diagonal entries scaled so packed vectors are isometric to matrices
        rows[r, np.searchsorted(cols, p)] = np.where(bl.rows == bl.cols, bl.vals, np.sqrt(2.0) * bl.vals)
    return rows


def _rank_from_singular_values(s: np.ndarray) -> int:
    """The numerical-rank rule: singular values above RANK_TOL * sigma_1."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def _numerical_rank(mat: np.ndarray) -> int:
    return _rank_from_singular_values(np.linalg.svd(mat, compute_uv=False))


def single_factor_block(st: BlockStructure) -> bool:
    """One factorized PSD block, no tail block, no free part: m' by enumeration."""
    return st.num_blocks == 1 and st.factorized_count == 1 and st.free_dim == 0


def m_prime_inequality(problem: ConicSdpProblem, cap: int = 20) -> RankBoundReport:
    """m' for a single-block problem (largest independent simultaneously-active set).

    With no inequalities this is just the rank of the constraint stack.  With
    inequalities and m <= cap, the full set is solved first: it has rank A, so
    if it can be active m' = rank A.  Otherwise (infeasible or stalled) the sets
    are walked by size, each one's rows sliced from one stack of all m rows.
    Supersets of sets found infeasible are pruned.  Each other set's rank comes
    first: only a rank above the best so far earns a feasibility solve
    (``oracle.active_subset_feasible``, looked up at call time), which raises
    the best or adds the set to the pruned ones.  The walk ends once the best
    reaches rank A.  Above the cap, rank A.
    """
    st = problem.structure
    if not single_factor_block(st):
        raise ValueError("unsupported structure: m' enumeration needs one factorized block, no tail, d = 0")
    n = st.psd_sizes[0]
    m = problem.m
    stack = _stack_rows(problem, range(m))
    all_rank = _numerical_rank(stack)
    eq_idx = list(problem.equality_indices())
    ineq_idx = list(problem.inequality_indices())

    if not ineq_idx:
        return RankBoundReport(all_rank, (_min_rank_for(all_rank, n),), "ExactEnumeration")

    if m > cap:
        return RankBoundReport(all_rank, (_min_rank_for(all_rank, n),), "RankUpperBound")

    best, infeasible = -1, []
    try:
        if oracle.active_subset_feasible(problem, tuple(ineq_idx)):
            best = all_rank  # the walk ends at once
        else:
            infeasible.append(frozenset(ineq_idx))
    except oracle.MaxIterationsError:
        pass  # a stalled first solve leaves the walk to decide
    for combo in (c for size in range(len(ineq_idx) + 1) for c in combinations(ineq_idx, size)):
        if best >= all_rank:
            break
        sset = frozenset(combo)
        if any(bad <= sset for bad in infeasible):
            continue
        r = _numerical_rank(stack[eq_idx + list(combo)])
        if r <= best:  # cannot raise m', feasible or not
            continue
        if oracle.active_subset_feasible(problem, combo):
            best = r
        else:
            infeasible.append(sset)
    best = max(best, 0)  # no feasible active set at all: the problem is infeasible
    return RankBoundReport(best, (_min_rank_for(best, n),), "ExactEnumeration")


def m_prime_conic(problem: ConicSdpProblem, rank_ranges) -> RankBoundReport:
    """m' for the multi-block split: max over tail ranks of m - d - sum tau(r_j).

    `rank_ranges` supplies, per tail block, the set of ranks the block can take
    at solutions; the formula's maximum is attained at the smallest rank in
    each range.  A count of independent active constraints is never negative,
    so m' is clamped at 0.
    """
    st = problem.structure
    tail = st.tail_sizes
    ranges = [sorted(set(int(r) for r in rr)) for rr in rank_ranges]
    if len(ranges) != len(tail):
        raise ValueError(f"need one rank range per tail block ({len(tail)}), got {len(ranges)}")
    for j, (rr, nj) in enumerate(zip(ranges, tail)):
        if not rr:
            raise ValueError(f"empty rank range for tail block {j}")
        if rr[0] < 0 or rr[-1] > nj:
            raise ValueError(f"rank range for tail block {j} outside [0, {nj}]")
    mp = max(0, problem.m - st.free_dim - sum(triangular(rr[0]) for rr in ranges))
    p = tuple(
        _min_rank_for(mp, st.psd_sizes[j]) for j in range(st.factorized_count)
    )
    return RankBoundReport(mp, p, "ConicFormula")


def initial_rank_bound(problem: ConicSdpProblem) -> RankBoundReport:
    """Cheap rank bound used to seed the staircase (no active-set enumeration).

    ``single_factor_block``: ``m_prime_inequality`` with no enumeration
    (cap 0), i.e. the rank of the stack when equality-only, else the
    rank A upper bound.  Any other structure: the conic formula with
    unconstrained tail ranks, i.e. m' = max(0, m - d).
    """
    st = problem.structure
    if single_factor_block(st):
        return m_prime_inequality(problem, cap=0)
    return m_prime_conic(problem, [range(n + 1) for n in st.tail_sizes])
