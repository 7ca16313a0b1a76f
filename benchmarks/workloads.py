"""Seeded benchmark workloads for lrsdp, and the checks on their outputs.

A workload is a list of operations, each one call into the public pipeline
(``staircase_solve``, ``m_prime_inequality`` or ``oracle_solve``) on an
instance drawn from a seeded family.  Instances are never filtered on how the
solver fares with them.  ``references`` computes what each operation's output
is checked against; ``run_operation`` makes the call and ``check`` judges it.

Pipeline entry points are looked up on their modules at call time, so the
wrappers in ``tracing.py`` see the calls this module makes.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
import scipy.optimize

from lrsdp import certification, factorization, oracle
from lrsdp.apps import (
    build_integer_quadratic,
    build_sensing_psd,
    generate_random,
    random_soc_fixture,
)
from lrsdp.model import (
    BlockStructure,
    ConicSdpProblem,
    Constraint,
    ConstraintKind,
    CooSymmetric,
    SymmetricMatrix,
)
from lrsdp.solver import SolverConfig

# relative objective agreement required of every solve, as in the test suite
OBJ_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class Operation:
    name: str
    kind: str                      # staircase | m_prime | oracle
    problem: ConicSdpProblem
    ranks: tuple[int, ...] | None = None
    maxcut: bool = False           # checked by the MaxCut duality bound


@dataclass
class Outcome:
    op: Operation
    seconds: float
    result: object = None          # SolveReport | RankBoundReport | OracleSolution
    error: str | None = None
    ok: bool = False
    certified: bool | None = None  # None for operations that certify nothing
    detail: str = ""


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


def build_maxcut(n: int, seed: int) -> ConicSdpProblem:
    """MaxCut relaxation of G(n, 0.3): min <-L/4, X> s.t. X_ii = 1, X PSD."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.3, 1).astype(float)
    adj = upper + upper.T
    laplacian = np.diag(adj.sum(axis=1)) - adj
    rows = [
        Constraint(
            (CooSymmetric.from_entries(n, [(i, i, 1.0)]),),
            np.zeros(0),
            1.0,
            ConstraintKind.EQUALITY,
        )
        for i in range(n)
    ]
    return ConicSdpProblem.normalized(
        structure=BlockStructure((n,), 1, 0),
        cost_blocks=(SymmetricMatrix.from_dense(-0.25 * laplacian),),
        cost_free=np.zeros(0),
        constraints=rows,
        name=f"maxcut-n{n}-s{seed}",
    )


def _pd_cost(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    return g @ g.T + 0.1 * np.eye(n)


def _maxcut_ops(rng: np.random.Generator, tiny: bool) -> list[Operation]:
    # n = 40 solves end either after 5-8 outer iterations or after all 50
    # (about one in three, by chance), so their times vary threefold; n = 24
    # solves always stop early.  Two of the former per draw keep the wasted
    # iterations in the measurement without letting them dominate its spread.
    sizes = (12, 12) if tiny else (40, 40) + (24,) * 12
    return [
        Operation(f"maxcut-n{n}-{i}", "staircase", build_maxcut(n, _seed(rng)), maxcut=True)
        for i, n in enumerate(sizes)
    ]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _random(sizes, factorized, free, kinds):
    structure = BlockStructure(sizes, factorized, free)
    return lambda rng: generate_random(structure, len(kinds), kinds, _seed(rng))


def _sensing(n, rank, m):
    return lambda rng: build_sensing_psd(n, rank, m, _seed(rng)).problem


def _iqm(n):
    return lambda rng: build_integer_quadratic(_pd_cost(rng, n + 1)).problem


def _soc(n1, n2, m1):
    return lambda rng: random_soc_fixture(n1, n2, m1, _seed(rng)).problem


# (name, instances per draw, builder(rng) -> problem, start ranks or None for
# the rank bound)
STAIRCASE_FAMILIES = (
    ("random-6x8-E-from-r1", 10, _random((6,), 1, 0, "E" * 8), (1,)),
    ("random-6x8-E-from-r2", 3, _random((6,), 1, 0, "E" * 8), (2,)),
    ("random-7x10-E-from-r2", 5, _random((7,), 1, 0, "E" * 10), (2,)),
    ("sensing-8-m10-r2", 4, _sensing(8, 2, 10), None),
    ("free-tail-6+3-d2-EI", 5, _random((6, 3), 1, 2, "EEEEIIII"), None),
    ("free-5-d2-EI", 4, _random((5,), 1, 2, "EEEIII"), None),
    ("iqm-n5", 4, _iqm(5), None),
    ("soc-3x3-m3", 4, _soc(3, 3, 3), None),
    ("two-factor-5+4+3-EI", 5, _random((5, 4, 3), 2, 0, "EEEEEEIII"), None),
)


def _staircase_ops(rng: np.random.Generator, tiny: bool) -> list[Operation]:
    return [
        Operation(f"{name}-{i}", "staircase", make(rng), ranks=ranks)
        for name, count, make, ranks in STAIRCASE_FAMILIES
        for i in range(1 if tiny else count)
    ]


def _oracle_ops(rng: np.random.Generator, tiny: bool) -> list[Operation]:
    # the integer-quadratic rows fix m' by n alone; every active subset is
    # feasible, so the enumeration makes all 2^n feasibility solves
    n = 3 if tiny else 5
    ops = [Operation(f"m-prime-iqm-n{n}", "m_prime", _iqm(n)(rng))]
    for n in (8,) if tiny else (30, 40):
        ops.append(Operation(f"oracle-maxcut-n{n}", "oracle", build_maxcut(n, _seed(rng)), maxcut=True))
    return ops


BUILDERS = {"maxcut": _maxcut_ops, "staircase": _staircase_ops, "oracle": _oracle_ops}


def build(workload: str, seed: int, draw: int = 0, tiny: bool = False) -> list[Operation]:
    """The operations of one pass: draw `draw` of the workload under `seed`."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(BUILDERS)}")
    return BUILDERS[workload](np.random.default_rng((seed, draw)), tiny)


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------


def unpruned_m_prime(problem: ConicSdpProblem) -> int:
    """m' by testing every inequality subset, with no superset pruning."""
    eq = list(problem.equality_indices())
    iq = list(problem.inequality_indices())
    best = 0
    for size in range(len(iq) + 1):
        for combo in combinations(iq, size):
            if oracle.active_subset_feasible(problem, combo):
                rows = factorization._stack_rows(problem, eq + list(combo))
                best = max(best, factorization._numerical_rank(rows))
    return best


# (cost scale, tolerance) tried in turn for an oracle reference; a check needs
# agreement to 1e-5, so the looser tolerances still leave ample margin
ORACLE_ATTEMPTS = ((1.0, 1e-9), (10.0, 1e-9), (0.1, 1e-9), (100.0, 1e-8), (0.01, 1e-8), (1.0, 1e-8))
ORACLE_ERRORS = (oracle.MaxIterationsError, oracle.NotStrictlyFeasibleError, np.linalg.LinAlgError)


def oracle_objective(problem: ConicSdpProblem) -> float:
    """Oracle optimum, retried on rescaled costs when the path stalls.

    The interior-point path stalls on a few instances in a thousand; scaling
    the cost is an exact reformulation (the optimum scales with it) that takes
    a different path.  The last failure propagates.
    """
    for i, (t, tol) in enumerate(ORACLE_ATTEMPTS):
        scaled = replace(
            problem,
            cost_blocks=tuple(c.scaled(t) for c in problem.cost_blocks),
            cost_free=t * problem.cost_free,
        )
        try:
            return oracle.oracle_solve(scaled, tol=tol, max_iter=200).objective / t
        except ORACLE_ERRORS:
            if i == len(ORACLE_ATTEMPTS) - 1:
                raise
    raise AssertionError("unreachable")


def references(ops: list[Operation]) -> list[float | None]:
    """Reference value per operation: oracle objective for solves of general
    instances, unpruned m' for rank bounds, None where the oracle fails (the
    operation then fails its check).  MaxCut instances are checked against a
    duality bound computed from the output itself (``maxcut_bounds``)."""
    refs: list[float | None] = []
    for op in ops:
        try:
            if op.maxcut:
                refs.append(None)
            elif op.kind == "m_prime":
                refs.append(float(unpruned_m_prime(op.problem)))
            else:
                refs.append(float(oracle_objective(op.problem)))
        except ORACLE_ERRORS:
            refs.append(None)
    return refs


def maxcut_bounds(problem: ConicSdpProblem, x: np.ndarray) -> tuple[float, float]:
    """Bounds lower <= OPT <= upper on a MaxCut SDP from any PSD matrix x.

    upper: the cost at x rescaled to unit diagonal, which is feasible.
    lower: weak duality with y = diag(C x); for feasible X (trace n)
    <C, X> = <C - Diag(y), X> + sum(y) >= n * min(0, lambda_min) + sum(y).
    """
    c = problem.cost_blocks[0].to_dense()
    n = c.shape[0]
    d = np.sqrt(np.clip(np.diag(x), 1e-300, None))
    xf = x / np.outer(d, d)
    upper = float(np.sum(c * xf))
    y = np.einsum("ij,ji->i", c, xf)
    lam_min = float(np.linalg.eigvalsh(c - np.diag(y))[0])
    lower = float(np.sum(y)) + n * min(0.0, lam_min)
    return lower, upper


def kkt_bounds(problem: ConicSdpProblem, point, lam: np.ndarray) -> tuple[float, float, str]:
    """Primal and dual objective of a KKT pair rebuilt from a local solution.

    Used where the oracle gives no reference.  The primal point is the
    returned factors lifted to X_j = Y_j Y_j^T (tail blocks as returned).  Two
    multiplier candidates are tried: `lam`, the AL multipliers the solver
    returned, and a fit made here by bounded least squares on S_j(y) X_j = 0
    and c_free = A_free^T y over the equality rows and the inequality rows
    tight at X, with y >= 0 on the latter.  (The fit leaves y undetermined on
    rows that only touch a zero tail block, so it alone is not enough.)

    Returns (primal objective, dual objective b.y, reason) for the first
    candidate that passes, with reason empty: X is feasible, y has the
    inequality sign, S_j = C_j - sum_i y_i A_ij is PSD and c_free = A_free^T y,
    all to 1e-6 relative, and the two objectives agree to OBJ_TOL.  By weak
    duality they then bracket the optimum up to those tolerances.  If neither
    candidate passes, the reasons the fit failed.
    """
    xs = [y @ y.T for y in point.factors] + [t.to_dense() for t in point.tail_blocks]
    cs = [c.to_dense() for c in problem.cost_blocks]
    a = [[bl.to_dense() for bl in con.blocks] for con in problem.constraints]
    b = problem.b
    b_scale = 1.0 + (float(np.max(np.abs(b))) if b.size else 0.0)
    free = np.asarray(point.free, dtype=float)
    resid = np.array([
        sum(float(np.sum(aij * x)) for aij, x in zip(row, xs)) + float(con.free @ free)
        for row, con in zip(a, problem.constraints)
    ]) - b
    eq = set(problem.equality_indices().tolist())
    iq = problem.inequality_indices()
    viol = np.concatenate([np.abs(resid[list(eq)]), np.maximum(-resid[iq], 0.0)])
    pobj = sum(float(np.sum(c * x)) for c, x in zip(cs, xs)) + float(problem.cost_free @ free)
    primal_reason = (f"infeasible by {float(np.max(viol)):.2e}"
                     if viol.size and float(np.max(viol)) > 1e-6 * b_scale else "")

    def stack(mats, vec):
        return np.concatenate([(m @ x).ravel() for m, x in zip(mats, xs)] + [vec])

    active = sorted(eq) + [int(i) for i in iq if resid[i] <= 1e-6 * b_scale]
    fitted = np.zeros(problem.m)
    if active:
        g = np.array([stack(a[i], problem.constraints[i].free) for i in active]).T
        lower = np.array([-np.inf if i in eq else 0.0 for i in active])
        fit = scipy.optimize.lsq_linear(g, stack(cs, problem.cost_free),
                                        bounds=(lower, np.full(len(active), np.inf)), method="bvls")
        fitted[active] = fit.x

    def dual_reason(y):
        reasons = [primal_reason] if primal_reason else []
        if iq.size and float(np.min(y[iq])) < -1e-6:
            reasons.append(f"inequality multiplier {float(np.min(y[iq])):.2e}")
        for j, c in enumerate(cs):
            w = np.linalg.eigvalsh(c - sum(yi * row[j] for yi, row in zip(y, a)))
            if w[0] < -1e-6 * (1.0 + max(abs(w[0]), abs(w[-1]))):
                reasons.append(f"slack block {j} has eigenvalue {w[0]:.2e}")
        scale = 1.0 + sum(float(np.linalg.norm(c)) for c in cs) + float(np.max(np.abs(y), initial=0.0))
        off = problem.cost_free - sum(yi * con.free for yi, con in zip(y, problem.constraints))
        if off.size and float(np.max(np.abs(off))) > 1e-6 * scale:
            reasons.append(f"free stationarity off by {float(np.max(np.abs(off))):.2e}")
        if not _close(pobj, float(b @ y)):
            reasons.append(f"duality gap {pobj - float(b @ y):.2e}")
        return "; ".join(reasons)

    for y in (np.asarray(lam, dtype=float), fitted):
        reason = dual_reason(y)
        if not reason:
            return pobj, float(b @ y), ""
    return pobj, float(b @ fitted), reason


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= OBJ_TOL * (1.0 + abs(ref))


def run_operation(op: Operation, config: SolverConfig):
    """One call into the pipeline; the benchmark times exactly this."""
    if op.kind == "staircase":
        return certification.staircase_solve(op.problem, config, ranks=op.ranks)
    if op.kind == "m_prime":
        return factorization.m_prime_inequality(op.problem)
    return oracle.oracle_solve(op.problem)


class OperationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OperationTimeout("operation still running at the run's deadline")


def run_pass(ops, refs, config: SolverConfig, deadline: float | None = None) -> list[Outcome]:
    """Run and check every operation once.  An operation that raises, or is
    still running at `deadline` (a ``time.perf_counter`` reading), is recorded
    as failed; none stops the pass."""
    previous = signal.signal(signal.SIGALRM, _on_alarm) if deadline else None
    outcomes = []
    try:
        for op, ref in zip(ops, refs):
            if deadline:
                signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 1e-3))
            start = time.perf_counter()
            try:
                result, error = run_operation(op, config), None
            except Exception as exc:  # counted as a failure, reported by the caller
                result, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                seconds = time.perf_counter() - start
                if deadline:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
            out = Outcome(op, seconds, result, error)
            if error is None:
                check(out, ref)
            outcomes.append(out)
    finally:
        if deadline:
            signal.signal(signal.SIGALRM, previous)
    return outcomes


def check(out: Outcome, ref: float | None) -> None:
    """Fill in ok / certified / detail for an operation that returned."""
    op, res = out.op, out.result
    if op.kind == "m_prime":
        out.ok = ref is not None and res.m_prime == int(ref)
        out.detail = f"m'={res.m_prime} ref={ref}"
        return
    if op.kind == "staircase":
        out.certified = res.verdict == "GlobalOptimal"
        gap = f" |gap|={abs(res.certificate.duality_gap):.2e}" if out.certified else ""
        out.detail = f"{res.verdict} stages={len(res.stages)}{gap}"
    else:
        out.certified = abs(res.gap) <= 1e-6 * (1.0 + abs(res.objective))
        out.detail = f"ipm_iters={res.iterations} gap={res.gap:.2e}"
    value = res.objective
    if op.maxcut:
        if op.kind == "staircase":
            y = res.state.point.factors[0]
            x = y @ y.T
        else:
            x = res.X.psd_blocks[0].to_dense()
        lower, upper = maxcut_bounds(op.problem, x)
        out.ok = _close(value, lower) and _close(upper, lower)
        out.detail += f" obj={value:.10g} bounds=[{lower:.10g}, {upper:.10g}]"
    elif ref is None and op.kind == "staircase":
        pobj, dobj, reason = kkt_bounds(op.problem, res.state.point, res.state.lam)
        out.ok = not reason and _close(value, dobj)
        out.detail += (f" obj={value:.10g} oracle failed; rebuilt KKT pair primal={pobj:.10g}"
                       f" dual={dobj:.10g}" + (f" ({reason})" if reason else ""))
    elif ref is None:
        out.detail += " no reference: the oracle failed on this instance"
    else:
        out.ok = _close(value, ref)
        out.detail += f" obj={value:.10g} ref={ref:.10g}"
