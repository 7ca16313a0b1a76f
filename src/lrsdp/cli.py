"""Command-line frontend: solve, certify, bound, experiment.

Reports are JSON on stdout (or --out) with floats at 17 significant digits;
identical flags and seeds reproduce identical bytes.  Wall-clock timing is
only emitted under --timing, since it would break that reproducibility.

Exit codes: 0 certified globally optimal, 1 usage/parse errors, 2 not
certified (indeterminate or escapable), 3 infeasible, 4 numerical failure;
``main`` maps the last two for every subcommand.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .apps import adversarial_instance, generate_random
from .certification import (
    CERT_TOL,
    certify,
    estimate_multipliers,
    licq_check,
    staircase_solve,
)
from .dense import densify
from .factorization import (
    FactorizedPoint,
    lift,
    m_prime_conic,
    m_prime_inequality,
)
from .model import (
    BlockStructure,
    ConicSdpProblem,
    ProblemFormatError,
    SymmetricMatrix,
    read_problem,
    validate,
)
from .solver import InfeasibleError, NumericalFailure, SolverConfig

__all__ = ["main", "cmd_solve", "cmd_certify", "cmd_bound", "cmd_experiment",
           "read_point", "write_point", "format_report"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CERTIFIED = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# deterministic JSON with 17 significant digits
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return f"{x:.17g}"


def format_report(obj) -> str:
    """Serialize nested dict/list/scalar data to deterministic JSON text."""
    parts: list[str] = []

    def emit(o):
        if o is None:
            parts.append("null")
        elif isinstance(o, bool) or isinstance(o, np.bool_):
            parts.append("true" if o else "false")
        elif isinstance(o, (int, np.integer)):
            parts.append(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            parts.append(_fmt_float(float(o)))
        elif isinstance(o, str):
            parts.append('"' + o.replace("\\", "\\\\").replace('"', '\\"') + '"')
        elif isinstance(o, np.ndarray):
            emit(o.tolist())
        elif isinstance(o, dict):
            parts.append("{")
            for t, (key, val) in enumerate(o.items()):
                if t:
                    parts.append(",")
                emit(str(key))
                parts.append(":")
                emit(val)
            parts.append("}")
        elif isinstance(o, (list, tuple)):
            parts.append("[")
            for t, val in enumerate(o):
                if t:
                    parts.append(",")
                emit(val)
            parts.append("]")
        else:
            raise TypeError(f"cannot serialize {type(o)!r}")

    emit(obj)
    return "".join(parts)


def _write_output(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# point files: labeled dense sections, row-major
# ---------------------------------------------------------------------------


def write_point(point: FactorizedPoint) -> str:
    out = []
    for y in point.factors:
        n, p = y.shape
        out.append(f"factor {n} {p}")
        for row in y:
            out.append(" ".join(f"{v:.17g}" for v in row))
    for sm in point.tail_blocks:
        out.append(f"tail {sm.dim}")
        for row in sm.to_dense():
            out.append(" ".join(f"{v:.17g}" for v in row))
    if point.free.size:
        out.append(f"free {point.free.size}")
        out.append(" ".join(f"{v:.17g}" for v in point.free))
    return "\n".join(out) + "\n"


def read_point(text: str) -> FactorizedPoint:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith('"')
    ]
    factors, tails = [], []
    free = np.zeros(0)
    pos = 0
    header_fields = {"factor": 3, "tail": 2, "free": 2}

    def take_rows(count, width):
        nonlocal pos
        rows = []
        for _ in range(count):
            if pos >= len(lines):
                raise ValueError("point file ended early")
            vals = [float(t) for t in lines[pos].split()]
            if len(vals) != width:
                raise ValueError(f"expected {width} values per row, got {len(vals)}")
            rows.append(vals)
            pos += 1
        return np.array(rows)

    while pos < len(lines):
        toks = lines[pos].split()
        pos += 1
        if toks[0] not in header_fields:
            raise ValueError(f"unknown point section {toks[0]!r}")
        if len(toks) != header_fields[toks[0]]:
            raise ValueError(
                f"point section header {lines[pos - 1]!r} needs {header_fields[toks[0]]} fields"
            )
        if toks[0] == "factor":
            n, p = int(toks[1]), int(toks[2])
            factors.append(take_rows(n, p))
        elif toks[0] == "tail":
            n = int(toks[1])
            tails.append(SymmetricMatrix.from_dense(take_rows(n, n)))
        else:
            d = int(toks[1])
            free = take_rows(1, d)[0]
    return FactorizedPoint(tuple(factors), tuple(tails), free)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _load_problem(path: str) -> ConicSdpProblem:
    with open(path) as fh:
        problem = read_problem(fh.read())
    diags = validate(problem)
    if diags:
        raise ProblemFormatError("; ".join(diags))
    return problem


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        tol=args.tol,
        max_outer=args.max_outer,
        seed=args.seed,
        restarts=args.restarts,
    )


def _problem_summary(problem: ConicSdpProblem) -> dict:
    return {
        "name": problem.name,
        "n_blocks": problem.structure.num_blocks,
        "m": problem.m,
        "kinds": problem.kinds,
    }


def _config_summary(cfg: SolverConfig, rank_override) -> dict:
    return {
        "outer_tol": cfg.tol,
        "feas_tol": cfg.tol,
        "max_outer": cfg.max_outer,
        "restarts": cfg.restarts,
        "seed": cfg.seed,
        "rank_override": list(rank_override) if rank_override else None,
    }


def _report_payload(problem, report, cfg, rank_override, timing: bool) -> dict:
    trace = [
        {
            "rank": list(st.ranks),
            "objective": st.objective,
            "kkt": st.kkt.as_dict(),
            "slack_min_eig": st.slack_min_eig,
            "verdict": st.verdict,
            "action": st.action,
            "seed": st.seed,
        }
        for st in report.stages
    ]
    final = {
        "verdict": report.verdict,
        "objective": report.objective,
        "gap_vs_dual": report.certificate.duality_gap,
        "time_ms": report.time_s * 1e3 if timing else None,
        "seed": report.seed,
    }
    return {
        "problem": _problem_summary(problem),
        "config": _config_summary(cfg, rank_override),
        "rank_bound": {
            "m_prime": report.rank_bound.m_prime,
            "p_per_block": list(report.rank_bound.p_per_block),
            "method": report.rank_bound.method,
        },
        "trace": trace,
        "final": final,
    }


def _oracle_objective(problem: ConicSdpProblem) -> float | None:
    """The interior-point oracle's optimum, or None with a warning line on
    stderr when it stalls, finds no strictly feasible point or no PSD block."""
    from .oracle import MaxIterationsError, NoPsdBlockError, NotStrictlyFeasibleError, oracle_solve

    try:
        return oracle_solve(problem).objective
    except (MaxIterationsError, NotStrictlyFeasibleError, NoPsdBlockError) as exc:
        print(f"warning: oracle: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    try:
        problem = _load_problem(args.path)
    except (OSError, ProblemFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    cfg = _config_from_args(args)
    ranks = args.rank
    k = problem.structure.factorized_count
    if ranks is not None and len(ranks) != k:
        print(f"error: --rank needs {k} comma-separated ranks, got {len(ranks)}", file=sys.stderr)
        return EXIT_USAGE
    report = staircase_solve(problem, cfg, ranks=ranks)

    payload = _report_payload(problem, report, cfg, ranks, args.timing)
    if args.oracle:
        payload["final"]["oracle_objective"] = _oracle_objective(problem)
    _write_output(format_report(payload), args.out)
    return EXIT_OK if report.verdict == "GlobalOptimal" else EXIT_NOT_CERTIFIED


def cmd_certify(args) -> int:
    try:
        problem = _load_problem(args.path)
        with open(args.point) as fh:
            point = read_point(fh.read())
    except (OSError, ProblemFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    st = problem.structure
    k = st.factorized_count
    if len(point.factors) != k or len(point.tail_blocks) != st.num_blocks - k:
        print("error: point block layout does not match the problem", file=sys.stderr)
        return EXIT_USAGE
    for j, y in enumerate(point.factors):
        if y.shape[0] != st.psd_sizes[j]:
            print(f"error: factor {j} has {y.shape[0]} rows, expected {st.psd_sizes[j]}", file=sys.stderr)
            return EXIT_USAGE
    for j, sm in enumerate(point.tail_blocks):
        if sm.dim != st.psd_sizes[k + j]:
            print(f"error: tail block {j} has dim {sm.dim}, expected {st.psd_sizes[k + j]}", file=sys.stderr)
            return EXIT_USAGE
    if point.free.shape != (st.free_dim,):
        print("error: free part length mismatch", file=sys.stderr)
        return EXIT_USAGE

    dp = densify(problem)
    licq = licq_check(dp, point)
    mult = estimate_multipliers(dp, point)
    cert = certify(dp, point, [mult], cert_tol=args.cert_tol)
    payload = {
        "problem": _problem_summary(problem),
        "objective": lift(point).objective(problem),
        "multipliers": cert.multipliers.values,
        "multiplier_source": cert.multipliers.source,
        "kkt": cert.kkt.as_dict(),
        "slack_spectrum": [list(s) for s in cert.slack_spectrum],
        "duality_gap": cert.duality_gap,
        "verdict": cert.verdict,
        "licq": {
            "holds": licq.holds,
            "jacobian_rank": licq.jacobian_rank,
            "active_count": licq.active_count,
        },
        "tolerances": cert.tolerances,
    }
    _write_output(format_report(payload), args.out)
    return EXIT_OK if cert.verdict == "GlobalOptimal" else EXIT_NOT_CERTIFIED


def _parse_rank_ranges(text: str) -> list[list[int]]:
    return [[int(v) for v in grp.split(",") if v != ""] for grp in text.split(";")]


def cmd_bound(args) -> int:
    try:
        problem = _load_problem(args.path)
    except (OSError, ProblemFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    st = problem.structure
    try:
        if st.num_blocks == 1 and st.free_dim == 0 and st.factorized_count == 1:
            if args.ranks:
                raise ValueError("--ranks sets tail rank ranges, and this problem has no tail block")
            report = m_prime_inequality(problem, cap=args.cap)
        else:
            if args.ranks:
                ranges = _parse_rank_ranges(args.ranks)
            else:
                ranges = [list(range(n + 1)) for n in st.tail_sizes]
            report = m_prime_conic(problem, ranges)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    payload = {
        "m_prime": report.m_prime,
        "p_per_block": list(report.p_per_block),
        "method": report.method,
    }
    _write_output(format_report(payload), args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _config_from_args(args)
    n, m, p = args.n, args.m, args.p
    scale_tol = 1e-6

    if args.kind == "genericity":
        def trial(t: int):
            problem = generate_random(BlockStructure((n,), 1, 0), m, "E" * m, args.seed + t)
            report = staircase_solve(problem, replace(cfg, seed=args.seed + t), ranks=[p])
            scale = 1.0 + abs(report.objective)
            first_rank = (
                report.verdict == "GlobalOptimal"
                and len(report.stages) == 1
                and abs(report.certificate.duality_gap) <= scale_tol * scale
            )
            rec = {
                "seed": args.seed + t,
                "verdict": report.verdict,
                "stages": len(report.stages),
                "objective": report.objective,
                "gap": report.certificate.duality_gap,
                "slack_min_eig": report.certificate.slack_min_eig,
                "certified_first_rank": first_rank,
            }
            if args.oracle:
                obj = _oracle_objective(problem)
                rec["oracle_objective"] = obj
                rec["matches_oracle"] = obj is not None and (
                    abs(report.objective - obj) <= 1e-5 * (1.0 + abs(obj))
                )
            return rec

        records = [trial(t) for t in range(args.trials)]
        payload = {
            "kind": "genericity",
            "params": {"n": n, "m": m, "p": p, "trials": args.trials, "seed": args.seed},
            "fraction_certified_first_rank": sum(r["certified_first_rank"] for r in records) / args.trials,
            "trials": records,
        }
        if args.oracle:
            payload["fraction_matching_oracle"] = sum(r["matches_oracle"] for r in records) / args.trials

    elif args.kind == "adversarial":
        if p >= n:
            print(f"error: adversarial needs --p below --n, got p = {p}, n = {n}", file=sys.stderr)
            return EXIT_USAGE
        if m < 1:
            print(f"error: adversarial needs --m of at least 1 (the trace row), got {m}", file=sys.stderr)
            return EXIT_USAGE

        def trial(t: int):
            built = adversarial_instance(n, p, m, args.seed + t)
            point = built.planted_point
            dp = densify(built.problem)
            cert = certify(dp, point, [estimate_multipliers(dp, point)])
            return {
                "seed": args.seed + t,
                "verdict": cert.verdict,
                "rejected": cert.verdict != "GlobalOptimal",
                "stationarity": cert.kkt.stationarity,
                "slack_min_eig": cert.slack_min_eig,
            }

        records = [trial(t) for t in range(args.trials)]
        payload = {
            "kind": "adversarial",
            "params": {"n": n, "m": m, "p": p, "trials": args.trials, "seed": args.seed},
            "rejection_fraction": sum(r["rejected"] for r in records) / args.trials,
            "trials": records,
        }

    elif args.kind == "licq":
        def trial(t: int):
            rng = np.random.default_rng(args.seed + t)
            y0 = rng.standard_normal((n, p))
            problem = _licq_instance(rng, n, m, y0)
            res = licq_check(densify(problem), FactorizedPoint((y0,), (), np.zeros(0)))
            return {
                "seed": args.seed + t,
                "holds": res.holds,
                "jacobian_rank": res.jacobian_rank,
                "active_count": res.active_count,
            }

        records = [trial(t) for t in range(args.trials)]
        payload = {
            "kind": "licq",
            "params": {"n": n, "m": m, "p": p, "trials": args.trials, "seed": args.seed},
            "pass_fraction": sum(r["holds"] for r in records) / args.trials,
            "trials": records,
        }
    else:
        print(f"error: unknown experiment kind {args.kind!r}", file=sys.stderr)
        return EXIT_USAGE

    _write_output(format_report(payload), args.out)
    return EXIT_OK


def _licq_instance(rng: np.random.Generator, n: int, m: int, y0: np.ndarray) -> ConicSdpProblem:
    """Random equality map with b taken at a feasible factor (entries nonzero)."""
    from .model import Constraint, ConstraintKind, CooSymmetric

    x0 = y0 @ y0.T
    cons = []
    while len(cons) < m:
        a = 0.5 * (lambda g: g + g.T)(rng.standard_normal((n, n)))
        a /= np.linalg.norm(a)
        bi = float(np.tensordot(a, x0))
        if abs(bi) < 1e-10:
            continue
        cons.append(Constraint((CooSymmetric.from_dense(a),), np.zeros(0), bi, ConstraintKind.EQUALITY))
    cost = SymmetricMatrix.from_dense(np.eye(n))
    return ConicSdpProblem.normalized(BlockStructure((n,), 1, 0), (cost,), np.zeros(0), cons)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


_positive_float.__name__ = "float"  # argparse names the type in "invalid float value"


def _rank_list(text: str) -> list[int]:
    return [_int_at_least(1)(t) for t in text.split(",") if t != ""]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lrsdp", description="Certified low-rank SDP solver")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--tol", type=_positive_float, default=1e-8)
        p.add_argument("--max-outer", type=_int_at_least(1), default=50, dest="max_outer")
        p.add_argument("--restarts", type=_int_at_least(0), default=3)
        p.add_argument("--out", default=None)

    ps = sub.add_parser("solve", help="staircase solve + certificate")
    ps.add_argument("path")
    ps.add_argument("--rank", type=_rank_list, default=None)
    ps.add_argument("--oracle", action="store_true")
    ps.add_argument("--timing", action="store_true")
    common(ps)
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("certify", help="certificate for a given point")
    pc.add_argument("path")
    pc.add_argument("point")
    pc.add_argument("--cert-tol", type=_positive_float, default=CERT_TOL, dest="cert_tol")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_certify)

    pb = sub.add_parser("bound", help="rank bound report (m', p per block)")
    pb.add_argument("path")
    pb.add_argument("--ranks", default=None, help="tail rank ranges, e.g. '0,1;0,3'")
    pb.add_argument("--cap", type=_int_at_least(0), default=20)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_bound)

    pe = sub.add_parser("experiment", help="seeded statistical experiments")
    pe.add_argument("kind", choices=["genericity", "adversarial", "licq"])
    pe.add_argument("--n", type=_int_at_least(1), default=12)
    pe.add_argument("--m", type=_int_at_least(0), default=8)
    pe.add_argument("--p", type=_int_at_least(1), default=4)
    pe.add_argument("--trials", type=_int_at_least(1), default=100)
    pe.add_argument("--oracle", action="store_true")
    common(pe)
    pe.set_defaults(func=cmd_experiment)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
