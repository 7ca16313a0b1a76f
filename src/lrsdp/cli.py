"""Command-line frontend: solve, certify, bound, experiment.

Reports are JSON on stdout (or --out) with floats at 17 significant digits;
identical flags and seeds reproduce identical bytes.  Wall-clock timing is
only emitted under --timing, since it would break that reproducibility.

Exit codes: 0 certified globally optimal, 1 usage/parse errors, 2 not
certified (indeterminate or escapable), 3 infeasible, 4 numerical failure
(a non-finite local evaluation or an interior-point stall); ``main`` maps
``UsageError`` and the last two for every subcommand.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

import numpy as np

from . import oracle
from .apps import adversarial_instance, build_sensing_psd, generate_random
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
    NotPsdError,
    factor,
    m_prime_conic,
    m_prime_inequality,
    single_factor_block,
)
from .model import (
    BlockStructure,
    ConicSdpProblem,
    PrimalPoint,
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
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from exc
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
    free = None
    pos = 0
    header_fields = {"factor": 3, "tail": 2, "free": 2}

    def take_rows(count, width):
        nonlocal pos
        rows = []
        # a zero-width row is written blank, and blank lines were dropped
        for _ in range(count if width else 0):
            if pos >= len(lines):
                raise ValueError("point file ended early")
            vals = [float(t) for t in lines[pos].split()]
            if len(vals) != width:
                raise ValueError(f"expected {width} values per row, got {len(vals)}")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite value in point file line {lines[pos]!r}")
            rows.append(vals)
            pos += 1
        return np.array(rows).reshape(count, width)

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
            tail = take_rows(n, n)
            if not np.array_equal(tail, tail.T):
                raise ValueError(f"tail block {len(tails)} is not symmetric")
            tails.append(SymmetricMatrix.from_dense(tail))
        else:
            if free is not None:
                raise ValueError("point file has a second free section")
            free = take_rows(1, int(toks[1]))[0]
    return FactorizedPoint(tuple(factors), tuple(tails), np.zeros(0) if free is None else free)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """A usage or input error: ``main`` prints it as an ``error:`` line and exits 1."""


def _load_problem(path: str) -> ConicSdpProblem:
    try:
        with open(path) as fh:
            problem = read_problem(fh.read())
    except (OSError, ProblemFormatError) as exc:
        raise UsageError(exc) from exc
    diags = validate(problem)
    if diags:
        raise UsageError("; ".join(diags))
    return problem


def _config_from_args(args) -> SolverConfig:
    """The flags given, over ``SolverConfig``'s defaults (a flag not given parses as None)."""
    given = {name: getattr(args, name) for name in ("tol", "max_outer", "restarts")}
    return SolverConfig(seed=args.seed, **{k: v for k, v in given.items() if v is not None})


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
            "kkt": asdict(st.kkt),
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
    try:
        return oracle.oracle_solve(problem).objective
    except (oracle.MaxIterationsError, oracle.NotStrictlyFeasibleError, oracle.NoPsdBlockError) as exc:
        print(f"warning: oracle: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    problem = _load_problem(args.path)
    cfg = _config_from_args(args)
    ranks = args.rank
    k = problem.structure.factorized_count
    if ranks is not None and len(ranks) != k:
        raise UsageError(f"--rank needs {k} comma-separated ranks, got {len(ranks)}")
    for j, (r, n) in enumerate(zip(ranks or (), problem.structure.psd_sizes)):
        if r > n:
            raise UsageError(f"--rank {r} for block {j} exceeds its size {n}")
    report = staircase_solve(problem, cfg, ranks=ranks)

    payload = _report_payload(problem, report, cfg, ranks, args.timing)
    if args.oracle:
        payload["final"]["oracle_objective"] = _oracle_objective(problem)
    _write_output(format_report(payload), args.out)
    return EXIT_OK if report.verdict == "GlobalOptimal" else EXIT_NOT_CERTIFIED


def cmd_certify(args) -> int:
    problem = _load_problem(args.path)
    try:
        with open(args.point) as fh:
            point = read_point(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(exc) from exc

    st = problem.structure
    k = st.factorized_count
    if len(point.factors) != k or len(point.tail_blocks) != st.num_blocks - k:
        raise UsageError("point block layout does not match the problem")
    for j, y in enumerate(point.factors):
        if y.shape[0] != st.psd_sizes[j]:
            raise UsageError(f"factor {j} has {y.shape[0]} rows, expected {st.psd_sizes[j]}")
    for j, sm in enumerate(point.tail_blocks):
        if sm.dim != st.psd_sizes[k + j]:
            raise UsageError(f"tail block {j} has dim {sm.dim}, expected {st.psd_sizes[k + j]}")
    if point.free.shape != (st.free_dim,):
        raise UsageError("free part length mismatch")
    try:
        factor(PrimalPoint(point.tail_blocks, point.free), [sm.dim for sm in point.tail_blocks])
    except NotPsdError as exc:
        raise UsageError(f"tail {exc}") from exc

    dp = densify(problem)
    licq = licq_check(dp, point)
    mult = estimate_multipliers(dp, point)
    cert = certify(dp, point, [mult], cert_tol=args.cert_tol)
    payload = {
        "problem": _problem_summary(problem),
        "objective": cert.objective,
        "multipliers": cert.multipliers.values,
        "multiplier_source": cert.multipliers.source,
        "kkt": asdict(cert.kkt),
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
    try:
        return [[int(v) for v in grp.split(",") if v != ""] for grp in text.split(";")]
    except ValueError:
        raise UsageError(f"--ranks takes integer ranks per tail block, as in '0,2;0,1', got {text!r}") from None


def cmd_bound(args) -> int:
    problem = _load_problem(args.path)
    st = problem.structure
    try:
        if single_factor_block(st):
            if args.ranks is not None:
                raise UsageError("--ranks sets tail rank ranges, and this problem has no tail block")
            report = m_prime_inequality(problem) if args.cap is None else m_prime_inequality(problem, args.cap)
        else:
            if args.cap is not None:
                raise UsageError("--cap bounds the m' enumeration, and this problem takes the conic formula")
            if args.ranks is not None:
                ranges = _parse_rank_ranges(args.ranks)
            else:
                ranges = [list(range(n + 1)) for n in st.tail_sizes]
            report = m_prime_conic(problem, ranges)
    except ValueError as exc:
        raise UsageError(exc) from exc

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

    if args.kind in ("genericity", "licq") and p > n:
        raise UsageError(f"{args.kind} needs --p of at most --n, got p = {p}, n = {n}")
    # the local solver's flags and --oracle act on genericity's staircase only
    solver_flags = {"--oracle": args.oracle or None, "--tol": args.tol,
                    "--max-outer": args.max_outer, "--restarts": args.restarts}
    given = [flag for flag, value in solver_flags.items() if value is not None]
    if given and args.kind != "genericity":
        raise UsageError(f"{given[0]} applies to genericity only, not {args.kind}")
    if args.kind == "adversarial" and p >= n:
        raise UsageError(f"adversarial needs --p below --n, got p = {p}, n = {n}")
    if args.kind == "adversarial" and m < 1:
        raise UsageError(f"adversarial needs --m of at least 1 (the trace row), got {m}")

    def genericity(seed: int) -> dict:
        problem = generate_random(BlockStructure((n,), 1, 0), m, "E" * m, seed)
        report = staircase_solve(problem, replace(cfg, seed=seed), ranks=[p])
        scale = 1.0 + abs(report.objective)
        first_rank = (
            report.verdict == "GlobalOptimal"
            and len(report.stages) == 1
            and abs(report.certificate.duality_gap) <= scale_tol * scale
        )
        rec = {
            "seed": seed,
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

    def adversarial(seed: int) -> dict:
        built = adversarial_instance(n, p, m, seed)
        point = built.planted_point
        dp = densify(built.problem)
        cert = certify(dp, point, [estimate_multipliers(dp, point)])
        return {
            "seed": seed,
            "verdict": cert.verdict,
            "rejected": cert.verdict != "GlobalOptimal",
            "stationarity": cert.kkt.stationarity,
            "slack_min_eig": cert.slack_min_eig,
        }

    def licq(seed: int) -> dict:
        built = build_sensing_psd(n, p, m, seed)
        res = licq_check(densify(built.problem), built.planted_point)
        return {
            "seed": seed,
            "holds": res.holds,
            "jacobian_rank": res.jacobian_rank,
            "active_count": res.active_count,
        }

    # kind -> (trial of a seed, payload fraction key, record flag it counts)
    trial, fraction, flag = {
        "genericity": (genericity, "fraction_certified_first_rank", "certified_first_rank"),
        "adversarial": (adversarial, "rejection_fraction", "rejected"),
        "licq": (licq, "pass_fraction", "holds"),
    }[args.kind]
    records = [trial(args.seed + t) for t in range(args.trials)]
    payload = {
        "kind": args.kind,
        "params": {"n": n, "m": m, "p": p, "trials": args.trials, "seed": args.seed},
        fraction: sum(r[flag] for r in records) / args.trials,
        "trials": records,
    }
    if args.oracle:
        payload["fraction_matching_oracle"] = sum(r["matches_oracle"] for r in records) / args.trials

    _write_output(format_report(payload), args.out)
    return EXIT_OK


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
        # None when not given: SolverConfig holds the defaults
        p.add_argument("--tol", type=_positive_float)
        p.add_argument("--max-outer", type=_int_at_least(1), dest="max_outer")
        p.add_argument("--restarts", type=_int_at_least(0))
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
    pb.add_argument("--cap", type=_int_at_least(0), default=None)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalFailure, oracle.MaxIterationsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
