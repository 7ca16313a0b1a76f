"""lrsdp benchmark: one seeded workload, every output checked, one JSON line.

    python3 benchmarks/run.py --workload maxcut --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``lrsdp`` from its
``src/``; with no ``src/lrsdp`` it exits with code 1 and prints no result.
BLAS is pinned to one thread here and in every child process.

A run draws ``max(3, seconds // 5)`` instance sets of the workload; draw d
is built from (seed, d), so the same arguments always measure the same
instances.  --trace 0 makes one pass over every draw and reports the
end-to-end metrics: wall_s (mean pass time over the fastest two thirds of
the draws), setup_s (median of several fresh-process set-ups:
imports plus building every draw), peak_rss_mb, certified_frac and
passed_frac.  --trace 1 runs every draw traced and reports the per-layer
metrics of ``tracing.py`` (medians over draws) plus the tracing overhead
(draw 0 traced minus draw 0 plain); the spans of the last traced pass go to
``benchmarks/.traces/``.

References (oracle objectives, unpruned m') are computed before any timed
region and cached by instance content in ``benchmarks/.cache/``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CACHE = HERE / ".cache"
TRACES = HERE / ".traces"

PASS_S = 5          # nominal seconds of one pass; sets the number of draws
SETUP_PROBES = 5
# an operation still running this long after start-up counts as failed, which
# keeps every run inside its 180-s limit with time left to report
RUN_LIMIT_S = 165.0


def _import_program():
    if not (SRC / "lrsdp" / "__init__.py").is_file():
        sys.exit(f"error: no lrsdp sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import lrsdp

    if Path(lrsdp.__file__).resolve().parent != (SRC / "lrsdp").resolve():
        sys.exit(f"error: imported lrsdp from {lrsdp.__file__}, not from {SRC}")


def _build_all(workloads, args) -> list:
    draws = max(3, int(args.seconds // PASS_S))
    return [workloads.build(args.workload, args.seed, d) for d in range(draws)]


def _setup_seconds(args) -> float:
    """Median over fresh interpreters of imports plus building every draw."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _references(workloads, ops) -> list:
    """References per operation, cached under a digest of the instance."""
    from lrsdp.model import write_problem

    refs = []
    for op in ops:
        key = hashlib.sha1(f"{op.kind}:{op.maxcut}\n{write_problem(op.problem)}".encode())
        path = CACHE / f"{key.hexdigest()}.json"
        if not path.is_file():
            CACHE.mkdir(exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(workloads.references([op])[0]))
            tmp.replace(path)
        refs.append(json.loads(path.read_text()))
    return refs


def _report(outcomes, stream) -> None:
    for out in outcomes:
        status = "ok  " if out.ok else "FAIL"
        text = out.error if out.error else out.detail
        print(f"  {status} {out.op.name:28s} {out.seconds:8.3f} s  {text}", file=stream)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("maxcut", "staircase", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    if args.setup_probe:
        import workloads

        _build_all(workloads, args)
        print(time.perf_counter() - T0)
        return 0

    setup_s = None if args.trace else _setup_seconds(args)

    import workloads
    from lrsdp.solver import SolverConfig
    from tracing import Tracer, unit_of

    draws = _build_all(workloads, args)
    refs = [_references(workloads, ops) for ops in draws]
    config = SolverConfig()
    print(f"# workload={args.workload} seed={args.seed} draws={len(draws)} "
          f"ops/draw={len(draws[0])} nproc={os.cpu_count()} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}", file=sys.stderr)

    # warm-up: the small instances run the same code paths once, untimed, so
    # the first timed pass does not pay for lazy imports and first calls
    tiny = workloads.build(args.workload, args.seed, tiny=True)
    workloads.run_pass(tiny, [None] * len(tiny), config, T0 + RUN_LIMIT_S)

    plain_walls, traced_walls, layer_samples, outcomes_all = [], [], [], []
    tracer = None
    for d, (ops, ref) in enumerate(zip(draws, refs)):
        # a traced run times draw 0 plain as well, for the tracing overhead
        if not args.trace or d == 0:
            outcomes = workloads.run_pass(ops, ref, config, T0 + RUN_LIMIT_S)
            plain_walls.append(sum(o.seconds for o in outcomes))
            outcomes_all.extend(outcomes)
            _report(outcomes if d == 0 else [o for o in outcomes if not o.ok], sys.stderr)
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                outcomes = workloads.run_pass(ops, ref, config, T0 + RUN_LIMIT_S)
            traced_walls.append(sum(o.seconds for o in outcomes))
            outcomes_all.extend(outcomes)
            _report([o for o in outcomes if not o.ok], sys.stderr)
            layer = tracer.layer_metrics()
            # computed, not measured: bytes of the dense (m, n_j, n_j) stacks
            layer["dense.operator_mb"] = max(
                op.problem.m * sum(n * n for n in op.problem.structure.psd_sizes) * 8 / 1e6
                for op in ops
            )
            layer_samples.append(layer)

    attempted = len(outcomes_all)
    failed = sum(not o.ok for o in outcomes_all)
    certifiable = [o for o in outcomes_all if o.certified is not None]
    certified = sum(o.certified for o in certifiable)

    if args.trace:
        TRACES.mkdir(exist_ok=True)
        tracer.write(TRACES / f"{args.workload}-seed{args.seed}.json")
        metrics = {
            name: {"value": statistics.median(sample[name] for sample in layer_samples),
                   "unit": unit_of(name)}
            for name in layer_samples[0]
        }
        metrics["trace.overhead_s"] = {"value": traced_walls[0] - plain_walls[0], "unit": "s"}
    else:
        # slowdowns are one-sided (a slow instance, a slow spell of the
        # machine), so the slowest third of the draws is dropped
        fastest = sorted(plain_walls)[: len(plain_walls) - len(plain_walls) // 3]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.mean(fastest), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "certified_frac": {"value": certified / len(certifiable) if certifiable else 0.0,
                               "unit": "ratio"},
            "passed_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(f"# pass walls={[round(w, 3) for w in plain_walls]}"
          + (f" traced={[round(w, 3) for w in traced_walls]}" if args.trace else ""), file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
