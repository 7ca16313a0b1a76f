"""Self-test of the benchmark: counters must repeat exactly.

    python3 benchmarks/selftest.py

Builds the small (``--tiny``) instances of every workload, runs each twice
under a fresh tracer and fails unless every operation passes its check and
every count-valued per-layer metric and every operation's output summary is
identical between the two runs.  Takes well under a minute.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from lrsdp.solver import SolverConfig  # noqa: E402
from tracing import Tracer, unit_of  # noqa: E402


def traced_counts(ops, refs) -> tuple[dict, list[str]]:
    tracer = Tracer()
    with tracer.installed():
        outcomes = workloads.run_pass(ops, refs, SolverConfig())
    bad = [f"{o.op.name}: {o.error or o.detail}" for o in outcomes if not o.ok]
    if bad:
        raise SystemExit("operations failed:\n  " + "\n  ".join(bad))
    counts = {k: v for k, v in tracer.layer_metrics().items() if unit_of(k) == "count"}
    return counts, [o.detail for o in outcomes]


def main() -> int:
    failures = 0
    for name in workloads.BUILDERS:
        ops = workloads.build(name, seed=7, tiny=True)
        refs = workloads.references(ops)
        first, second = traced_counts(ops, refs), traced_counts(ops, refs)
        diff = [k for k in first[0] if first[0][k] != second[0][k]]
        if first[1] != second[1]:
            diff.append("operation outputs")
        failures += bool(diff)
        print(f"{name:10s} {'ok' if not diff else 'MISMATCH ' + ', '.join(diff)}  "
              f"({len(ops)} operations, {len(first[0])} counters)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
