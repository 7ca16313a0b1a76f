"""Oracle corpus sweep: ``oracle_solve`` over two benchmark corpora.

Solves every instance of the ``staircase`` workload in
``benchmarks/workloads.py``, seeds 1-10 and draws 0-5 (2640 instances), and
the ``oracle`` workload's ``oracle_solve`` instances, MaxCut n=30 and n=40 at
the same seeds and draws (120 instances), with
``oracle_solve(tol=1e-9, max_iter=200)``.  Dense staircase rows mostly take
the Gram rule of the Schur complement, MaxCut's one-entry rows the pair rule.
It writes the objectives of each section as JSON, null where that first
attempt raises (a stall).  A stalled instance is retried through
``workloads.oracle_objective``; those that fail there too have lost their
reference and are listed under ``lost``; the run then exits with status 1.

With ``--against`` a saved run it prints, per section, both stall counts, how
many instances leave and join the stalled set, and the worst relative
objective difference, |a - b| / max(1, |b|), over the instances both runs
solve.  pytest does not collect this file; run it from the root of a checkout:

    python tests/oracle_sweep.py --out sweep.json [--against saved.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from lrsdp import oracle  # noqa: E402

SEEDS, DRAWS = range(1, 11), range(6)
SECTIONS = {"staircase": "staircase", "maxcut": "oracle"}  # section -> benchmark workload


def sweep() -> dict:
    run = {}
    for section, workload in SECTIONS.items():
        objectives, lost = {}, []
        for seed in SEEDS:
            for draw in DRAWS:
                for op in workloads.build(workload, seed, draw):
                    if op.kind == "m_prime":
                        continue
                    key = f"{seed}/{draw}/{op.name}"
                    try:
                        objectives[key] = oracle.oracle_solve(op.problem, tol=1e-9, max_iter=200).objective
                    except workloads.ORACLE_ERRORS:
                        objectives[key] = None
                        try:
                            workloads.oracle_objective(op.problem)
                        except workloads.ORACLE_ERRORS:
                            lost.append(key)
        run[section] = {"objectives": objectives, "lost": lost}
    return run


def compare(new: dict, old: dict) -> None:
    stalled_new = {k for k, v in new["objectives"].items() if v is None}
    stalled_old = {k for k, v in old["objectives"].items() if v is None}
    print(f"  first-attempt stalls: {len(stalled_old)} saved -> {len(stalled_new)} now; "
          f"{len(stalled_old - stalled_new)} leave the stalled set, {len(stalled_new - stalled_old)} join it")
    both = [k for k, v in new["objectives"].items() if v is not None and old["objectives"].get(k) is not None]
    diff = {k: abs(new["objectives"][k] - old["objectives"][k]) / max(1.0, abs(old["objectives"][k])) for k in both}
    worst = max(diff, key=diff.get, default=None)
    print(f"  worst relative objective difference over {len(both)} instances both solve: "
          + (f"{diff[worst]:.2e} ({worst})" if worst else "none"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file for this run's objectives")
    parser.add_argument("--against", help="a saved run to compare with")
    args = parser.parse_args()
    run = sweep()
    Path(args.out).write_text(json.dumps(run, indent=1) + "\n")
    saved = json.loads(Path(args.against).read_text()) if args.against else {}
    for section, part in run.items():
        stalls = sum(v is None for v in part["objectives"].values())
        print(f"{section}: {len(part['objectives'])} instances, {stalls} first-attempt stalls")
        print(f"  lost after retries: {', '.join(part['lost']) or 'none'}")
        if section in saved:
            compare(part, saved[section])
        elif args.against:
            print("  no such section in the saved run")
    sys.exit(1 if any(part["lost"] for part in run.values()) else 0)


if __name__ == "__main__":
    main()
