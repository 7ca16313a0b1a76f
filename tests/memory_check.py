"""Memory check: a staircase climb on dense constraint rows stays under a peak-RSS budget.

Runs ``staircase_solve(build_sensing_psd(40, 2, 200, 0).problem, SolverConfig())``
in this process: PSD matrix sensing with 200 dense measurement rows, whose
staircase climbs through 12 rank stages.  It prints the verdict, the stage
count, the objective and the process's peak resident set size, and exits with
status 1 unless the verdict is GlobalOptimal and the peak is at most
``PEAK_MB``.  A view that keeps a Jacobian scatter index for every rank the
climb visits takes this solve to about 2.6 GB.  pytest does not collect this
file; run it from the root of a checkout (about 20 s on 2 cores):

    python tests/memory_check.py
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrsdp.apps import build_sensing_psd  # noqa: E402
from lrsdp.certification import staircase_solve  # noqa: E402
from lrsdp.solver import SolverConfig  # noqa: E402

PEAK_MB = 1024.0


def main() -> int:
    report = staircase_solve(build_sensing_psd(40, 2, 200, 0).problem, SolverConfig())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    print(f"verdict={report.verdict} stages={len(report.stages)} "
          f"objective={report.objective!r} peak_rss_mb={peak_mb:.0f}")
    if report.verdict != "GlobalOptimal" or peak_mb > PEAK_MB:
        print(f"memory check failed: need GlobalOptimal within {PEAK_MB:.0f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
