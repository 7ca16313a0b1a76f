"""Spans and counters recorded around the public functions of each layer.

The pipeline reaches every layer through module attributes (``certification``
imports ``al_solve`` and ``densify`` by name, ``factorization`` looks up
``active_subset_feasible`` on ``oracle`` at call time, and so on).  ``Tracer``
swaps those attributes for wrappers that record a span per call (name, start,
end, parent span) and derive counters from the value the call returns.  The
program itself is not changed; the originals are restored on exit.

Layers are the modules of ``src/lrsdp``.  ``model`` and ``apps`` only build
instances and ``cli`` is a front end, so none of the three is wrapped.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

from lrsdp import certification, factorization, oracle, solver

# (span name, module, attribute) for every attribute the pipeline calls through
PATCHES = (
    ("certification.staircase_solve", certification, "staircase_solve"),
    ("solver.al_solve", certification, "al_solve"),
    ("solver.al_value_grad", certification, "al_value_grad"),
    ("dense.densify", solver, "densify"),
    ("dense.densify", certification, "densify"),
    ("dense.densify", oracle, "densify"),
    ("certification.estimate_multipliers", certification, "estimate_multipliers"),
    ("certification.kkt_residuals", certification, "kkt_residuals"),
    ("certification.licq_check", certification, "licq_check"),
    ("certification.certify", certification, "certify"),
    ("certification.escape_direction", certification, "escape_direction"),
    ("factorization.initial_rank_bound", certification, "initial_rank_bound"),
    ("factorization.m_prime_inequality", factorization, "m_prime_inequality"),
    ("oracle.oracle_solve", oracle, "oracle_solve"),
    ("oracle.active_subset_feasible", oracle, "active_subset_feasible"),
)


def _count_al_solve(counts: Counter, args: dict, result) -> None:
    state, trace = result
    problem, config = args["problem"], args["config"]
    st = problem.structure
    ranks = list(args["ranks"]) + list(st.psd_sizes[st.factorized_count:])
    counts["solver.outer_iters"] += len(trace)
    counts["solver.inner_steps"] += sum(rec["inner_accepted"] for rec in trace)
    counts["solver.unconverged"] += not state.converged
    counts["solver.rho_capped_iters"] += sum(rec["rho"] >= config.penalty_cap for rec in trace)
    # order of the dense curvature-probe Hessian: tail blocks enter at full rank
    dim = sum(n * q for n, q in zip(st.psd_sizes, ranks)) + st.free_dim
    counts["solver.probe_dim_max"] = max(counts["solver.probe_dim_max"], dim)


def _count_staircase(counts: Counter, args: dict, report) -> None:
    bound = report.rank_bound.p_per_block
    actions = Counter(stage.action for stage in report.stages)
    counts["certification.stages"] += len(report.stages)
    counts["certification.rank_increments"] += actions["rank-increment"]
    counts["certification.kernel_escapes"] += actions["kernel-escape"]
    counts["certification.restarts"] += actions["restart"]
    if report.verdict == "GlobalOptimal":
        counts["certification.certified"] += 1
        gap = abs(report.certificate.duality_gap)
        counts["certification.max_abs_gap"] = max(counts["certification.max_abs_gap"], gap)
    counts["certification.rank_over_bound"] += sum(
        any(r > p for r, p in zip(stage.ranks, bound)) for stage in report.stages
    )


def _count_oracle(counts: Counter, args: dict, solution) -> None:
    counts["oracle.ipm_iters"] += solution.iterations


def _count_feasibility(counts: Counter, args: dict, feasible: bool) -> None:
    counts["oracle.feasible"] += bool(feasible)


COUNTERS = {
    "solver.al_solve": _count_al_solve,
    "certification.staircase_solve": _count_staircase,
    "oracle.oracle_solve": _count_oracle,
    "oracle.active_subset_feasible": _count_feasibility,
}


def unit_of(name: str) -> str:
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    if name.endswith(("_frac", "_per_cert")):
        return "ratio"
    if name.endswith("_gap"):
        return "objective"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class Tracer:
    """In-memory spans plus counters; ``installed()`` wraps the pipeline."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for _, module, attr in PATCHES]
        try:
            for (name, module, attr), (_, _, fn) in zip(PATCHES, saved):
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                fh,
            )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of everything recorded since construction."""
        total = Counter()
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        staircase_self = sum(
            end - start - child[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == "certification.staircase_solve"
        )
        # multiplier fits made for the staircase's choice of multipliers; the
        # kkt_residuals call inside certify is part of certify_s
        multipliers = sum(
            end - start
            for name, start, end, parent in self.spans
            if name in ("certification.estimate_multipliers", "certification.kkt_residuals")
            and (parent < 0 or self.spans[parent][0] != "certification.certify")
        )
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        al_s = total["solver.al_solve"]
        return {
            "solver.al_solve_s": al_s,
            "solver.al_solve_calls": calls["solver.al_solve"],
            "solver.outer_iters": c["solver.outer_iters"],
            "solver.inner_steps": c["solver.inner_steps"],
            "solver.unconverged": c["solver.unconverged"],
            "solver.rho_capped_iters": c["solver.rho_capped_iters"],
            "solver.s_per_outer": ratio(al_s, c["solver.outer_iters"]),
            "solver.probe_dim_max": c["solver.probe_dim_max"],
            "solver.al_value_grad_calls": calls["solver.al_value_grad"],
            "solver.al_value_grad_s": total["solver.al_value_grad"],
            "dense.densify_calls": calls["dense.densify"],
            "dense.densify_s": total["dense.densify"],
            "certification.staircase_self_s": staircase_self,
            "certification.certify_s": total["certification.certify"],
            "certification.multipliers_s": multipliers,
            "certification.licq_s": total["certification.licq_check"],
            "certification.escape_s": total["certification.escape_direction"],
            "certification.stages": c["certification.stages"],
            "certification.rank_increments": c["certification.rank_increments"],
            "certification.kernel_escapes": c["certification.kernel_escapes"],
            "certification.restarts": c["certification.restarts"],
            "certification.stages_per_cert": ratio(
                c["certification.stages"], c["certification.certified"]
            ),
            "certification.rank_over_bound": c["certification.rank_over_bound"],
            "certification.max_abs_gap": c["certification.max_abs_gap"],
            "factorization.rank_bound_s": total["factorization.initial_rank_bound"],
            "factorization.m_prime_s": total["factorization.m_prime_inequality"],
            "oracle.solves": calls["oracle.oracle_solve"],
            "oracle.ipm_iters": c["oracle.ipm_iters"],
            "oracle.solve_s": total["oracle.oracle_solve"],
            "oracle.s_per_ipm_iter": ratio(total["oracle.oracle_solve"], c["oracle.ipm_iters"]),
            "oracle.feasibility_checks": calls["oracle.active_subset_feasible"],
            "oracle.feasible_frac": ratio(
                c["oracle.feasible"], calls["oracle.active_subset_feasible"]
            ),
        }
