"""The benchmark's tracer wraps pipeline functions by module attribute and
binds their arguments by name; these tests keep those names in place."""

import inspect
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from lrsdp import certification
from lrsdp.dense import densify
from lrsdp.solver import SolverConfig

from helpers import trivial_sdp

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCHMARKS))
    return tracing


def test_every_patched_attribute_is_callable(tracing):
    for name, module, attr in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_al_solve_binds_the_arguments_its_counter_reads(tracing):
    problem, ranks, config = densify(trivial_sdp()), [1], SolverConfig(seed=0)
    # the staircase's call: its dense view, ranks and config positional
    bound = inspect.signature(certification.al_solve).bind(problem, ranks, config, warm_start=None)
    assert {"problem", "ranks", "config"} <= set(bound.arguments)
    counts = Counter()
    result = certification.al_solve(problem, ranks, config)
    tracing._count_al_solve(counts, bound.arguments, result)
    assert counts["solver.outer_iters"] == len(result[1])
    assert counts["solver.probe_dim_max"] == 2


def test_traced_staircase_reports_its_layers(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        report = certification.staircase_solve(trivial_sdp(), SolverConfig(seed=0))
    metrics = tracer.layer_metrics()
    assert report.verdict == "GlobalOptimal"
    assert metrics["certification.stages"] == len(report.stages) == 1
    assert metrics["solver.al_solve_calls"] == 1
    # one view for the staircase, shared by its local solve
    assert metrics["dense.densify_calls"] == 1


def test_traced_line_search_evaluates_on_the_staircase_view(tracing):
    from lrsdp.apps import generate_random
    from lrsdp.model import BlockStructure

    # from rank 1: an infeasible stage grows the rank, then a rank increment
    # whose escape line search evaluates the AL
    prob = generate_random(BlockStructure((6,), 1, 0), 8, "EEEEEIII", 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        report = certification.staircase_solve(prob, SolverConfig(seed=0), ranks=[1])
    metrics = tracer.layer_metrics()
    assert [s.action for s in report.stages] == ["rank-increment", "rank-increment", "certified"]
    assert metrics["solver.al_value_grad_calls"] > 0
    assert metrics["dense.densify_calls"] == 1
    assert metrics["certification.licq_s"] == 0


def test_traced_m_prime_solves_only_sets_that_raise_it(tracing):
    import numpy as np

    from lrsdp import factorization
    from lrsdp.apps import build_integer_quadratic

    # the oracle workload's shape: a positive-definite 6x6 cost, one equality
    # and five inequality rows, every active subset feasible
    g = np.random.default_rng(0).standard_normal((6, 6))
    problem = build_integer_quadratic(g @ g.T + 0.1 * np.eye(6)).problem
    tracer = tracing.Tracer()
    with tracer.installed():
        report = factorization.m_prime_inequality(problem)
    metrics = tracer.layer_metrics()
    assert report.m_prime == 6
    # every active subset is feasible, the full set among them, and its rank is
    # rank A = 6: that one solve settles m' (6 with the walk alone, 32 unscreened)
    assert metrics["oracle.feasibility_checks"] == 1
    assert metrics["oracle.feasible_frac"] == 1.0


def test_benchmark_selftest_passes():
    # every workload's tiny instances, traced twice, repeat their counters
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "selftest.py")],
        cwd=BENCHMARKS.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split()[1] for line in proc.stdout.splitlines()] == ["ok"] * 3
