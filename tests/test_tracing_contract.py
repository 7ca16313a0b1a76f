"""The benchmark's tracer wraps pipeline functions by module attribute and
binds their arguments by name; these tests keep those names in place."""

import inspect
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

    # from rank 1: an infeasible restart, then two rank increments whose
    # escape line searches evaluate the AL
    prob = generate_random(BlockStructure((6,), 1, 0), 8, "EEEEEIII", 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        report = certification.staircase_solve(prob, SolverConfig(seed=0), ranks=[1])
    metrics = tracer.layer_metrics()
    assert [s.action for s in report.stages] == [
        "restart", "rank-increment", "rank-increment", "certified"
    ]
    assert metrics["solver.al_value_grad_calls"] > 0
    assert metrics["dense.densify_calls"] == 1
    assert metrics["certification.licq_s"] == 0
