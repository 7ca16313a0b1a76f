"""Acceptance suite.

One test per shipped criterion; each prints a single pass/fail line (run with
`pytest tests/test_acceptance.py -v -s` to see them live) and enforces its
runtime budget where one is specified.
"""

import time
from itertools import combinations
from pathlib import Path

import numpy as np

from lrsdp.apps import (
    adversarial_instance,
    build_sensing_psd,
    build_sensing_symmetric,
    generate_random,
    random_soc_fixture,
    embed_cone_point,
)
from lrsdp.certification import (
    certify,
    estimate_multipliers,
    kkt_residuals,
    licq_check,
    staircase_solve,
)
import contextlib
import io

from lrsdp.cli import main as cli_main
from lrsdp.dense import densify
from lrsdp.factorization import (
    FactorizedPoint,
    initial_rank_bound,
    m_prime_inequality,
    triangular,
)
from lrsdp.factorization import _numerical_rank, _stack_rows
from lrsdp.model import BlockStructure, write_problem
from lrsdp.oracle import active_subset_feasible, oracle_solve
from lrsdp.solver import SolverConfig, _Eval, _internal_factors, _Work, al_value_grad

from brute_force import brute_force_2x2
from helpers import (
    apply_reference,
    lifted,
    make_problem,
    mixed_instance,
    point_axpy,
    point_dot,
    random_direction,
    random_factor_point,
)


def _line(num, name, ok, detail, elapsed, limit=None):
    budget = f"; {elapsed:.1f}s" + (f" / {limit:.0f}s budget" if limit else "")
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail}{budget})")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_derivative_correctness():
    t0 = time.perf_counter()
    h = 1e-5
    checked = 0
    seed = 0
    worst_g, worst_gs, worst_h = 0.0, 0.0, 0.0
    while checked < 50:
        seed += 1
        problem, ranks = mixed_instance(seed)
        rng = np.random.default_rng(seed)
        point = random_factor_point(problem, ranks, seed)
        lam = rng.standard_normal(problem.m)
        rho = 2.0

        dp = densify(problem)
        c = apply_reference(problem, *lifted(point)) - problem.b
        shifted = lam - rho * c
        if np.any(np.abs(shifted[~dp.eq_mask]) < 1e-3):
            continue  # keep clear of the clipped-multiplier switch
        checked += 1

        _, grad = al_value_grad(dp, point, lam, rho)
        d = random_direction(problem, ranks, 31 * seed)

        fp, _ = al_value_grad(dp, point_axpy(point, d, h), lam, rho)
        fm, _ = al_value_grad(dp, point_axpy(point, d, -h), lam, rho)
        slope = (fp - fm) / (2.0 * h)
        exact = point_dot(grad, d)
        worst_g = max(worst_g, abs(slope - exact) / (1.0 + abs(exact)))

        # the gradient and Hessian al_solve runs on, tail blocks held as full-rank factors
        work = _Work(dp, ranks)
        ev = _Eval(work, work.pack(_internal_factors(point), point.free), lam, rho)
        u = np.random.default_rng(31 * seed).standard_normal(work.dim)
        v = np.random.default_rng(31 * seed + 1).standard_normal(work.dim)
        evp, evm = (_Eval(work, ev.z + t * u, lam, rho) for t in (h, -h))
        slope = (evp.value - evm.value) / (2.0 * h)
        exact = float(ev.grad @ u)
        worst_gs = max(worst_gs, abs(slope - exact) / (1.0 + abs(exact)))
        slope_h = float((evp.grad - evm.grad) @ v) / (2.0 * h)
        exact_h = float(ev.hvp(u) @ v)
        worst_h = max(worst_h, abs(slope_h - exact_h) / (1.0 + abs(exact_h)))

    elapsed = time.perf_counter() - t0
    ok = max(worst_g, worst_gs) <= 1e-6 and worst_h <= 1e-5 and elapsed < 30.0
    _line(1, "derivative correctness", ok,
          f"50 instances, worst grad err {worst_g:.1e} public / {worst_gs:.1e} solver layout, "
          f"worst hvp err {worst_h:.1e}",
          elapsed, 30.0)
    assert worst_g <= 1e-6
    assert worst_gs <= 1e-6
    assert worst_h <= 1e-5
    assert elapsed < 30.0


def _oracle_corpus():
    specs = []
    for s in range(30):
        rng = np.random.default_rng(s + 9000)
        nb = int(rng.integers(1, 3))
        sizes = tuple(int(rng.integers(2, 7)) for _ in range(nb))
        k = int(rng.integers(1, nb + 1))
        d = int(rng.integers(0, 3))
        m = int(rng.integers(2, 9))
        n_ineq = int(rng.integers(0, m))
        kinds = "E" * (m - n_ineq) + "I" * n_ineq
        specs.append((sizes, k, d, m, kinds, s))
    # pin a 2x2 single-block subset for the second oracle
    specs[0] = ((2,), 1, 0, 3, "EII", 0)
    specs[1] = ((2,), 1, 0, 2, "EE", 1)
    specs[2] = ((2,), 1, 0, 4, "EEII", 2)
    specs[3] = ((2,), 1, 0, 3, "EEE", 3)
    specs[4] = ((2,), 1, 0, 2, "EI", 4)
    return specs


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    worst_grid = 0.0
    for sizes, k, d, m, kinds, seed in _oracle_corpus():
        problem = generate_random(BlockStructure(sizes, k, d), m, kinds, seed)
        sol = oracle_solve(problem)
        report = staircase_solve(problem, SolverConfig(seed=seed))
        rel = abs(report.objective - sol.objective) / (1.0 + abs(sol.objective))
        worst = max(worst, rel)
        if sizes == (2,) and d == 0:
            grid = brute_force_2x2(problem, grid=4000)
            worst_grid = max(worst_grid, abs(report.objective - grid) / (1.0 + abs(grid)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and worst_grid <= 1e-5 and elapsed < 120.0
    _line(2, "oracle equivalence", ok,
          f"30 instances, worst rel dev {worst:.1e}, 2x2 grid dev {worst_grid:.1e}",
          elapsed, 120.0)
    assert worst <= 1e-5
    assert worst_grid <= 1e-5
    assert elapsed < 120.0


def test_criterion_3_generic_costs_certify_at_first_rank():
    t0 = time.perf_counter()
    n, m, p, trials = 12, 8, 4, 100
    assert triangular(p) > m
    good = 0
    for seed in range(trials):
        problem = generate_random(BlockStructure((n,), 1, 0), m, "E" * m, seed)
        report = staircase_solve(problem, SolverConfig(seed=seed), ranks=[p])
        if report.verdict != "GlobalOptimal" or len(report.stages) != 1:
            continue
        scale = 1.0 + abs(report.objective)
        if abs(report.certificate.duality_gap) > 1e-6 * scale:
            continue
        spectra = report.certificate.slack_spectrum
        slack_ok = all(
            w[0] >= -1e-7 * max(abs(w[0]), abs(w[-1]), 1e-30) for w in spectra
        )
        if slack_ok:
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good >= 95 and elapsed < 300.0
    _line(3, "generic-cost certification", ok, f"{good}/100 certified at first rank",
          elapsed, 300.0)
    assert good >= 95
    assert elapsed < 300.0


def test_criterion_4_fixed_cost_sensing_certifies():
    t0 = time.perf_counter()
    n, r, m, trials = 6, 1, 6, 50
    certified = 0
    worst = 0.0
    for seed in range(trials):
        built = build_sensing_psd(n, r, m, seed)
        assert triangular(initial_rank_bound(built.problem).p_per_block[0]) > m
        report = staircase_solve(built.problem, SolverConfig(seed=seed))
        sol = oracle_solve(built.problem)
        rel = abs(report.objective - sol.objective) / (1.0 + abs(sol.objective))
        worst = max(worst, rel)
        if report.verdict == "GlobalOptimal" and rel <= 1e-5:
            certified += 1
    elapsed = time.perf_counter() - t0
    ok = certified == trials and elapsed < 180.0
    _line(4, "fixed-cost sensing", ok,
          f"{certified}/{trials} certified, worst rel dev {worst:.1e}", elapsed, 180.0)
    assert certified == trials
    assert elapsed < 180.0


def test_criterion_5_planted_spurious_points():
    t0 = time.perf_counter()
    n, p, m, trials = 6, 2, 8, 50
    stat_ok = cert_ok = beat_ok = 0
    positive_gaps = 0
    for seed in range(trials):
        built = adversarial_instance(n, p, m, seed)
        planted_obj = built.extras["planted_objective"]
        dp = densify(built.problem)
        mult = estimate_multipliers(dp, built.planted_point)
        kk = kkt_residuals(dp, built.planted_point, mult)
        cert = certify(dp, built.planted_point, [mult])
        if kk.stationarity <= 1e-10 * (1.0 + abs(planted_obj)):
            stat_ok += 1
        if cert.verdict != "GlobalOptimal":
            cert_ok += 1
        sol = oracle_solve(built.problem, tol=1e-8)
        if planted_obj - sol.objective > 1e-4:
            positive_gaps += 1
            report = staircase_solve(built.problem, SolverConfig(seed=10_000 + seed))
            if report.objective < planted_obj:
                beat_ok += 1
    elapsed = time.perf_counter() - t0
    ok = stat_ok == trials and cert_ok == trials and beat_ok == positive_gaps and elapsed < 120.0
    _line(5, "planted spurious points", ok,
          f"stationary {stat_ok}/{trials}, rejected {cert_ok}/{trials}, "
          f"beaten {beat_ok}/{positive_gaps} positive-gap plants", elapsed, 120.0)
    assert stat_ok == trials
    assert cert_ok == trials
    assert beat_ok == positive_gaps
    assert elapsed < 120.0


def test_criterion_6_two_block_sensing():
    t0 = time.perf_counter()
    n, m, p, trials = 6, 10, 5, 20
    assert triangular(p) > m
    certified = 0
    worst = 0.0
    for seed in range(trials):
        built = build_sensing_symmetric(n, m, seed)
        report = staircase_solve(built.problem, SolverConfig(seed=seed), ranks=[p, p])
        sol = oracle_solve(built.problem)
        rel = abs(report.objective - sol.objective) / (1.0 + abs(sol.objective))
        worst = max(worst, rel)
        if report.verdict == "GlobalOptimal" and rel <= 1e-5:
            certified += 1
    elapsed = time.perf_counter() - t0
    ok = certified == trials
    _line(6, "two-block sensing", ok,
          f"{certified}/{trials} certified, worst rel dev {worst:.1e}", elapsed)
    assert certified == trials


def test_criterion_7_cone_embedding():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        built = random_soc_fixture(3, 3, 3, seed)
        sol = oracle_solve(built.problem)
        report = staircase_solve(built.problem, SolverConfig(seed=seed))
        worst = max(worst, abs(report.objective - sol.objective) / (1.0 + abs(sol.objective)))

    rng = np.random.default_rng(123)
    n2 = 4
    rank_ok = True
    for _ in range(100):
        u = rng.standard_normal(n2 - 1)
        x = np.concatenate([[np.linalg.norm(u)], u])
        w = np.linalg.eigvalsh(embed_cone_point(x))
        rank = int(np.sum(w > 1e-8 * max(w[-1], 1e-30)))
        rank_ok = rank_ok and rank == n2 - 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and rank_ok
    _line(7, "cone embedding", ok,
          f"10 fixtures worst rel dev {worst:.1e}, boundary corank-1 {'all' if rank_ok else 'FAIL'}",
          elapsed)
    assert worst <= 1e-6
    assert rank_ok


def test_criterion_8_regularity_of_generic_rows():
    t0 = time.perf_counter()
    passed = 0
    for seed in range(100):
        built = build_sensing_psd(8, 3, 6, seed)
        res = licq_check(densify(built.problem), built.planted_point)
        passed += res.holds

    e11 = np.zeros((2, 2)); e11[0, 0] = 1.0
    dup = make_problem(
        (2,), 1, 0, [np.eye(2)], [],
        [([e11], [], 1.0, "E"), ([e11], [], 1.0, "E")],
    )
    dup_fails = not licq_check(
        densify(dup), FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
    ).holds
    elapsed = time.perf_counter() - t0
    ok = passed == 100 and dup_fails
    _line(8, "constraint-gradient independence", ok,
          f"{passed}/100 generic trials hold, duplicated row fails: {dup_fails}", elapsed)
    assert passed == 100
    assert dup_fails


def test_criterion_9_rank_bound_unit_suite():
    t0 = time.perf_counter()
    tri_ok = all(triangular(k) == k * (k + 1) // 2 for k in range(11))
    assert [triangular(k) for k in range(11)] == [0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55]

    matches = 0
    cases = 0
    for seed in range(5):
        rng = np.random.default_rng(seed + 50)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 9))
        n_ineq = int(rng.integers(1, m + 1))
        kinds = "E" * (m - n_ineq) + "I" * n_ineq
        problem = generate_random(BlockStructure((n,), 1, 0), m, kinds, seed + 50)
        fast = m_prime_inequality(problem).m_prime
        # unpruned reference: every subset, same feasibility certificate
        eq = list(problem.equality_indices())
        iq = list(problem.inequality_indices())
        best = 0
        for r in range(len(iq) + 1):
            for combo in combinations(iq, r):
                if active_subset_feasible(problem, combo):
                    best = max(best, _numerical_rank(_stack_rows(problem, eq + list(combo))))
        cases += 1
        matches += fast == best
    elapsed = time.perf_counter() - t0
    ok = tri_ok and matches == cases
    _line(9, "rank bounds", ok,
          f"triangular table exact, enumeration matches reference on {matches}/{cases}",
          elapsed)
    assert tri_ok
    assert matches == cases


def test_criterion_10_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    problem = generate_random(BlockStructure((6,), 1, 0), 5, "EEEEI", 42)
    path = str(tmp_path / "det.sdp")
    Path(path).write_text(write_problem(problem))

    code1, solve1, _ = _run_cli(["solve", path, "--seed", "3"])
    code2, solve2, _ = _run_cli(["solve", path, "--seed", "3"])
    exp_args = ["experiment", "adversarial", "--n", "5", "--p", "2", "--m", "6", "--trials", "4"]
    _, exp1, _ = _run_cli(exp_args)
    _, exp2, _ = _run_cli(exp_args)
    elapsed = time.perf_counter() - t0
    ok = solve1 == solve2 and exp1 == exp2 and code1 == code2
    _line(10, "byte-identical reruns", ok,
          f"solve {len(solve1)}B, experiment {len(exp1)}B", elapsed)
    assert solve1 == solve2
    assert exp1 == exp2
