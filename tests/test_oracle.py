"""Interior-point reference solver and the 2x2 grid oracle."""

import numpy as np
import pytest

from lrsdp.certification import Multipliers, active_set, certify
from lrsdp.dense import densify
from lrsdp.factorization import factor
from lrsdp.model import BlockStructure
from lrsdp.oracle import (
    MaxIterationsError,
    NotStrictlyFeasibleError,
    brute_force_2x2,
    min_active_violation,
    oracle_solve,
)
from lrsdp.apps import build_integer_quadratic, generate_random

from helpers import correlation_sdp, indefinite_trace_sdp, iqm_cost, make_problem, trivial_sdp


class TestInteriorPoint:
    def test_trivial(self):
        sol = oracle_solve(trivial_sdp())
        assert sol.objective == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_allclose(sol.lam, [1.0], atol=1e-7)
        assert abs(sol.gap) <= 1e-7

    def test_indefinite_trace(self):
        sol = oracle_solve(indefinite_trace_sdp())
        assert sol.objective == pytest.approx(-1.0, abs=1e-7)

    def test_iqm_matches_grid_oracle(self):
        built = build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16))
        sol = oracle_solve(built.problem)
        grid = brute_force_2x2(built.problem)
        assert abs(sol.objective - grid) <= 1e-6

    def test_weak_duality_and_block_psd(self):
        for seed in range(8):
            prob = generate_random(BlockStructure((4,), 1, 0), 5, "EEEII", seed + 400)
            sol = oracle_solve(prob)
            scale = 1.0 + abs(sol.objective)
            assert sol.dual_objective <= sol.objective + 1e-7 * scale
            for block in sol.X.psd_blocks:
                assert np.linalg.eigvalsh(block.to_dense()).min() >= -1e-9 * scale

    def test_inequality_multipliers_nonnegative(self):
        prob = generate_random(BlockStructure((4,), 1, 0), 6, "EEIIII", 77)
        sol = oracle_solve(prob)
        for i in prob.inequality_indices():
            assert sol.lam[i] >= -1e-9

    def test_solution_certifies_after_refactoring(self):
        for seed in range(3):
            prob = generate_random(BlockStructure((6,), 1, 0), 5, "EEEEE", seed + 11)
            sol = oracle_solve(prob)
            w = np.linalg.eigvalsh(sol.X.psd_blocks[0].to_dense())
            nrank = int(np.sum(w > 1e-7 * w[-1]))
            pt = factor(sol.X, [nrank], psd_tol=1e-6)
            dp = densify(prob)
            mult = Multipliers(sol.lam, active_set(dp, pt), "FromSolver")
            cert = certify(dp, pt, [mult], cert_tol=1e-4)
            assert cert.verdict == "GlobalOptimal"

    def test_infeasible_problem_reports(self, monkeypatch):
        from lrsdp import oracle

        calls = []

        def counting(problem):
            calls.append(problem)
            return densify(problem)

        monkeypatch.setattr(oracle, "densify", counting)
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 2.0, "E")],
        )
        with pytest.raises((NotStrictlyFeasibleError, MaxIterationsError)):
            oracle_solve(prob)
        assert len(calls) == 1  # the feasibility phase reuses the solve's view

    def test_deterministic(self):
        prob = generate_random(BlockStructure((5, 3), 2, 1), 6, "EEEEEI", 5)
        s1 = oracle_solve(prob)
        s2 = oracle_solve(prob)
        assert s1.objective == s2.objective
        np.testing.assert_array_equal(s1.lam, s2.lam)


class TestEqualityForm:
    def test_no_constraints(self, monkeypatch):
        from lrsdp import oracle

        real_cho = oracle.sla.cho_factor
        orders = []

        def spy(a, *args, **kwargs):
            orders.append(a.shape)
            return real_cho(a, *args, **kwargs)

        monkeypatch.setattr(oracle.sla, "cho_factor", spy)
        prob = make_problem((3,), 1, 0, [np.eye(3)], [], [])
        sol = oracle_solve(prob)
        assert sol.objective == pytest.approx(0.0, abs=1e-7)
        assert sol.lam.shape == (0,)
        # the block's S inverse is 3x3 and the Schur system 0x0
        assert set(orders) == {(3, 3), (0, 0)}

    def test_one_diagonal_slack_block(self):
        from lrsdp.oracle import _equality_form

        prob = generate_random(BlockStructure((4, 3), 2, 2), 6, "EIEIIE", 3)
        dp = densify(prob)
        eqf = _equality_form(dp)
        ineq = np.flatnonzero(dp.ineq_mask)
        assert eqf.sizes == dp.sizes + (ineq.size,)
        assert len(eqf.A) == len(eqf.C) == len(dp.A) + 1
        assert eqf.eq_mask.all() and eqf.m == dp.m
        np.testing.assert_array_equal(eqf.C[-1], np.zeros((3, 3)))

        rng = np.random.default_rng(0)
        blocks = [(lambda g: g @ g.T)(rng.standard_normal((n, n))) for n in dp.sizes]
        x = rng.standard_normal(dp.d)
        s = rng.uniform(0.5, 2.0, ineq.size)
        want = dp.apply(blocks, x)
        want[ineq] -= s
        np.testing.assert_allclose(eqf.apply(blocks + [np.diag(s)], x), want, rtol=1e-13, atol=1e-13)

    def test_equality_only_view_unchanged(self):
        from lrsdp.oracle import _equality_form

        dp = densify(generate_random(BlockStructure((4,), 1, 0), 3, "EEE", 1))
        assert _equality_form(dp) is dp


class TestBruteForce2x2:
    def test_trivial(self):
        assert brute_force_2x2(trivial_sdp()) == pytest.approx(1.0, abs=1e-5)

    def test_correlation_extreme(self):
        assert brute_force_2x2(correlation_sdp()) == pytest.approx(-1.0, abs=1e-5)

    def test_unbounded_detected(self):
        prob = make_problem((2,), 1, 0, [np.diag([1.0, -1.0])], [], [])
        assert brute_force_2x2(prob, grid=500, refine_rounds=1) == -np.inf

    def test_agreement_with_interior_point(self):
        kinds_pool = ["EII", "EE", "EEI", "III", "EEE"]
        for seed in range(20):
            kinds = kinds_pool[seed % len(kinds_pool)]
            prob = generate_random(BlockStructure((2,), 1, 0), len(kinds), kinds, seed + 800)
            grid = brute_force_2x2(prob, grid=2000, refine_rounds=3)
            sol = oracle_solve(prob)
            assert abs(grid - sol.objective) <= 1e-5 * (1.0 + abs(sol.objective))

    def test_rotated_rows_match_per_angle_products(self):
        from lrsdp.oracle import _rotated

        rng = np.random.default_rng(4)
        mats = rng.standard_normal((3, 2, 2))
        mats = mats + mats.transpose(0, 2, 1)
        thetas = np.linspace(0.0, np.pi / 2, 37, endpoint=False)
        rotated = _rotated(mats, thetas)
        assert rotated.shape == (37, 3, 2)
        for t, theta in enumerate(thetas):
            r1 = np.array([np.cos(theta), np.sin(theta)])
            r2 = np.array([-np.sin(theta), np.cos(theta)])
            for i, a in enumerate(mats):
                # summation order differs from r @ a @ r: a few ulps of |a|
                scale = 8 * np.finfo(float).eps * np.abs(a).max()
                assert abs(rotated[t, i, 0] - r1 @ a @ r1) <= scale
                assert abs(rotated[t, i, 1] - r2 @ a @ r2) <= scale
        assert _rotated(np.zeros((0, 2, 2)), thetas).shape == (37, 0, 2)

    def test_unsupported_shape(self):
        prob = generate_random(BlockStructure((3,), 1, 0), 2, "EE", 0)
        with pytest.raises(ValueError, match="unsupported shape"):
            brute_force_2x2(prob)


class TestActiveSubsetFeasibility:
    def test_forced_active_inequality(self):
        built = build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16))
        # the single inequality can be made active (e.g. at the corner point)
        v = min_active_violation(built.problem, (1,))
        assert v <= 1e-7

    def test_conflicting_rows_report_violation(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 3.0, "I")],
        )
        # forcing the inequality active contradicts the equality by 2
        v = min_active_violation(prob, (1,))
        assert v >= 0.9
