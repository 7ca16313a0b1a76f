"""Multiplier recovery, certificates, escapes, LICQ, staircase."""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from lrsdp import certification, dense, oracle
from lrsdp.certification import (
    LicqResult,
    Multipliers,
    active_set,
    certify,
    escape_direction,
    estimate_multipliers,
    kkt_residuals,
    licq_check,
    staircase_solve,
)
from lrsdp.dense import densify
from lrsdp.factorization import FactorizedPoint, append_column, psd_factor
from lrsdp.model import BlockStructure
from lrsdp.solver import SolverConfig, al_solve, al_value_grad
from lrsdp.apps import (
    adversarial_instance,
    build_integer_quadratic,
    build_sensing_psd,
    generate_random,
    random_soc_fixture,
)
from lrsdp.oracle import oracle_solve

from helpers import (
    apply_reference, iqm_cost, lifted, make_problem, maxcut_sdp, random_factor_point, trivial_sdp,
)

E1 = np.array([[1.0], [0.0]])


def unconstrained_indefinite():
    return make_problem((2,), 1, 0, [np.diag([1.0, -1.0])], [], [])


class TestActiveSet:
    def test_equalities_always_active(self):
        prob = trivial_sdp()
        y = FactorizedPoint((E1,), (), np.zeros(0))
        assert active_set(densify(prob), y) == frozenset({0})

    def test_slack_inequality_inactive(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem((2,), 1, 0, [np.eye(2)], [], [([e11], [], 1.0, "I")])
        y = FactorizedPoint((np.array([[np.sqrt(2.0)], [0.0]]),), (), np.zeros(0))
        assert active_set(densify(prob), y) == frozenset()

    def test_iqm_matches_oracle_complementarity(self):
        built = build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16))
        sol = oracle_solve(built.problem)
        pt = FactorizedPoint((psd_factor(sol.X.psd_blocks[0].to_dense())[:, :2],), (), sol.X.free)
        act = active_set(densify(built.problem), pt)
        # indices with strictly positive multiplier must be active
        for i in np.flatnonzero(sol.lam > 1e-6):
            assert int(i) in act


class TestEstimateMultipliers:
    def test_trivial_analytic(self):
        mult = estimate_multipliers(
            densify(trivial_sdp()), FactorizedPoint((E1,), (), np.zeros(0))
        )
        np.testing.assert_allclose(mult.values, [1.0], atol=1e-12)
        assert mult.residual <= 1e-12

    def test_unconstrained_residual_is_gradient_norm(self):
        prob = unconstrained_indefinite()
        y = FactorizedPoint((E1,), (), np.zeros(0))
        mult = estimate_multipliers(densify(prob), y)
        assert mult.values.size == 0
        # residual = ||2 C Y|| = ||2 e1|| = 2
        assert mult.residual == pytest.approx(2.0)

    def test_solver_and_least_squares_agree(self):
        for seed in range(4):
            prob = generate_random(BlockStructure((5,), 1, 0), 5, "EEEEE", seed + 70)
            state, _ = al_solve(densify(prob), [3], SolverConfig(seed=seed))
            ls = estimate_multipliers(densify(prob), state.point)
            norm_c = max(np.linalg.norm(sm.to_dense()) for sm in prob.cost_blocks)
            assert ls.residual <= 1e-6 * (1.0 + norm_c)
            np.testing.assert_allclose(ls.values, state.lam, atol=1e-5)

    @pytest.mark.parametrize("value", [-1e-12, -1e-6])
    def test_sign_clip_zeroes_negative_inequality_multipliers(self, monkeypatch, value):
        # X_11 >= 1 is tight at E1, so its column goes to the bounded fit
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem((2,), 1, 0, [np.eye(2)], [], [([e11], [], 1.0, "I")])
        monkeypatch.setattr(scipy.optimize, "lsq_linear", lambda *a, **k: SimpleNamespace(x=np.array([value])))
        mult = estimate_multipliers(densify(prob), FactorizedPoint((E1,), (), np.zeros(0)))
        assert mult.values.tolist() == [0.0]

    def test_active_inequality_multipliers_nonnegative(self):
        built = build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16))
        state, _ = al_solve(densify(built.problem), [2], SolverConfig(seed=0))
        mult = estimate_multipliers(densify(built.problem), state.point)
        for i in built.problem.inequality_indices():
            assert mult.values[i] >= -1e-10


class TestSlackMatrix:
    def test_trivial(self):
        s, s_free = densify(trivial_sdp()).slack(np.array([1.0]))
        np.testing.assert_allclose(s[0], np.diag([0.0, 1.0]))

    def test_zero_multipliers_give_cost(self):
        prob = trivial_sdp()
        s, _ = densify(prob).slack(np.zeros(1))
        np.testing.assert_array_equal(s[0], prob.cost_blocks[0].to_dense())

    def test_pairing_identity(self):
        rng = np.random.default_rng(9)
        prob = generate_random(BlockStructure((4,), 1, 0), 5, "EEEII", 9)
        for _ in range(5):
            lam = rng.standard_normal(5)
            g = rng.standard_normal((4, 4))
            xd = 0.5 * (g + g.T)
            s, _ = densify(prob).slack(lam)
            lhs = float(np.tensordot(s[0], xd))
            cost = float(np.tensordot(prob.cost_blocks[0].to_dense(), xd))
            rhs = cost - float(lam @ apply_reference(prob, [xd], np.zeros(0)))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


class TestKktResiduals:
    def test_all_zero_at_analytic_optimum(self):
        mult = Multipliers(np.array([1.0]), "FromSolver")
        kk = kkt_residuals(densify(trivial_sdp()), FactorizedPoint((E1,), (), np.zeros(0)), mult)
        for v in dataclasses.asdict(kk).values():
            assert v <= 1e-12

    def test_stationarity_linear_in_multiplier_shift(self):
        mult = Multipliers(np.array([1.1]), "FromSolver")
        kk = kkt_residuals(densify(trivial_sdp()), FactorizedPoint((E1,), (), np.zeros(0)), mult)
        assert kk.stationarity == pytest.approx(0.1)

    def test_feasibility_at_zero_point(self):
        mult = Multipliers(np.zeros(1), "FromSolver")
        kk = kkt_residuals(
            densify(trivial_sdp()), FactorizedPoint((np.zeros((2, 1)),), (), np.zeros(0)), mult
        )
        assert kk.feasibility == pytest.approx(1.0)


class TestSecondOrder:
    def test_solver_output_passes_on_generic_instance(self):
        prob = generate_random(BlockStructure((6,), 1, 0), 4, "EEEE", 31)
        state, _ = al_solve(densify(prob), [3], SolverConfig(seed=31))
        dp = densify(prob)
        # a global certificate implies the second-order condition
        cert = certify(dp, state.point, [estimate_multipliers(dp, state.point)])
        assert cert.verdict == "GlobalOptimal"


class TestCertify:
    def test_trivial_optimum(self):
        mult = Multipliers(np.array([1.0]), "FromSolver")
        cert = certify(densify(trivial_sdp()), FactorizedPoint((E1,), (), np.zeros(0)), [mult])
        assert cert.verdict == "GlobalOptimal"
        assert abs(cert.duality_gap) <= 1e-10

    def test_indefinite_slack_is_escapable(self):
        cert = certify(
            densify(unconstrained_indefinite()),
            FactorizedPoint((E1,), (), np.zeros(0)),
            [Multipliers(np.zeros(0), "FromSolver")],
        )
        assert cert.verdict == "Escapable"
        assert cert.escape_block == 0
        assert cert.escape_eigenvalue == pytest.approx(-1.0)
        np.testing.assert_allclose(np.abs(cert.escape_vector), [0.0, 1.0], atol=1e-12)

    def test_planted_spurious_point_never_certifies(self):
        for seed in range(5):
            built = adversarial_instance(6, 2, 8, seed)
            dp = densify(built.problem)
            mult = estimate_multipliers(dp, built.planted_point)
            cert = certify(dp, built.planted_point, [mult])
            assert cert.verdict != "GlobalOptimal"
            assert cert.kkt.stationarity <= 1e-10

    def test_certified_verdict_matches_oracle_objective(self):
        for seed in range(4):
            prob = generate_random(BlockStructure((5,), 1, 0), 4, "EEEI", seed + 90)
            report = staircase_solve(prob, SolverConfig(seed=seed))
            if report.verdict == "GlobalOptimal":
                target = oracle_solve(prob).objective
                assert abs(report.objective - target) <= 1e-5 * (1.0 + abs(target))

    def test_duality_gap_bounded_by_residuals(self):
        for seed in range(4):
            prob = generate_random(BlockStructure((5,), 1, 0), 6, "EEEEII", seed + 130)
            state, _ = al_solve(densify(prob), [3], SolverConfig(seed=seed))
            dp = densify(prob)
            mult = estimate_multipliers(dp, state.point)
            kk = kkt_residuals(dp, state.point, mult)
            cert = certify(dp, state.point, [mult])
            y_norm = sum(np.linalg.norm(y) for y in state.point.factors)
            lam_inf = np.max(np.abs(mult.values)) if mult.values.size else 0.0
            m = prob.m
            bound = (
                kk.stationarity * (1.0 + y_norm)
                + np.sqrt(m) * lam_inf * kk.feasibility
                + m * kk.complementarity
            )
            assert abs(cert.duality_gap) <= 2.0 * bound + 1e-10

    def test_objective_is_the_one_the_gap_uses(self):
        # a tail block, free variables and inequality rows; solved and random points
        for seed in range(3):
            prob = generate_random(BlockStructure((5, 3), 1, 2), 6, "EEEIII", seed)
            dp = densify(prob)
            solved = staircase_solve(prob, SolverConfig(seed=seed)).state.point
            for point in (solved, random_factor_point(prob, [2], seed)):
                cert = certify(dp, point, [estimate_multipliers(dp, point)])
                objective = dp.objective(*lifted(point))
                gap = objective - float(dp.b @ cert.multipliers.values)
                assert np.float64(cert.objective).tobytes() == np.float64(objective).tobytes()
                assert np.float64(cert.duality_gap).tobytes() == np.float64(gap).tobytes()

    def test_least_stationary_candidate_wins(self):
        dp = densify(trivial_sdp())
        point = FactorizedPoint((E1,), (), np.zeros(0))
        off = Multipliers(np.array([1.1]), "FromSolver")
        exact = Multipliers(np.array([1.0]), "LeastSquares")
        for candidates in ([off, exact], [exact, off]):
            cert = certify(dp, point, candidates)
            assert cert.multipliers is exact
            assert cert.verdict == "GlobalOptimal"

    def test_tie_keeps_the_first_candidate(self):
        dp = densify(trivial_sdp())
        point = FactorizedPoint((E1,), (), np.zeros(0))
        first = Multipliers(np.array([1.0]), "FromSolver")
        second = Multipliers(np.array([1.0]), "LeastSquares")
        assert certify(dp, point, [first, second]).multipliers is first


class TestTolerancePolicy:
    def test_certificate_and_phase_one_read_the_dense_view(self):
        # one factorized block, one tail block, a free part, E and I rows
        prob = generate_random(BlockStructure((4, 3), 1, 2), 5, "EEIII", 3)
        dp = densify(prob)
        point = random_factor_point(prob, [2], 3)
        mult = estimate_multipliers(dp, point)
        assert certification.CERT_TOL is dense.CERT_TOL
        assert SolverConfig().tol == dense.CERT_TOL / 10
        for cert_tol in (dense.CERT_TOL, 1e-4):
            assert certify(dp, point, [mult], cert_tol=cert_tol).tolerances == dp.tolerances(mult.values, cert_tol)
        lam, rel = np.array([0.5, -3.0, 0.0, 2.0, 1.0]), 1e-6
        norm_c = max(np.linalg.norm(c) for c in dp.C) + np.linalg.norm(dp.c_free)
        b_inf = np.max(np.abs(dp.b))
        assert dp.tolerances(lam, rel) == {
            "stationarity": rel * (1.0 + norm_c + 3.0),
            "feasibility": rel * (1.0 + b_inf),
            "complementarity": rel * (1.0 + 3.0) * (1.0 + b_inf),
            "sign": rel,
            "free": rel * (1.0 + norm_c + 3.0),
            "slack": rel,
        }
        t = dp.tolerances((), dense.CERT_TOL)["feasibility"]
        assert oracle._feasible(t, dp)
        assert not oracle._feasible(np.nextafter(t, np.inf), dp)


class TestEscapeDirection:
    def test_certificate_without_escape_data_raises(self):
        point = FactorizedPoint((E1,), (), np.zeros(0))
        cert = certify(densify(trivial_sdp()), point, [Multipliers(np.array([1.0]), "FromSolver")])
        assert cert.verdict == "GlobalOptimal"
        with pytest.raises(ValueError, match="no escape data"):
            escape_direction(point, cert)
    def test_kernel_direction_from_rank_deficient_factor(self):
        y = FactorizedPoint((np.array([[1.0, 0.0], [0.0, 0.0]]),), (), np.zeros(0))
        dp = densify(unconstrained_indefinite())
        cert = certify(dp, y, [Multipliers(np.zeros(0), "FromSolver")])
        esc = escape_direction(y, cert)
        assert esc.kind == "kernel"
        np.testing.assert_allclose(np.abs(esc.matrix), [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
        s, _ = dp.slack(np.zeros(0))
        quad = np.tensordot(s[0], esc.matrix @ esc.matrix.T)
        assert quad < 0.0

    def test_full_rank_factor_requests_rank_increment(self):
        y = FactorizedPoint((E1,), (), np.zeros(0))
        cert = certify(
            densify(unconstrained_indefinite()), y,
            [Multipliers(np.zeros(0), "FromSolver")],
        )
        esc = escape_direction(y, cert)
        assert esc.kind == "rank_increment"
        np.testing.assert_allclose(np.abs(esc.vector), [0.0, 1.0], atol=1e-12)

    def test_kernel_escape_is_feasible_to_first_order(self):
        # active-constraint pairing <A_i, U Y^T> vanishes for kernel escapes
        built = adversarial_instance(6, 3, 7, seed=2)
        y0 = built.planted_point.factors[0]
        wide = FactorizedPoint((np.hstack([y0, np.zeros((6, 1))]),), (), np.zeros(0))
        dp = densify(built.problem)
        cert = certify(dp, wide, [estimate_multipliers(dp, wide)])
        assert cert.verdict == "Escapable"
        esc = escape_direction(wide, cert)
        assert esc.kind == "kernel"
        for con in built.problem.constraints:
            a = con.blocks[0].to_dense()
            assert abs(np.tensordot(a, esc.matrix @ wide.factors[0].T)) <= 1e-10

    def test_increment_step_decreases_augmented_lagrangian(self):
        # seed picked so the planted point is second-order for the merit
        # function: the warm-started solver stays put and only the
        # certificate's eigenvector gets it out
        built = adversarial_instance(6, 2, 8, seed=3)
        lam0 = np.array(built.extras["multipliers"])
        state, _ = al_solve(
            densify(built.problem), [2], SolverConfig(seed=0),
            warm_start=(built.planted_point, lam0),
        )
        assert abs(state.objective - built.extras["planted_objective"]) < 1e-6
        dp = densify(built.problem)
        cert = certify(dp, state.point, [estimate_multipliers(dp, state.point)])
        assert cert.verdict == "Escapable"
        esc = escape_direction(state.point, cert)
        base, _ = al_value_grad(dp, state.point, state.lam, state.rho)
        stepped = append_column(state.point, esc.block, esc.vector, 0.01)
        val, _ = al_value_grad(dp, stepped, state.lam, state.rho)
        assert val < base


class TestLicq:
    def test_single_active_constraint_holds(self):
        res = licq_check(densify(trivial_sdp()), FactorizedPoint((E1,), (), np.zeros(0)))
        assert res.holds
        assert res.jacobian_rank == res.active_count == 1

    def test_duplicated_constraint_fails(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 1.0, "E")],
        )
        res = licq_check(densify(prob), FactorizedPoint((E1,), (), np.zeros(0)))
        assert not res.holds
        assert res.jacobian_rank == 1
        assert res.active_count == 2

    def test_generic_rows_hold_at_random_feasible_points(self):
        for seed in range(20):
            built = build_sensing_psd(6, 2, 5, seed)
            res = licq_check(densify(built.problem), built.planted_point)
            assert res.holds

    def test_no_active_row_holds_with_rank_zero(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem((2,), 1, 0, [np.eye(2)], [], [([e11], [], 1.0, "I")])
        y = FactorizedPoint((np.array([[np.sqrt(2.0)], [0.0]]),), (), np.zeros(0))
        assert licq_check(densify(prob), y) == LicqResult(True, 0, 0)
        mult = estimate_multipliers(densify(prob), y)
        # no active row: lambda = 0 and the residual is the cost gradient 2 C Y
        np.testing.assert_array_equal(mult.values, [0.0])
        assert mult.residual == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)


class TestBlockLayout:
    def test_point_missing_its_tail_block_raises(self):
        # one factor and no tail on a problem with a tail block: every entry
        # point rejects the short block list instead of reading the tail as zero
        dp = densify(generate_random(BlockStructure((3, 2), 1, 0), 3, "EEE", 1))
        point = FactorizedPoint((np.random.default_rng(0).standard_normal((3, 2)),), (), np.zeros(0))
        lam = np.zeros(dp.m)
        mult = Multipliers(lam, "FromSolver")
        calls = {
            "al_value_grad": lambda: al_value_grad(dp, point, lam, 1.0),
            "active_set": lambda: active_set(dp, point),
            "kkt_residuals": lambda: kkt_residuals(dp, point, mult),
            "certify": lambda: certify(dp, point, [mult]),
            "estimate_multipliers": lambda: estimate_multipliers(dp, point),
            "licq_check": lambda: licq_check(dp, point),
            "al_solve": lambda: al_solve(dp, [2], SolverConfig(), warm_start=(point, lam)),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(f"{name} accepted a point without its tail block")


class TestStaircase:
    def test_trivial_certifies_first_stage(self):
        for prob in (trivial_sdp(), maxcut_sdp(12, 0), generate_random(BlockStructure((4, 3), 1, 2), 5, "EEIII", 3)):
            report = staircase_solve(prob, SolverConfig(seed=0))
            assert report.verdict == "GlobalOptimal"
            assert len(report.stages) == 1
            assert report.stages[0].action == "certified"

    def test_rank_override_walks_up_to_optimal_rank(self):
        built = build_sensing_psd(4, 2, 5, seed=0)
        target = oracle_solve(built.problem).objective
        report = staircase_solve(built.problem, SolverConfig(seed=0), ranks=[1])
        assert report.verdict == "GlobalOptimal"
        seq = [s.ranks[0] for s in report.stages]
        assert seq[0] == 1
        assert max(seq) >= 2
        assert abs(report.objective - target) <= 1e-5 * (1.0 + abs(target))

    def test_escapable_stage_at_full_rank_restarts(self):
        # one outer iteration leaves every solve unconverged; at rank 4 = n the
        # factor cannot take another column, so the Escapable stage restarts
        prob = generate_random(BlockStructure((4,), 1, 0), 3, "EEE", 6)
        report = staircase_solve(prob, SolverConfig(seed=6, tol=1e-6, max_outer=1), ranks=[2])
        stages = [(s.ranks, s.verdict, s.action) for s in report.stages]
        assert stages[:3] == [
            ((2,), "Escapable", "rank-increment"),
            ((3,), "Escapable", "rank-increment"),
            ((4,), "Escapable", "restart"),
        ]
        assert all(s.action in ("restart", "stop") for s in report.stages[2:])
        assert report.verdict == "Indeterminate"

    def test_one_dense_view_and_two_residual_evaluations_per_stage(self, monkeypatch):
        from lrsdp import certification, solver

        calls = Counter()

        def counting(module, name):
            fn = getattr(module, name)
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, name in (
            (certification, "densify"),
            (certification, "_kkt_residuals"),
            (certification, "licq_check"),
            (solver, "densify"),
        ):
            monkeypatch.setattr(module, name, counting(module, name))
        # an infeasible stage at rank 1, then any escapes, before the certificate
        problems = [
            (build_sensing_psd(4, 2, 5, seed=0).problem, ["rank-increment", "certified"]),
            (generate_random(BlockStructure((6,), 1, 0), 8, "EEEEEIII", 2),
             ["rank-increment", "rank-increment", "certified"]),
        ]
        for prob, actions in problems:
            calls.clear()
            report = staircase_solve(prob, SolverConfig(seed=0), ranks=[1])
            certified = sum(s.verdict != "Infeasible" for s in report.stages)
            assert [s.action for s in report.stages] == actions
            assert calls["certification.densify"] == 1
            assert calls["certification._kkt_residuals"] == 2 * certified
            # no LICQ pass, and neither the local solves nor the escape
            # line search build a view
            assert calls["certification.licq_check"] == 0
            assert calls["solver.densify"] == 0

    def test_certify_applies_once_and_forms_one_slack_per_candidate(self, monkeypatch):
        from lrsdp import certification
        from lrsdp.dense import DenseProblem

        calls = Counter()
        per_certify = []

        def counting(name):
            fn = getattr(DenseProblem, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def certify_counted(dp, point, candidates, *args, **kwargs):
            before = Counter(calls)
            cert = certify(dp, point, candidates, *args, **kwargs)
            per_certify.append((calls - before, len(candidates)))
            return cert

        for name in ("apply", "slack"):
            monkeypatch.setattr(DenseProblem, name, counting(name))
        monkeypatch.setattr(certification, "certify", certify_counted)
        prob = generate_random(BlockStructure((6,), 1, 0), 8, "EEEEEIII", 2)
        staircase_solve(prob, SolverConfig(seed=0), ranks=[1])
        assert len(per_certify) >= 2
        for used, candidates in per_certify:
            assert used["apply"] == 1
            assert used["slack"] == candidates == 2

    def test_warm_start_after_rank_increment_converges(self, monkeypatch):
        # from rank 1 the warm starts after each rank increment used to
        # inherit the last stage's penalty and run all 50 outer iterations
        from lrsdp import certification

        calls = []  # (warm-started, converged or None when the solve raised)

        def spy(*args, warm_start=None, **kwargs):
            calls.append((warm_start is not None, None))
            state, trace = al_solve(*args, warm_start=warm_start, **kwargs)
            calls[-1] = (warm_start is not None, state.converged)
            return state, trace

        monkeypatch.setattr(certification, "al_solve", spy)
        prob = generate_random(BlockStructure((6,), 1, 0), 8, "EEEEEIII", 5)
        report = staircase_solve(prob, SolverConfig(seed=0), ranks=[1])
        assert all(converged for warm, converged in calls if converged is not None)
        assert (True, True) in calls
        # a warm start abandoned as infeasible would also escalate the rank
        actions = [s.action for s in report.stages]
        first = actions.index("rank-increment")
        assert all(s.verdict != "Infeasible" for s in report.stages[first + 1:])
        assert report.verdict == "GlobalOptimal"
        target = oracle_solve(prob).objective
        assert abs(report.objective - target) <= 1e-6 * (1.0 + abs(target))

    def test_generic_equality_instances_certify_without_escalation(self):
        good = 0
        for seed in range(10):
            prob = generate_random(BlockStructure((12,), 1, 0), 8, "E" * 8, seed)
            report = staircase_solve(prob, SolverConfig(seed=seed), ranks=[4])
            if report.verdict == "GlobalOptimal" and len(report.stages) == 1:
                good += 1
        assert good >= 9

    def test_infeasible_at_full_rank_propagates(self, monkeypatch):
        from lrsdp import certification
        from lrsdp.solver import InfeasibleError

        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 2.0, "E")],
        )
        calls = []

        def spy(dp, cur_ranks, *args, **kwargs):
            calls.append(list(cur_ranks))
            return al_solve(dp, cur_ranks, *args, **kwargs)

        monkeypatch.setattr(certification, "al_solve", spy)
        with pytest.raises(InfeasibleError):
            staircase_solve(prob, SolverConfig(seed=0))
        # one local solve at full rank, and no same-rank retry
        assert calls == [[2]]

    def test_infeasible_stage_escalates_without_a_same_rank_retry(self, monkeypatch):
        # rank 1 gives 4 dimensions of PSD matrices against 5 generic rows;
        # with two factor blocks at rank 1 (4 + 3 dimensions against 9 rows)
        # the infeasible stage grows both blocks at once
        from lrsdp import certification

        solved = []

        def spy(dp, cur_ranks, *args, **kwargs):
            solved.append(tuple(cur_ranks))
            return al_solve(dp, cur_ranks, *args, **kwargs)

        monkeypatch.setattr(certification, "al_solve", spy)
        cases = [
            (build_sensing_psd(4, 2, 5, seed=0).problem, (1,), (2,)),
            (generate_random(BlockStructure((4, 3), 2, 0), 9, "E" * 9, 0), (1, 1), (2, 2)),
        ]
        for prob, start, grown in cases:
            solved.clear()
            report = staircase_solve(prob, SolverConfig(seed=0), ranks=list(start))
            assert solved.count(start) == 1
            assert [(s.ranks, s.verdict, s.action, s.seed) for s in report.stages] == [
                (start, "Infeasible", "rank-increment", 0),
                (grown, "GlobalOptimal", "certified", 1),
            ]

    def test_escapable_tail_block_restarts_from_a_fresh_seed(self, monkeypatch):
        # the escape block is the SOC instance's tail block, which has no
        # factor to grow: each such stage restarts with the next seed
        from lrsdp import certification

        escape_blocks = []

        def spy(*args, **kwargs):
            cert = certify(*args, **kwargs)
            escape_blocks.append(cert.escape_block)
            return cert

        monkeypatch.setattr(certification, "certify", spy)
        prob = random_soc_fixture(3, 3, 3, 4).problem
        report = staircase_solve(prob, SolverConfig(seed=4))
        assert [(s.ranks, s.verdict, s.action, s.seed) for s in report.stages] == [
            ((3,), "Escapable", "restart", 4),
            ((3,), "Escapable", "restart", 5),
            ((3,), "GlobalOptimal", "certified", 6),
        ]
        assert escape_blocks == [1, 1, None]

    def test_restart_budget_alone_bounds_the_stages(self, monkeypatch):
        # trivial_sdp starts at full rank, so only restarts remain: 120 of
        # them, then a stop, with no cap on the number of stages
        def indeterminate(*args, **kwargs):
            cert = certify(*args, **kwargs)
            return dataclasses.replace(cert, verdict="Indeterminate", escape_block=None)

        monkeypatch.setattr(certification, "certify", indeterminate)
        report = staircase_solve(trivial_sdp(), SolverConfig(seed=0, restarts=120))
        assert [s.action for s in report.stages] == ["restart"] * 120 + ["stop"]
        assert report.verdict == "Indeterminate"

    def test_report_is_deterministic(self):
        prob = generate_random(BlockStructure((6,), 1, 0), 5, "EEEEI", 17)
        r1 = staircase_solve(prob, SolverConfig(seed=17))
        r2 = staircase_solve(prob, SolverConfig(seed=17))
        assert [s.objective for s in r1.stages] == [s.objective for s in r2.stages]
        np.testing.assert_array_equal(
            r1.state.point.factors[0], r2.state.point.factors[0]
        )
