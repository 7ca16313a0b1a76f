"""Augmented-Lagrangian solver: derivatives, inner/outer loops, determinism."""

import numpy as np
import pytest

from lrsdp.factorization import FactorizedPoint
from lrsdp.model import BlockStructure
from lrsdp.solver import (
    InfeasibleError,
    LagrangianState,
    SolverConfig,
    al_hessian_vector,
    al_solve,
    al_value_grad,
    inner_minimize,
)
from lrsdp.apps import build_integer_quadratic, generate_random
from lrsdp.oracle import oracle_solve

from helpers import (
    iqm_cost,
    indefinite_trace_sdp,
    make_problem,
    maxcut_sdp,
    mixed_instance,
    point_axpy,
    point_dot,
    random_direction,
    random_factor_point,
    trivial_sdp,
)


def kink_safe(problem, point, lam, rho, margin=1e-3):
    """Avoid sampling right on a clipped-multiplier switch."""
    from lrsdp.dense import densify
    from lrsdp.factorization import lift
    from lrsdp.model import apply_map

    dp = densify(problem)
    c = apply_map(problem, lift(point)) - dp.b
    shifted = lam - rho * c
    ineq = ~dp.eq_mask
    return not np.any(np.abs(shifted[ineq]) < margin)


class TestValueGrad:
    def test_unconstrained_unit_column(self):
        prob = make_problem((2,), 1, 0, [np.eye(2)], [], [])
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        val, grad = al_value_grad(prob, y, np.zeros(0), 0.0)
        assert val == pytest.approx(1.0)
        np.testing.assert_allclose(grad.factors[0], [[2.0], [0.0]])

    def test_feasible_point_reduces_to_lagrangian_gradient(self):
        prob = trivial_sdp()
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        lam = np.array([0.3])
        _, grad = al_value_grad(prob, y, lam, 5.0)
        # c = 0, so the penalty contributes nothing: grad = 2 (C - lam A) Y
        s = np.eye(2) - lam[0] * np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(grad.factors[0], 2.0 * s @ y.factors[0], atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        h = 1e-5
        checked = 0
        seed = 0
        while checked < 12:
            seed += 1
            problem, ranks = mixed_instance(seed)
            rng = np.random.default_rng(seed)
            point = random_factor_point(problem, ranks, seed)
            lam = rng.standard_normal(problem.m)
            rho = 2.0
            if not kink_safe(problem, point, lam, rho):
                continue
            checked += 1
            _, grad = al_value_grad(problem, point, lam, rho)
            for dseed in range(2):
                d = random_direction(problem, ranks, 100 * seed + dseed)
                fp, _ = al_value_grad(problem, point_axpy(point, d, h), lam, rho)
                fm, _ = al_value_grad(problem, point_axpy(point, d, -h), lam, rho)
                slope = (fp - fm) / (2.0 * h)
                exact = point_dot(grad, d)
                assert abs(slope - exact) <= 1e-6 * (1.0 + abs(exact))


class TestHessianVector:
    def test_unconstrained_identity_cost(self):
        prob = make_problem((3,), 1, 0, [np.eye(3)], [], [])
        rng = np.random.default_rng(0)
        y = FactorizedPoint((rng.standard_normal((3, 2)),), (), np.zeros(0))
        u = FactorizedPoint((rng.standard_normal((3, 2)),), (), np.zeros(0))
        hu = al_hessian_vector(prob, y, np.zeros(0), 1.0, u)
        np.testing.assert_allclose(hu.factors[0], 2.0 * u.factors[0], atol=1e-14)

    def test_zero_direction(self):
        prob = trivial_sdp()
        y = FactorizedPoint((np.eye(2),), (), np.zeros(0))
        u = FactorizedPoint((np.zeros((2, 2)),), (), np.zeros(0))
        hu = al_hessian_vector(prob, y, np.array([0.5]), 3.0, u)
        assert np.all(hu.factors[0] == 0.0)

    def test_matches_gradient_differences(self):
        h = 1e-5
        checked = 0
        seed = 50
        while checked < 8:
            seed += 1
            problem, ranks = mixed_instance(seed)
            rng = np.random.default_rng(seed)
            point = random_factor_point(problem, ranks, seed)
            lam = rng.standard_normal(problem.m)
            rho = 2.0
            if not kink_safe(problem, point, lam, rho):
                continue
            checked += 1
            d = random_direction(problem, ranks, 7 * seed)
            e = random_direction(problem, ranks, 7 * seed + 1)
            hd = al_hessian_vector(problem, point, lam, rho, d)
            _, gp = al_value_grad(problem, point_axpy(point, d, h), lam, rho)
            _, gm = al_value_grad(problem, point_axpy(point, d, -h), lam, rho)
            slope = (point_dot(gp, e) - point_dot(gm, e)) / (2.0 * h)
            exact = point_dot(hd, e)
            assert abs(slope - exact) <= 1e-5 * (1.0 + abs(exact))


# tail blocks (2, 10, 17), free variables (2, 5, 10, 17, 28), inequality rows
JACOBIAN_SEEDS = (2, 5, 10, 17, 28)


def unconstrained_mixed():
    """m = 0 with a factor block, a tail block and a free variable."""
    return make_problem((3, 2), 1, 1, [np.eye(3), np.diag([1.0, -1.0])], [0.5], [])


def eval_at(problem, ranks, seed):
    from lrsdp.dense import densify
    from lrsdp.solver import _Eval, _Work

    rng = np.random.default_rng(seed)
    work = _Work(densify(problem), ranks)
    return _Eval(work, rng.standard_normal(work.dim), rng.standard_normal(problem.m), 2.0)


def jacobian_cases():
    cases = [mixed_instance(seed) for seed in JACOBIAN_SEEDS]
    return cases + [(unconstrained_mixed(), [2])]


class TestConstraintJacobian:
    def test_cases_cover_tails_free_and_inactive_rows(self):
        tails = free = inactive = 0
        for seed, (problem, ranks) in zip(JACOBIAN_SEEDS, jacobian_cases()):
            st = problem.structure
            tails += st.factorized_count < st.num_blocks
            free += st.free_dim > 0
            ev = eval_at(problem, ranks, seed)
            inactive += int(np.sum(~ev.active & ~ev.work.dp.eq_mask))
        assert tails and free and inactive

    def test_rows_match_central_differences_of_apply(self):
        from lrsdp.dense import densify

        h = 1e-4
        for seed, (problem, ranks) in enumerate(jacobian_cases()):
            dp = densify(problem)
            rng = np.random.default_rng(seed)
            qs = list(ranks) + list(problem.structure.tail_sizes)
            ys = [rng.standard_normal((n, q)) for n, q in zip(dp.sizes, qs)]
            x = rng.standard_normal(dp.d)
            jac = dp.jacobian(ys)
            assert jac.shape == (dp.m, sum(y.size for y in ys) + dp.d)
            for _ in range(2):
                us = [rng.standard_normal(y.shape) for y in ys]
                ux = rng.standard_normal(dp.d)

                def at(t):
                    blocks = [(y + t * u) @ (y + t * u).T for y, u in zip(ys, us)]
                    return dp.apply(blocks, x + t * ux)

                slope = (at(h) - at(-h)) / (2.0 * h)
                exact = jac @ np.concatenate([u.ravel() for u in us] + [ux])
                np.testing.assert_allclose(exact, slope, rtol=1e-8, atol=1e-8)
            rows = [i for i in range(dp.m) if i % 2 == 0]
            np.testing.assert_array_equal(dp.jacobian(ys, rows), jac[rows])
            # leading blocks only: the first block's columns plus the free ones
            width = ys[0].size
            lead = np.hstack([jac[:, :width], jac[:, jac.shape[1] - dp.d:]])
            np.testing.assert_array_equal(dp.jacobian(ys[:1]), lead)

    def test_dense_hessian_matches_hvp_columns(self):
        for seed, (problem, ranks) in enumerate(jacobian_cases()):
            ev = eval_at(problem, ranks, seed)
            hess = ev.dense_hessian()
            np.testing.assert_array_equal(hess, hess.T)
            cols = np.column_stack([ev.hvp(e) for e in np.eye(ev.work.dim)])
            assert np.linalg.norm(hess - cols) <= 1e-12 * np.linalg.norm(cols)


def full_eigh_settles(h):
    """The probe's settle rule, decided from every eigenvalue of h."""
    from lrsdp.solver import CURV_FLOOR

    w = np.linalg.eigh(h)[0]
    return bool(w[0] >= -CURV_FLOOR * max(abs(w[0]), abs(w[-1]), 1.0))


def check_probe(h):
    """_probe(h) decides as the full-eigh rule and returns a lambda_min unit vector."""
    from lrsdp.solver import _probe

    direction = _probe(h)
    assert (direction is None) == full_eigh_settles(h)
    if direction is not None:
        w = np.linalg.eigh(h)[0]
        assert abs(np.linalg.norm(direction) - 1.0) <= 1e-12
        rayleigh = float(direction @ h @ direction)
        assert abs(rayleigh - w[0]) <= 1e-10 * max(abs(w[0]), abs(w[-1]))
    return direction


@pytest.fixture
def eigh_calls(monkeypatch):
    """Records one entry per scipy.linalg.eigh call the solver makes."""
    import scipy.linalg

    from lrsdp import solver

    calls = []
    eigh = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(solver.scipy.linalg, "eigh", counting)
    return calls


class TestCurvatureProbe:
    def test_decision_matches_full_eigh_rule_near_the_floor(self, eigh_calls):
        rng = np.random.default_rng(0)
        escapes = 0
        needed_top = set()  # decisions that needed lambda_max itself
        for n in (4, 20, 60):
            for top in (1e-3, 1.0, 30.0, 1e3):
                # a spread spectrum, and one spike over a small bulk
                for bulk in (1.0, 0.01):
                    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                    w = np.sort(rng.uniform(0.0, bulk * top, n))
                    w[-1] = top
                    for shift in (0.0, -0.5e-8, -2e-8):
                        w[0] = shift * max(top, 1.0)
                        h = (q * w) @ q.T
                        eigh_calls.clear()
                        escaped = check_probe(0.5 * (h + h.T)) is not None
                        escapes += escaped
                        if len(eigh_calls) > 1:
                            needed_top.add(escaped)
        assert escapes == 24  # every -2e-8 case, no other
        assert needed_top == {False, True}

    def test_agrees_on_dense_hessians(self):
        escapes = 0
        for seed, (problem, ranks) in enumerate(jacobian_cases()):
            ev = eval_at(problem, ranks, seed)
            escapes += check_probe(ev.dense_hessian()) is not None
            np.testing.assert_array_equal(ev.curvature, check_probe(ev.dense_hessian()))
        assert escapes  # random points carry negative curvature

    def test_slack_hessian_equals_kron(self):
        from lrsdp.solver import _slack_hessian

        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal((n, n)) for n in (5, 3, 1)]
        blocks = [b + b.T for b in blocks]
        qs = [2, 3, 1]
        h = _slack_hessian(blocks, qs, 10 + 9 + 1 + 4)
        expected = np.zeros_like(h)
        off = 0
        for b, q in zip(blocks, qs):
            size = b.shape[0] * q
            expected[off:off + size, off:off + size] = np.kron(2.0 * b, np.eye(q))
            off += size
        np.testing.assert_array_equal(h, expected)

    def test_rejected_escape_reuses_the_probe(self, eigh_calls):
        # saddle at Y = 0 with a flat gradient; the quartic penalty on X_22
        # rejects the unit escape step and accepts it at radius 1/4
        e22 = np.diag([0.0, 1.0])
        prob = make_problem((2,), 1, 0, [np.diag([1.0, -1.0])], [], [([e22], [], 0.0, "E")])
        y0 = FactorizedPoint((np.zeros((2, 1)),), (), np.zeros(0))
        st = LagrangianState(y0, np.zeros(1), 10.0, 0.0, 0.0, 0.0)
        out = inner_minimize(prob, st, SolverConfig(max_inner=2))
        np.testing.assert_allclose(np.abs(out.point.factors[0]), [[0.0], [0.25]])
        assert len(eigh_calls) == 1


class TestInnerMinimize:
    def test_stationary_start_returns_same_point(self):
        prob = trivial_sdp()
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        st = LagrangianState(y, np.array([1.0]), 10.0, 1.0, 0.0, 0.0)
        out = inner_minimize(prob, st, SolverConfig())
        np.testing.assert_array_equal(out.point.factors[0], y.factors[0])
        assert out.stationarity <= 1e-10

    def test_feasible_start_converges_tightly(self):
        prob = trivial_sdp()
        rng = np.random.default_rng(0)
        y0 = rng.standard_normal((2, 2))
        y0[0] /= np.linalg.norm(y0[0])  # X_11 = 1: feasible start
        st = LagrangianState(
            FactorizedPoint((y0,), (), np.zeros(0)), np.array([1.0]), 10.0, 0.0, 0.0, 1.0
        )
        out = inner_minimize(prob, st, SolverConfig())
        assert out.stationarity <= 1e-8

    def test_escapes_flat_saddle(self):
        prob = make_problem((2,), 1, 0, [np.diag([1.0, -1.0])], [], [])
        y0 = FactorizedPoint((np.zeros((2, 1)),), (), np.zeros(0))
        st = LagrangianState(y0, np.zeros(0), 1.0, 0.0, 0.0, 0.0)
        out = inner_minimize(prob, st, SolverConfig(max_inner=15))
        assert out.objective < -1e-6  # strictly left the saddle


class TestOuterLoop:
    def test_trivial_sdp(self):
        state, trace = al_solve(trivial_sdp(), [2], SolverConfig(seed=0))
        assert state.objective == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(state.lam, [1.0], atol=1e-6)
        assert state.infeasibility <= 1e-8
        assert state.stationarity <= 1e-8

    def test_stops_once_converged_without_raising_the_penalty(self):
        # the absolute 1e-8 stationarity test ran all 50 outer iterations here,
        # raising rho to its cap while infeasibility sat at roundoff
        prob = maxcut_sdp(24, 10)
        cfg = SolverConfig(seed=0)
        state, trace = al_solve(prob, [7], cfg)
        assert state.converged
        assert len(trace) <= 10
        assert all(rec["rho"] < cfg.penalty_cap for rec in trace)
        assert state.infeasibility <= cfg.feas_tol * 2.0

    def test_indefinite_cost_with_trace_constraint(self):
        state, _ = al_solve(indefinite_trace_sdp(), [2], SolverConfig(seed=0))
        assert state.objective == pytest.approx(-1.0, abs=1e-6)

    def test_iqm_matches_oracle(self):
        built = build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16))
        target = oracle_solve(built.problem).objective
        state, _ = al_solve(built.problem, [2], SolverConfig(seed=0))
        assert abs(state.objective - target) <= 1e-5 * (1.0 + abs(target))

    def test_inequality_multipliers_stay_nonnegative(self):
        for seed in range(5):
            prob = generate_random(BlockStructure((4,), 1, 0), 5, "EEIII", seed)
            state, _ = al_solve(prob, [3], SolverConfig(seed=seed))
            ineq = prob.inequality_indices()
            assert np.all(state.lam[ineq] >= 0.0)

    def test_complementarity_at_convergence(self):
        from lrsdp.factorization import lift
        from lrsdp.model import apply_map

        for seed in range(5):
            prob = generate_random(BlockStructure((4,), 1, 0), 6, "EEEIII", seed + 20)
            state, _ = al_solve(prob, [3], SolverConfig(seed=seed))
            c = apply_map(prob, lift(state.point)) - prob.b
            for i in prob.inequality_indices():
                assert abs(state.lam[i] * c[i]) <= 1e-6 * (1.0 + abs(state.lam[i]))

    def test_determinism(self):
        prob = generate_random(BlockStructure((5,), 1, 0), 4, "EEEE", 3)
        s1, t1 = al_solve(prob, [3], SolverConfig(seed=5))
        s2, t2 = al_solve(prob, [3], SolverConfig(seed=5))
        np.testing.assert_array_equal(s1.point.factors[0], s2.point.factors[0])
        assert t1 == t2

    def test_infeasible_detection(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 2.0, "E")],
        )
        with pytest.raises(InfeasibleError):
            al_solve(prob, [2], SolverConfig(seed=0))

    def test_multi_block_with_free_variables(self):
        for seed in range(3):
            prob = generate_random(BlockStructure((4, 3), 2, 2), 6, "EEEEEI", seed + 40)
            state, _ = al_solve(prob, [3, 3], SolverConfig(seed=seed))
            target = oracle_solve(prob).objective
            assert abs(state.objective - target) <= 1e-4 * (1.0 + abs(target))
