"""Augmented-Lagrangian solver: derivatives, inner/outer loops, determinism."""

import numpy as np
import pytest

from lrsdp.dense import densify
from lrsdp.factorization import FactorizedPoint, NotPsdError
from lrsdp.model import BlockStructure, SymmetricMatrix
from lrsdp.solver import (
    InfeasibleError,
    NumericalFailure,
    SolverConfig,
    al_solve,
    al_value_grad,
)
from lrsdp.apps import build_integer_quadratic, generate_random
from lrsdp.oracle import oracle_solve

from helpers import (
    apply_reference,
    iqm_cost,
    indefinite_trace_sdp,
    lifted,
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
    dp = densify(problem)
    c = apply_reference(problem, *lifted(point)) - dp.b
    shifted = lam - rho * c
    ineq = ~dp.eq_mask
    return not np.any(np.abs(shifted[ineq]) < margin)


class TestValueGrad:
    def test_unconstrained_unit_column(self):
        prob = make_problem((2,), 1, 0, [np.eye(2)], [], [])
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        val, grad = al_value_grad(densify(prob), y, np.zeros(0), 0.0)
        assert val == pytest.approx(1.0)
        np.testing.assert_allclose(grad.factors[0], [[2.0], [0.0]])

    def test_feasible_point_reduces_to_lagrangian_gradient(self):
        prob = trivial_sdp()
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        lam = np.array([0.3])
        _, grad = al_value_grad(densify(prob), y, lam, 5.0)
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
            dp = densify(problem)
            _, grad = al_value_grad(dp, point, lam, rho)
            for dseed in range(2):
                d = random_direction(problem, ranks, 100 * seed + dseed)
                fp, _ = al_value_grad(dp, point_axpy(point, d, h), lam, rho)
                fm, _ = al_value_grad(dp, point_axpy(point, d, -h), lam, rho)
                slope = (fp - fm) / (2.0 * h)
                exact = point_dot(grad, d)
                assert abs(slope - exact) <= 1e-6 * (1.0 + abs(exact))

    def test_value_equals_solver_value(self):
        # one formula: the public value at a point equals al_solve's at its internal factors
        for seed in JACOBIAN_SEEDS:
            problem, ranks = mixed_instance(seed)
            point = random_factor_point(problem, ranks, seed)
            lam = np.random.default_rng(seed).standard_normal(problem.m)
            value, _ = al_value_grad(densify(problem), point, lam, 2.0)
            assert abs(value - eval_point(problem, point, lam, 2.0).value) <= 1e-12 * (1.0 + abs(value))

    def test_non_finite_gradient_raises(self):
        # the overflow point of TestLazyEval: a finite value, but 2 S Y overflows
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        with pytest.raises(NumericalFailure), np.errstate(over="ignore"):
            al_value_grad(densify(trivial_sdp()), y, [1e308], 10.0)

    def test_tail_that_is_not_psd_raises(self):
        # the tail enters the solver's layout through its PSD factor, as a warm start does
        dp = densify(generate_random(BlockStructure((3, 2), 1, 0), 3, "EEE", 1))
        y = np.random.default_rng(0).standard_normal((3, 2))
        point = FactorizedPoint((y,), (SymmetricMatrix.from_dense(-np.eye(2)),), np.zeros(0))
        with pytest.raises(NotPsdError):
            al_value_grad(dp, point, np.zeros(dp.m), 1.0)

    @pytest.mark.parametrize(
        "kind,factors,rho,error,message",
        [
            pytest.param("E", (), 1.0, ValueError, "need 1 factor ranks, got 0", id="factor-count"),
            pytest.param("I", ([[1.0], [0.0]],), 0.0, NumericalFailure,
                         "PHR terms need rho > 0 with inequality rows", id="rho-zero-with-inequality"),
            # X_11 - 1 = 3, so 0.5 rho c^2 overflows
            pytest.param("E", ([[2.0], [0.0]],), 1e308, NumericalFailure,
                         "non-finite augmented Lagrangian evaluation", id="non-finite-value"),
        ],
    )
    def test_guards_raise(self, kind, factors, rho, error, message):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        dp = densify(make_problem((2,), 1, 0, [np.eye(2)], [], [([e11], [], 1.0, kind)]))
        y = FactorizedPoint(tuple(np.array(f) for f in factors), (), np.zeros(0))
        with pytest.raises(error, match=f"^{message}$"), np.errstate(over="ignore"):
            al_value_grad(dp, y, [0.0], rho)

    def test_al_solve_rejects_wrong_rank_count(self):
        with pytest.raises(ValueError, match="^need 1 factor ranks, got 2$"):
            al_solve(densify(trivial_sdp()), [1, 1], SolverConfig())


def stepped(ev, d, t):
    """_Eval at ev's point moved by t d, at ev's multipliers and penalty."""
    from lrsdp.solver import _Eval

    return _Eval(ev.work, ev.z + t * d, ev.lam, ev.rho)


def solver_layout_cases(first_seed, count):
    """(eval, seed) at kink-safe random points of mixed instances, in al_solve's layout."""
    seed = first_seed
    while count:
        seed += 1
        problem, ranks = mixed_instance(seed)
        rng = np.random.default_rng(seed)
        point = random_factor_point(problem, ranks, seed)
        lam = rng.standard_normal(problem.m)
        if kink_safe(problem, point, lam, 2.0):
            count -= 1
            yield eval_point(problem, point, lam, 2.0), seed


class TestHessianVector:
    """_Eval's gradient and Hessian-vector products in al_solve's layout."""

    def test_unconstrained_identity_cost(self):
        prob = make_problem((3,), 1, 0, [np.eye(3)], [], [])
        rng = np.random.default_rng(0)
        y = FactorizedPoint((rng.standard_normal((3, 2)),), (), np.zeros(0))
        u = rng.standard_normal(6)
        hu = eval_point(prob, y, np.zeros(0), 1.0).hvp(u)
        np.testing.assert_allclose(hu, 2.0 * u, atol=1e-14)

    def test_zero_direction(self):
        ev = eval_point(trivial_sdp(), FactorizedPoint((np.eye(2),), (), np.zeros(0)), [0.5], 3.0)
        assert np.all(ev.hvp(np.zeros(ev.work.dim)) == 0.0)

    def test_gradient_matches_value_differences(self):
        h = 1e-5
        for ev, seed in solver_layout_cases(0, 12):
            for dseed in range(2):
                d = np.random.default_rng(100 * seed + dseed).standard_normal(ev.work.dim)
                slope = (stepped(ev, d, h).value - stepped(ev, d, -h).value) / (2.0 * h)
                exact = float(ev.grad @ d)
                assert abs(slope - exact) <= 1e-6 * (1.0 + abs(exact))

    def test_matches_gradient_differences(self):
        h = 1e-5
        for ev, seed in solver_layout_cases(50, 8):
            d = np.random.default_rng(7 * seed).standard_normal(ev.work.dim)
            e = np.random.default_rng(7 * seed + 1).standard_normal(ev.work.dim)
            slope = float((stepped(ev, d, h).grad - stepped(ev, d, -h).grad) @ e) / (2.0 * h)
            exact = float(ev.hvp(d) @ e)
            assert abs(slope - exact) <= 1e-5 * (1.0 + abs(exact))


# tail blocks (2, 10, 17), free variables (2, 5, 10, 17, 28), inequality rows
JACOBIAN_SEEDS = (2, 5, 10, 17, 28)


def unconstrained_mixed():
    """m = 0 with a factor block, a tail block and a free variable."""
    return make_problem((3, 2), 1, 1, [np.eye(3), np.diag([1.0, -1.0])], [0.5], [])


def eval_at(problem, ranks, seed, rank_deficient=False):
    """_Eval at a random point; rank_deficient zeroes every factor's last column (tails too)."""
    from lrsdp.solver import _Eval, _Work

    rng = np.random.default_rng(seed)
    work = _Work(densify(problem), ranks)
    z = rng.standard_normal(work.dim)
    if rank_deficient:
        for off, (n, q) in zip(work.offsets, work.shapes):
            z[off:off + n * q].reshape(n, q)[:, -1] = 0.0
    return _Eval(work, z, rng.standard_normal(problem.m), 2.0)


def eval_point(problem, point, lam, rho):
    """_Eval at a point in al_solve's layout (tail blocks as full-rank factors)."""
    from lrsdp.solver import _Eval, _Work, _internal_factors

    work = _Work(densify(problem), point.ranks)
    z0 = work.pack(_internal_factors(point), point.free)
    return _Eval(work, z0, np.asarray(lam, dtype=float), rho)


def run_inner(problem, point, lam, rho, max_inner=500):
    """_inner from a point at fixed (lam, rho), with al_solve's first inner tolerance."""
    from lrsdp.solver import _inner

    ev0 = eval_point(problem, point, lam, rho)
    ev, _ = _inner(ev0, max(SolverConfig().tol, 0.1 * ev0.infeasibility()), max_inner)
    return ev


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
            # one factor per block: a shorter list raises
            with pytest.raises(ValueError):
                dp.jacobian(ys[:-1])

    def test_dense_hessian_matches_hvp_columns(self):
        for seed, (problem, ranks) in enumerate(jacobian_cases()):
            ev = eval_at(problem, ranks, seed)
            hess = reference_hessian(ev)
            cols = np.column_stack([ev.hvp(e) for e in np.eye(ev.work.dim)])
            assert np.linalg.norm(hess - cols) <= 1e-12 * np.linalg.norm(cols)


def reference_hessian(ev):
    """blockdiag(kron(2 S_j, I_q), 0) + J^T diag(w) J at ev, built without ``hvp``."""
    work = ev.work
    h = ev.J.T @ np.diag(ev.hvp_weight) @ ev.J
    for off, (n, q), s in zip(work.offsets, work.shapes, ev.S):
        h[off:off + n * q, off:off + n * q] += np.kron(2.0 * s, np.eye(q))
    return 0.5 * (h + h.T)


def full_eigh_settles(h):
    """The probe's settle rule, decided from every eigenvalue of h."""
    from lrsdp.solver import CURV_FLOOR

    w = np.linalg.eigh(h)[0]
    return bool(w[0] >= -CURV_FLOOR * max(abs(w[0]), abs(w[-1]), 1.0))


def check_curvature(ev):
    """ev.curvature decides as the full-eigh rule on the dense Hessian and
    escapes along a unit direction that clears the rule's floor."""
    from lrsdp.solver import CURV_FLOOR

    h = reference_hessian(ev)
    direction = ev.curvature
    assert (direction is None) == full_eigh_settles(h)
    if direction is not None:
        w = np.linalg.eigvalsh(h)
        assert abs(np.linalg.norm(direction) - 1.0) <= 1e-12
        assert float(direction @ h @ direction) < -CURV_FLOOR * max(1.0, w[-1])
    return direction


@pytest.fixture
def eigh_calls(monkeypatch):
    """Records (name, shape) of every numpy eigh and eigvalsh call, by the
    solver or the test."""
    from lrsdp import solver

    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(solver.np.linalg, name, counting)
    return calls


def probe_with_calls(ev, calls):
    """ev.curvature, and the number of eigensolves of order dim or more it
    ran beyond those of the slack matrices (which are of order dim when a
    single block is held at rank 1)."""
    calls.clear()
    direction = ev.curvature
    dim = ev.work.dim
    slack = sum(s.shape[0] >= dim for s in ev.S)
    return direction, sum(shape[-1] >= dim for _, shape in calls) - slack


def near_floor_cases():
    """(d, jq, rho) with lambda_min(diag(d) + rho jq^T jq) = shift * max(1, top)
    and lambda_max = top, no rows or n / 2 of them, plus the shift."""
    rng = np.random.default_rng(0)
    for n in (4, 20, 60):
        for top in (1e-3, 1.0, 30.0, 1e3):
            # a spread spectrum, and one spike over a small bulk
            for bulk in (1.0, 0.01):
                d0 = np.sort(rng.uniform(-bulk, bulk, n))
                d0[-1] = 1.0
                for rows in (0, n // 2):
                    j0 = rng.standard_normal((rows, n)) * np.sqrt(bulk / n)
                    w0 = np.linalg.eigvalsh(np.diag(d0) + j0.T @ j0)
                    for shift in (0.0, -0.5e-8, -2e-8):
                        low = shift * max(top, 1.0)
                        alpha = (top - low) / (w0[-1] - w0[0])
                        for rho in (1.0, 1e4, 1e8, 1e12) if rows else (1.0,):
                            d = alpha * (d0 - w0[-1]) + top
                            yield d, np.sqrt(alpha / rho) * j0, rho, shift


class TestCurvatureProbe:
    def test_decision_matches_full_eigh_rule_near_the_floor(self):
        from lrsdp.solver import CURV_FLOOR, _lambda_max, _schur_escape

        escapes = cases = 0
        for d, jq, rho, shift in near_floor_cases():
            h = np.diag(d) + rho * jq.T @ jq
            w = np.linalg.eigvalsh(h)
            if len(jq):
                assert abs(_lambda_max(d, jq, rho) - w[-1]) <= 1e-12 * max(1.0, abs(w[-1]))
            tau = CURV_FLOOR * max(1.0, w[-1])
            u = _schur_escape(d, jq, rho, tau)
            assert (u is None) == (w[0] >= -tau) == (shift > -1e-8)
            if u is not None:
                assert float(u @ h @ u) < -tau * float(u @ u)
            escapes += u is not None
            cases += 1
        assert (cases, escapes) == (360, 120)  # every -2e-8 case, no other

    @pytest.mark.parametrize("top", [30.0, 1e3])
    def test_curvature_decides_as_full_eigh_rule_near_the_floor(self, top, eigh_calls):
        # m = 0 and S = top u u^T + w0 v v^T + (top / 100) (the rest), u spread
        # evenly, so H = 2 S (x) I_2 has max diag(H) < lambda_max(H) / 2, and
        # in the slack eigenbasis it is diagonal with lambda_max(H) = 2 top
        u = np.ones(6) / np.sqrt(6.0)
        v = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)
        rest = np.eye(6) - np.outer(u, u) - np.outer(v, v)
        for shift, escapes in ((-0.5e-8, False), (-2e-8, True)):
            cost = top * (np.outer(u, u) + shift * np.outer(v, v) + 0.01 * rest)
            ev = eval_at(make_problem((6,), 1, 0, [cost], [], []), [2], 0)
            _, dense = probe_with_calls(ev, eigh_calls)
            assert (check_curvature(ev) is not None) == escapes
            assert dense == 0

    def test_agrees_on_dense_hessians(self):
        escapes = 0
        for seed, (problem, ranks) in enumerate(jacobian_cases()):
            escapes += check_curvature(eval_at(problem, ranks, seed)) is not None
        assert escapes  # random points carry negative curvature

    def test_rank_deficient_escape_is_exact(self, eigh_calls):
        # H >= blockdiag(2 S_j (x) I_q, 0) and J (v z^T) = 0 for Y_j z = 0, so
        # lambda_min(H) = 2 lambda_min(S), and the Schur complement's bottom
        # eigenvector is such a v z^T, with no part on the other coordinates
        probes = 0
        for seed in JACOBIAN_SEEDS:
            problem, ranks = mixed_instance(seed)
            st = problem.structure
            if st.factorized_count == st.num_blocks or not st.free_dim:
                continue  # keep cases with tail blocks and free variables
            for point_seed in range(3):
                ev = eval_at(problem, ranks, 10 * seed + point_seed, rank_deficient=True)
                direction, dense = probe_with_calls(ev, eigh_calls)
                assert dense == 0
                assert direction is not None and check_curvature(ev) is direction
                h = reference_hessian(ev)
                lo = np.linalg.eigvalsh(h)[0]
                slack_lo = 2.0 * min(np.linalg.eigvalsh(s)[0] for s in ev.S)
                assert abs(float(direction @ h @ direction) - lo) <= 1e-10 * abs(lo)
                assert abs(slack_lo - lo) <= 1e-10 * abs(lo)
                probes += 1
        assert probes >= 6

    @pytest.mark.parametrize("escapes", [False, True])
    def test_undecided_full_rank_point_runs_no_order_dim_eigensolve(self, escapes, eigh_calls):
        # slack diag(1, -1) or diag(1, 1, -1) at a full-rank Y = e_1 with
        # A(Y Y^T) = b: the penalty rho |J u|^2 on the active rows lifts the
        # negative slack direction, so the Schur complement decides a settle
        # (2x2) or an escape (3x3)
        if escapes:
            rows = [
                ([[[-1.0, 0.0, -0.5], [0.0, -2.0, 0.0], [-0.5, 0.0, -2.0]]], [], -1.0, "E"),
                ([[[2.0, -0.5, 0.5], [-0.5, 0.0, -0.5], [0.5, -0.5, 1.0]]], [], 2.0, "E"),
            ]
            prob = make_problem((3,), 1, 0, [np.diag([1.0, 1.0, -1.0])], [], rows)
            y = np.eye(3)[:, :1]
        else:
            rows = [([np.diag([0.0, 1.0])], [], 1.0, "E")]
            prob = make_problem((2,), 1, 0, [np.diag([1.0, -1.0])], [], rows)
            y = np.ones((2, 1))
        ev = eval_point(prob, FactorizedPoint((y,), (), np.zeros(0)), np.zeros(len(rows)), 10.0)
        assert np.linalg.norm(ev.c) == 0.0 and min(np.linalg.eigvalsh(ev.S[0])) < 0.0
        _, dense = probe_with_calls(ev, eigh_calls)
        assert (check_curvature(ev) is not None) == escapes
        assert dense == 0

    @pytest.mark.parametrize("escapes", [False, True])
    def test_exact_lambda_max_decides_between_the_floors(self, escapes, eigh_calls, monkeypatch):
        # S = diag(1/2, 0, s) at Y = e_1 with one active row whose J = (1, 1, 0)
        # / sqrt(rho): H = diag(1, 0, 2 s) + [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
        # so lambda_min(H) = 2 s, the largest diagonal entry is 2, the upper
        # bound max d + rho |J|^2 is 3, and lambda_max(H) = (3 + sqrt 5) / 2:
        # 2 s lies between the floors at 2 and 3, on either side of the exact one
        from lrsdp import solver

        lambda_max, exact = solver._lambda_max, []

        def spy(*args):
            exact.append(lambda_max(*args))
            return exact[-1]

        monkeypatch.setattr(solver, "_lambda_max", spy)
        s = -1.4e-8 if escapes else -1.15e-8
        a = 1.0 / np.sqrt(40.0)
        row = ([[[a, a, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]]], [], a, "E")
        prob = make_problem((3,), 1, 0, [np.diag([0.5, 0.0, s])], [], [row])
        ev = eval_point(prob, FactorizedPoint((np.eye(3)[:, :1],), (), np.zeros(0)), np.zeros(1), 10.0)
        floors = solver.CURV_FLOOR * np.array([2.0, (3.0 + np.sqrt(5.0)) / 2.0, 3.0])
        assert floors[0] < -2.0 * s < floors[2] and (-2.0 * s > floors[1]) == escapes
        _, dense = probe_with_calls(ev, eigh_calls)
        assert (check_curvature(ev) is not None) == escapes
        assert dense == 0
        assert len(exact) == 1 and abs(exact[0] - floors[1] / solver.CURV_FLOOR) <= 1e-14

    def test_slack_settled_point_runs_no_order_dim_eigensolve(self, eigh_calls):
        for n in (6, 10):
            state, _ = al_solve(densify(maxcut_sdp(n, 0)), [3], SolverConfig())
            ev = eval_point(maxcut_sdp(n, 0), state.point, state.lam, state.rho)
            assert min(np.linalg.eigvalsh(ev.S[0])) < 0.0  # settled by the floor, not by S >= 0
            direction, dense = probe_with_calls(ev, eigh_calls)
            # no slack eigenvalue falls below the floor: the probe settles after
            # the slack eigensolve, with no bound on lambda_max(H) and no Schur complement
            assert dense == 0 and [name for name, _ in eigh_calls] == ["eigh"]
            assert direction is None and check_curvature(ev) is None

    def test_rejected_escape_reuses_the_probe(self, eigh_calls):
        # saddle at Y = 0 with a flat gradient; the quartic penalty on X_22
        # rejects the unit escape step and accepts it at radius 1/4
        e22 = np.diag([0.0, 1.0])
        prob = make_problem((2,), 1, 0, [np.diag([1.0, -1.0])], [], [([e22], [], 0.0, "E")])
        y0 = FactorizedPoint((np.zeros((2, 1)),), (), np.zeros(0))
        ev = run_inner(prob, y0, np.zeros(1), 10.0, max_inner=2)
        np.testing.assert_allclose(np.abs(ev.work.unpack(ev.z)[0][0]), [[0.0], [0.25]])
        solve_calls = list(eigh_calls)
        eigh_calls.clear()
        assert eval_point(prob, y0, np.zeros(1), 10.0).curvature is not None
        assert eigh_calls and solve_calls == eigh_calls  # the eigensolves of one probe


def reference_steihaug(g, hvp, delta, max_cg):
    """Truncated CG rerun from scratch on every call: the solver's routine
    before it recorded its path, kept verbatim as the reference."""
    z = np.zeros_like(g)
    r = g.copy()
    d = -r
    rr = float(r @ r)
    gnorm = np.sqrt(rr)
    stop = min(0.5, np.sqrt(gnorm)) * gnorm

    def boundary(zv, dv):
        a = float(dv @ dv)
        bq = 2.0 * float(zv @ dv)
        cq = float(zv @ zv) - delta * delta
        disc = max(bq * bq - 4.0 * a * cq, 0.0)
        tau = (-bq + np.sqrt(disc)) / (2.0 * a)
        return zv + tau * dv

    for _ in range(max_cg):
        hd = hvp(d)
        dhd = float(d @ hd)
        if dhd <= 1e-14 * float(d @ d):
            return boundary(z, d)
        alpha = rr / dhd
        z_next = z + alpha * d
        if float(z_next @ z_next) >= delta * delta:
            return boundary(z, d)
        z = z_next
        r = r + alpha * hd
        rr_next = float(r @ r)
        if np.sqrt(rr_next) <= stop:
            return z
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return z


class TestCgPath:
    @pytest.mark.parametrize("lowest", [0.05, -0.5])
    def test_replay_equals_fresh_run_with_no_new_product(self, lowest):
        from lrsdp.solver import _CgPath

        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        h = (q * np.append(np.linspace(0.1, 10.0, 11), lowest)) @ q.T
        g = rng.standard_normal(12)
        products = [0]

        def hvp(u):
            products[0] += 1
            return h @ u

        path = _CgPath(g, 24)
        for delta in (1.0, 0.25, 1.0 / 16.0, 4.0):
            before = products[0]
            step, curv = path.step(delta, hvp)
            if delta < 1.0:  # a smaller radius only replays the record
                assert products[0] == before
            np.testing.assert_array_equal(step, reference_steihaug(g, lambda u: h @ u, delta, 24))
            assert abs(curv - step @ h @ step) <= 1e-12 * abs(step @ h @ step)
            assert np.linalg.norm(step) <= delta * (1.0 + 1e-12)
        if lowest > 0.0:  # the unit radius stops early and radius 4 runs past the record
            assert products[0] > before

    def test_step_curvature_matches_a_product_on_every_exit(self):
        # s.H s from the recorded scalars, on interior, boundary and
        # negative-curvature exits of fresh paths
        from lrsdp.solver import _CgPath

        rng = np.random.default_rng(5)
        exits = []
        for lowest in (0.05, -0.5):
            q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
            h = (q * np.append(np.linspace(0.1, 10.0, 11), lowest)) @ q.T
            for delta in (0.1, 1.0, 100.0):
                path = _CgPath(rng.standard_normal(12), 24)
                step, curv = path.step(delta, lambda u: h @ u)
                _, d, zz = path.record[-1][:3]
                exits.append("interior" if d is None else "negative" if zz == np.inf else "boundary")
                assert abs(curv - step @ h @ step) <= 1e-12 * abs(step @ h @ step)
        assert set(exits) == {"interior", "boundary", "negative"}

    def test_inner_equals_fresh_cg_on_every_call(self, monkeypatch):
        from lrsdp import solver

        class FreshCg:
            def __init__(self, ev):
                self.ev = ev

            def step(self, delta, hvp):
                s = reference_steihaug(self.ev.grad, hvp, delta, 2 * self.ev.work.dim)
                return s, float(s @ hvp(s))

        products = [0]
        hvp = solver._Eval.hvp

        def counting(self, u):
            products[0] += 1
            return hvp(self, u)

        def run():
            products[0] = 0
            ev, accepted = solver._inner(eval_at(maxcut_sdp(12, 0), [3], 0), 1e-10, 500)
            return ev.z, accepted, products[0]

        monkeypatch.setattr(solver._Eval, "hvp", counting)
        z, accepted, replayed = run()
        monkeypatch.setattr(solver._Eval, "cg_path", property(FreshCg))
        z_fresh, accepted_fresh, fresh = run()
        np.testing.assert_array_equal(z, z_fresh)
        assert accepted == accepted_fresh
        assert replayed < fresh  # rejected steps happened and cost no CG products


class TestLazyEval:
    def test_trial_value_builds_no_slack_or_jacobian(self):
        ev = eval_at(maxcut_sdp(12, 0), [3], 0)
        assert np.isfinite(ev.value)
        assert "J" not in ev.__dict__ and "_slack" not in ev.__dict__ and "grad" not in ev.__dict__
        ev.hvp(np.ones(ev.work.dim))
        assert "J" in ev.__dict__ and "_slack" in ev.__dict__

    def test_non_finite_gradient_raises_on_first_access(self):
        from lrsdp.solver import NumericalFailure

        # X_11 = 1 holds exactly, so the value is finite, but 2 S Y overflows
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        ev = eval_point(trivial_sdp(), y, [1e308], 10.0)
        assert ev.value == 1.0
        with pytest.raises(NumericalFailure), np.errstate(over="ignore"):
            ev.grad


class TestInnerMinimize:
    def test_stationary_start_returns_same_point(self):
        prob = trivial_sdp()
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        ev = run_inner(prob, y, np.array([1.0]), 10.0)
        np.testing.assert_array_equal(ev.work.unpack(ev.z)[0][0], y.factors[0])
        assert np.linalg.norm(ev.grad) <= 1e-10

    def test_feasible_start_converges_tightly(self):
        prob = trivial_sdp()
        rng = np.random.default_rng(0)
        y0 = rng.standard_normal((2, 2))
        y0[0] /= np.linalg.norm(y0[0])  # X_11 = 1: feasible start
        ev = run_inner(prob, FactorizedPoint((y0,), (), np.zeros(0)), np.array([1.0]), 10.0)
        assert np.linalg.norm(ev.grad) <= 1e-8

    def test_escapes_flat_saddle(self):
        prob = make_problem((2,), 1, 0, [np.diag([1.0, -1.0])], [], [])
        y0 = FactorizedPoint((np.zeros((2, 1)),), (), np.zeros(0))
        ev = run_inner(prob, y0, np.zeros(0), 1.0, max_inner=15)
        assert ev.sdp_objective < -1e-6  # strictly left the saddle


class TestOuterLoop:
    def test_trivial_sdp(self):
        state, trace = al_solve(densify(trivial_sdp()), [2], SolverConfig(seed=0))
        assert state.objective == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(state.lam, [1.0], atol=1e-6)
        assert state.infeasibility <= 1e-8
        assert state.stationarity <= 1e-8

    def test_stops_once_converged_without_raising_the_penalty(self):
        # the absolute 1e-8 stationarity test ran all 50 outer iterations here,
        # raising rho to its cap while infeasibility sat at roundoff
        prob = maxcut_sdp(24, 10)
        cfg = SolverConfig(seed=0)
        state, trace = al_solve(densify(prob), [7], cfg)
        assert state.converged
        assert len(trace) <= 10
        assert all(rec["rho"] < cfg.penalty_cap for rec in trace)
        assert state.infeasibility <= cfg.tol * 2.0

    def test_config_needs_an_outer_iteration(self):
        with pytest.raises(ValueError, match="max_outer"):
            SolverConfig(max_outer=0)

    @pytest.mark.parametrize(
        "field, value",
        [("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")),
         ("restarts", -2)],
    )
    def test_config_rejects_bad_tol_and_restarts(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_indefinite_cost_with_trace_constraint(self):
        state, _ = al_solve(densify(indefinite_trace_sdp()), [2], SolverConfig(seed=0))
        assert state.objective == pytest.approx(-1.0, abs=1e-6)

    def test_iqm_matches_oracle(self):
        built = build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16))
        target = oracle_solve(built.problem).objective
        state, _ = al_solve(densify(built.problem), [2], SolverConfig(seed=0))
        assert abs(state.objective - target) <= 1e-5 * (1.0 + abs(target))

    def test_inequality_multipliers_stay_nonnegative(self):
        for seed in range(5):
            prob = generate_random(BlockStructure((4,), 1, 0), 5, "EEIII", seed)
            state, _ = al_solve(densify(prob), [3], SolverConfig(seed=seed))
            ineq = prob.inequality_indices()
            assert np.all(state.lam[ineq] >= 0.0)

    def test_complementarity_at_convergence(self):
        for seed in range(5):
            prob = generate_random(BlockStructure((4,), 1, 0), 6, "EEEIII", seed + 20)
            state, _ = al_solve(densify(prob), [3], SolverConfig(seed=seed))
            c = apply_reference(prob, *lifted(state.point)) - prob.b
            for i in prob.inequality_indices():
                assert abs(state.lam[i] * c[i]) <= 1e-6 * (1.0 + abs(state.lam[i]))

    def test_determinism(self):
        prob = generate_random(BlockStructure((5,), 1, 0), 4, "EEEE", 3)
        s1, t1 = al_solve(densify(prob), [3], SolverConfig(seed=5))
        s2, t2 = al_solve(densify(prob), [3], SolverConfig(seed=5))
        np.testing.assert_array_equal(s1.point.factors[0], s2.point.factors[0])
        assert t1 == t2

    def test_infeasible_detection(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 2.0, "E")],
        )
        with pytest.raises(InfeasibleError):
            al_solve(densify(prob), [2], SolverConfig(seed=0))

    def test_infeasible_input_raises_within_seven_outer_iterations(self, monkeypatch):
        # infeasibility that stops halving raises without climbing rho to its cap
        from lrsdp import solver

        inner = solver._inner
        inner_calls = [0]

        def counting(*args, **kwargs):
            inner_calls[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(solver, "_inner", counting)
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        cases = [
            (make_problem((2,), 1, 0, [np.eye(2)], [],
                          [([e11], [], 1.0, "E"), ([e11], [], 2.0, "E")]), rank)
            for rank in (1, 2)
        ]
        # generically {Y : A(Y Y^T) = b} is empty when n p - p (p - 1) / 2 < m
        cases += [
            (generate_random(BlockStructure((6,), 1, 0), 8, "E" * 8, seed), 1)
            for seed in range(40)
        ]
        for prob, rank in cases:
            for seed in (0, 1):
                inner_calls[0] = 0
                with pytest.raises(InfeasibleError):
                    al_solve(densify(prob), [rank], SolverConfig(seed=seed))
                assert inner_calls[0] <= 7

    def test_degenerate_feasible_input_never_stalls(self):
        # X_11 = 0 leaves no strictly feasible point, so infeasibility falls
        # slowly as rho grows; the stall rule must not mistake that for
        # infeasible input, from a cold start or from a warm start that
        # carries the large multipliers of a converged solve
        unit = [np.diag(np.eye(3)[i]) for i in range(3)]
        rows = [([unit[0]], [], 0.0, "E"), ([unit[1]], [], 1.0, "E"), ([unit[2]], [], 1.0, "E")]
        for seed in range(20):
            g = np.random.default_rng(seed).standard_normal((3, 3))
            prob = make_problem((3,), 1, 0, [g + g.T], [], rows)
            rng = np.random.default_rng(100 + seed)
            for rank in (1, 2, 3):
                state, _ = al_solve(densify(prob), [rank], SolverConfig(seed=seed))
                assert state.converged
                # move the converged point off feasibility, at its rank and
                # by an appended column as after a rank increment
                y = state.point.factors[0]
                moved = [(y + 1e-3 * rng.standard_normal(y.shape), rank)]
                if rank < 3:
                    moved.append((np.hstack([y, 1e-3 * rng.standard_normal((3, 1))]), rank + 1))
                for y0, r0 in moved:
                    point = FactorizedPoint((y0,), (), np.zeros(0))
                    warm, _ = al_solve(densify(prob), [r0], SolverConfig(seed=seed), warm_start=(point, state.lam))
                    assert warm.converged

    def test_multi_block_with_free_variables(self):
        for seed in range(3):
            prob = generate_random(BlockStructure((4, 3), 2, 2), 6, "EEEEEI", seed + 40)
            state, _ = al_solve(densify(prob), [3, 3], SolverConfig(seed=seed))
            target = oracle_solve(prob).objective
            assert abs(state.objective - target) <= 1e-4 * (1.0 + abs(target))
