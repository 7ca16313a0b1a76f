"""Interior-point reference solver and the 2x2 grid oracle."""

from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from lrsdp.certification import Multipliers, certify
from lrsdp.dense import densify
from lrsdp.factorization import factor
from lrsdp.model import (
    BlockStructure,
    ConicSdpProblem,
    Constraint,
    ConstraintKind,
    CooSymmetric,
    SymmetricMatrix,
)
from lrsdp.oracle import (
    MaxIterationsError,
    NoPsdBlockError,
    NotStrictlyFeasibleError,
    _min_violation,
    active_subset_feasible,
    oracle_solve,
)
from lrsdp.apps import build_integer_quadratic, generate_random

from brute_force import _lp2_values, _rotated, brute_force_2x2
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
            mult = Multipliers(sol.lam, "FromSolver")
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
        # the least uniform violation of X11 = 1, X11 = 2 is 0.5
        with pytest.raises(NotStrictlyFeasibleError, match="violation 5.000e-01"):
            oracle_solve(prob)
        assert len(calls) == 1  # the feasibility phase reuses the solve's view

    def test_free_variable_in_no_row_reports_stall(self):
        # the free variable's Schur block Af^T M^-1 Af is singular, in the
        # solve and in its phase I alike
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem((2,), 1, 1, [np.eye(2)], [0.0], [([e11], [0.0], 1.0, "E")])
        with pytest.raises(MaxIterationsError) as info:
            oracle_solve(prob)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_negative_complementarity_is_not_converged(self):
        # min -2 X_12 s.t. X_11 = 0 has no dual Slater point (optimum 0): the
        # path lets S lose PSD with <X, S> < 0, which passes a signed gap test
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem((2,), 1, 0, [[[0.0, -1.0], [-1.0, 0.0]]], [], [([e11], [], 0.0, "E")])
        with pytest.raises(MaxIterationsError):
            oracle_solve(prob)

    def test_max_step_from_inverse_square_root(self):
        from lrsdp.oracle import _inv_sqrt, _max_step

        rng = np.random.default_rng(12)
        for n in (2, 3, 6):
            g = rng.standard_normal((n, n))
            x = g @ g.T + 0.1 * np.eye(n)
            f = _inv_sqrt(x)
            np.testing.assert_allclose(f.T @ x @ f, np.eye(n), atol=1e-10)
            h = rng.standard_normal((n, n))
            for dx in (h + h.T, -(h + h.T)):
                # x + alpha dx is singular at alpha = -1 / lambda_min of the pencil
                lam_min = scipy.linalg.eigh(dx, x, eigvals_only=True)[0]
                assert lam_min < 0
                assert _max_step(f, dx) == pytest.approx(-1.0 / lam_min, rel=1e-9)
            v = rng.standard_normal((n, 1))
            for psd in (h @ h.T, v @ v.T, np.zeros((n, n))):
                assert _max_step(f, psd) == np.inf

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
        # only the 0x0 Schur system is factored: the 3x3 block's S inverse
        # comes from its eigendecomposition
        assert set(orders) == {(0, 0)}

    def test_slack_vector_on_inequality_rows(self):
        from lrsdp.oracle import _ipm

        prob = generate_random(BlockStructure((4, 3), 2, 2), 6, "EIEIIE", 3)
        dp = densify(prob)
        rows = np.flatnonzero(dp.ineq_mask)

        # slack k enters row rows[k] with -1: A(X) + a.x - w = b at the solve
        X, lam, w, x = _ipm(dp, 1e-9, 100)[:4]
        assert w.shape == rows.shape
        r = dp.apply(X, x) - dp.b
        np.testing.assert_allclose(r[rows], w, atol=1e-7)
        np.testing.assert_allclose(r[dp.eq_mask], 0.0, atol=1e-7)
        assert w.min() >= 0.0 and lam[rows].min() >= -1e-9

    def test_equality_only_view_unchanged(self):
        from lrsdp.oracle import _ipm

        # the view is solved as posed, with an empty slack vector
        dp = densify(generate_random(BlockStructure((4,), 1, 0), 3, "EEE", 1))
        X, lam, w, x = _ipm(dp, 1e-9, 100)[:4]
        assert w.shape == (0,) and lam.shape == (3,)
        np.testing.assert_allclose(dp.apply(X, x), dp.b, atol=1e-7)

    def test_ratio_step_matches_diagonal_block(self):
        from lrsdp.oracle import _inv_sqrt, _max_step, _ratio_step

        rng = np.random.default_rng(5)
        for s in (1, 3, 7):
            x = rng.uniform(0.1, 2.0, s)
            dx = rng.standard_normal(s)
            dx[0] = -abs(dx[0])
            want = _max_step(_inv_sqrt(np.diag(x)), np.diag(dx))
            assert _ratio_step(dx / x) == pytest.approx(want, rel=1e-12)
            nonneg = np.abs(dx)
            assert _ratio_step(nonneg / x) == _max_step(_inv_sqrt(np.diag(x)), np.diag(nonneg)) == np.inf
        assert _ratio_step(np.zeros(0)) == np.inf


class TestPsdFree:
    def test_free_variables_and_slacks_only(self):
        # min x1 + x2 s.t. x1 >= 1, x2 >= 2: no PSD block, two slacks
        prob = make_problem(
            (), 0, 2, [], [1.0, 1.0],
            [([], [1.0, 0.0], 1.0, "I"), ([], [0.0, 1.0], 2.0, "I")],
        )
        sol = oracle_solve(prob)
        assert sol.objective == pytest.approx(3.0, abs=1e-7)
        np.testing.assert_allclose(sol.X.free, [1.0, 2.0], atol=1e-7)
        np.testing.assert_allclose(sol.lam, [1.0, 1.0], atol=1e-7)
        assert sol.X.psd_blocks == () and sol.iterations == 6

    def test_no_inequality_row_has_nothing_to_solve(self):
        prob = make_problem(
            (), 0, 2, [], [1.0, 1.0],
            [([], [1.0, 0.0], 1.0, "E"), ([], [0.0, 1.0], 2.0, "E")],
        )
        with pytest.raises(NoPsdBlockError):
            oracle_solve(prob)


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

    def test_vectorized_lp_matches_per_angle_loop(self):
        rng = np.random.default_rng(1)
        outcomes = set()
        for _ in range(60):
            rows = []
            for _ in range(rng.integers(0, 5)):
                a = rng.standard_normal((2, 2))
                a = a + a.T
                if rng.random() < 0.3:
                    a[0, 1] = a[1, 0] = 0.0  # boundary rays along the axes
                rows.append(([a], [], float(rng.standard_normal()), "EI"[rng.integers(2)]))
            cost = rng.standard_normal((2, 2))
            dp = densify(make_problem((2,), 1, 0, [cost + cost.T], [], rows))
            thetas = np.append(rng.uniform(0.0, np.pi / 2, 40), 0.0)
            a, c = _rotated(dp.A[0], thetas), _rotated(dp.C[0][None], thetas)[:, 0]
            got = _lp2_values(a, dp.b, dp.eq_mask, c, 1e-9)
            want = [reference_lp2_value(r, dp.b, dp.eq_mask, cr, 1e-9) for r, cr in zip(a, c)]
            # the same 2x2 solves and 2-term dots, summed in another order
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            outcomes.update("finite" if np.isfinite(w) else str(w) for w in want)
        assert outcomes == {"finite", "inf", "-inf"}

    def test_unsupported_shape(self):
        prob = generate_random(BlockStructure((3,), 1, 0), 2, "EE", 0)
        with pytest.raises(ValueError, match="unsupported shape"):
            brute_force_2x2(prob)


def reference_lp2_value(a, b, eq, c, tol):
    """One angle of the 2x2 brute force, looped over vertex pairs and rays:
    the oracle's routine before it was vectorized across angles, kept as
    the reference."""
    m = b.size
    rows = np.vstack([a, np.eye(2)])
    rhs = np.concatenate([b, np.zeros(2)])

    best = np.inf
    for p, q in combinations(range(m + 2), 2):
        mat = rows[[p, q]]
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if abs(det) < 1e-12 * (np.abs(mat).max() ** 2 + 1e-30):
            continue
        d = np.array(
            [
                (rhs[p] * mat[1, 1] - rhs[q] * mat[0, 1]) / det,
                (mat[0, 0] * rhs[q] - mat[1, 0] * rhs[p]) / det,
            ]
        )
        if d.min() < -tol:
            continue
        vals = a @ d - b
        if m and (np.any(np.abs(vals[eq]) > tol) or np.any(vals[~eq] < -tol)):
            continue
        best = min(best, float(c @ d))

    if not np.isfinite(best):
        return np.inf

    angles = [0.0, np.pi / 2]
    for i in range(m):
        ax, ay = a[i]
        if abs(ax) > 1e-15 or abs(ay) > 1e-15:
            phi = np.arctan2(-ax, ay)
            for cand in (phi, phi + np.pi):
                if -1e-12 <= cand <= np.pi / 2 + 1e-12:
                    angles.append(min(max(cand, 0.0), np.pi / 2))
    for phi in angles:
        w = np.array([np.cos(phi), np.sin(phi)])
        vals = a @ w
        if m and (np.any(np.abs(vals[eq]) > 1e-9) or np.any(vals[~eq] < -1e-9)):
            continue
        if c @ w < -1e-9:
            return -np.inf
    return best


class TestActiveSubsetFeasibility:
    def test_forced_active_inequality(self):
        built = build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16))
        # the single inequality can be made active (e.g. at the corner point)
        v = _min_violation(densify(built.problem), (1,))
        assert v <= 1e-7

    def test_conflicting_rows_report_violation(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 3.0, "I")],
        )
        # forcing the inequality active contradicts the equality by 2
        v = _min_violation(densify(prob), (1,))
        assert v >= 0.9

    def test_matches_model_level_reference_bitwise(self):
        e11, e22 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        e12 = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        zero_rhs = make_problem(
            (3,), 1, 0, [np.eye(3)], [],
            [([np.eye(3)], [], 1.0, "E"), ([e11 - e22], [], 0.0, "I"),
             ([e12], [], 0.0, "I"), ([np.diag([0.0, 0.0, 1.0])], [], 0.2, "I")],
        )
        problems = [zero_rhs] + [
            generate_random(BlockStructure((n,), 1, 0), len(kinds), kinds, seed)
            for n, kinds, seed in ((3, "EII", 5), (4, "EEIII", 6), (2, "III", 7))
        ]
        for prob in problems:
            iq = list(prob.inequality_indices())
            for r in range(len(iq) + 1):
                for combo in combinations(iq, r):
                    got = _min_violation(densify(prob), combo)
                    want = reference_min_active_violation(prob, combo)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_two_blocks_with_free_variables(self):
        prob = generate_random(BlockStructure((3, 2), 1, 2), 5, "EEIII", 9)
        for combo in ((), (2,), (3, 4)):
            assert abs(_min_violation(densify(prob), combo)) <= 1e-7
        assert active_subset_feasible(prob, ())

        # two equalities on the same combination of both blocks and x
        # disagree by 2, so the least uniform violation is 1
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        row = [e11, np.eye(3)]
        conflict = make_problem(
            (2, 3), 1, 2, [np.eye(2), np.eye(3)], [0.0, 0.0],
            [(row, [1.0, -1.0], 1.0, "E"), (row, [1.0, -1.0], 3.0, "E"),
             ([e11, np.zeros((3, 3))], [0.0, 1.0], 0.5, "I")],
        )
        assert _min_violation(densify(conflict), ()) == pytest.approx(1.0, abs=1e-6)
        assert not active_subset_feasible(conflict, ())


# the tolerance of the phase-I interior-point solve
PHASE_TOL = 1e-8


def reference_min_active_violation(problem, active):
    """The phase I built as a model-level problem, one block, d = 0: the
    oracle's routine before it was posed on the dense view, kept as the
    reference."""
    n = problem.structure.psd_sizes[0]
    forced = set(int(i) for i in active) | set(int(i) for i in problem.equality_indices())
    eps = 1e-10

    t_one = CooSymmetric.from_entries(1, [(0, 0, 1.0)])
    rows = []
    for i, con in enumerate(problem.constraints):
        a = con.blocks[0]
        rows.append(Constraint((a, t_one), np.zeros(0), con.rhs, ConstraintKind.INEQUALITY))
        if i in forced:
            neg = CooSymmetric(a.dim, a.rows, a.cols, -a.vals)
            rows.append(Constraint((neg, t_one), np.zeros(0), -con.rhs, ConstraintKind.INEQUALITY))

    aux = ConicSdpProblem.normalized(
        structure=BlockStructure((n, 1), 0, 0),
        cost_blocks=(SymmetricMatrix.from_dense(eps * np.eye(n)), SymmetricMatrix.from_dense(np.ones((1, 1)))),
        cost_free=np.zeros(0),
        constraints=rows,
        name="active-subset-feasibility",
    )
    sol = oracle_solve(aux, tol=PHASE_TOL, max_iter=200)
    return float(sol.X.psd_blocks[1].packed[0])
