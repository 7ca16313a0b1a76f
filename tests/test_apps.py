"""Application builders and corpus generators."""

import numpy as np
import pytest

from lrsdp.apps import (
    adversarial_instance,
    build_adversarial_cost,
    build_integer_quadratic,
    build_sensing_psd,
    build_sensing_symmetric,
    build_soc_embedding,
    embed_cone_point,
    extract_cone_point,
    generate_random,
    random_soc_fixture,
    recover_difference,
)
from lrsdp.certification import estimate_multipliers, kkt_residuals, staircase_solve
from lrsdp.dense import densify
from lrsdp.factorization import triangular
from lrsdp.model import BlockStructure, validate, write_problem
from lrsdp.oracle import oracle_solve
from lrsdp.solver import SolverConfig

from helpers import iqm_cost


class TestIntegerQuadratic:
    def test_scalar_quadratic_encoding(self):
        c = iqm_cost(1.0, -0.8, 0.16)
        np.testing.assert_allclose(c, [[1.0, -0.4], [-0.4, 0.16]])
        built = build_integer_quadratic(c)
        assert built.problem.m == 2
        assert built.problem.kinds == "EI"
        assert validate(built.problem) == []

    def test_counting_for_two_variables(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3))
        built = build_integer_quadratic(g @ g.T)
        assert built.problem.m == 3
        assert built.problem.structure.psd_sizes == (3,)

    def test_cost_reproduces_quadratic(self):
        rng = np.random.default_rng(1)
        a, b, c = 1.3, -0.7, 0.4
        cost = iqm_cost(a, b, c)
        for _ in range(100):
            x = rng.standard_normal()
            lifted = np.array([x, 1.0])
            assert lifted @ cost @ lifted == pytest.approx(a * x * x + b * x + c)

    def test_staircase_matches_oracle(self):
        built = build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16))
        target = oracle_solve(built.problem).objective
        report = staircase_solve(built.problem, SolverConfig(seed=0))
        assert report.verdict == "GlobalOptimal"
        assert abs(report.objective - target) <= 1e-5 * (1.0 + abs(target))


class TestSensingPsd:
    def test_construction(self):
        built = build_sensing_psd(4, 1, 6, seed=0)
        prob = built.problem
        assert validate(prob) == []
        assert prob.m == 6 and prob.kinds == "E" * 6
        np.testing.assert_allclose(prob.cost_blocks[0].to_dense(), np.eye(4))

    def test_planted_point_bounds_optimum(self):
        built = build_sensing_psd(4, 1, 6, seed=1)
        sol = oracle_solve(built.problem)
        assert sol.objective <= built.extras["nuclear_norm"] + 1e-6

    def test_staircase_matches_oracle_over_seeds(self):
        for seed in range(3):
            built = build_sensing_psd(6, 1, 6, seed)
            target = oracle_solve(built.problem).objective
            report = staircase_solve(built.problem, SolverConfig(seed=seed))
            assert abs(report.objective - target) <= 1e-5 * (1.0 + abs(target))


class TestSensingSymmetric:
    def test_full_measurements_recover_nuclear_norm(self):
        x_star = np.diag([1.0, -1.0])
        built = build_sensing_symmetric(2, 3, seed=0, x_star=x_star)
        sol = oracle_solve(built.problem)
        assert sol.objective == pytest.approx(2.0, abs=1e-6)

    def test_zero_data_gives_zero(self):
        built = build_sensing_symmetric(3, 5, seed=1, x_star=np.zeros((3, 3)))
        sol = oracle_solve(built.problem)
        assert sol.objective == pytest.approx(0.0, abs=1e-6)

    def test_staircase_certifies_generic_instances(self):
        for seed in range(2):
            built = build_sensing_symmetric(4, 8, seed)
            target = oracle_solve(built.problem).objective
            report = staircase_solve(built.problem, SolverConfig(seed=seed), ranks=[4, 4])
            assert report.verdict == "GlobalOptimal"
            assert abs(report.objective - target) <= 1e-5 * (1.0 + abs(target))
            est = recover_difference(report.state.point)
            assert est.shape == (4, 4)


class TestSocEmbedding:
    def test_added_equality_counts(self):
        for n2, expected in [(2, 1), (3, 3), (4, 6)]:
            built = random_soc_fixture(2, n2, 2, seed=0)
            assert built.problem.m == 2 + expected
            assert expected == triangular(n2 - 1)

    def test_rejects_tiny_cone(self):
        with pytest.raises(ValueError):
            build_soc_embedding(np.eye(2), np.ones(1), [], [], np.zeros(0))

    def test_cone_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.standard_normal(3)
            x = np.concatenate([[np.linalg.norm(u) + abs(rng.standard_normal())], u])
            np.testing.assert_allclose(extract_cone_point(embed_cone_point(x)), x, atol=1e-14)

    def test_arrow_psd_iff_cone_membership(self):
        rng = np.random.default_rng(4)
        n2 = 4
        for trial in range(1000):
            u = rng.standard_normal(n2 - 1)
            kind = trial % 3
            if kind == 0:
                head = np.linalg.norm(u) * (1.0 + abs(rng.standard_normal()))
            elif kind == 1:
                head = np.linalg.norm(u)  # boundary, sampled explicitly
            else:
                head = np.linalg.norm(u) * rng.uniform(0.0, 0.95)
            x = np.concatenate([[head], u])
            w = np.linalg.eigvalsh(embed_cone_point(x))
            in_cone = head >= np.linalg.norm(u) - 1e-12
            assert (w.min() >= -1e-9) == in_cone

    def test_boundary_points_have_corank_one(self):
        rng = np.random.default_rng(5)
        n2 = 4
        for _ in range(100):
            u = rng.standard_normal(n2 - 1)
            x = np.concatenate([[np.linalg.norm(u)], u])
            w = np.linalg.eigvalsh(embed_cone_point(x))
            rank = int(np.sum(w > 1e-8 * max(w[-1], 1e-30)))
            assert rank == n2 - 1

    def test_embedded_solve_matches_oracle(self):
        built = random_soc_fixture(3, 3, 3, seed=2)
        target = oracle_solve(built.problem).objective
        report = staircase_solve(built.problem, SolverConfig(seed=2))
        assert abs(report.objective - target) <= 1e-6 * (1.0 + abs(target))


class TestAdversarial:
    def test_construction_invariants(self):
        rng = np.random.default_rng(0)
        y0 = rng.standard_normal((3, 1))
        mats = [np.eye(3)]
        b = np.array([float(np.tensordot(np.eye(3), y0 @ y0.T))])
        built = build_adversarial_cost(mats, b, y0, seed=0)
        slack_eigs = np.array(built.extras["slack_eigenvalues"])
        assert slack_eigs.min() < -0.4
        assert int(np.sum(np.abs(slack_eigs) > 1e-9)) <= 2  # rank <= n - p

    def test_rejects_full_rank_plant(self):
        rng = np.random.default_rng(0)
        y0 = rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            build_adversarial_cost([np.eye(3)], np.array([1.0]), y0, seed=0)

    def test_planted_point_is_first_order_critical(self):
        for seed in range(5):
            built = adversarial_instance(6, 2, 8, seed)
            dp = densify(built.problem)
            mult = estimate_multipliers(dp, built.planted_point)
            kk = kkt_residuals(dp, built.planted_point, mult)
            assert kk.stationarity <= 1e-12 * (1.0 + abs(built.extras["planted_objective"]))
            assert kk.feasibility <= 1e-12

    def test_oracle_strictly_improves_on_plant(self):
        gaps = []
        for seed in range(5):
            built = adversarial_instance(6, 2, 8, seed)
            sol = oracle_solve(built.problem, tol=1e-8)
            gaps.append(built.extras["planted_objective"] - sol.objective)
        assert all(g >= -1e-8 for g in gaps)
        assert sum(g > 1e-4 for g in gaps) >= 4  # plants are almost always spurious


class TestGenerateRandom:
    def test_deterministic_bytes(self):
        a = generate_random(BlockStructure((4, 2), 1, 2), 5, "EEEII", 9)
        b = generate_random(BlockStructure((4, 2), 1, 2), 5, "EEEII", 9)
        assert write_problem(a) == write_problem(b)

    def test_nonzero_rhs(self):
        for seed in range(10):
            prob = generate_random(BlockStructure((3,), 1, 0), 6, "EEEIII", seed)
            assert np.min(np.abs(prob.b)) > 0.0

    def test_strictly_feasible_for_oracle(self):
        for seed in range(5):
            prob = generate_random(BlockStructure((4,), 1, 1), 5, "EEEII", seed + 60)
            sol = oracle_solve(prob)  # would raise if not solvable
            assert np.isfinite(sol.objective)

    def test_validates_clean(self):
        prob = generate_random(BlockStructure((3, 2), 2, 1), 4, "EEII", 0)
        assert validate(prob) == []

    def test_kinds_must_match(self):
        with pytest.raises(ValueError):
            generate_random(BlockStructure((3,), 1, 0), 2, "EEE", 0)

