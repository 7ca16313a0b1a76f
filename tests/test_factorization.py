"""Factorization, lift/factor round trips, rank bounds."""

import numpy as np
import pytest

from lrsdp.dense import densify
from lrsdp.factorization import (
    FactorizedPoint,
    NotPsdError,
    RankTooSmallError,
    append_column,
    factor,
    initial_rank_bound,
    lift,
    m_prime_conic,
    m_prime_inequality,
    triangular,
)
from lrsdp.model import BlockStructure, PrimalPoint, SymmetricMatrix
from lrsdp.oracle import oracle_solve
from lrsdp.solver import SolverConfig, al_solve
from lrsdp.apps import generate_random

from helpers import make_problem, trivial_sdp


@pytest.mark.parametrize("k,expected", [(0, 0), (1, 1), (2, 3), (3, 6), (4, 10), (10, 55)])
def test_triangular(k, expected):
    assert triangular(k) == expected


def test_triangular_strictly_increasing():
    vals = [triangular(k) for k in range(20)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_triangular_rejects_negative():
    with pytest.raises(ValueError):
        triangular(-1)


class TestLiftFactor:
    def test_lift_unit_column(self):
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        np.testing.assert_allclose(
            lift(y).psd_blocks[0].to_dense(), [[1.0, 0.0], [0.0, 0.0]]
        )

    def test_lift_identity(self):
        y = FactorizedPoint((np.eye(2),), (), np.zeros(0))
        np.testing.assert_allclose(lift(y).psd_blocks[0].to_dense(), np.eye(2))

    def test_lift_is_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            y = FactorizedPoint((rng.standard_normal((5, 3)),), (), np.zeros(0))
            w = np.linalg.eigvalsh(lift(y).psd_blocks[0].to_dense())
            assert w.min() >= -1e-12

    def test_factor_unit_matrix(self):
        x = PrimalPoint((SymmetricMatrix.from_dense(np.diag([1.0, 0.0])),), np.zeros(0))
        y = factor(x, [1]).factors[0]
        np.testing.assert_allclose(np.abs(y), [[1.0], [0.0]], atol=1e-14)

    def test_factor_rank_too_small(self):
        x = PrimalPoint((SymmetricMatrix.from_dense(np.eye(2)),), np.zeros(0))
        with pytest.raises(RankTooSmallError):
            factor(x, [1])

    def test_factor_rejects_indefinite(self):
        x = PrimalPoint((SymmetricMatrix.from_dense(np.diag([1.0, -1.0])),), np.zeros(0))
        with pytest.raises(NotPsdError):
            factor(x, [2])

    def test_factor_roundtrip_rank2(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            g = rng.standard_normal((6, 2))
            x_mat = g @ g.T
            x = PrimalPoint((SymmetricMatrix.from_dense(x_mat),), np.zeros(0))
            y = factor(x, [3])
            back = lift(y).psd_blocks[0].to_dense()
            err = np.linalg.norm(back - x_mat)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(x_mat))
            # column beyond the numerical rank is zero
            assert np.linalg.norm(y.factors[0][:, 2]) == 0.0


class TestAppendColumn:
    def test_zero_step_keeps_lift(self):
        rng = np.random.default_rng(1)
        y = FactorizedPoint((rng.standard_normal((4, 2)),), (), np.zeros(0))
        y2 = append_column(y, 0, rng.standard_normal(4), 0.0)
        np.testing.assert_array_equal(
            lift(y2).psd_blocks[0].packed, lift(y).psd_blocks[0].packed
        )

    def test_unit_columns_build_identity(self):
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        y2 = append_column(y, 0, np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(lift(y2).psd_blocks[0].to_dense(), np.eye(2))

    def test_lift_update_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            y = FactorizedPoint((rng.standard_normal((5, 2)),), (), np.zeros(0))
            v = rng.standard_normal(5)
            alpha = float(rng.standard_normal())
            y2 = append_column(y, 0, v, alpha)
            delta = lift(y2).psd_blocks[0].to_dense() - lift(y).psd_blocks[0].to_dense()
            np.testing.assert_allclose(delta, alpha**2 * np.outer(v, v), atol=1e-12)

    def test_dimension_mismatch(self):
        y = FactorizedPoint((np.eye(2),), (), np.zeros(0))
        with pytest.raises(ValueError):
            append_column(y, 0, np.zeros(3), 1.0)


class TestMPrimeSingleBlock:
    def test_duplicated_equalities_have_rank_one(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 1.0, "E")],
        )
        rep = m_prime_inequality(prob)
        assert rep.m_prime == 1
        assert rep.method == "ExactEnumeration"

    def test_no_constraints(self):
        prob = make_problem((3,), 1, 0, [np.eye(3)], [], [])
        rep = m_prime_inequality(prob)
        assert rep.m_prime == 0
        assert rep.p_per_block == (1,)

    def test_two_equalities_plus_active_inequality(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
        e12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e22], [], 1.0, "E"), ([e12], [], 0.0, "I")],
        )
        rep = m_prime_inequality(prob)
        assert rep.m_prime == 3
        assert rep.method == "ExactEnumeration"

    def test_equality_only_matches_stack_rank(self):
        for seed in range(5):
            prob = generate_random(BlockStructure((4,), 1, 0), 5, "EEEEE", seed)
            rep = m_prime_inequality(prob)
            assert rep.method == "ExactEnumeration"
            assert rep.m_prime == 5  # generic rows are independent

    def test_cap_falls_back_to_rank_bound(self):
        prob = generate_random(BlockStructure((3,), 1, 0), 4, "EEII", 0)
        rep = m_prime_inequality(prob, cap=2)
        assert rep.method == "RankUpperBound"
        assert rep.m_prime <= 4

    def test_returned_rank_brackets_m_prime(self):
        for seed in range(5):
            prob = generate_random(BlockStructure((5,), 1, 0), 4, "EEEE", seed)
            rep = m_prime_inequality(prob)
            p = rep.p_per_block[0]
            if p < 5:
                assert triangular(p) > rep.m_prime
                assert triangular(p - 1) <= rep.m_prime

    def test_unsupported_structure(self):
        prob = generate_random(BlockStructure((2, 2), 1, 0), 2, "EE", 0)
        with pytest.raises(ValueError, match="unsupported structure"):
            m_prime_inequality(prob)


class TestMPrimeConic:
    def test_scalar_tail_block(self):
        prob = generate_random(BlockStructure((3, 1), 1, 0), 3, "EEE", 0)
        rep = m_prime_conic(prob, [[0, 1]])
        assert rep.m_prime == 3  # attained at tail rank 0
        assert rep.method == "ConicFormula"

    def test_scalar_blocks_count_active_constraints(self):
        # inequalities as 1x1 tail blocks: inactive ones have rank 1
        prob = generate_random(BlockStructure((3, 1, 1), 1, 0), 4, "EEEE", 1)
        rep = m_prime_conic(prob, [[0], [1]])  # first active, second inactive
        assert rep.m_prime == 4 - 0 - 1

    def test_arrow_block_boundary_rank(self):
        from lrsdp.apps import random_soc_fixture

        built = random_soc_fixture(3, 3, 2, seed=0)
        m = built.problem.m  # m1 + tau(n2-1) = 2 + 3
        rep = m_prime_conic(built.problem, [[2]])  # boundary rank n2 - 1
        assert rep.m_prime == m - triangular(2)

    def test_empty_range_rejected(self):
        prob = generate_random(BlockStructure((3, 1), 1, 0), 3, "EEE", 0)
        with pytest.raises(ValueError, match="empty rank range"):
            m_prime_conic(prob, [[]])

    def test_range_count_must_match_tail(self):
        prob = generate_random(BlockStructure((3, 1), 1, 0), 3, "EEE", 0)
        with pytest.raises(ValueError):
            m_prime_conic(prob, [[0], [0]])


def test_low_rank_layer_attains_convex_optimum():
    # with tau(p) >= m the factorized search space reaches the convex optimum;
    # best of a few starts should match the independent solver
    for seed in range(4):
        prob = generate_random(BlockStructure((5,), 1, 0), 5, "EEEEE", seed + 300)
        target = oracle_solve(prob).objective
        best = np.inf
        for start in range(3):
            state, _ = al_solve(densify(prob), [3], SolverConfig(seed=start))
            best = min(best, state.objective)
        assert abs(best - target) <= 1e-5 * (1.0 + abs(target))


def test_initial_rank_bound_shapes():
    rep = initial_rank_bound(trivial_sdp())
    assert rep.p_per_block == (2,)  # m' = 1 -> tau(2) = 3 > 1, capped at n = 2
    prob = generate_random(BlockStructure((4, 3), 2, 1), 5, "EEEEE", 0)
    rep = initial_rank_bound(prob)
    assert rep.method == "ConicFormula"
    assert rep.m_prime == 4  # m - d
