"""Factorization, factor round trips, rank bounds."""

import numpy as np
import pytest

from lrsdp.dense import densify
from lrsdp.factorization import (
    FactorizedPoint,
    NotPsdError,
    RankBoundReport,
    append_column,
    initial_rank_bound,
    m_prime_conic,
    m_prime_inequality,
    psd_factor,
    triangular,
)
from lrsdp.model import BlockStructure
from lrsdp.oracle import oracle_solve
from lrsdp.solver import SolverConfig, al_solve
from lrsdp.apps import build_integer_quadratic, generate_random

from helpers import (
    correlation_sdp,
    indefinite_trace_sdp,
    iqm_cost,
    make_problem,
    maxcut_sdp,
    trivial_sdp,
)


@pytest.mark.parametrize("k,expected", [(0, 0), (1, 1), (2, 3), (3, 6), (4, 10), (10, 55)])
def test_triangular(k, expected):
    assert triangular(k) == expected


def test_triangular_strictly_increasing():
    vals = [triangular(k) for k in range(20)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_triangular_rejects_negative():
    with pytest.raises(ValueError):
        triangular(-1)


def gram(point: FactorizedPoint, block: int = 0) -> np.ndarray:
    """Y Y^T of one factor block."""
    y = point.factors[block]
    return y @ y.T


class TestLiftFactor:
    def test_factor_unit_matrix(self):
        y = psd_factor(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(np.abs(y), [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_factor_rejects_indefinite(self):
        with pytest.raises(NotPsdError, match=r"^eigenvalue -1\.000e\+00 below -1e-09$"):
            psd_factor(np.diag([1.0, -1.0]))

    def test_factor_roundtrip_rank2(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            g = rng.standard_normal((6, 2))
            x_mat = g @ g.T
            y = psd_factor(x_mat)
            assert y.shape == (6, 6) and y.flags.c_contiguous
            err = np.linalg.norm(y @ y.T - x_mat)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(x_mat))
            # columns beyond the numerical rank are zero
            assert np.linalg.norm(y[:, 2:]) == 0.0


class TestAppendColumn:
    def test_zero_step_keeps_lift(self):
        rng = np.random.default_rng(1)
        y = FactorizedPoint((rng.standard_normal((4, 2)),), (), np.zeros(0))
        y2 = append_column(y, 0, rng.standard_normal(4), 0.0)
        np.testing.assert_array_equal(gram(y2), gram(y))

    def test_unit_columns_build_identity(self):
        y = FactorizedPoint((np.array([[1.0], [0.0]]),), (), np.zeros(0))
        y2 = append_column(y, 0, np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(gram(y2), np.eye(2))

    def test_lift_update_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            y = FactorizedPoint((rng.standard_normal((5, 2)),), (), np.zeros(0))
            v = rng.standard_normal(5)
            alpha = float(rng.standard_normal())
            y2 = append_column(y, 0, v, alpha)
            delta = gram(y2) - gram(y)
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
        # a tail block, and a single block left unfactorized, which
        # ``initial_rank_bound`` sends to the conic formula (no factor ranks)
        for prob in (
            generate_random(BlockStructure((2, 2), 1, 0), 2, "EE", 0),
            generate_random(BlockStructure((4,), 0, 0), 5, "EEEII", 3),
        ):
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


def test_initial_rank_bound_single_block_is_the_unenumerated_m_prime():
    from lrsdp.factorization import _min_rank_for, _numerical_rank, _stack_rows

    def reference(problem):
        """The single-block branch before it called m_prime_inequality."""
        if problem.inequality_indices().size == 0:
            return m_prime_inequality(problem)
        mp = min(problem.m, _numerical_rank(_stack_rows(problem, range(problem.m))))
        return RankBoundReport(mp, (_min_rank_for(mp, problem.structure.psd_sizes[0]),), "RankUpperBound")

    fixtures = [
        trivial_sdp(), indefinite_trace_sdp(), correlation_sdp(), maxcut_sdp(6, 0),
        build_integer_quadratic(iqm_cost(1.0, -0.8, 0.16)).problem,
        make_problem((3,), 1, 0, [np.eye(3)], [], []),
    ] + [
        generate_random(BlockStructure((n,), 1, 0), len(kinds), kinds, seed)
        for n, kinds, seed in ((4, "EEEII", 400), (6, "EEEEE", 11), (5, "IIII", 3), (3, "EIIIII", 8))
    ]
    methods = set()
    for prob in fixtures:
        rep = initial_rank_bound(prob)
        assert rep == reference(prob)
        methods.add(rep.method)
    assert methods == {"ExactEnumeration", "RankUpperBound"}


def test_initial_rank_bound_is_the_conic_formula_at_free_tail_ranks():
    fixtures = [
        generate_random(BlockStructure((4, 3), 1, 2), 5, "EEEEI", 0),  # free and tail
        generate_random(BlockStructure((4, 3), 2, 1), 5, "EEEEE", 0),  # two factors
        generate_random(BlockStructure((4,), 1, 2), 1, "E", 0),        # d > m
    ]
    for prob in fixtures:
        free_tails = [range(n + 1) for n in prob.structure.tail_sizes]
        assert initial_rank_bound(prob) == m_prime_conic(prob, free_tails)
    assert initial_rank_bound(fixtures[-1]).m_prime == 0


def test_screened_enumeration_matches_unpruned_reference(monkeypatch):
    """The full-set shortcut, the rank screen and the superset pruning skip
    only sets that cannot change m': all agree with solving every subset."""
    from itertools import combinations

    from lrsdp import oracle
    from lrsdp.factorization import _min_rank_for, _numerical_rank, _stack_rows

    feasible = oracle.active_subset_feasible
    shortcut = pruned = screened = 0
    for n, kinds in ((2, "EIII"), (3, "EIII"), (3, "IIII"), (4, "EEIII")):
        for seed in range(2):
            prob = generate_random(BlockStructure((n,), 1, 0), len(kinds), kinds, seed)
            eq, iq = prob.equality_indices().tolist(), prob.inequality_indices().tolist()
            subsets = [c for k in range(len(iq) + 1) for c in combinations(iq, k)]
            answers = {c: feasible(prob, c) for c in subsets}
            reference = max(
                [_numerical_rank(_stack_rows(prob, eq + list(c))) for c in subsets if answers[c]],
                default=0,
            )
            calls = []
            monkeypatch.setattr(oracle, "active_subset_feasible",
                                lambda p, a: calls.append(a) or feasible(p, a))
            rep = m_prime_inequality(prob)
            assert rep.m_prime == reference
            assert rep.p_per_block == (_min_rank_for(reference, n),)
            assert calls[0] == tuple(iq)  # the full set is solved first
            if answers[calls[0]]:
                assert calls == [tuple(iq)]  # one solve settles m' = rank A
                shortcut += 1
                continue
            bad = [frozenset(c) for c in calls if not answers[c]]
            # sets walked before the last solve and not solved: pruned as
            # supersets of an infeasible set, else screened by their rank
            for c in subsets[: subsets.index(calls[-1])]:
                if c not in calls:
                    is_pruned = any(b <= frozenset(c) for b in bad)
                    pruned += is_pruned
                    screened += not is_pruned
    assert shortcut > 0  # the full-set shortcut fires
    assert pruned > 0  # the pruning fires
    assert screened > 0  # the rank screen fires


def test_stalled_full_set_solve_falls_back_to_the_walk(monkeypatch):
    from lrsdp import oracle

    # X11 >= 1, X22 >= 1, X12 >= 0 and X11 + X22 >= 2, all active at X = I:
    # the first three rows already have rank A = 3, so the walk stops before
    # it reaches the full set
    e11, e22, e12 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 0.5], [0.5, 0.0]])
    prob = make_problem(
        (2,), 1, 0, [np.eye(2)], [],
        [([e11], [], 1.0, "I"), ([e22], [], 1.0, "I"), ([e12], [], 0.0, "I"), ([np.eye(2)], [], 2.0, "I")],
    )
    full = (0, 1, 2, 3)
    feasible = oracle.active_subset_feasible
    calls = []
    monkeypatch.setattr(oracle, "active_subset_feasible", lambda p, a: calls.append(a) or feasible(p, a))
    shortcut = m_prime_inequality(prob)
    assert calls == [full]

    def stall_on_full_set(p, a):
        calls.append(a)
        if tuple(a) == full:
            raise oracle.MaxIterationsError("stalled")
        return feasible(p, a)

    calls.clear()
    monkeypatch.setattr(oracle, "active_subset_feasible", stall_on_full_set)
    walked = m_prime_inequality(prob)
    assert (walked.m_prime, walked.p_per_block) == (shortcut.m_prime, shortcut.p_per_block)
    assert calls[0] == full and full not in calls[1:] and len(calls) > 1
