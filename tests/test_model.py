"""Problem data model: validation, the constraint map of its dense view, text format."""

import numpy as np
import pytest

from lrsdp.model import (
    BlockStructure,
    ConicSdpProblem,
    Constraint,
    ConstraintKind,
    CooSymmetric,
    ProblemFormatError,
    SymmetricMatrix,
    read_problem,
    validate,
    write_problem,
)
from lrsdp.dense import densify

from helpers import apply_reference, make_problem, trivial_sdp


def test_validate_clean_problem():
    assert validate(trivial_sdp()) == []


def test_validate_flags_wrong_block_dimension():
    prob = trivial_sdp()
    bad = Constraint(
        (CooSymmetric.from_dense(np.eye(3)),), np.zeros(0), 1.0, ConstraintKind.EQUALITY
    )
    broken = ConicSdpProblem(
        structure=prob.structure,
        cost_blocks=prob.cost_blocks,
        cost_free=prob.cost_free,
        constraints=(prob.constraints[0], bad),
    )
    diags = validate(broken)
    assert any("constraint 1" in d and "dim 3" in d for d in diags)


def test_validate_flags_inequality_before_equality():
    rowI = Constraint(
        (CooSymmetric.from_dense(np.eye(2)),), np.zeros(0), 0.0, ConstraintKind.INEQUALITY
    )
    rowE = Constraint(
        (CooSymmetric.from_dense(np.eye(2)),), np.zeros(0), 1.0, ConstraintKind.EQUALITY
    )
    broken = ConicSdpProblem(
        structure=BlockStructure((2,), 1, 0),
        cost_blocks=(SymmetricMatrix.from_dense(np.eye(2)),),
        cost_free=np.zeros(0),
        constraints=(rowI, rowE),
    )
    diags = validate(broken)
    assert any("equality listed after an inequality" in d for d in diags)


def test_validate_flags_non_finite_entries_of_dense_input():
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    bad_row = make_problem((2,), 1, 1, [np.eye(2)], [0.0], [([np.diag([1.0, np.nan])], [np.inf], 1.0, "E")])
    assert validate(bad_row) == [
        "constraint 0: block 0 has non-finite entries",
        "constraint 0: free part has non-finite entries",
    ]
    bad_cost = make_problem((2,), 1, 1, [np.eye(2)], [np.nan], [([e11], [1.0], 1.0, "E")])
    assert validate(bad_cost) == ["cost: free part has non-finite entries"]


def test_normalized_constructor_reorders():
    rowI = Constraint(
        (CooSymmetric.from_dense(np.eye(2)),), np.zeros(0), 0.0, ConstraintKind.INEQUALITY
    )
    rowE = Constraint(
        (CooSymmetric.from_dense(np.eye(2)),), np.zeros(0), 1.0, ConstraintKind.EQUALITY
    )
    prob = ConicSdpProblem.normalized(
        BlockStructure((2,), 1, 0),
        (SymmetricMatrix.from_dense(np.eye(2)),),
        np.zeros(0),
        [rowI, rowE],
    )
    assert prob.kinds == "EI"
    assert validate(prob) == []


def _sym(g):
    return 0.5 * (g + g.T)


class TestApplyMap:
    """``DenseProblem.apply`` against hand values and the row-by-row reference."""

    def check(self, prob, blocks, x, expected=None):
        got = densify(prob).apply(blocks, x)
        np.testing.assert_allclose(got, apply_reference(prob, blocks, x), rtol=1e-13, atol=1e-13)
        if expected is not None:
            np.testing.assert_allclose(got, expected)
        return got

    def test_identity_times_diagonal(self):
        prob = make_problem((2,), 1, 0, [np.zeros((2, 2))], [], [([np.eye(2)], [], 0.0, "E")])
        self.check(prob, [np.diag([1.0, 2.0])], np.zeros(0), [3.0])

    def test_unit_matrix_entry(self):
        self.check(trivial_sdp(), [np.diag([1.0, 0.0])], np.zeros(0), [1.0])

    def test_two_blocks(self):
        prob = make_problem(
            (2, 2), 2, 0, [np.zeros((2, 2))] * 2, [],
            [([np.eye(2), np.eye(2)], [], 0.0, "E")],
        )
        self.check(prob, [np.eye(2), np.zeros((2, 2))], np.zeros(0), [2.0])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        prob = make_problem(
            (3,), 1, 2, [np.zeros((3, 3))], np.zeros(2),
            [
                ([_sym(g)], rng.standard_normal(2), 0.0, "E")
                for g in [rng.standard_normal((3, 3)) for _ in range(4)]
            ],
        )
        def rand_point(seed):
            r = np.random.default_rng(seed)
            return _sym(r.standard_normal((3, 3))), r.standard_normal(2)
        (x, xf), (y, yf) = rand_point(1), rand_point(2)
        np.testing.assert_allclose(
            self.check(prob, [x + y], xf + yf),
            self.check(prob, [x], xf) + self.check(prob, [y], yf),
            rtol=1e-13, atol=1e-13,
        )


class TestApplyAdjoint:
    """``DenseProblem.adjoint`` against hand values and the reference A(X)."""

    def test_zero_multipliers(self):
        blocks, free = densify(trivial_sdp()).adjoint(np.zeros(1))
        assert np.all(blocks[0] == 0.0)
        assert free.shape == (0,)

    def test_single_constraint_scaling(self):
        blocks, _ = densify(trivial_sdp()).adjoint(np.array([2.0]))
        np.testing.assert_allclose(blocks[0], [[2.0, 0.0], [0.0, 0.0]])

    def test_adjoint_identity_random(self):
        # <A*(lam), X> + A_f^T lam . x = lam . A(X) to machine precision
        rng = np.random.default_rng(3)
        for trial in range(10):
            n, m, d = 4, 5, 2
            rows = []
            for _ in range(m):
                g = rng.standard_normal((n, n))
                rows.append(([_sym(g)], rng.standard_normal(d), 0.0, "E"))
            prob = make_problem((n,), 1, d, [np.zeros((n, n))], np.zeros(d), rows)
            lam = rng.standard_normal(m)
            x, xf = _sym(rng.standard_normal((n, n))), rng.standard_normal(d)
            blocks, free = densify(prob).adjoint(lam)
            lhs = float(np.tensordot(blocks[0], x)) + float(free @ xf)
            rhs = float(lam @ apply_reference(prob, [x], xf))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


class TestTextFormat:
    MINIMAL = """\
1
1 0 1
2
E
1
0 1 1 1 1
0 1 2 2 1
1 1 1 1 1
"""

    def test_read_minimal(self):
        prob = read_problem(self.MINIMAL)
        assert prob.structure.psd_sizes == (2,)
        assert prob.m == 1
        assert prob.constraints[0].kind is ConstraintKind.EQUALITY

    def test_inequality_marker(self):
        text = self.MINIMAL.replace("\nE\n", "\nI\n")
        prob = read_problem(text)
        assert prob.constraints[0].kind is ConstraintKind.INEQUALITY

    def test_write_read_is_normalizing(self):
        # unsorted, duplicated entries collapse to canonical order
        text = """\
" demo fixture
3
1 0 1
2
EEI
1 2 0.5
1 1 2 2 1
1 1 1 1 1
2 1 1 2 0.25
2 1 1 2 0.25
3 1 1 1 1
0 1 1 2 -0.5
"""
        prob = read_problem(text)
        canon = write_problem(prob)
        again = read_problem(canon)
        assert write_problem(again) == canon
        np.testing.assert_array_equal(again.b, prob.b)
        assert again.kinds == prob.kinds

    def test_roundtrip_exact_values(self):
        rng = np.random.default_rng(11)
        rows = []
        for _ in range(3):
            g = rng.standard_normal((3, 3))
            rows.append(([0.5 * (g + g.T)], rng.standard_normal(2), rng.standard_normal(), "E"))
        g = rng.standard_normal((3, 3))
        prob = make_problem((3,), 1, 2, [0.5 * (g + g.T)], rng.standard_normal(2), rows)
        again = read_problem(write_problem(prob))
        np.testing.assert_array_equal(again.cost_blocks[0].packed, prob.cost_blocks[0].packed)
        np.testing.assert_array_equal(again.b, prob.b)
        for c1, c2 in zip(prob.constraints, again.constraints):
            np.testing.assert_array_equal(c1.blocks[0].to_dense(), c2.blocks[0].to_dense())
            np.testing.assert_array_equal(c1.free, c2.free)

    def test_parse_error_carries_line_number(self):
        text = self.MINIMAL + "1 1 zzz 1 1\n"
        with pytest.raises(ProblemFormatError) as err:
            read_problem(text)
        assert err.value.line == 9

    def test_unknown_block_marker(self):
        text = self.MINIMAL + "1 7 1 1 1\n"
        with pytest.raises(ProblemFormatError, match="unknown block marker"):
            read_problem(text)

    def test_inconsistent_dimensions(self):
        text = self.MINIMAL.replace("\n2\n", "\n2 3\n")
        with pytest.raises(ProblemFormatError, match="inconsistent dimension"):
            read_problem(text)

    def test_lower_triangle_entry_rejected(self):
        text = self.MINIMAL + "1 1 2 1 5\n"
        with pytest.raises(ProblemFormatError, match="upper triangle"):
            read_problem(text)

    def test_comments_ignored(self):
        text = '" a comment\n' + self.MINIMAL
        assert read_problem(text).m == 1

    def test_repeated_constraint_entry_reads_as_sum(self):
        bl = read_problem(self.MINIMAL + "1 1 1 2 0.25\n1 1 1 2 0.5\n").constraints[0].blocks[0]
        assert (bl.rows.tolist(), bl.cols.tolist(), bl.vals.tolist()) == ([0, 0], [0, 1], [1.0, 0.75])

    def test_repeated_cost_entry_reads_as_sum(self):
        prob = read_problem(self.MINIMAL + "0 1 1 1 2\n")
        assert prob.cost_blocks[0].packed.tolist() == [3.0, 0.0, 1.0]

    def test_cancelling_entries_are_not_written(self):
        text = self.MINIMAL + "1 1 2 2 0.5\n1 1 2 2 -0.5\n0 1 1 2 0.5\n0 1 1 2 -0.5\n"
        assert write_problem(read_problem(text)) == write_problem(read_problem(self.MINIMAL))

    def test_negative_zero_cost_entry_reads_as_positive_zero(self):
        packed = read_problem(self.MINIMAL + "0 1 1 2 -0\n").cost_blocks[0].packed
        assert packed[1] == 0.0 and not np.signbit(packed[1])


def test_generated_corpus_roundtrips_structurally():
    from lrsdp.apps import generate_random

    for seed in range(6):
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(1, 3))
        sizes = tuple(int(rng.integers(1, 5)) for _ in range(nb))
        k = int(rng.integers(0, nb + 1))
        d = int(rng.integers(0, 3))
        m = int(rng.integers(1, 6))
        n_ineq = int(rng.integers(0, m + 1))
        prob = generate_random(
            BlockStructure(sizes, k, d), m, "E" * (m - n_ineq) + "I" * n_ineq, seed
        )
        text = write_problem(prob)
        again = read_problem(text)
        assert again.structure == prob.structure
        assert again.kinds == prob.kinds
        np.testing.assert_array_equal(again.b, prob.b)
        assert write_problem(again) == text


def test_symmetric_matrix_roundtrip_and_inner():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    a = 0.5 * (g + g.T)
    sm = SymmetricMatrix.from_dense(a)
    np.testing.assert_allclose(sm.to_dense(), a)
