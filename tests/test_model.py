"""Problem data model: validation, the constraint map of its dense view, text format."""

from dataclasses import replace

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

from helpers import apply_reference, dense_rows, make_problem, maxcut_sdp, trivial_sdp


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


def _with_row(prob, **changes):
    return replace(prob, constraints=(replace(prob.constraints[0], **changes),))


@pytest.mark.parametrize(
    "edit,diags",
    [
        pytest.param(lambda p: replace(p, structure=BlockStructure((0,), 1, 0)), [
            "structure: PSD block sizes must be positive",
            "cost: block 0 has dim 2, expected 0",
            "constraint 0: block 0 has dim 2, expected 0",
        ], id="zero-block-size"),
        pytest.param(lambda p: replace(p, structure=BlockStructure((2,), 2, 0)),
                     ["structure: factorized_count 2 outside [0, 1]"], id="factorized-count"),
        pytest.param(lambda p: replace(p, structure=BlockStructure((2,), 1, -1)), [
            "structure: free_dim must be nonnegative",
            "cost: free part has length (0,), expected -1",
            "constraint 0: free part length (0,), expected -1",
        ], id="negative-free-dim"),
        pytest.param(lambda p: replace(p, cost_blocks=()), ["cost: 0 blocks, structure declares 1"],
                     id="cost-block-count"),
        pytest.param(lambda p: replace(p, cost_blocks=(SymmetricMatrix.from_dense(np.eye(3)),)),
                     ["cost: block 0 has dim 3, expected 2"], id="cost-block-dim"),
        pytest.param(lambda p: replace(p, cost_free=np.zeros(1)),
                     ["cost: free part has length (1,), expected 0"], id="cost-free-length"),
        pytest.param(lambda p: _with_row(p, blocks=()), ["constraint 0: 0 blocks, structure declares 1"],
                     id="row-block-count"),
        pytest.param(lambda p: _with_row(p, blocks=(CooSymmetric(2, np.array([1]), np.array([0]), np.array([1.0])),)),
                     ["constraint 0: block 0 stores lower-triangle entries"], id="row-lower-triangle"),
        pytest.param(lambda p: _with_row(p, free=np.zeros(1)),
                     ["constraint 0: free part length (1,), expected 0"], id="row-free-length"),
    ],
)
def test_validate_flags_hand_built_structure(edit, diags):
    # no file that read_problem accepts gives any of these problems
    assert validate(edit(trivial_sdp())) == diags


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


def sparse_row_cases():
    """Seeded problems with tail blocks, free variables and E/I rows, plus a
    zero row and a row of duplicate entries that accumulate; MaxCut's
    diagonal rows; and a problem with no rows."""
    from lrsdp.apps import generate_random

    for seed in range(3):
        prob = generate_random(BlockStructure((4, 3), 1, 2), 5, "EEIII", seed)
        sizes = prob.structure.psd_sizes
        zero = Constraint(tuple(CooSymmetric.from_entries(n, []) for n in sizes), np.zeros(2), 0.0,
                          ConstraintKind.INEQUALITY)
        dup = [(0, 1, 0.5), (0, 1, -1.25), (1, 1, 2.0), (0, 1, 0.25), (1, 1, 1.0), (0, 0, 0.0)]
        dup = Constraint(tuple(CooSymmetric.from_entries(n, dup) for n in sizes), np.array([1.0, -2.0]), 1.0,
                         ConstraintKind.EQUALITY)
        yield ConicSdpProblem.normalized(prob.structure, prob.cost_blocks, prob.cost_free,
                                         prob.constraints + (zero, dup))
    yield maxcut_sdp(9, 1)
    yield make_problem((3, 2), 1, 1, [np.eye(3), np.diag([1.0, -1.0])], [0.5], [])


def assert_close(got, want):
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, float(np.linalg.norm(want)))


class TestSparseRows:
    """The triplet kernels against einsum on the ``to_dense`` stacks."""

    def test_cases_cover_zero_and_accumulated_rows(self):
        cases = list(sparse_row_cases())
        dups = [con for prob in cases[:3] for con in prob.constraints if con.rhs == 1.0 and con.free[1] == -2.0]
        assert all(bl.vals.tolist() == [0.0, -0.5, 3.0] for con in dups for bl in con.blocks)
        assert all(any(sum(bl.nnz for bl in con.blocks) == 0 for con in p.constraints) for p in cases[:3])
        assert cases[-1].m == 0 and cases[-1].structure.free_dim == 1

    def test_apply_adjoint_slack_and_export_match_dense_stacks(self):
        for seed, prob in enumerate(sparse_row_cases()):
            dp, (stacks, af) = densify(prob), dense_rows(prob)
            rng = np.random.default_rng(seed)
            X = [_sym(rng.standard_normal((n, n))) for n in dp.sizes]
            x, lam = rng.standard_normal(dp.d), rng.standard_normal(dp.m)
            assert_close(dp.apply(X, x), sum(np.einsum("iab,ab->i", a, xb) for a, xb in zip(stacks, X)) + af @ x)
            adj, adj_free = dp.adjoint(lam)
            S, s_free = dp.slack(lam)
            for a, s, c, stack in zip(adj, S, dp.C, stacks, strict=True):
                assert_close(a, np.einsum("i,iab->ab", lam, stack))
                assert_close(s, c - np.einsum("i,iab->ab", lam, stack))
            assert_close(adj_free, af.T @ lam)
            assert_close(s_free, dp.c_free - af.T @ lam)

    def test_jacobian_and_row_subsets_match_dense_stacks(self):
        for seed, prob in enumerate(sparse_row_cases()):
            dp, (stacks, af) = densify(prob), dense_rows(prob)
            rng = np.random.default_rng(seed)
            for qs in ([1] + list(dp.sizes[1:]), [3] + list(dp.sizes[1:]), [1] + list(dp.sizes[1:])):
                ys = [rng.standard_normal((n, q)) for n, q in zip(dp.sizes, qs)]
                want = np.hstack([2.0 * np.einsum("iab,bq->iaq", a, y).reshape(dp.m, y.size) for a, y in zip(stacks, ys)]
                                 + [af])
                assert_close(dp.jacobian(ys), want)
                for rows in ([], [dp.m - 1], sorted(rng.choice(dp.m, dp.m // 2, replace=False)), range(dp.m)):
                    if dp.m or not rows:
                        assert_close(dp.jacobian(ys, list(rows)), want[list(rows)])

    def test_schur_complement_matches_dense_stacks(self):
        from lrsdp.oracle import _inv_sqrt, _schur_complement

        # with no PSD block, only free columns and inequality rows: M = 0
        no_psd = make_problem((), 0, 2, [], [1.0, 1.0], [([], [1.0, 0.0], 1.0, "I"), ([], [1.0, 1.0], 2.0, "I")])
        for seed, prob in enumerate(list(sparse_row_cases()) + [no_psd]):
            dp, (stacks, _) = densify(prob), dense_rows(prob)
            rng = np.random.default_rng(seed)

            def pd(n):
                g = rng.standard_normal((n, n))
                return g @ g.T + 0.1 * np.eye(n)

            X, S = [pd(n) for n in dp.sizes], [pd(n) for n in dp.sizes]
            M = _schur_complement(dp, X, [_inv_sqrt(x) for x in X], [_inv_sqrt(s) for s in S])
            # M[i, l] = sum_j <A_ij, X_j A_lj S_j^-1>
            want = sum((np.einsum("iab,lab->il", a, x @ a @ np.linalg.inv(s)) for a, x, s in zip(stacks, X, S)),
                       np.zeros((dp.m, dp.m)))
            assert M.shape == (dp.m, dp.m)
            assert_close(M, want)
            np.testing.assert_array_equal(M, M.T)

    def test_phase_one_view_equals_signed_dense_copies(self, monkeypatch):
        from lrsdp import oracle

        views = []

        def capture(view, tol, max_iter):
            views.append(view)
            raise oracle.MaxIterationsError("view captured")

        monkeypatch.setattr(oracle, "_ipm", capture)
        for prob in sparse_row_cases():
            dp, (stacks, af) = densify(prob), dense_rows(prob)
            ineq = list(prob.inequality_indices())
            for active in ((), tuple(ineq[:1]), tuple(ineq)):
                with pytest.raises(oracle.MaxIterationsError):
                    oracle._min_violation(dp, active)
                view = views.pop()
                # the phase I as built on the dense stacks: every row once, a
                # forced row twice with its negation right after it, and t
                forced = dp.eq_mask.copy()
                forced[list(active)] = True
                rows = np.repeat(np.arange(dp.m), np.where(forced, 2, 1))
                neg = np.zeros(rows.size, dtype=bool)
                neg[1:] = rows[1:] == rows[:-1]

                def signed(a):
                    a = a[rows]
                    a[neg] = 0.0 - a[neg]
                    return a

                # row i of the view, read off its adjoint at the unit vector e_i
                want = [signed(a) for a in stacks] + [np.ones((rows.size, 1, 1))]
                for i, e in enumerate(np.eye(rows.size)):
                    for got, stack in zip(view.adjoint(e)[0], want, strict=True):
                        np.testing.assert_array_equal(got, stack[i])
                for got, want in zip(view.C, [1e-10 * np.eye(n) for n in dp.sizes] + [np.ones((1, 1))], strict=True):
                    np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(view.Af, signed(af))
                np.testing.assert_array_equal(view.b, signed(dp.b))
                assert view.sizes == dp.sizes + (1,) and not view.eq_mask.any()
                np.testing.assert_array_equal(view.c_free, np.zeros(dp.d))


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

    @pytest.mark.parametrize(
        "old,new,line,message",
        [
            pytest.param("\n1\n0 1 1 1 1\n0 1 2 2 1\n1 1 1 1 1\n", "\n", None,
                         "file has fewer than 5 header lines", id="short-header"),
            pytest.param("1\n1 0 1\n", "x\n1 0 1\n", 1, "could not parse constraint count", id="bad-m"),
            pytest.param("1\n1 0 1\n", "-1\n1 0 1\n", 1, "negative constraint count", id="negative-m"),
            pytest.param("\n1 0 1\n", "\n1 0 2\n", 2,
                         "inconsistent dimension declaration: nblocks=1 d=0 k=2", id="bad-nblocks-d-k"),
            pytest.param("1\n1 0 1\n", "1\n1 100000000000000000000 1\n", 2,
                         "free dimension 100000000000000000000 is too large to store", id="huge-free"),
            pytest.param("\n2\n", "\n0\n", 3, "block sizes must be positive", id="zero-block-size"),
            pytest.param("\n2\n", "\n100000000000000000000\n", 3,
                         "block 1 of size 100000000000000000000 is too large to store", id="huge-block"),
            pytest.param("\nE\n", "\nEE\n", 4,
                         "inconsistent dimension declaration: kind string has length 2, m = 1", id="kind-length"),
            pytest.param("\nE\n", "\nX\n", 4, "unknown constraint kind 'X'", id="unknown-kind"),
            pytest.param("\nE\n1\n", "\nE\nz\n", 5, "could not parse right-hand side", id="bad-rhs"),
            pytest.param("\nE\n1\n", "\nE\n1 2\n", 5,
                         "inconsistent dimension declaration: 2 rhs values, m = 1", id="rhs-count"),
            pytest.param("1 1 1 1 1\n", "1 1 1 1\n", 8,
                         "expected 'con block i j value', got '1 1 1 1'", id="entry-tokens"),
            pytest.param("1 1 1 1 1\n", "2 1 1 1 1\n", 8, "constraint index 2 outside [0, 1]", id="con-index"),
            pytest.param("1 1 1 1 1\n", "1 0 1 0 1\n", 8, "free index 1 outside [1, 0]", id="free-index"),
        ],
    )
    def test_reader_diagnostics(self, old, new, line, message):
        with pytest.raises(ProblemFormatError) as err:
            read_problem(self.MINIMAL.replace(old, new, 1))
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize(
        "text,diags",
        [
            pytest.param("0\n0 0 0\n\n\n\n", ["structure: no PSD blocks and free_dim == 0"], id="no-variables"),
            pytest.param(MINIMAL + "0 1 1 2 nan\n", ["cost: block 0 has non-finite entries"], id="cost-nan"),
            pytest.param(MINIMAL.replace("\nE\n1\n", "\nE\ninf\n"), ["constraint 0: non-finite right-hand side"],
                         id="rhs-inf"),
        ],
    )
    def test_validate_flags_parsed_problem(self, text, diags):
        assert validate(read_problem(text)) == diags

    def test_lower_triangle_entry_rejected(self):
        text = self.MINIMAL + "1 1 2 1 5\n"
        with pytest.raises(ProblemFormatError, match="upper triangle"):
            read_problem(text)

    def test_comments_ignored(self):
        text = '" a comment\n' + self.MINIMAL
        assert read_problem(text).m == 1
        spaced = self.MINIMAL.replace("0 1 2 2 1\n", "0 1 2 2 1\n\n   \n")
        assert write_problem(read_problem(spaced)) == write_problem(read_problem(self.MINIMAL))

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


@pytest.mark.parametrize("n, seed", [(5, 0), (12, 0), (40, 3)])
def test_maxcut_sdp_serializes_as_its_dense_row_build(n, seed):
    # the same graph with every row built as a dense n x n matrix and then converted
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.3, 1).astype(float)
    adj = upper + upper.T
    laplacian = np.diag(adj.sum(axis=1)) - adj
    rows = [([np.diag(np.eye(n)[i])], [], 1.0, "E") for i in range(n)]
    dense = make_problem((n,), 1, 0, [-0.25 * laplacian], [], rows, name=f"maxcut-n{n}-s{seed}")
    assert write_problem(maxcut_sdp(n, seed)) == write_problem(dense)


def test_symmetric_matrix_roundtrip_and_inner():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    a = 0.5 * (g + g.T)
    sm = SymmetricMatrix.from_dense(a)
    np.testing.assert_allclose(sm.to_dense(), a)
