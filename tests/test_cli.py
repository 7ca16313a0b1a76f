"""Command-line interface: exit codes, report schema, determinism."""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from lrsdp.apps import (
    adversarial_instance,
    build_integer_quadratic,
    build_sensing_psd,
    generate_random,
)
from lrsdp.certification import certify, estimate_multipliers
from lrsdp.cli import main, read_point, write_point
from lrsdp.dense import densify
from lrsdp.factorization import FactorizedPoint, factor
from lrsdp.model import BlockStructure, SymmetricMatrix, read_problem, write_problem
from lrsdp.oracle import oracle_solve

from helpers import make_problem, random_factor_point, trivial_sdp

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


REPORT_SCHEMA = {
    "type": "object",
    "required": ["problem", "config", "rank_bound", "trace", "final"],
    "properties": {
        "problem": {
            "type": "object",
            "required": ["name", "n_blocks", "m", "kinds"],
        },
        "trace": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rank", "objective", "kkt", "slack_min_eig", "verdict"],
                "properties": {
                    "kkt": {
                        "type": "object",
                        "required": [
                            "stationarity",
                            "feasibility",
                            "complementarity",
                            "sign",
                            "free",
                        ],
                    }
                },
            },
        },
        "final": {
            "type": "object",
            "required": ["verdict", "objective", "gap_vs_dual", "time_ms", "seed"],
        },
    },
}


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


@pytest.fixture
def trivial_file(tmp_path):
    path = os.path.join(tmp_path, "trivial.sdp")
    Path(path).write_text(write_problem(trivial_sdp()))
    return path


class TestSolveCommand:
    def test_certified_exit_zero(self, trivial_file):
        code, out, _ = run_cli(["solve", trivial_file])
        assert code == 0
        report = json.loads(out)
        assert report["final"]["verdict"] == "GlobalOptimal"
        assert report["final"]["objective"] == pytest.approx(1.0, abs=1e-6)

    def test_report_schema(self, trivial_file):
        if jsonschema is None:
            pytest.skip("jsonschema unavailable")
        _, out, _ = run_cli(["solve", trivial_file])
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_malformed_file_exit_one(self, tmp_path):
        path = os.path.join(tmp_path, "bad.sdp")
        Path(path).write_text("1\n1 0 1\n2\nE\n1\n1 1 zzz 1 1\n")
        code, _, err = run_cli(["solve", path])
        assert code == 1
        assert "line 6" in err

    def test_rank_override_shows_escalation(self, tmp_path):
        built = build_sensing_psd(4, 2, 5, seed=0)
        path = os.path.join(tmp_path, "sensing.sdp")
        Path(path).write_text(write_problem(built.problem))
        code, out, _ = run_cli(["solve", path, "--rank", "1"])
        assert code == 0
        report = json.loads(out)
        ranks = [stage["rank"][0] for stage in report["trace"]]
        assert ranks[0] == 1 and max(ranks) >= 2

    def test_infeasible_exit_three(self, tmp_path):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem(
            (2,), 1, 0, [np.eye(2)], [],
            [([e11], [], 1.0, "E"), ([e11], [], 2.0, "E")],
        )
        path = os.path.join(tmp_path, "infeasible.sdp")
        Path(path).write_text(write_problem(prob))
        code, _, err = run_cli(["solve", path])
        assert code == 3

    def test_numerical_failure_exit_four(self, trivial_file, monkeypatch):
        import lrsdp.cli as cli
        from lrsdp.solver import NumericalFailure

        def failing(problem, config, **kwargs):
            raise NumericalFailure("non-finite augmented Lagrangian evaluation")

        monkeypatch.setattr(cli, "staircase_solve", failing)
        code, out, err = run_cli(["solve", trivial_file])
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure: non-finite")

    def test_oracle_flag_reports_reference_value(self, trivial_file):
        _, out, _ = run_cli(["solve", trivial_file, "--oracle"])
        report = json.loads(out)
        assert report["final"]["oracle_objective"] == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("error", ["MaxIterationsError", "NotStrictlyFeasibleError"])
    def test_oracle_failure_reports_null_with_warning(self, trivial_file, monkeypatch, error):
        import lrsdp.oracle as oracle

        def failing(problem, *args, **kwargs):
            raise getattr(oracle, error)("stalled after 26 iterations")

        monkeypatch.setattr(oracle, "oracle_solve", failing)
        code, out, err = run_cli(["solve", trivial_file, "--oracle"])
        assert code == 0  # the exit code follows the verdict
        final = json.loads(out)["final"]
        assert final["verdict"] == "GlobalOptimal"
        assert "oracle_objective" in final and final["oracle_objective"] is None
        assert err == "warning: oracle: stalled after 26 iterations\n"

    def test_oracle_without_psd_block_reports_null_with_warning(self, tmp_path):
        # free variables and equality rows only: nothing for the interior-point method
        prob = make_problem((), 0, 2, [], [1.0, 1.0],
                            [([], [1.0, 0.0], 1.0, "E"), ([], [0.0, 1.0], 2.0, "E")])
        path = os.path.join(tmp_path, "free.sdp")
        Path(path).write_text(write_problem(prob))
        code, out, err = run_cli(["solve", path, "--oracle"])
        final = json.loads(out)["final"]
        assert final["verdict"] == "GlobalOptimal"
        assert code == 0  # the exit code follows the verdict
        assert "oracle_objective" in final and final["oracle_objective"] is None
        assert err == "warning: oracle: interior-point solve needs a PSD block or an inequality row\n"

    def test_timing_off_by_default(self, trivial_file):
        _, out, _ = run_cli(["solve", trivial_file])
        assert json.loads(out)["final"]["time_ms"] is None
        _, out, _ = run_cli(["solve", trivial_file, "--timing"])
        assert json.loads(out)["final"]["time_ms"] > 0.0


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv,last_line",
        [
            pytest.param(["solve", "{path}", "--rank", "1,2"],
                         "error: --rank needs 1 comma-separated ranks, got 2",
                         id="rank-count"),
            pytest.param(["solve", "{path}", "--rank", ""],
                         "error: --rank needs 1 comma-separated ranks, got 0",
                         id="rank-empty"),
            pytest.param(["solve", "{path}", "--max-outer", "0"],
                         "lrsdp solve: error: argument --max-outer: must be at least 1, got 0",
                         id="max-outer-0"),
            pytest.param(["experiment", "genericity", "--trials", "0"],
                         "lrsdp experiment: error: argument --trials: must be at least 1, got 0",
                         id="genericity-trials-0"),
            pytest.param(["experiment", "licq", "--trials", "0"],
                         "lrsdp experiment: error: argument --trials: must be at least 1, got 0",
                         id="licq-trials-0"),
            pytest.param(["experiment", "adversarial", "--n", "4", "--p", "4"],
                         "error: adversarial needs --p below --n, got p = 4, n = 4",
                         id="adversarial-p-equals-n"),
            pytest.param(["experiment", "genericity", "--m", "-1"],
                         "lrsdp experiment: error: argument --m: must be at least 0, got -1",
                         id="genericity-m-negative"),
            pytest.param(["solve", "{path}", "--tol", "0"],
                         "lrsdp solve: error: argument --tol: must be finite and positive, got 0.0",
                         id="tol-0"),
            pytest.param(["solve", "{path}", "--tol", "-1"],
                         "lrsdp solve: error: argument --tol: must be finite and positive, got -1.0",
                         id="tol-negative"),
            pytest.param(["solve", "{path}", "--tol", "nan"],
                         "lrsdp solve: error: argument --tol: must be finite and positive, got nan",
                         id="tol-nan"),
            pytest.param(["solve", "{path}", "--tol", "inf"],
                         "lrsdp solve: error: argument --tol: must be finite and positive, got inf",
                         id="tol-inf"),
            pytest.param(["solve", "{path}", "--restarts", "-2"],
                         "lrsdp solve: error: argument --restarts: must be at least 0, got -2",
                         id="restarts-negative"),
            pytest.param(["experiment", "genericity", "--tol", "0"],
                         "lrsdp experiment: error: argument --tol: must be finite and positive, got 0.0",
                         id="genericity-tol-0"),
            pytest.param(["certify", "{path}", "{point}", "--cert-tol", "0"],
                         "lrsdp certify: error: argument --cert-tol: must be finite and positive, got 0.0",
                         id="cert-tol-0"),
            pytest.param(["certify", "{path}", "{point}", "--cert-tol", "nan"],
                         "lrsdp certify: error: argument --cert-tol: must be finite and positive, got nan",
                         id="cert-tol-nan"),
            pytest.param(["solve", "{path}", "--seed", "-1"],
                         "lrsdp solve: error: argument --seed: must be at least 0, got -1",
                         id="seed-negative"),
            pytest.param(["experiment", "licq", "--seed", "-1"],
                         "lrsdp experiment: error: argument --seed: must be at least 0, got -1",
                         id="licq-seed-negative"),
            pytest.param(["solve", "{path}", "--rank", "0"],
                         "lrsdp solve: error: argument --rank: must be at least 1, got 0",
                         id="rank-zero"),
            pytest.param(["solve", "{path}", "--rank", "-2"],
                         "lrsdp solve: error: argument --rank: must be at least 1, got -2",
                         id="rank-negative"),
            pytest.param(["bound", "{path}", "--cap", "-1"],
                         "lrsdp bound: error: argument --cap: must be at least 0, got -1",
                         id="cap-negative"),
            pytest.param(["bound", "{path}", "--ranks", "0"],
                         "error: --ranks sets tail rank ranges, and this problem has no tail block",
                         id="bound-ranks-without-tails"),
            pytest.param(["experiment", "adversarial", "--n", "4", "--p", "2", "--m", "0"],
                         "error: adversarial needs --m of at least 1 (the trace row), got 0",
                         id="adversarial-m-0"),
            pytest.param(["solve", "{path}", "--rank", "3"],
                         "error: --rank 3 for block 0 exceeds its size 2",
                         id="rank-above-block-size"),
            pytest.param(["experiment", "genericity", "--n", "4", "--p", "9"],
                         "error: genericity needs --p of at most --n, got p = 9, n = 4",
                         id="genericity-p-above-n"),
            pytest.param(["experiment", "licq", "--n", "4", "--p", "9", "--m", "3", "--trials", "2"],
                         "error: licq needs --p of at most --n, got p = 9, n = 4",
                         id="licq-p-above-n"),
            pytest.param(["experiment", "adversarial", "--n", "4", "--p", "2", "--trials", "1", "--oracle"],
                         "error: --oracle applies to genericity only, not adversarial",
                         id="adversarial-oracle"),
            pytest.param(["experiment", "licq", "--n", "4", "--p", "2", "--trials", "1", "--oracle"],
                         "error: --oracle applies to genericity only, not licq",
                         id="licq-oracle"),
            # the solver flags act on genericity only; a default value counts as given
            pytest.param(["experiment", "adversarial", "--n", "4", "--p", "2", "--trials", "1", "--tol", "1e-8"],
                         "error: --tol applies to genericity only, not adversarial",
                         id="adversarial-tol-default"),
            pytest.param(["experiment", "adversarial", "--n", "4", "--p", "2", "--trials", "1", "--max-outer", "5"],
                         "error: --max-outer applies to genericity only, not adversarial",
                         id="adversarial-max-outer"),
            pytest.param(["experiment", "adversarial", "--n", "4", "--p", "2", "--trials", "1", "--restarts", "3"],
                         "error: --restarts applies to genericity only, not adversarial",
                         id="adversarial-restarts-default"),
            pytest.param(["experiment", "licq", "--n", "4", "--p", "2", "--trials", "1", "--tol", "1e-6"],
                         "error: --tol applies to genericity only, not licq",
                         id="licq-tol"),
            pytest.param(["experiment", "licq", "--n", "4", "--p", "2", "--trials", "1", "--max-outer", "50"],
                         "error: --max-outer applies to genericity only, not licq",
                         id="licq-max-outer-default"),
            pytest.param(["experiment", "licq", "--n", "4", "--p", "2", "--trials", "1", "--restarts", "0"],
                         "error: --restarts applies to genericity only, not licq",
                         id="licq-restarts"),
            pytest.param(["bound", "{path}", "--ranks", ""],
                         "error: --ranks sets tail rank ranges, and this problem has no tail block",
                         id="bound-empty-ranks-without-tails"),
            pytest.param(["bound", "{tail}", "--ranks", "x"],
                         "error: --ranks takes integer ranks per tail block, as in '0,2;0,1', got 'x'",
                         id="bound-ranks-not-integers"),
            # the tail's symmetric part is 0, which certified GlobalOptimal
            pytest.param(["certify", "{two_block}", "{skew_tail}"],
                         "error: tail block 0 is not symmetric",
                         id="certify-asymmetric-tail"),
            # x = 5 is infeasible; a reader that kept only the last section would certify x = 0
            pytest.param(["certify", "{free_sdp}", "{two_free}"],
                         "error: point file has a second free section",
                         id="certify-second-free-section"),
            pytest.param(["bound", "{path}", "--out", "{missing_dir}/x.json"],
                         "error: cannot write --out {missing_dir}/x.json: No such file or directory",
                         id="out-in-missing-directory"),
            pytest.param(["solve", "{path}", "--out", "{tmp}"],
                         "error: cannot write --out {tmp}: Is a directory",
                         id="out-is-a-directory"),
        ],
    )
    def test_bad_flag_exits_one_with_error_line(self, trivial_file, tmp_path, argv, last_line):
        point = os.path.join(tmp_path, "trivial.point")
        e1 = np.array([[1.0], [0.0]])
        Path(point).write_text(write_point(FactorizedPoint((e1,), (), np.zeros(0))))
        tail = os.path.join(tmp_path, "tail.sdp")
        Path(tail).write_text(write_problem(generate_random(BlockStructure((3, 1), 1, 0), 2, "EE", 1)))
        two_block = os.path.join(tmp_path, "two_block.sdp")
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        Path(two_block).write_text(write_problem(make_problem(
            (2, 2), 1, 0, [np.eye(2), np.eye(2)], [], [([e11, np.zeros((2, 2))], [], 1.0, "E")]
        )))
        skew_tail = os.path.join(tmp_path, "skew_tail.point")
        Path(skew_tail).write_text("factor 2 1\n1\n0\ntail 2\n0 5\n-5 0\n")
        # min X_11 + X_22 + x  s.t.  X_11 + x = 1
        free_sdp = os.path.join(tmp_path, "free.sdp")
        Path(free_sdp).write_text(write_problem(make_problem(
            (2,), 1, 1, [np.eye(2)], [1.0], [([e11], [1.0], 1.0, "E")]
        )))
        two_free = os.path.join(tmp_path, "two_free.point")
        Path(two_free).write_text("factor 2 1\n1\n0\nfree 1\n5\nfree 1\n0\n")
        files = dict(path=trivial_file, point=point, tail=tail, two_block=two_block, skew_tail=skew_tail,
                     free_sdp=free_sdp, two_free=two_free, tmp=str(tmp_path),
                     missing_dir=os.path.join(tmp_path, "missing"))
        code, out, err = run_cli([a.format(**files) for a in argv])
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == last_line.format(**files)

    # min <I, X> (+ x) s.t. X_11 (+ x) = 1 over 2x2 PSD (and one free variable)
    PLAIN = "1\n1 0 1\n2\nE\n{b}\n0 1 1 1 {c11}\n0 1 2 2 1\n1 1 1 1 1\n1 1 2 2 {a22}\n"
    FREE = "1\n1 1 1\n2\nE\n1\n0 0 1 0 {c_free}\n0 1 1 1 1\n0 1 2 2 1\n1 0 1 0 {a_free}\n1 1 1 1 1\n"

    @pytest.mark.parametrize(
        "text,line",
        [
            pytest.param(PLAIN.format(b=1, c11="nan", a22=0), "error: cost: block 0 has non-finite entries",
                         id="cost-block-nan"),
            pytest.param(PLAIN.format(b=1, c11=1, a22="nan"), "error: constraint 0: block 0 has non-finite entries",
                         id="row-block-nan"),
            pytest.param(PLAIN.format(b="inf", c11=1, a22=0), "error: constraint 0: non-finite right-hand side",
                         id="rhs-inf"),
            pytest.param(FREE.format(c_free="nan", a_free=1), "error: cost: free part has non-finite entries",
                         id="cost-free-nan"),
            pytest.param(FREE.format(c_free=1, a_free="inf"), "error: constraint 0: free part has non-finite entries",
                         id="row-free-inf"),
            pytest.param("2\n1 0 1\n2\nIE\n1 1\n0 1 1 1 1\n1 1 1 1 1\n2 1 2 2 1\n",
                         "error: constraint 1: equality listed after an inequality", id="equality-after-inequality"),
        ],
    )
    def test_invalid_problem_exits_one_with_error_line(self, tmp_path, text, line):
        path = os.path.join(tmp_path, "bad.sdp")
        Path(path).write_text(text)
        code, out, err = run_cli(["solve", path])
        assert (code, out, err.splitlines()) == (1, "", [line])

    @pytest.mark.parametrize(
        "factor_rows,tail_rows",
        [(["nan", "0"], ["1 0", "0 0"]), (["1", "0"], ["-1 0", "0 0"])],
        ids=["nan-in-factor", "indefinite-tail"],
    )
    def test_malformed_point_exits_one_with_error_line(self, tmp_path, factor_rows, tail_rows):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem((2, 2), 1, 0, [np.eye(2), np.eye(2)], [], [([e11, e11], [], 1.0, "E")])
        ppath = os.path.join(tmp_path, "tail.sdp")
        Path(ppath).write_text(write_problem(prob))
        tpath = os.path.join(tmp_path, "bad.point")
        Path(tpath).write_text("\n".join(["factor 2 1", *factor_rows, "tail 2", *tail_rows]) + "\n")
        code, out, err = run_cli(["certify", ppath, tpath])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_cap_on_a_conic_formula_problem_exits_one(self, tmp_path):
        # two blocks take the conic formula, which enumerates no active sets
        prob = generate_random(BlockStructure((3, 1), 1, 0), 2, "EE", 1)
        path = os.path.join(tmp_path, "tail.sdp")
        Path(path).write_text(write_problem(prob))
        assert run_cli(["bound", path])[0] == 0
        code, out, err = run_cli(["bound", path, "--cap", "5"])
        assert code == 1
        assert out == ""
        assert err == "error: --cap bounds the m' enumeration, and this problem takes the conic formula\n"


class TestCertifyCommand:
    def test_planted_point_rejected(self, tmp_path):
        built = adversarial_instance(6, 2, 8, seed=1)
        ppath = os.path.join(tmp_path, "adv.sdp")
        Path(ppath).write_text(write_problem(built.problem))
        tpath = os.path.join(tmp_path, "adv.point")
        Path(tpath).write_text(write_point(built.planted_point))
        code, out, _ = run_cli(["certify", ppath, tpath])
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] in ("Escapable", "Indeterminate")
        assert report["kkt"]["stationarity"] <= 1e-10

    def test_reference_optimum_certifies(self, tmp_path):
        prob = generate_random(BlockStructure((5,), 1, 0), 4, "EEEE", 21)
        sol = oracle_solve(prob)
        w = np.linalg.eigvalsh(sol.X.psd_blocks[0].to_dense())
        nrank = int(np.sum(w > 1e-7 * w[-1]))
        pt = factor(sol.X, [nrank], psd_tol=1e-6)
        ppath = os.path.join(tmp_path, "gen.sdp")
        Path(ppath).write_text(write_problem(prob))
        tpath = os.path.join(tmp_path, "gen.point")
        Path(tpath).write_text(write_point(pt))
        code, out, _ = run_cli(["certify", ppath, tpath, "--cert-tol", "1e-4"])
        assert code == 0
        assert json.loads(out)["verdict"] == "GlobalOptimal"

    def test_zero_point_reports_without_crash(self, tmp_path):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = make_problem((2,), 1, 0, [np.eye(2)], [], [([e11], [], -1.0, "I")])
        ppath = os.path.join(tmp_path, "zero.sdp")
        Path(ppath).write_text(write_problem(prob))
        tpath = os.path.join(tmp_path, "zero.point")
        Path(tpath).write_text(write_point(FactorizedPoint((np.zeros((2, 1)),), (), np.zeros(0))))
        code, out, _ = run_cli(["certify", ppath, tpath])
        report = json.loads(out)
        assert "kkt" in report and report["kkt"]["feasibility"] == 0.0

    def test_objective_is_the_certificate_objective(self, tmp_path):
        # a tail block, free variables and inequality rows
        prob = generate_random(BlockStructure((5, 3), 1, 2), 6, "EEEIII", 4)
        ppath = os.path.join(tmp_path, "mixed.sdp")
        Path(ppath).write_text(write_problem(prob))
        tpath = os.path.join(tmp_path, "mixed.point")
        Path(tpath).write_text(write_point(random_factor_point(prob, [2], 4)))
        code, out, _ = run_cli(["certify", ppath, tpath])
        assert code == 2
        report = json.loads(out)
        dp = densify(read_problem(Path(ppath).read_text()))
        point = read_point(Path(tpath).read_text())
        cert = certify(dp, point, [estimate_multipliers(dp, point)])
        # 17 significant digits read back to the same double
        assert report["objective"] == cert.objective
        assert report["duality_gap"] == cert.duality_gap

    def test_shape_mismatch_exit_one(self, tmp_path, trivial_file):
        tpath = os.path.join(tmp_path, "wrong.point")
        Path(tpath).write_text(write_point(FactorizedPoint((np.zeros((3, 1)),), (), np.zeros(0))))
        code, _, err = run_cli(["certify", trivial_file, tpath])
        assert code == 1 and "factor 0" in err

    @pytest.mark.parametrize("header", ["factor 2", "factor 2 1 1", "tail", "free 1 2"])
    def test_malformed_section_header_exit_one(self, tmp_path, trivial_file, header):
        tpath = os.path.join(tmp_path, "bad.point")
        Path(tpath).write_text(header + "\n1\n0\n")
        code, out, err = run_cli(["certify", trivial_file, tpath])
        assert code == 1 and out == ""
        assert err.startswith("error: point section header")

    def test_point_roundtrip(self):
        rng = np.random.default_rng(0)
        pt = FactorizedPoint(
            (rng.standard_normal((3, 2)),),
            (SymmetricMatrix.from_dense(np.eye(2)),),
            rng.standard_normal(2),
        )
        again = read_point(write_point(pt))
        np.testing.assert_array_equal(again.factors[0], pt.factors[0])
        np.testing.assert_array_equal(again.tail_blocks[0].packed, pt.tail_blocks[0].packed)
        np.testing.assert_array_equal(again.free, pt.free)

    def test_zero_width_factor_roundtrip(self):
        # a rank-0 factor is written as blank rows, which the reader drops
        again = read_point(write_point(FactorizedPoint((np.zeros((2, 0)),), (), np.zeros(0))))
        assert again.ranks == (0,)
        assert again.factors[0].shape == (2, 0)

    def test_empty_free_section(self):
        again = read_point("factor 1 1\n2\nfree 0\n")
        np.testing.assert_array_equal(again.factors[0], [[2.0]])
        assert again.free.shape == (0,)

    def test_zero_width_factor_then_free_section(self):
        again = read_point("factor 2 0\nfree 1\n3\n")
        assert again.factors[0].shape == (2, 0)
        np.testing.assert_array_equal(again.free, [3.0])


class TestBoundCommand:
    def test_equality_stack_rank(self, tmp_path):
        prob = generate_random(BlockStructure((5,), 1, 0), 4, "EEEE", 2)
        path = os.path.join(tmp_path, "eq.sdp")
        Path(path).write_text(write_problem(prob))
        code, out, _ = run_cli(["bound", path])
        rep = json.loads(out)
        assert code == 0
        assert rep["m_prime"] == 4
        assert rep["p_per_block"] == [3]  # tau(3) = 6 > 4

    def test_iqm_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((6, 6))
        built = build_integer_quadratic(g @ g.T)  # 5 integer variables
        path = os.path.join(tmp_path, "iqm.sdp")
        Path(path).write_text(write_problem(built.problem))
        code, out, _ = run_cli(["bound", path])
        rep = json.loads(out)
        assert rep["m_prime"] == 6
        assert rep["p_per_block"] == [4]  # least p with tau(p) > 6

    def test_cap_exceeded_reports_fallback(self, tmp_path):
        prob = generate_random(BlockStructure((3,), 1, 0), 5, "EEIII", 3)
        path = os.path.join(tmp_path, "capped.sdp")
        Path(path).write_text(write_problem(prob))
        code, out, _ = run_cli(["bound", path, "--cap", "2"])
        assert json.loads(out)["method"] == "RankUpperBound"

    def test_scalar_tail_ranks_count_active_rows(self, tmp_path):
        prob = generate_random(BlockStructure((3, 1, 1), 1, 0), 4, "EEEE", 1)
        path = os.path.join(tmp_path, "tail.sdp")
        Path(path).write_text(write_problem(prob))
        code, out, _ = run_cli(["bound", path, "--ranks", "0;1"])
        assert json.loads(out)["m_prime"] == 3  # one inactive scalar block


    def test_unfactorized_block_takes_conic_formula(self, tmp_path):
        # one block that the solver keeps whole (k = 0): no m' enumeration,
        # no factor rank, and --ranks is checked against the block's size
        prob = make_problem((3,), 0, 0, [np.diag([1.0, 2.0, 3.0])], [],
                            [([np.eye(3)], [], 1.0, "E")])
        path = os.path.join(tmp_path, "whole.sdp")
        Path(path).write_text(write_problem(prob))
        code, out, _ = run_cli(["bound", path])
        rep = json.loads(out)
        assert code == 0
        assert rep["method"] == "ConicFormula"
        assert rep["p_per_block"] == []
        code, out, err = run_cli(["bound", path, "--ranks", "7"])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_more_free_variables_than_rows_clamps_m_prime_at_zero(self, tmp_path):
        prob = generate_random(BlockStructure((3,), 1, 2), 1, "E", 0)
        path = os.path.join(tmp_path, "free.sdp")
        Path(path).write_text(write_problem(prob))
        code, out, _ = run_cli(["bound", path])
        assert code == 0
        assert json.loads(out) == {"m_prime": 0, "p_per_block": [1], "method": "ConicFormula"}

    def test_stalled_feasibility_solve_exits_four(self, tmp_path):
        # the m' enumeration's phase I stalls on the active subset (3, 4, 5)
        prob = generate_random(BlockStructure((4,), 1, 0), 7, "EEEIIII", 35)
        path = os.path.join(tmp_path, "stall.sdp")
        Path(path).write_text(write_problem(prob))
        code, out, err = run_cli(["bound", path])
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure: stalled after")
        assert "Traceback" not in err


class TestExperimentCommand:
    def test_adversarial_rejection(self):
        code, out, _ = run_cli(
            ["experiment", "adversarial", "--n", "5", "--p", "2", "--m", "6", "--trials", "5"]
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["rejection_fraction"] == 1.0

    def test_licq_passes(self):
        code, out, _ = run_cli(
            ["experiment", "licq", "--n", "6", "--p", "2", "--m", "5", "--trials", "10"]
        )
        assert json.loads(out)["pass_fraction"] == 1.0

    def test_genericity_smoke(self):
        code, out, _ = run_cli(
            ["experiment", "genericity", "--n", "6", "--m", "5", "--p", "3", "--trials", "5"]
        )
        rep = json.loads(out)
        assert rep["fraction_certified_first_rank"] >= 0.8

    def test_genericity_honours_tol_and_max_outer(self, monkeypatch):
        import lrsdp.cli as cli

        seen = []
        real = cli.staircase_solve

        def spy(problem, config, **kwargs):
            seen.append(config)
            return real(problem, config, **kwargs)

        monkeypatch.setattr(cli, "staircase_solve", spy)
        code, _, _ = run_cli(
            ["experiment", "genericity", "--n", "4", "--m", "3", "--p", "2", "--trials", "2",
             "--seed", "5", "--tol", "1e-6", "--max-outer", "1"]
        )
        assert code == 0
        assert [c.seed for c in seen] == [5, 6]
        for c in seen:
            assert (c.max_outer, c.tol) == (1, 1e-6)

    def test_genericity_oracle_failure_reports_mismatch(self, monkeypatch):
        import lrsdp.oracle as oracle

        def failing(problem, *args, **kwargs):
            raise oracle.MaxIterationsError("stalled")

        monkeypatch.setattr(oracle, "oracle_solve", failing)
        code, out, err = run_cli(["experiment", "genericity", "--n", "4", "--m", "3", "--p", "2",
                                  "--trials", "2", "--oracle"])
        assert code == 0
        rep = json.loads(out)
        assert rep["fraction_matching_oracle"] == 0.0
        for rec in rep["trials"]:
            assert rec["oracle_objective"] is None and rec["matches_oracle"] is False
        assert err == "warning: oracle: stalled\n" * 2

    @pytest.mark.parametrize(
        "error, code, prefix",
        [("NumericalFailure", 4, "numerical failure: "), ("InfeasibleError", 3, "infeasible: ")],
    )
    def test_solver_errors_map_to_exit_codes(self, monkeypatch, error, code, prefix):
        import lrsdp.cli as cli
        import lrsdp.solver as solver

        def failing(problem, config, **kwargs):
            raise getattr(solver, error)("stalled")

        monkeypatch.setattr(cli, "staircase_solve", failing)
        got, out, err = run_cli(["experiment", "genericity", "--n", "4", "--m", "3", "--p", "2",
                                 "--trials", "2"])
        assert got == code
        assert out == ""
        assert err == prefix + "stalled\n"


class TestDeterminism:
    def test_solve_reruns_byte_identical(self, tmp_path):
        built = build_sensing_psd(5, 1, 5, seed=4)
        path = os.path.join(tmp_path, "det.sdp")
        Path(path).write_text(write_problem(built.problem))
        _, out1, _ = run_cli(["solve", path, "--seed", "7"])
        _, out2, _ = run_cli(["solve", path, "--seed", "7"])
        assert out1 == out2

    def test_experiment_reruns_byte_identical(self):
        argv = ["experiment", "adversarial", "--n", "5", "--p", "2", "--m", "6", "--trials", "4"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_floats_serialized_with_full_precision(self, trivial_file):
        _, out, _ = run_cli(["solve", trivial_file])
        obj = json.loads(out)["final"]["objective"]
        # the decimal text must round-trip the binary double exactly
        assert json.loads(json.dumps(obj)) == obj
        assert f"{obj:.17g}" in out
