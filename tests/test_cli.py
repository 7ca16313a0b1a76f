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
from lrsdp.cli import main, read_point, write_point
from lrsdp.factorization import FactorizedPoint, factor
from lrsdp.model import BlockStructure, SymmetricMatrix, write_problem
from lrsdp.oracle import oracle_solve

from helpers import make_problem, trivial_sdp

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
        assert err == "warning: oracle: interior-point solve needs at least one PSD block\n"

    def test_timing_off_by_default(self, trivial_file):
        _, out, _ = run_cli(["solve", trivial_file])
        assert json.loads(out)["final"]["time_ms"] is None
        _, out, _ = run_cli(["solve", trivial_file, "--timing"])
        assert json.loads(out)["final"]["time_ms"] > 0.0


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{path}", "--rank", "1,2"],
            ["solve", "{path}", "--rank", ""],
            ["solve", "{path}", "--max-outer", "0"],
            ["experiment", "genericity", "--trials", "0"],
            ["experiment", "licq", "--trials", "0"],
            ["experiment", "adversarial", "--n", "4", "--p", "4"],
            ["experiment", "genericity", "--m", "-1"],
            ["solve", "{path}", "--tol", "0"],
            ["solve", "{path}", "--tol", "-1"],
            ["solve", "{path}", "--tol", "nan"],
            ["solve", "{path}", "--tol", "inf"],
            ["solve", "{path}", "--restarts", "-2"],
            ["experiment", "genericity", "--tol", "0"],
            ["certify", "{path}", "{point}", "--cert-tol", "0"],
            ["certify", "{path}", "{point}", "--cert-tol", "nan"],
            ["solve", "{path}", "--seed", "-1"],
            ["experiment", "licq", "--seed", "-1"],
            ["solve", "{path}", "--rank", "0"],
            ["solve", "{path}", "--rank", "-2"],
            ["bound", "{path}", "--cap", "-1"],
            ["bound", "{path}", "--ranks", "0"],
            ["experiment", "adversarial", "--n", "4", "--p", "2", "--m", "0"],
        ],
        ids=["rank-count", "rank-empty", "max-outer-0", "genericity-trials-0",
             "licq-trials-0", "adversarial-p-equals-n", "genericity-m-negative",
             "tol-0", "tol-negative", "tol-nan", "tol-inf", "restarts-negative",
             "genericity-tol-0", "cert-tol-0", "cert-tol-nan", "seed-negative",
             "licq-seed-negative", "rank-zero", "rank-negative", "cap-negative",
             "bound-ranks-without-tails", "adversarial-m-0"],
    )
    def test_bad_flag_exits_one_with_error_line(self, trivial_file, tmp_path, argv):
        point = os.path.join(tmp_path, "trivial.point")
        e1 = np.array([[1.0], [0.0]])
        Path(point).write_text(write_point(FactorizedPoint((e1,), (), np.zeros(0))))
        code, out, err = run_cli([a.format(path=trivial_file, point=point) for a in argv])
        assert code == 1
        assert out == ""
        assert "error:" in err


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
