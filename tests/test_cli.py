"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from qcopula import cli, states
from qcopula.errors import PrecopulaCheckFailed, VerificationFailed
from qcopula.jsonio import canonical_dumps


def write_state(path, rho):
    path.write_text(canonical_dumps(states.state_to_dict(rho)))
    return str(path)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def maximally_mixed_doc():
    return states.state_to_dict(states.DensityMatrix(np.eye(4) / 4, 2, 2))


class TestCopulaCommand:
    def test_maximally_mixed_roundtrip(self, tmp_path):
        inp = write_state(tmp_path / "in.json", states.DensityMatrix(np.eye(4) / 4, 2, 2))
        out = tmp_path / "out.json"
        code = cli.main(["copula", inp, "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        chi = states.state_from_dict(doc["copula"])
        np.testing.assert_allclose(chi.mat, np.eye(4) / 4, atol=1e-12)
        assert doc["report"]["result"]["converged"] is True
        assert doc["report"]["input_digest"].startswith("sha256:")

    def test_bad_trace_exits_3_naming_invariant(self, tmp_path, capsys):
        doc = maximally_mixed_doc()
        doc["matrix"][0][0] = [0.1, 0.0]
        inp = write_json(tmp_path / "in.json", doc)
        code = cli.main(["copula", inp])
        assert code == 3
        assert "trace" in capsys.readouterr().err

    def test_non_hermitian_exits_3(self, tmp_path, capsys):
        doc = maximally_mixed_doc()
        doc["matrix"][0][1] = [0.2, 0.0]
        inp = write_json(tmp_path / "in.json", doc)
        code = cli.main(["copula", inp])
        assert code == 3
        assert "Hermitian" in capsys.readouterr().err

    def test_malformed_json_exits_3(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text("{not json")
        assert cli.main(["copula", str(path)]) == 3

    def test_missing_file_exits_3(self, tmp_path):
        assert cli.main(["copula", str(tmp_path / "absent.json")]) == 3

    def test_rank_deficient_exits_3(self, tmp_path, capsys):
        rho = states.DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex), 2, 2)
        inp = write_state(tmp_path / "in.json", rho)
        code = cli.main(["copula", inp])
        assert code == 3
        assert "regularize" in capsys.readouterr().err

    def test_random_state_preserves_verdict(self, tmp_path):
        rho = states.random_full_rank_state(2, 2, 5)
        inp = write_state(tmp_path / "in.json", rho)
        out = tmp_path / "out.json"
        assert cli.main(["copula", inp, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        verdicts = doc["report"]["verdicts"]
        assert verdicts["input"]["tag"] == verdicts["copula"]["tag"]
        assert doc["report"]["result"]["marginal_residual"] <= 1e-10

    def test_not_converged_exits_2(self, tmp_path):
        rho = states.random_full_rank_state(2, 2, 6)
        inp = write_state(tmp_path / "in.json", rho)
        out = tmp_path / "out.json"
        code = cli.main(["copula", inp, "--max-iter", "2", "--output", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["report"]["result"]["converged"] is False

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tol": 1e-6, "max_iter": 400}))
        rho = states.random_full_rank_state(2, 2, 7)
        inp = write_state(tmp_path / "in.json", rho)
        out = tmp_path / "out.json"
        code = cli.main(
            ["copula", inp, "--config", str(cfg_path), "--tol", "1e-12", "--output", str(out)]
        )
        assert code == 0
        effective = json.loads(out.read_text())["report"]["config"]
        assert effective["tol"] == 1e-12  # flag wins
        assert effective["max_iter"] == 400  # file beats default

    def test_deterministic_output_modulo_timing(self, tmp_path):
        rho = states.random_full_rank_state(2, 2, 8)
        inp = write_state(tmp_path / "in.json", rho)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["copula", inp, "--output", str(out1)]) == 0
        assert cli.main(["copula", inp, "--output", str(out2)]) == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        d1["report"].pop("timing_ms")
        d2["report"].pop("timing_ms")
        assert canonical_dumps(d1) == canonical_dumps(d2)

    def test_stdout_when_no_output_path(self, tmp_path, capsys):
        inp = write_state(tmp_path / "in.json", states.DensityMatrix(np.eye(4) / 4, 2, 2))
        assert cli.main(["copula", inp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "copula" in doc

    def test_regularize_flag(self, tmp_path):
        rho = states.DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex), 2, 2)
        inp = write_state(tmp_path / "in.json", rho)
        out = tmp_path / "out.json"
        code = cli.main(
            ["copula", inp, "--regularize", "--reg-eps", "1e-2", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["report"]["regularized"] is True


class TestClassicalCommand:
    def test_all_ones(self, tmp_path):
        inp = write_json(tmp_path / "in.json", {"matrix": [[1.0, 1.0], [1.0, 1.0]]})
        out = tmp_path / "out.json"
        assert cli.main(["classical", inp, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        np.testing.assert_allclose(doc["scaled"], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_bare_matrix_document(self, tmp_path):
        inp = write_json(tmp_path / "in.json", [[1.0, 2.0], [3.0, 4.0]])
        out = tmp_path / "out.json"
        assert cli.main(["classical", inp, "--output", str(out)]) == 0
        scaled = np.array(json.loads(out.read_text())["scaled"])
        assert np.abs(scaled.sum(axis=0) - 1).max() <= 1e-12
        assert np.abs(scaled.sum(axis=1) - 1).max() <= 1e-12

    def test_zero_entry_exits_3(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", [[1.0, 0.0], [1.0, 1.0]])
        assert cli.main(["classical", inp]) == 3
        assert "positive" in capsys.readouterr().err

    def test_not_converged_exits_2(self, tmp_path):
        inp = write_json(tmp_path / "in.json", [[1.0, 2.0], [3.0, 4.0]])
        assert cli.main(["classical", inp, "--max-iter", "1"]) == 2


class TestExperimentCommand:
    def test_unknown_suite_exits_4(self, capsys):
        assert cli.main(["experiment", "nonsense"]) == 4
        assert "unknown suite" in capsys.readouterr().err

    def test_lambda_suite(self, tmp_path):
        out = tmp_path / "out.json"
        code = cli.main(
            ["experiment", "lambda", "--seed", "7", "--count", "50",
             "--dims", "2,3", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert doc["aggregates"]["max_lambda_error"] <= 1e-8
        assert len(doc["cases"]) == 50

    def test_lambda_bound_follows_tol(self, tmp_path):
        # |lambda - n/m| is judged at max(1e-8, tol), so a loose tol passes.
        out = tmp_path / "out.json"
        code = cli.main(
            ["experiment", "lambda", "--count", "20", "--tol", "1e-6", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["aggregates"]["max_lambda_error"] <= 1e-6

    def test_convergence_suite(self, tmp_path):
        out = tmp_path / "out.json"
        code = cli.main(
            ["experiment", "convergence", "--seed", "1", "--count", "100", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["aggregates"]["max_iterations"] < 200
        assert doc["aggregates"]["iteration_histogram"]

    def test_convergence_suite_has_no_tail(self, tmp_path):
        # seeds 0..199 at (2,2) include seed 154, which the unaccelerated
        # contraction needed 268 iterations for
        out = tmp_path / "out.json"
        code = cli.main(
            ["experiment", "convergence", "--dims", "2,2", "--count", "200", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["aggregates"]["max_iterations"] < 50

    def test_preserve_separability_suite(self, tmp_path):
        out = tmp_path / "out.json"
        code = cli.main(
            ["experiment", "preserve-separability", "--seed", "3", "--count", "8",
             "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["aggregates"]["verdict_agreements"] == 8

    def test_uniqueness_suite(self, tmp_path):
        out = tmp_path / "out.json"
        code = cli.main(
            ["experiment", "uniqueness", "--seed", "2", "--count", "5", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["aggregates"]["max_ray_gap"] <= 1e-8

    def test_metric_axioms_suite(self, tmp_path):
        out = tmp_path / "out.json"
        code = cli.main(
            ["experiment", "metric-axioms", "--seed", "4", "--count", "25", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert doc["workers"] == 1

    def test_bad_dims_exits_3(self):
        assert cli.main(["experiment", "lambda", "--dims", "2x3", "--count", "1"]) == 3


class TestInternalErrors:
    """A solve that fails its own verification is a bug, reported as exit 1."""

    @pytest.mark.parametrize("error", [VerificationFailed, PrecopulaCheckFailed])
    @pytest.mark.parametrize("command", ["copula", "experiment"])
    def test_verification_failures_exit_1(self, tmp_path, monkeypatch, capsys, error, command):
        def failing_copula_of(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli.copmod, "copula_of", failing_copula_of)
        if command == "copula":
            argv = ["copula", write_json(tmp_path / "in.json", maximally_mixed_doc())]
        else:
            argv = ["experiment", "lambda", "--count", "2"]
        assert cli.main(argv) == 1
        assert "injected failure" in capsys.readouterr().err


class TestSolverKnobs:
    """Out-of-range solver settings are invalid input, from flags or a config file."""

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--tol", "0"], "tol"),
            (["--tol", "-1"], "tol"),
            (["--tol", "nan"], "tol"),
            (["--tol", "inf"], "tol"),
            (["--max-iter", "0"], "max_iter"),
            (["--reg-eps", "0"], "reg_eps"),
            (["--reg-eps", "1"], "reg_eps"),
            (["--reg-eps", "nan"], "reg_eps"),
            ({"marginal_tol": float("nan")}, "marginal_tol"),
            ({"rank_tol": float("inf")}, "rank_tol"),
            ({"tol": -1e-12}, "tol"),
        ],
        ids=[
            "tol-0", "tol-negative", "tol-nan", "tol-inf", "max-iter-0", "reg-eps-0",
            "reg-eps-1", "reg-eps-nan", "file-marginal-tol-nan", "file-rank-tol-inf",
            "file-tol-negative",
        ],
    )
    @pytest.mark.parametrize("command", ["copula", "experiment"])
    def test_invalid_knob_exits_3(self, tmp_path, capsys, command, flags, field):
        if isinstance(flags, dict):
            flags = ["--config", write_json(tmp_path / "cfg.json", flags)]
        if command == "copula":
            rho = states.random_full_rank_state(2, 2, 3)
            argv = ["copula", write_state(tmp_path / "in.json", rho), *flags]
        else:
            argv = ["experiment", "convergence", "--count", "1", *flags]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert f"config: {field} " in captured.err
        assert captured.out == ""

    def test_loose_tol_verifies(self, tmp_path):
        rho = states.random_full_rank_state(2, 2, 3)
        out = tmp_path / "out.json"
        argv = ["copula", write_state(tmp_path / "in.json", rho), "--tol", "1e-6"]
        assert cli.main([*argv, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["result"]["converged"] is True


class TestUsageErrors:
    def test_unknown_flag_exits_3(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["copula", "in.json", "--frobnicate"])
        assert err.value.code == 3

    def test_missing_subcommand_exits_3(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 3
