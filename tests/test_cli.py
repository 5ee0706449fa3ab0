"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qcopula import choi, cli, copula, states
from qcopula.errors import (
    NotConverged,
    PrecopulaCheckFailed,
    QcopulaError,
    SingularIntermediate,
    VerificationFailed,
)
from qcopula.jsonio import canonical_dumps

SRC = str(Path(cli.__file__).resolve().parents[1])


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

    def test_overflowing_sums_exit_2(self, tmp_path):
        inp = write_json(tmp_path / "in.json", [[1e308, 1e308], [1e308, 1e308]])
        out = tmp_path / "out.json"
        assert cli.main(["classical", inp, "--output", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["converged"] is False
        assert doc["error"] == "row/column sums are not finite after 0 iterations"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tol", "nan"],
            ["--tol", "inf"],
            ["--tol", "0"],
            ["--tol", "-1"],
            ["--max-iter", "0"],
            ["--max-iter", "-3"],
        ],
        ids=["tol-nan", "tol-inf", "tol-0", "tol-negative", "max-iter-0", "max-iter-negative"],
    )
    def test_invalid_settings_exit_3(self, tmp_path, capsys, flags):
        inp = write_json(tmp_path / "in.json", {"matrix": [[1.0, 2.0], [3.0, 4.0]]})
        assert cli.main(["classical", inp, *flags]) == 3
        captured = capsys.readouterr()
        assert flags[0].lstrip("-").replace("-", "_") in captured.err
        assert captured.out == ""


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

    def test_metric_axioms_needs_two_dimensions(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = ["experiment", "metric-axioms", "--dims", "1,1", "--output", str(out)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "metric-axioms" in err and "1,1" in err
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["1,3", "3,1", "1,1"])
    def test_preserve_separability_needs_two_dimensions(self, tmp_path, monkeypatch, capsys, dims):
        # no state of such dims is entangled, so the suite is refused before
        # any draw rather than after a thousand failed ones
        def no_draw(*args, **kwargs):
            raise AssertionError("a state was drawn")

        for name in ("random_full_rank_state", "random_separable_state"):
            monkeypatch.setattr(cli.states, name, no_draw)
        out = tmp_path / "out.json"
        argv = ["experiment", "preserve-separability", "--dims", dims, "--output", str(out)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "preserve-separability" in err and dims in err
        assert not out.exists()


def test_entangled_sampler_gives_up(tmp_path, monkeypatch, capsys):
    # no draw is entangled, so the second half's first case runs out of draws
    separable = states.SeparabilityVerdict(states.SEPARABLE, 0.0)
    monkeypatch.setattr(cli.states, "ppt_verdict", lambda rho: separable)
    out = tmp_path / "out.json"
    argv = ["experiment", "preserve-separability", "--count", "2", "--output", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: could not sample an entangled state at dims (2, 2)\n"
    assert not out.exists()


def test_module_runs_as_a_script(tmp_path):
    matrix = write_json(tmp_path / "m.json", [[1.0, 2.0], [3.0, 4.0]])
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "qcopula.cli", "classical", matrix],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["scaled"]


class TestBatchedSuites:
    """The solver suites solve in batches; their documents, exit codes and
    errors stay those of a case-by-case run."""

    @staticmethod
    def run(argv, tmp_path, name="out.json"):
        out = tmp_path / name
        code = cli.main([*argv, "--output", str(out)])
        doc = json.loads(out.read_text()) if out.exists() else None
        return code, doc

    @pytest.mark.parametrize(
        "suite, flags",
        [
            ("convergence", []),
            ("preserve-separability", ["--dims", "2,3"]),
            ("uniqueness", ["--dims", "3,3"]),
            ("lambda", ["--dims", "3,2"]),
            ("convergence", ["--regularize"]),
            ("uniqueness", ["--tol", "1e-6"]),
        ],
    )
    def test_documents_match_case_by_case_solves(self, tmp_path, monkeypatch, suite, flags):
        argv = ["experiment", suite, "--count", "12", "--seed", "5", *flags]
        code, doc = self.run(argv, tmp_path, "batch.json")
        copula_batch, fixed_point_iterate = cli.copmod.copula_batch, cli.copmod.fixed_point_iterate

        def serial(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except QcopulaError as exc:
                return exc

        def copulas(rhos, cfg):
            # copula_of's route, one state at a time: a batch of one
            return [item for rho in rhos for item in copula_batch([rho], cfg)]

        def fixed_points(phis, tol, max_iter, inits=None):
            inits = [None] * len(phis) if inits is None else inits
            return [
                serial(fixed_point_iterate, phi, tol=tol, max_iter=max_iter, init=init)
                for phi, init in zip(phis, inits)
            ]

        monkeypatch.setattr(cli.copmod, "copula_batch", copulas)
        monkeypatch.setattr(cli.copmod, "fixed_point_batch", fixed_points)
        want_code, want = self.run(argv, tmp_path, "serial.json")
        assert code == want_code
        del doc["timing_ms"], want["timing_ms"]
        assert doc == want

    def test_timing_covers_the_solves(self, tmp_path, monkeypatch):
        batch = cli.copmod.copula_batch

        def slow_batch(rhos, cfg):
            time.sleep(0.3)
            return batch(rhos, cfg)

        monkeypatch.setattr(cli.copmod, "copula_batch", slow_batch)
        code, doc = self.run(["experiment", "convergence", "--count", "3"], tmp_path)
        assert code == 0
        assert doc["timing_ms"] >= 300.0

    def test_not_converged_reports_the_first_case(self, tmp_path, capsys):
        code, doc = self.run(
            ["experiment", "convergence", "--count", "3", "--max-iter", "2"], tmp_path
        )
        cfg = copula.SolverConfig(max_iter=2)
        with pytest.raises(NotConverged) as serial:
            copula.copula_of(states.random_full_rank_state(2, 2, 0), cfg)
        assert code == 2
        assert doc is None
        assert capsys.readouterr().err == f"error: {serial.value}\n"

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_uniqueness_not_converged_names_the_case(self, tmp_path, capsys, dims):
        # a random init short of tol ends the suite as NotConverged (exit 2),
        # not as an infinite ray gap the document cannot hold
        n, m = dims
        code, doc = self.run(
            ["experiment", "uniqueness", "--count", "40", "--seed", "3", "--max-iter", "2",
             "--dims", f"{n},{m}"],
            tmp_path,
        )
        phi = choi.choi_from_state(states.random_full_rank_state(n, m, 3))
        init = states.wishart_state_matrix(n, np.random.default_rng((3, 0, 7)))
        report = copula.fixed_point_iterate(phi, max_iter=2, init=init)
        assert code == 2
        assert doc is None
        err = capsys.readouterr().err
        assert err == (
            "error: uniqueness case 0: init 0: fixed point not reached in 2 iterations "
            f"(last step {report.final_step:.3e} > tol 1e-12)\n"
        )
        # the suite leads extract_scalers' own message for the same run
        with pytest.raises(NotConverged) as short:
            copula.extract_scalers(phi, report)
        assert err.endswith(f": {short.value}\n")

    @pytest.mark.parametrize("sample_fails_first", [True, False])
    def test_errors_surface_in_case_order(self, tmp_path, monkeypatch, capsys, sample_fails_first):
        # one case fails to sample and another fails its solve; the earlier
        # case's error is the one reported, as in a case-by-case run
        sampler = states.random_full_rank_state
        deficient = states.DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex), 2, 2)
        bad_sample, bad_solve = (1, 2) if sample_fails_first else (2, 1)

        def sample(n, m, seed):
            if seed == bad_sample:
                raise QcopulaError("injected sampling failure")
            return deficient if seed == bad_solve else sampler(n, m, seed)

        monkeypatch.setattr(cli.states, "random_full_rank_state", sample)
        code, _ = self.run(["experiment", "convergence", "--count", "4"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert ("injected sampling failure" in err) == sample_fails_first
        assert ("rank_tol" in err) != sample_fails_first

    def test_uniqueness_run_error_surfaces_in_case_order(self, tmp_path, monkeypatch, capsys):
        # cases 1 and 3 each get a failed run (five inits a case); case 1's
        # error ends the suite
        batch = cli.copmod.fixed_point_batch

        def failing_runs(phis, **kwargs):
            reports = batch(phis, **kwargs)
            for case, init in [(1, 2), (3, 0)]:
                reports[5 * case + init] = SingularIntermediate(f"injected run failure {case}")
            return reports

        monkeypatch.setattr(cli.copmod, "fixed_point_batch", failing_runs)
        code, doc = self.run(["experiment", "uniqueness", "--count", "4"], tmp_path)
        assert code == 3
        assert doc is None
        assert capsys.readouterr().err == "error: injected run failure 1\n"

    def test_uniqueness_distance_error_surfaces_in_case_order(
        self, tmp_path, monkeypatch, capsys
    ):
        # cases 1 and 3 each get a failed ray gap (four gaps a case); case
        # 1's error ends the suite
        distance = cli.pmetric.hilbert_distance

        def failing_gaps(a, b):
            gaps = distance(a, b)
            for case, gap in [(1, 3), (3, 1)]:
                gaps[4 * case + gap] = QcopulaError(f"injected distance failure {case}")
            return gaps

        monkeypatch.setattr(cli.pmetric, "hilbert_distance", failing_gaps)
        code, doc = self.run(["experiment", "uniqueness", "--count", "4"], tmp_path)
        assert code == 3
        assert doc is None
        assert capsys.readouterr().err == "error: injected distance failure 1\n"

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_negative_seed_is_invalid_usage(self, tmp_path, capsys, suite):
        code, doc = self.run(["experiment", suite, "--seed", "-5", "--count", "2"], tmp_path)
        assert code == 3
        assert doc is None
        assert "--seed" in capsys.readouterr().err


class TestInternalErrors:
    """A solve that fails its own verification is a bug, reported as exit 1."""

    @pytest.mark.parametrize("error", [VerificationFailed, PrecopulaCheckFailed])
    @pytest.mark.parametrize("command", ["copula", "experiment"])
    def test_verification_failures_exit_1(self, tmp_path, monkeypatch, capsys, error, command):
        # injected into the scaler extraction, which the single solve and the
        # suites' batched solve share
        def failing_extract_scalers(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli.copmod, "extract_scalers", failing_extract_scalers)
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
            ({"rank_tol": -1}, "rank_tol"),
            ({"marginal_tol": -5}, "marginal_tol"),
        ],
        ids=[
            "tol-0", "tol-negative", "tol-nan", "tol-inf", "max-iter-0", "reg-eps-0",
            "reg-eps-1", "reg-eps-nan", "file-marginal-tol-nan", "file-rank-tol-inf",
            "file-tol-negative", "file-rank-tol-negative", "file-marginal-tol-negative",
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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"regularize": 1}, "regularize must be a boolean"),
            ({"max_iter": 1.5}, "max_iter must be an integer"),
            ({"max_iter": True}, "max_iter must be an integer"),
            ({"tol": "x"}, "tol must be a number"),
            ([1], "expected a JSON object"),
            ({"tolerance": 1e-9}, "unknown field 'tolerance'"),
        ],
        ids=["regularize-int", "max-iter-float", "max-iter-bool", "tol-string", "list", "unknown"],
    )
    def test_config_file_type_error_exits_3(self, tmp_path, capsys, doc, message):
        rho = states.random_full_rank_state(2, 2, 3)
        argv = ["copula", write_state(tmp_path / "in.json", rho)]
        assert cli.main([*argv, "--config", write_json(tmp_path / "cfg.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: config: {message}\n"
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


class TestParserReuse:
    """``main`` parses every call with one parser per process."""

    @staticmethod
    def blank_timing(path):
        doc = json.loads(path.read_text())
        doc["report"]["timing_ms"] = 0.0
        return canonical_dumps(doc)

    def test_two_calls_build_the_parser_once(self, tmp_path, monkeypatch):
        built = []
        original = cli.build_parser

        def spy():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            inp = write_state(tmp_path / "in.json", states.random_full_rank_state(2, 2, 0))
            assert cli.main(["copula", inp, "--output", str(tmp_path / "a.json")]) == 0
            assert cli.main(["copula", inp, "--output", str(tmp_path / "b.json")]) == 0
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()

    def test_flags_do_not_leak_into_the_next_call(self, tmp_path):
        cfg_path = write_json(tmp_path / "cfg.json", {"max_iter": 400, "reg_eps": 1e-3})
        rho = states.random_full_rank_state(2, 2, 7)
        inp = write_state(tmp_path / "in.json", rho)
        plain, flagged, again = (tmp_path / f"{k}.json" for k in ("plain", "flagged", "again"))
        assert cli.main(["copula", inp, "--output", str(plain)]) == 0
        argv = ["copula", inp, "--regularize", "--tol", "1e-9", "--config", str(cfg_path)]
        assert cli.main(argv + ["--output", str(flagged)]) == 0
        assert cli.main(["copula", inp, "--output", str(again)]) == 0
        config = json.loads(flagged.read_text())["report"]["config"]
        assert (config["regularize"], config["tol"], config["max_iter"]) == (True, 1e-9, 400)
        assert json.loads(again.read_text())["report"]["config"] == copula.SolverConfig().to_dict()
        assert self.blank_timing(again) == self.blank_timing(plain)

    def test_usage_error_between_calls_changes_nothing(self, tmp_path, capsys):
        inp = write_state(tmp_path / "in.json", states.random_full_rank_state(2, 3, 1))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert cli.main(["copula", inp, "--tol", "1e-11", "--output", str(first)]) == 0
        with pytest.raises(SystemExit) as err:
            cli.main(["copula", inp, "--tol", "tight", "--regularize", "--output", "x.json"])
        assert err.value.code == 3
        assert "invalid float value" in capsys.readouterr().err
        assert cli.main(["copula", inp, "--tol", "1e-11", "--output", str(second)]) == 0
        assert self.blank_timing(second) == self.blank_timing(first)


class TestOversizedIntegers:
    """A JSON integer too large for a float is invalid input wherever the
    CLI reads a number: exit 3 naming the entry or field, no traceback."""

    HUGE = 10**400  # 401 digits

    @pytest.mark.parametrize("place", ["state-entry", "config-field", "classical-entry"])
    def test_exits_3_naming_the_entry(self, tmp_path, capsys, place):
        state = maximally_mixed_doc()
        if place == "state-entry":
            state["matrix"][1][2] = [0.0, self.HUGE]
            message = "matrix: entry (1, 2) is too large for a float"
        argv = ["copula", write_json(tmp_path / "in.json", state)]
        if place == "config-field":
            argv += ["--config", write_json(tmp_path / "cfg.json", {"tol": self.HUGE})]
            message = "config: tol is too large for a float"
        if place == "classical-entry":
            argv = ["classical", write_json(tmp_path / "in.json", [[1.0, 2.0], [self.HUGE, 4.0]])]
            message = "matrix: entry (1, 0) is too large for a float"
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestInvalidArguments:
    """A malformed argument or document exits 3 with one error line on
    stderr, no traceback and no document."""

    NAN = float("nan")  # json.dumps writes it as NaN, which json.loads reads back

    @pytest.mark.parametrize(
        "command, given, message",
        [
            ("experiment", ["--dims", "2,x"], "dims must be integers, got '2,x'"),
            ("experiment", ["--dims", "0,2"], "dims must be positive"),
            ("experiment", ["--count", "0"], "count must be >= 1"),
            ("copula", [[1.0]], "document: expected a JSON object"),
            ("copula", {"dims": [2, 2.0]},
             'dims: expected "dims": [n, m] with positive integers'),
            ("copula", {"dims": [1, 1], "matrix": "x"},
             "matrix: expected a non-empty list of rows"),
            ("copula", {"dims": [1, 2], "matrix": [[[1.0, 0.0]], "x"]},
             "matrix: row 1 is not a list"),
            ("copula", {"dims": [1, 1], "matrix": [[[NAN, 0.0]]]},
             "matrix: entries must be finite"),
            ("classical", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
             "matrix must be square, got shape (2, 3)"),
            ("classical", {"matrix": [[1.0, NAN], [1.0, 1.0]]},
             "matrix: entries must be finite"),
        ],
        ids=[
            "dims-not-integer", "dims-zero", "count-zero", "state-array", "state-float-dims",
            "state-matrix-string", "state-row-string", "state-nan", "classical-2x3",
            "classical-nan",
        ],
    )
    def test_exits_3_with_one_error_line(self, tmp_path, capsys, command, given, message):
        out = tmp_path / "out.json"
        if command == "experiment":
            argv = ["experiment", "lambda", *given]
        else:
            argv = [command, write_json(tmp_path / "in.json", given)]
        assert cli.main([*argv, "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()
