import json
import math
from pathlib import Path

import numpy as np
import pytest

from moreaukit import cli, load_function_file
from moreaukit.cli import main
from moreaukit.errors import InvalidArgument
from moreaukit.minimizers import jsonable


def run(args):
    return main(args)


FAULTY_CUBIC = (
    "# claims a local minimum at the inflection point of x^3\n"
    "expr = x1^3\n"
    "dim = 1\n"
    "alpha = -5\n"
    "beta = -1100\n"
    "anchor = 0\n"
    "minimizer = 0 local 0 0.1\n"
)


class TestEnvelopeCommand:
    def test_csv_row(self, tmp_path):
        code = run(["envelope", "--function", "abs", "--lambda", "1.0",
                    "--xmin", "2", "--xmax", "2", "--grid-points", "1",
                    "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "envelope_00_lambda_1.csv"
        assert out.exists()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x1,envelope,n_prox,prox_points"
        x, env, n, reps = lines[1].split(",")
        assert float(x) == 2.0
        assert float(env) == pytest.approx(1.5)
        assert n == "1"
        assert float(reps) == pytest.approx(1.0)

    def test_one_file_per_lambda(self, tmp_path):
        code = run(["envelope", "--function", "quadratic", "--lambda", "0.1",
                    "--lambda", "0.5", "--xmin", "-1", "--xmax", "1",
                    "--grid-points", "5", "--out", str(tmp_path)])
        assert code == 0
        assert len(list(tmp_path.glob("envelope_*.csv"))) == 2

    def test_exit_threshold(self, tmp_path, capsys):
        code = run(["envelope", "--function", "neg_quad", "--lambda", "1.01",
                    "--xmin", "0", "--xmax", "1", "--grid-points", "3",
                    "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "threshold" in err
        assert "1.01" in err

    def test_exit_config_missing_lambda(self, tmp_path, capsys):
        code = run(["envelope", "--function", "abs", "--out", str(tmp_path)])
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_exit_config_unknown_function(self, tmp_path, capsys):
        code = run(["envelope", "--function", "nope", "--lambda", "0.5",
                    "--out", str(tmp_path)])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "function = abs\nlambda = 0.5\nxmin = 2\nxmax = 2\n"
            "grid_points = 1\n"
        )
        code = run(["envelope", "--config", str(cfgfile),
                    "--lambda", "1.0", "--out", str(tmp_path)])
        assert code == 0
        # the flag replaced the config file's lambda
        assert (tmp_path / "envelope_00_lambda_1.csv").exists()


class TestProxCommand:
    def test_json_output(self, capsys):
        code = run(["prox", "--function", "abs", "--lambda", "1.0",
                    "--x", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["envelope_value"] == pytest.approx(1.5)
        assert doc["prox_points"] == [[pytest.approx(1.0)]]
        assert doc["certificate_source"] == "catalog"

    def test_multivalued(self, capsys):
        code = run(["prox", "--function", "double_well", "--lambda", "0.5",
                    "--x", "0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["prox_points"]) == 2

    def test_config_cluster_radius_reaches_the_solve(self, tmp_path, capsys):
        # a radius wider than the gap between the two prox points merges them
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("cluster_radius = 10\n")
        code = run(["prox", "--function", "double_well", "--lambda", "0.5",
                    "--x", "0", "--config", str(cfg)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["prox_points"]) == 1

    def test_2d_catalog_variant(self, capsys):
        code = run(["prox", "--function", "abs:dim=2", "--lambda", "1",
                    "--x", "0.5 -2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["prox_points"] == [[0.0, -1.0]]

    @pytest.mark.parametrize("ref", ["quadratic:a=2,dim=2", "double_well:dim=2"])
    def test_2d_catalog_variants_with_parameters(self, ref, capsys):
        code = run(["prox", "--function", ref, "--lambda", "0.1",
                    "--x", "0.5 -2"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["x"]) == 2

    def test_non_integral_dim_is_a_config_error(self, capsys):
        code = run(["prox", "--function", "abs:dim=1.5", "--lambda", "1",
                    "--x", "0.5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")


class TestThresholdCommand:
    def test_finite(self, capsys):
        code = run(["threshold", "--function", "neg_quad"])
        assert code == 0
        out = capsys.readouterr().out
        assert "prox-boundedness threshold: 1" in out
        assert "beta=0 source=catalog" in out

    def test_infinite(self, capsys):
        code = run(["threshold", "--function", "abs"])
        assert code == 0
        assert "threshold: inf" in capsys.readouterr().out


class TestVerifyCommand:
    def test_passes_and_writes_reports(self, tmp_path, capsys):
        code = run(["verify", "--function", "abs", "--function", "quadratic",
                    "--draws", "10", "--seed", "0", "--out", str(tmp_path),
                    "--json-summary"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        reports = sorted(tmp_path.glob("report_*.json"))
        assert reports
        doc = json.loads(reports[0].read_text())
        assert set(doc) == {"theorem_id", "passed", "worst_violation",
                            "witness", "params"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failed"] == 0
        assert summary["total"] == len(reports)

    def test_deterministic_byte_identical(self, tmp_path):
        dirs = []
        for run_dir in ("a", "b"):
            d = tmp_path / run_dir
            code = run(["verify", "--function", "abs", "--draws", "10",
                        "--seed", "7", "--out", str(d), "--json-summary"])
            assert code == 0
            dirs.append(d)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_written_json_is_strict(self, tmp_path, capsys):
        # with no completed shift-identity draw both of its reports fail,
        # and no file needs the nonstandard Infinity or NaN tokens
        code = run(["verify", "--function", "abs", "--draws", "0",
                    "--out", str(tmp_path), "--json-summary"])
        assert code == 1

        def strict(token):
            raise ValueError(f"nonstandard JSON token {token}")

        docs = {p.name: json.loads(p.read_text(), parse_constant=strict)
                for p in tmp_path.glob("*.json")}
        failed = [c for c in docs["summary.json"]["checks"] if not c["passed"]]
        assert sorted(c["theorem_id"] for c in failed) == [
            "shift-identity-direct", "shift-identity-inverse"]
        assert all(c["worst_violation"] == "inf" for c in failed)
        assert len(docs) == docs["summary.json"]["total"] + 1

    def test_jsonable_spells_non_finite_floats(self):
        doc = {"a": np.array([1.0, np.inf]), "b": np.float64(np.nan),
               "c": [-math.inf, 2]}
        assert jsonable(doc) == {"a": [1.0, "inf"], "b": "nan",
                                 "c": ["-inf", 2]}

    def test_faulty_claim_fails_with_witness(self, tmp_path, capsys):
        fn = tmp_path / "cubic.txt"
        fn.write_text(FAULTY_CUBIC)
        code = run(["verify", "--function", f"file:{fn}", "--draws", "5",
                    "--out", str(tmp_path / "reports"), "--json-summary"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        summary = json.loads(
            (tmp_path / "reports" / "summary.json").read_text())
        assert summary["failed"] >= 1
        failed = [c for c in summary["checks"] if not c["passed"]]
        claimed = [c for c in failed
                   if c["theorem_id"] == "claimed-minimizer"]
        assert claimed
        assert claimed[0]["witness"] is not None
        assert claimed[0]["witness"][0] < 0.0


class TestDefinitionFileValues:
    @pytest.mark.parametrize("command", [
        ["threshold"], ["prox", "--lambda", "0.5"]])
    @pytest.mark.parametrize("key", ["alpha", "beta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_certificate(self, tmp_path, capsys, command, key,
                                    value):
        # a repeated key keeps its last value
        fn = tmp_path / "f.txt"
        fn.write_text(f"expr = x1^2\ndim = 1\nalpha = 0\nbeta = 0\n"
                      f"{key} = {value}\n")
        code = run(command + ["--function", f"file:{fn}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "finite" in err

    @pytest.mark.parametrize("minimizer,word", [
        ("0 local 0 nan", "epsilon"),
        ("0 local 0 -0.1", "epsilon"),
        ("0 local 0 0", "epsilon"),
        ("0 local 0 inf", "epsilon"),
        ("0 local nan 0.1", "modulus"),
        ("0 local -1 0.1", "modulus"),
    ])
    def test_invalid_claimed_minimizer(self, tmp_path, capsys, minimizer,
                                       word):
        fn = tmp_path / "f.txt"
        fn.write_text(f"expr = x1^2\ndim = 1\nminimizer = {minimizer}\n")
        with pytest.raises(InvalidArgument, match=word):
            load_function_file(fn)
        code = run(["verify", "--function", f"file:{fn}", "--draws", "1",
                    "--out", str(tmp_path / "reports")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and word in err


class TestSolverConfigValues:
    @pytest.mark.parametrize("line,word", [
        ("h = inf", "grid_step"),
        ("value_tol = nan", "value_tol"),
        ("value_tol = -1", "value_tol"),
        ("value_tol = inf", "value_tol"),
        ("cluster_radius = nan", "cluster_radius"),
        ("cluster_radius = -1", "cluster_radius"),
        ("cluster_radius = 0", "cluster_radius"),
        ("cluster_radius = inf", "cluster_radius"),
    ])
    def test_bad_solver_value(self, tmp_path, capsys, line, word):
        fn = tmp_path / "well.txt"
        fn.write_text("expr = (x1^2-1)^2\ndim = 1\n")
        cfg = tmp_path / "solver.cfg"
        cfg.write_text(f"function = file:{fn}\n{line}\n")
        code = run(["prox", "--lambda", "0.3", "--x", "0.5",
                    "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and word in err


class TestOptimizeCommand:
    def test_traces_and_deviation(self, tmp_path, capsys):
        code = run(["optimize", "--function", "quadratic", "--lambda", "0.5",
                    "--x0", "1", "--iters", "10", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ppm_trace.csv").exists()
        assert (tmp_path / "gd_trace.csv").exists()
        dev = json.loads((tmp_path / "deviation.json").read_text())
        assert dev["max_deviation"] <= 1e-12
        assert (tmp_path / "ppm_trace.csv").read_text().split("\n")[0] == \
            "iter,x1,envelope_value"


class TestConfigParsing:
    def test_missing_config_file(self, capsys):
        code = run(["prox", "--function", "abs", "--lambda", "1.0",
                    "--config", "/nonexistent/path.cfg"])
        assert code == 2

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        code = run(["prox", "--function", "abs", "--lambda", "1.0",
                    "--config", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_unreadable_config_file(self, tmp_path, capsys, monkeypatch):
        # a permission error, whoever runs the test
        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(cli, "read_key_values", denied)
        cfg = tmp_path / "locked.cfg"
        cfg.write_text("function = abs\n")
        code = run(["prox", "--lambda", "1.0", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config file {cfg}: Permission denied\n")

    def test_malformed_config_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("function abs\n")
        code = run(["prox", "--lambda", "1.0", "--config", str(bad)])
        assert code == 2
