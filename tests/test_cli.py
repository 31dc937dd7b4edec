import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from moreaukit import catalog_function, cli, load_function_file, prox_map
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

    def test_exit_threshold(self, capsys):
        code = run(["prox", "--function", "neg_quad", "--lambda", "2",
                    "--x", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: lambda = 2.0 is not below the prox-boundedness "
            "threshold 1.0\n")

    def test_non_integral_dim_is_a_config_error(self, capsys):
        code = run(["prox", "--function", "abs:dim=1.5", "--lambda", "1",
                    "--x", "0.5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv, missing", [
    (["prox", "--function", "abs", "--x", "1"], "lambda"),
    (["prox", "--lambda", "1", "--x", "1"], "function"),
    (["optimize", "--function", "abs", "--x0", "1"], "lambda"),
])
def test_a_missing_setting_exits_2(argv, missing, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # optimize writes to "." by default
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and missing in err


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


@pytest.mark.parametrize("argv", [
    ["threshold", "--function", "abs", "--lambda", "0.5"],
    ["threshold", "--function", "abs", "--json-summary"],
    ["prox", "--function", "abs", "--lambda", "1", "--seed", "1"],
    ["prox", "--function", "abs", "--lambda", "1", "--out", "."],
    ["verify", "--function", "abs", "--lambda", "0.5"],
    ["envelope", "--function", "abs", "--lambda", "1", "--seed", "1"],
    ["optimize", "--function", "abs", "--lambda", "1", "--json-summary"],
    # the prox solve's value tolerance and cluster radius are constants
    *[command + [flag, value]
      for command in (["envelope", "--function", "abs", "--lambda", "1"],
                      ["prox", "--function", "double_well", "--lambda", "0.5",
                       "--x", "0"],
                      ["verify", "--function", "abs"],
                      ["optimize", "--function", "abs", "--lambda", "1"])
      for flag, value in (("--value-tol", "1e9"), ("--cluster-radius", "10"))],
])
def test_a_flag_the_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
        # each repeated --function is verified
        claimed = {c["params"]["function"] for c in summary["checks"]
                   if c["theorem_id"] == "claimed-minimizer"}
        assert claimed == {"abs", "quadratic"}

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


# sampling refutes this certificate: x^3 < -10 for x < -10^(1/3)
REFUTED_CUBIC = "expr = x1^3\ndim = 1\nalpha = 0\nbeta = -10\n"


@pytest.mark.parametrize("command", [
    ["threshold"],
    ["prox", "--lambda", "0.5"],
    ["envelope", "--lambda", "0.5", "--grid-points", "3"],
    ["optimize", "--lambda", "0.5", "--iters", "2"],
    ["verify", "--draws", "1"],
])
def test_a_refuted_definition_file_exits_2(tmp_path, capsys, monkeypatch,
                                           command):
    monkeypatch.chdir(tmp_path)
    fn = tmp_path / "cubic.txt"
    fn.write_text(REFUTED_CUBIC)
    code = run(command + ["--function", f"file:{fn}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "violated by sampling" in err


@pytest.mark.parametrize("command", [
    ["envelope", "--function", "abs", "--lambda", "1"],
    ["verify", "--function", "abs", "--draws", "1"],
    ["optimize", "--function", "abs", "--lambda", "1"],
])
@pytest.mark.parametrize("extra,word", [
    (["--h", "0"], "grid_step"),
    (["--h", "nan"], "grid_step"),
    (["--config", "h.cfg"], "grid_step"),
    (["--function", "abs:dim=1.5"], "dim"),
    (["--function", "file:cubic.txt"], "violated by sampling"),
])
def test_a_bad_setting_exits_2_before_the_output_directory_exists(
        tmp_path, capsys, monkeypatch, command, extra, word):
    monkeypatch.chdir(tmp_path)
    Path("h.cfg").write_text("h = inf\n")
    Path("cubic.txt").write_text(REFUTED_CUBIC)
    code = run(command + extra + ["--out", "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and word in err
    assert not Path("out").exists()


@pytest.mark.parametrize("command,word", [
    (["envelope", "--lambda", "nan"], "lambda"),
    (["envelope", "--lambda", "1", "--lambda", "-1"], "lambda"),
    (["optimize", "--lambda", "-1"], "lambda"),
    (["optimize", "--lambda", "nan"], "lambda"),
    (["optimize", "--lambda", "1", "--step", "-1"], "step"),
    (["optimize", "--lambda", "1", "--step", "nan"], "step"),
])
def test_a_bad_lambda_or_step_exits_2_before_the_output_directory_exists(
        tmp_path, capsys, monkeypatch, command, word):
    monkeypatch.chdir(tmp_path)
    code = run(command + ["--function", "abs", "--out", "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and word in err
    assert not Path("out").exists()


@pytest.mark.parametrize("command", [
    ["prox", "--x", "0.5"],
    ["envelope", "--out", "out"],
    ["optimize", "--x0", "0.5", "--out", "out"],
])
def test_an_infinite_lambda_exits_2_and_writes_nothing(tmp_path, capsys,
                                                       monkeypatch, command):
    # P_inf f is the set of global minimizers, {-1, 1} for the double well,
    # which no solve at a finite lambda approximates
    monkeypatch.chdir(tmp_path)
    code = run(command + ["--function", "double_well", "--lambda", "inf"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and "positive and finite" in err
    assert not Path("out").exists()


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

    @pytest.mark.parametrize("line,key", [
        # a misspelt minimizer line used to be dropped: 0.5 is no minimizer
        # of x1^2, yet the file verified
        ("minimiser = 0.5 local 0 0.1", "minimiser"),
        ("h = 1e-2", "h"),
        ("alpha = -1", "alpha"),
        ("beta = 0", "beta"),
        ("anchor = 1", "anchor"),
    ])
    def test_a_key_the_file_does_not_read(self, tmp_path, capsys, line,
                                          key):
        fn = tmp_path / "f.txt"
        fn.write_text(f"expr = x1^2\ndim = 1\n{line}\n")
        with pytest.raises(InvalidArgument, match=repr(key)):
            load_function_file(fn)
        code = run(["verify", "--function", f"file:{fn}", "--draws", "1",
                    "--out", str(tmp_path / "reports")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and repr(key) in err
        assert not (tmp_path / "reports").exists()

    def test_every_key_it_reads(self, tmp_path):
        fn = tmp_path / "f.txt"
        fn.write_text("expr = x1^2\ndim = 1\nname = square\nalpha = 0\n"
                      "beta = 0\nanchor = 0\nminimizer = 0 strong 2 0.5\n")
        f = load_function_file(fn)
        assert f.name == "square"
        assert f.certificate.source == "supplied"
        assert [km.kind for km in f.known_minimizers] == ["strong"]


class TestSolverConfigValues:
    @pytest.mark.parametrize("line,word", [
        ("h = inf", "grid_step"),
        ("h = nan", "grid_step"),
        ("h = 0", "grid_step"),
        ("h = -1", "grid_step"),
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


class TestGridStep:
    WELL = "expr = (x1^2-1)^2\ndim = 1\n"

    def _scan_rows(self, tmp_path, capsys, monkeypatch, extra):
        """The prox of the parsed double well at x = 0.5, lambda 0.3, and
        the rows of the largest evaluator or term call, the grid scan's
        (the well is scanned through its term)."""
        calls = []

        def counting(g):
            def counted_g(pts):
                calls.append(len(pts))
                return g(pts)
            return counted_g

        def counted(path):
            f = load_function_file(path)
            return dataclasses.replace(
                f, evaluator=counting(f.evaluator),
                terms=tuple(counting(g) for g in f.terms))

        monkeypatch.setattr(cli, "load_function_file", counted)
        fn = tmp_path / "well.txt"
        fn.write_text(self.WELL)
        code = run(["prox", "--function", f"file:{fn}", "--lambda", "0.3",
                    "--x", "0.5"] + extra)
        assert code == 0
        return json.loads(capsys.readouterr().out), max(calls)

    @pytest.mark.parametrize("from_file", [False, True])
    def test_a_valid_step_reaches_the_grid_solve(self, tmp_path, capsys,
                                                 monkeypatch, from_file):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("h = 1e-2\n")
        extra = ["--config", str(cfg)] if from_file else ["--h", "1e-2"]
        _, default_rows = self._scan_rows(tmp_path, capsys, monkeypatch, [])
        doc, rows = self._scan_rows(tmp_path, capsys, monkeypatch, extra)
        assert 9 <= default_rows / rows <= 11
        exact = prox_map(catalog_function("double_well"), 0.3, [0.5])
        assert abs(doc["envelope_value"] - exact.envelope_value) <= 100 * 1e-2 ** 2


def test_a_false_claim_fails_at_the_fixed_tolerance(tmp_path, capsys):
    # 1 is not a local minimizer of x1^2: f(1) - f(0.5) is about 0.75
    fn = tmp_path / "square.txt"
    fn.write_text("expr = x1^2\ndim = 1\nminimizer = 1 local 0 0.5\n")
    code = run(["verify", "--function", f"file:{fn}", "--draws", "1",
                "--samples", "0", "--h", "0.01", "--out", str(tmp_path),
                "--json-summary"])
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    claimed = [c for c in summary["checks"]
               if c["theorem_id"] == "claimed-minimizer"]
    assert [c["passed"] for c in claimed] == [False]
    assert claimed[0]["params"]["tolerance"] == 1e-9
    assert claimed[0]["worst_violation"] > 0.7


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


class TestConfigFileIsReadAsFlags:
    @pytest.mark.parametrize("command,lines,key", [
        (["envelope"], "seed = 3\n", "--seed=3"),
        (["envelope"], "json_summary = yes\n", "--json-summary=yes"),
        (["threshold"], "lambda = 1\n", "--lambda=1"),
        (["prox", "--lambda", "1"], "no_such_key = 1\n", "--no-such-key=1"),
        # the prox solve's value tolerance and cluster radius are constants
        *[(["prox", "--lambda", "0.3"], f"{key} = {value}\n",
           f"--{key.replace('_', '-')}={value}")
          for key, value in (("value_tol", "nan"), ("value_tol", "-1"),
                             ("value_tol", "inf"), ("value_tol", "1e9"),
                             ("cluster_radius", "nan"),
                             ("cluster_radius", "-1"),
                             ("cluster_radius", "0"),
                             ("cluster_radius", "inf"),
                             ("cluster_radius", "10"))],
        *[(command, "value_tol = 1e-9\ncluster_radius = 0.01\n",
           "--value-tol=1e-9 --cluster-radius=0.01")
          for command in (["envelope"], ["verify"], ["optimize"])],
    ])
    def test_a_key_the_subcommand_does_not_register_exits_2(
            self, tmp_path, capsys, command, lines, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("function = abs\n" + lines)
        with pytest.raises(SystemExit) as exc:
            run(command + ["--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}: unrecognized arguments: {key}" in err

    def test_a_bad_value_exits_2_as_from_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("function = abs\nlambda = abc\n")
        with pytest.raises(SystemExit) as exc:
            run(["prox", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "argument --lambda: invalid float value: 'abc'" in \
            capsys.readouterr().err

    def test_a_config_file_cannot_name_another(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"function = abs\nconfig = {cfg}\n")
        code = run(["threshold", "--config", str(cfg)])
        assert code == 2
        assert "names another config file" in capsys.readouterr().err

    def test_file_values_reach_verify(self, tmp_path):
        # a key with no value is the bare switch, and repeated keys repeat
        # the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"function = abs\nfunction = quadratic\ndraws = 2\n"
                       f"seed = 5\nout = {tmp_path}\njson_summary =\n")
        code = run(["verify", "--config", str(cfg)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == 5
        claimed = {c["params"]["function"] for c in summary["checks"]
                   if c["theorem_id"] == "claimed-minimizer"}
        assert claimed == {"abs", "quadratic"}

    def test_a_flag_replaces_the_files_whole_list(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("function = abs\nfunction = quadratic\ndraws = 2\n")
        out = tmp_path / "out"
        code = run(["verify", "--config", str(cfg), "--function", "huber",
                    "--out", str(out), "--json-summary"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        claimed = {c["params"]["function"] for c in summary["checks"]
                   if c["theorem_id"] == "claimed-minimizer"}
        assert claimed == {"huber"}


def test_prox_and_optimize_read_the_last_lambda(tmp_path, capsys):
    code = run(["prox", "--function", "abs", "--lambda", "0.5",
                "--lambda", "2", "--x", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == 2.0
    assert doc["prox_points"] == [[pytest.approx(1.0)]]
    code = run(["optimize", "--function", "quadratic", "--lambda", "0.5",
                "--lambda", "0.25", "--iters", "3", "--out", str(tmp_path)])
    assert code == 0
    dev = json.loads((tmp_path / "deviation.json").read_text())
    assert (dev["lambda"], dev["step"]) == (0.25, 0.25)


@pytest.mark.parametrize("from_file", [False, True])
@pytest.mark.parametrize("command,key", [
    (["verify", "--function", "abs"], "draws"),
    (["verify", "--function", "abs"], "samples"),
    (["optimize", "--function", "abs", "--lambda", "1"], "iters"),
    (["envelope", "--function", "abs", "--lambda", "1"], "grid_points"),
])
def test_a_negative_count_exits_2(tmp_path, capsys, command, key, from_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = -3\n")
    flag = f"--{key.replace('_', '-')}"
    extra = ["--config", str(cfg)] if from_file else [flag, "-3"]
    with pytest.raises(SystemExit) as exc:
        run(command + ["--out", str(tmp_path)] + extra)
    assert exc.value.code == 2
    assert (f"argument {flag}: invalid nonnegative_int value: '-3'"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.json")) + list(tmp_path.glob("*.csv"))


def test_flags_and_config_keys_are_never_abbreviated(tmp_path, capsys):
    # --x and --it are prefixes of optimize's --x0 and --iters
    cfg = tmp_path / "run.cfg"
    cfg.write_text("function = abs\nlambda = 1\nx = 3\nit = 2\n")
    with pytest.raises(SystemExit) as exc:
        run(["optimize", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert (f"config file {cfg}: unrecognized arguments: --x=3 --it=2"
            in capsys.readouterr().err)
    with pytest.raises(SystemExit) as exc:
        run(["optimize", "--function", "abs", "--lambda", "1", "--x", "3",
             "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --x 3" in capsys.readouterr().err
