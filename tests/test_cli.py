import json
from pathlib import Path

import pytest

from conftest import run_cli, run_cli_ok
from transgap.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["gen", "--blocks", "12,12", "--pin", "0.4", "--pout", "0.05",
               "--seed", "3", "--d", "4", "--out", str(root / "bundle")])
    assert rc == 0
    return root / "bundle"


class TestHelpGolden:
    @pytest.mark.parametrize("sub", ["main", "gen", "analyze", "train",
                                     "experiment", "gradcheck"])
    def test_help_matches_golden(self, sub, tmp_path):
        args = ["--help"] if sub == "main" else [sub, "--help"]
        res = run_cli(args, tmp_path)
        assert res.returncode == 0
        golden = (DATA / f"help_{sub}.txt").read_text()
        assert res.stdout == golden

    def test_every_flag_documents_a_default(self):
        import argparse

        from transgap.cli import build_parser

        parser = build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
        for name, sub in subs.choices.items():
            for action in sub._actions:
                if not action.option_strings or action.required:
                    continue
                if action.option_strings == ["-h", "--help"]:
                    continue
                assert "default" in (action.help or ""), (
                    f"{name} {action.option_strings} lacks a default note")


class TestExitCodes:
    def test_no_command_is_usage_error(self, tmp_path):
        res = run_cli([], tmp_path)
        assert res.returncode == 1
        assert res.stdout.startswith("usage:")

    def test_train_zero_iterations(self, bundle_dir, tmp_path):
        res = run_cli(["train", "--data", str(bundle_dir), "--T", "0",
                       "--out", str(tmp_path / "t.csv")], tmp_path)
        assert res.returncode == 1
        assert "usage error" in res.stderr

    def test_analyze_delta_zero(self, bundle_dir, tmp_path):
        res = run_cli(["analyze", "--data", str(bundle_dir), "--delta", "0"],
                      tmp_path)
        assert res.returncode == 1
        assert ("usage error: --delta must lie strictly inside (0, 1)"
                in res.stderr)

    @pytest.mark.parametrize("flag", ["--radius", "--cw"])
    def test_analyze_negative_radius_or_cw(self, flag, bundle_dir, tmp_path):
        res = run_cli(["analyze", "--data", str(bundle_dir), flag, "-1",
                       "--T", "2"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert f"usage error: {flag} must be nonnegative" in res.stderr
        assert res.stdout == ""

    def test_analyze_zero_cw_is_usage_error(self, bundle_dir, tmp_path):
        # gcnii's smoothness table divides by c_W
        res = run_cli(["analyze", "--data", str(bundle_dir), "--model",
                       "gcnii", "--cw", "0", "--T", "2"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert ("usage error: --cw 0 bounds only all-zero weights, and "
                "gcnii's constants divide by c_W; pin a positive value"
                in res.stderr)
        assert res.stdout == ""

    def test_analyze_overflowing_cw_constants_are_inf(self, bundle_dir,
                                                      tmp_path):
        # powers of c_W leave float range: reported as inf, as --cw inf is
        out = tmp_path / "a.json"
        res = run_cli(["analyze", "--data", str(bundle_dir), "--compare",
                       "--cw", "1e300", "--T", "2", "--hidden", "4",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        entries = json.loads(out.read_text())["compare"]
        assert sorted(e["model"] for e in entries) == [
            "appnp", "gcn", "gcnii", "gprgnn", "sgc"]
        for e in entries:
            assert e["constants"]["c_W"] == 1e300
            assert e["constants"]["P_F"] == "inf"
            assert e["t0_floor"] == "inf"
        l_f = {e["model"]: e["constants"]["L_F"] for e in entries}
        assert [l_f[m] for m in ("appnp", "gcnii", "gprgnn")] == ["inf"] * 3
        assert all(isinstance(l_f[m], float) for m in ("gcn", "sgc"))

    @pytest.mark.parametrize("model", ["gcn", "sgc", "gcnii", "appnp",
                                       "gprgnn"])
    def test_analyze_infinite_cw_constants_are_inf(self, model, bundle_dir,
                                                   tmp_path):
        # the constants' formulas would form inf / inf or 0 * inf
        out = tmp_path / "a.json"
        res = run_cli(["analyze", "--data", str(bundle_dir), "--model", model,
                       "--cw", "inf", "--T", "2", "--hidden", "4",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        text = out.read_text()
        assert "nan" not in text
        [entry] = json.loads(text)["compare"]
        assert entry["constants"]["c_W"] == "inf"
        assert entry["constants"]["L_F"] == entry["constants"]["P_F"] == "inf"
        assert entry["bound"]["total"] == "inf"

    def test_analyze_zero_radius_certificate_is_finite_at_infinite_cw(
            self, bundle_dir, tmp_path, capsys):
        # inf * 0 would make the Dudley term, and the certificate, nan
        out = tmp_path / "a.json"
        rc = main(["analyze", "--data", str(bundle_dir), "--compare",
                   "--cw", "inf", "--radius", "0", "--T", "2", "--hidden", "4",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 0, err
        assert "nan" not in out.read_text() + err
        entries = json.loads(out.read_text())["compare"]
        assert sorted(e["model"] for e in entries) == [
            "appnp", "gcn", "gcnii", "gprgnn", "sgc"]
        for e in entries:
            assert e["constants"]["L_F"] == "inf"
            bound = e["bound"]
            assert bound["dudley_term"] == 0.0
            assert bound["total"] == (bound["trc_term"] + bound["conc_term_1"]
                                      + bound["conc_term_2"])

    def test_analyze_deep_model_with_infinite_cw_is_usage_error(
            self, bundle_dir, tmp_path):
        res = run_cli(["analyze", "--data", str(bundle_dir), "--model",
                       "gcn6", "--cw", "inf", "--T", "2",
                       "--out", str(tmp_path / "a.json")], tmp_path)
        assert res.returncode == 1, res.stderr
        assert ("usage error: no constant certificate for depth != 2"
                in res.stderr)

    @pytest.mark.parametrize("command,name", [("analyze", "a.json"),
                                              ("train", "t.csv")])
    def test_out_in_missing_directory_is_created(self, command, name,
                                                 bundle_dir, tmp_path):
        out = tmp_path / "new" / "dir" / name
        res = run_cli([command, "--data", str(bundle_dir), "--T", "2",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert out.read_text()

    @pytest.mark.parametrize("command,out,message", [
        ("train", "dir", "is a directory, not a file"),
        ("analyze", "dir", "is a directory, not a file"),
        ("gen", "file", "is a file, not a directory"),
        ("experiment", "file", "is a file, not a directory"),
        ("train", "file/x.csv", "file is not a directory")])
    def test_unwritable_out_is_usage_error_before_any_work(
            self, command, out, message, bundle_dir, tmp_path, monkeypatch,
            capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("run_sgd", "run_experiment", "sbm_bundle"):
            monkeypatch.setattr(f"transgap.cli.{name}", no_work)
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        flags = ([] if command == "gen"
                 else ["--data", str(bundle_dir), "--T", "2"])
        rc = main([command, *flags, "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith(f"usage error: --out {tmp_path / out}: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["experiment", "--models", "gcn,appnp", "--gamma", "nan",
          "--seeds", "3", "--out", "exp"], "gamma must be in [0, 1]"),
        (["analyze", "--compare", "--gamma", "nan"],
         "gamma must be in [0, 1]"),
        (["analyze", "--compare", "--K", "0"], "appnp and gprgnn need K >= 1"),
    ], ids=["experiment-gamma", "compare-gamma", "compare-K"])
    def test_every_listed_model_checks_its_flags_before_any_run(
            self, argv, message, bundle_dir, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before every flag was checked")

        for name in ("transgap.cli.run_sgd", "transgap.experiments.run_sgd"):
            monkeypatch.setattr(name, no_run)
        monkeypatch.setenv("TRANSGAP_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        rc = main([*argv, "--data", str(bundle_dir), "--T", "200"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err == f"usage error: {message}\n"

    def test_gen_zero_feature_dimension(self, tmp_path):
        res = run_cli(["gen", "--blocks", "5,5", "--d", "0",
                       "--out", str(tmp_path / "g")], tmp_path)
        assert res.returncode == 1, res.stderr
        assert ("usage error: feature dimension d must be >= 1"
                in res.stderr)
        assert not (tmp_path / "g").exists()

    def test_missing_bundle_is_data_error(self, tmp_path):
        res = run_cli(["analyze", "--data", str(tmp_path / "nope")], tmp_path)
        assert res.returncode == 2
        assert "data error:" in res.stderr

    def test_unknown_model_in_experiment(self, bundle_dir, tmp_path):
        res = run_cli(["experiment", "--data", str(bundle_dir), "--models",
                       "gat", "--out", str(tmp_path / "o")], tmp_path)
        assert res.returncode == 1
        assert "usage error: unknown model 'gat'" in res.stderr

    @pytest.mark.parametrize("threads", ["two", "0", "-3", "1.5"])
    def test_bad_thread_count_is_usage_error(self, threads, bundle_dir,
                                             tmp_path):
        res = run_cli(["experiment", "--data", str(bundle_dir), "--T", "2",
                       "--out", str(tmp_path / "o")], tmp_path, threads=threads)
        assert res.returncode == 1
        assert ("usage error: TRANSGAP_THREADS must be a positive integer"
                in res.stderr)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args,message", [
        (["train", "--q", "2.5"], "q must lie in (1, 2]"),
        (["train", "--batch-size", "0"], "batch_size must be >= 1"),
        (["experiment", "--seeds", "a"], "invalid literal for int()"),
    ])
    def test_bad_run_flag_is_usage_error(self, args, message, bundle_dir,
                                         tmp_path):
        res = run_cli([*args, "--data", str(bundle_dir), "--T", "2",
                       "--out", str(tmp_path / "o")], tmp_path)
        assert res.returncode == 1, res.stderr
        assert f"usage error: {message}" in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args,message", [
        (["--models", ""], "model list must be nonempty"),
        (["--models", "gcn,gcn", "--seeds", "2"], "model list repeats"),
        (["--models", "sgc", "--seeds", "1,1"], "seed list repeats"),
    ])
    def test_empty_or_repeated_experiment_list_is_usage_error(
            self, args, message, bundle_dir, tmp_path):
        out = tmp_path / "o"
        res = run_cli(["experiment", "--data", str(bundle_dir), *args,
                       "--T", "2", "--out", str(out)], tmp_path)
        assert res.returncode == 1, res.stderr
        assert f"usage error: {message}" in res.stderr
        assert res.stdout == ""  # rejected before any run
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "train"])
    @pytest.mark.parametrize("model", ["appnp", "gprgnn"])
    def test_filter_model_without_hops_is_usage_error(self, command, model,
                                                      bundle_dir, tmp_path):
        res = run_cli([command, "--data", str(bundle_dir), "--model", model,
                       "--K", "0", "--T", "2",
                       "--out", str(tmp_path / "o")], tmp_path)
        assert res.returncode == 1, res.stderr
        assert "usage error: appnp and gprgnn need K >= 1" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_gradcheck_without_instances_is_usage_error(self, instances,
                                                         tmp_path):
        res = run_cli(["gradcheck", "--model", "sgc",
                       "--instances", instances], tmp_path)
        assert res.returncode == 1, res.stderr
        assert "usage error: --instances must be >= 1" in res.stderr
        assert "PASS" not in res.stdout

    @pytest.mark.parametrize("flag,message", [
        ("--classes=1", "--classes must be >= 2"),
        ("--classes=0", "--classes must be >= 2"),
        ("--tol=-1", "--tol must be a nonnegative number"),
        ("--tol=nan", "--tol must be a nonnegative number"),
    ])
    def test_gradcheck_bad_flag_is_usage_error(self, flag, message, tmp_path):
        res = run_cli(["gradcheck", "--model", "all", flag], tmp_path)
        assert res.returncode == 1, res.stderr
        assert f"usage error: {message}" in res.stderr
        assert res.stdout == ""  # rejected before any check ran

    def test_bad_gen_flag_is_usage_error(self, tmp_path):
        res = run_cli(["gen", "--blocks", "5,5", "--pin", "2",
                       "--out", str(tmp_path / "g")], tmp_path)
        assert res.returncode == 1
        assert "usage error: probabilities must be in [0, 1]" in res.stderr

    @pytest.mark.parametrize("name,text", [
        ("features.csv", "0.5,abc,1\n"),
        ("meta.json", "{\"n\": 24,"),
        ("meta.json", "{\"n\": \"many\", \"d\": 4, \"num_classes\": 2, "
                      "\"name\": \"x\"}"),
    ])
    def test_malformed_bundle_file_is_data_error(self, name, text, bundle_dir,
                                                 tmp_path):
        import shutil

        data = tmp_path / "bundle"
        shutil.copytree(bundle_dir, data)
        (data / name).write_text(text)
        res = run_cli(["train", "--data", str(data), "--T", "2",
                       "--out", str(tmp_path / "t.csv")], tmp_path)
        assert res.returncode == 2, res.stderr
        assert f"data error: {data / name}" in res.stderr

    @pytest.mark.parametrize("n", [0, -3])
    def test_bundle_without_nodes_is_data_error(self, n, bundle_dir,
                                                tmp_path):
        import shutil

        data = tmp_path / "bundle"
        shutil.copytree(bundle_dir, data)
        if n == 0:
            for name in ("edges.tsv", "features.csv", "labels.csv"):
                (data / name).write_text("")
        (data / "meta.json").write_text(json.dumps(
            {"n": n, "d": 4, "num_classes": 2, "name": "x"}))
        out = tmp_path / "t.csv"
        res = run_cli(["train", "--data", str(data), "--T", "2",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert (f"data error: {data / 'meta.json'}: n must be >= 1, got {n}"
                in res.stderr)
        assert not out.exists()

    @pytest.mark.parametrize("key,token,problem", [
        ("n", "24.9", "must be an integer, got 24.9"),
        ("num_classes", "2.5", "must be an integer, got 2.5"),
        ("n", '"24"', 'must be an integer, got "24"'),
        ("n", "true", "must be an integer, got true"),
        ("num_classes", "0", "must be >= 1, got 0"),
        ("d", "0", "must be >= 1, got 0"),
        ("n", "1e400", "must be an integer, got Infinity"),
    ])
    def test_meta_size_that_is_no_positive_integer_is_data_error(
            self, key, token, problem, bundle_dir, tmp_path):
        import shutil

        data = tmp_path / "bundle"
        shutil.copytree(bundle_dir, data)
        sizes = {"n": "24", "d": "4", "num_classes": "2", key: token}
        (data / "meta.json").write_text(
            "{" + ", ".join(f'"{k}": {v}' for k, v in sizes.items())
            + ', "name": "x"}')
        out = tmp_path / "t.csv"
        res = run_cli(["train", "--data", str(data), "--T", "2",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert (f"data error: {data / 'meta.json'}: {key} {problem}"
                in res.stderr)
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_meta_n_beyond_the_tables_is_data_error(self, bundle_dir,
                                                    tmp_path):
        # checked against features.csv before any n-sized array exists
        import shutil

        data = tmp_path / "bundle"
        shutil.copytree(bundle_dir, data)
        (data / "meta.json").write_text(json.dumps(
            {"n": 10 ** 15, "d": 4, "num_classes": 2, "name": "x"}))
        res = run_cli(["train", "--data", str(data), "--T", "2",
                       "--out", str(tmp_path / "t.csv")], tmp_path)
        assert res.returncode == 2, res.stderr
        assert ("data error: features.csv has shape (24, 4), meta says "
                "(1000000000000000, 4)" in res.stderr)
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("flag", ["--q=1.001", "--alpha-rate=1e-300"])
    def test_analyze_overflowing_theory_offset_is_inf(self, flag, bundle_dir,
                                                      tmp_path):
        # (2 P_F)^(1/alpha) overflows a float: no finite offset exists
        out = tmp_path / "a.json"
        res = run_cli(["analyze", "--data", str(bundle_dir), flag, "--T", "2",
                       "--hidden", "4", "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        (entry,) = json.loads(out.read_text())["compare"]
        assert entry["t0_floor"] == "inf"
        assert entry["warnings"] == [
            "theory offset t0=inf implies vacuously small steps"]

    def test_train_t0_auto_without_finite_offset_is_usage_error(
            self, bundle_dir, tmp_path):
        out = tmp_path / "t.csv"
        res = run_cli(["train", "--data", str(bundle_dir), "--t0-auto",
                       "--q", "1.001", "--T", "2", "--hidden", "4",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 1, res.stderr
        assert ("usage error: --t0-auto: the theory offset overflows, so no "
                "finite t0 exists") in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,message", [
        ("--lr-c=nan", "inverse-time schedule needs c > 0"),
        ("--lr-c=inf", "c must be finite and >= 0"),
        ("--t0=nan", "t0 must be finite and >= 0"),
        ("--weight-decay=nan", "weight_decay must be finite and >= 0"),
    ])
    def test_non_finite_train_schedule_is_usage_error(self, flag, message,
                                                      bundle_dir, tmp_path):
        out = tmp_path / "t.csv"
        res = run_cli(["train", "--data", str(bundle_dir), flag, "--T", "2",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 1, res.stderr
        assert f"usage error: {message}" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_non_finite_mu_is_usage_error(self, mu, bundle_dir, tmp_path):
        out = tmp_path / "a.json"
        res = run_cli(["analyze", "--data", str(bundle_dir), "--mu", mu,
                       "--T", "2", "--out", str(out)], tmp_path)
        assert res.returncode == 1, res.stderr
        assert "usage error: --mu must be positive and finite" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_gradcheck_step_is_usage_error(self, step, tmp_path):
        res = run_cli(["gradcheck", "--model", "sgc", "--step", step],
                      tmp_path)
        assert res.returncode == 1, res.stderr
        assert "usage error: --step must be positive and finite" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("flag", ["--signal=nan", "--noise=inf",
                                      "--noise=1e308"])
    def test_non_finite_gen_feature_scale_is_usage_error(self, flag,
                                                         tmp_path):
        res = run_cli(["gen", "--blocks", "5,5", flag,
                       "--out", str(tmp_path / "g")], tmp_path)
        assert res.returncode == 1, res.stderr
        assert ("usage error: signal and noise must give finite features"
                in res.stderr)
        assert not (tmp_path / "g").exists()

    def test_non_finite_feature_file_is_data_error(self, bundle_dir,
                                                   tmp_path):
        import shutil

        data = tmp_path / "bundle"
        shutil.copytree(bundle_dir, data)
        rows = (data / "features.csv").read_text().splitlines()
        rows[1] = ",".join(["nan"] + rows[1].split(",")[1:])
        (data / "features.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "t.csv"
        res = run_cli(["train", "--data", str(data), "--T", "2",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert (f"data error: {data / 'features.csv'}: non-finite value "
                "for node 1") in res.stderr
        assert not out.exists()

    def test_gradcheck_pass_exit_zero(self, tmp_path):
        res = run_cli(["gradcheck", "--model", "sgc", "--instances", "3"],
                      tmp_path)
        assert res.returncode == 0
        assert "PASS" in res.stdout


class TestDeterminism:
    def test_gen_byte_identical(self, tmp_path):
        flags = ["gen", "--blocks", "8,8", "--pin", "0.3", "--pout", "0.05",
                 "--seed", "11", "--d", "3"]
        run_cli_ok(flags + ["--out", str(tmp_path / "a")], tmp_path)
        run_cli_ok(flags + ["--out", str(tmp_path / "b")], tmp_path)
        for name in ("edges.tsv", "features.csv", "labels.csv", "meta.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_train_byte_identical(self, bundle_dir, tmp_path):
        flags = ["train", "--data", str(bundle_dir), "--model", "sgc",
                 "--T", "12", "--seed", "5", "--eval-every", "4"]
        run_cli_ok(flags + ["--out", str(tmp_path / "a.csv")], tmp_path)
        run_cli_ok(flags + ["--out", str(tmp_path / "b.csv")], tmp_path)
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())

    def test_experiment_bytes_ignore_blas_threads(self, tmp_path,
                                                  monkeypatch):
        """The package pins BLAS to one thread, so neither the default
        (every core) nor a user's thread count changes a byte.  At two
        BLAS threads, unpinned, the deep stacks' curves differ."""
        assert main(["gen", "--blocks", "100,100", "--pin", "0.1",
                     "--pout", "0.01", "--signal", "1.5", "--noise", "2.0",
                     "--seed", "3", "--out", str(tmp_path / "bundle")]) == 0
        flags = ["experiment", "--data", str(tmp_path / "bundle"),
                 "--models", "gcn6,gcnii6", "--seeds", "1", "--T", "60",
                 "--optimizer", "sgd", "--batch-size", "1",
                 "--schedule", "inverse_time", "--lr-c", "3.0",
                 "--t0", "100", "--eval-every", "30"]
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        outputs = []
        for case in ({"OPENBLAS_NUM_THREADS": "1"}, {},
                     {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}):
            for var in blas:
                monkeypatch.delenv(var, raising=False)
            for var, value in case.items():
                monkeypatch.setenv(var, value)
            out = tmp_path / f"out{len(outputs)}"
            run_cli_ok(flags + ["--out", str(out)], tmp_path)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(o == outputs[0] for o in outputs[1:])


class TestAnalyze:
    def test_pinned_cw_triangle(self, tmp_path):
        rc = main(["gen", "--blocks", "3", "--pin", "1.0", "--pout", "0.0",
                   "--seed", "0", "--d", "2", "--row-normalize",
                   "--out", str(tmp_path / "k3")])
        assert rc == 0
        rc = main(["analyze", "--data", str(tmp_path / "k3"), "--model",
                   "gcn", "--cw", "1.0", "--T", "5", "--train-frac", "0.4",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        entry = rep["compare"][0]
        consts = entry["constants"]
        # triangle with self-loops is row-stochastic: L = 2 c_X c_W
        assert consts["L_F"] == pytest.approx(2.0 * consts["c_X"], rel=1e-12)
        assert entry["bound"]["total"] > 0

    def test_compare_sorted_and_ordered(self, bundle_dir, tmp_path):
        rc = main(["analyze", "--data", str(bundle_dir), "--compare",
                   "--T", "5", "--hidden", "4",
                   "--out", str(tmp_path / "cmp.json")])
        assert rc == 0
        rep = json.loads((tmp_path / "cmp.json").read_text())
        values = [e["constants"]["L_F"] for e in rep["compare"]]
        assert values == sorted(values)
        by_model = {e["model"]: e["constants"]["L_F"] for e in rep["compare"]}
        assert by_model["sgc"] <= by_model["gcn"]


class TestExperimentCommand:
    def test_two_model_report(self, bundle_dir, tmp_path):
        res = run_cli(["experiment", "--data", str(bundle_dir), "--models",
                       "gcn,sgc", "--seeds", "2", "--T", "6", "--hidden", "4",
                       "--optimizer", "sgd", "--batch-size", "1",
                       "--out", str(tmp_path / "exp")], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "exp" / "report.json").read_text())
        assert report["schema"] == "transgap/1"
        assert set(report["results"]) == {"gcn", "sgc"}
        assert len(report["runs"]) == 4
        assert (tmp_path / "exp" / "curve_sgc_1.csv").exists()
        assert (tmp_path / "exp" / "gap_curve_gcn.csv").exists()


class TestExperimentSchedule:
    """--schedule, --lr-c and --t0 each override one part of the
    optimizer's default schedule (sgd: 3 / (t + 100))."""

    def _report(self, bundle_dir, tmp_path, monkeypatch, *flags):
        monkeypatch.setenv("TRANSGAP_THREADS", "1")
        out = tmp_path / "_".join(["exp", *flags]).replace("-", "")
        rc = main(["experiment", "--data", str(bundle_dir), "--models", "gcn",
                   "--seeds", "1", "--T", "30", "--hidden", "4",
                   "--optimizer", "sgd", "--batch-size", "1", *flags,
                   "--out", str(out)])
        assert rc == 0
        return (out / "report.json").read_bytes()

    def test_each_flag_overrides_only_its_part(self, bundle_dir, tmp_path,
                                               monkeypatch):
        default = self._report(bundle_dir, tmp_path, monkeypatch)
        assert self._report(bundle_dir, tmp_path, monkeypatch,
                            "--schedule", "inverse_time") == default
        assert self._report(bundle_dir, tmp_path, monkeypatch,
                            "--t0", "100") == default
        assert self._report(bundle_dir, tmp_path, monkeypatch,
                            "--t0", "5") != default


class TestConfigMerge:
    def test_flags_beat_config(self, bundle_dir, tmp_path):
        cfg = {"T": 3, "seed": 9, "model": "sgc"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "t.csv"
        rc = main(["--config", str(cfg_path), "train", "--data",
                   str(bundle_dir), "--T", "4", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        last_t = text.strip().splitlines()[-1].split(",")[0]
        assert last_t == "4"  # explicit flag won over config's T=3

    def test_config_supplies_unset_values(self, bundle_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"T": 3}))
        out = tmp_path / "t.csv"
        rc = main(["--config", str(cfg_path), "train", "--data",
                   str(bundle_dir), "--out", str(out)])
        assert rc == 0
        last_t = out.read_text().strip().splitlines()[-1].split(",")[0]
        assert last_t == "3"

    def test_config_supplies_required_flags(self, bundle_dir, tmp_path):
        # the parse checks --data and --out after the config is applied
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "t.csv"
        cfg_path.write_text(json.dumps({"data": str(bundle_dir), "T": 2}))
        assert main(["--config", str(cfg_path), "train", "--out",
                     str(out)]) == 0
        assert out.read_text().strip().splitlines()[-1].split(",")[0] == "2"
        cfg_path.write_text(json.dumps({"data": str(bundle_dir),
                                        "out": str(out), "T": 3}))
        assert main(["--config", str(cfg_path), "train"]) == 0
        assert out.read_text().strip().splitlines()[-1].split(",")[0] == "3"
        cfg_path.write_text(json.dumps({"T": 2}))
        assert main(["--config", str(cfg_path), "train", "--out",
                     str(out)]) == 1

    def test_bad_config_is_usage_error(self, bundle_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{broken")
        rc = main(["--config", str(cfg_path), "train", "--data",
                   str(bundle_dir), "--out", str(tmp_path / "t.csv")])
        assert rc == 1

    def _train(self, bundle_dir, tmp_path, cfg, *flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "t.csv"
        rc = main(["--config", str(cfg_path), "train", "--data",
                   str(bundle_dir), *flags, "--out", str(out)])
        return rc, out

    def test_string_values_are_converted_like_flags(self, bundle_dir,
                                                    tmp_path):
        rc, out = self._train(bundle_dir, tmp_path,
                              {"T": "5", "lr-c": "0.5", "model": "sgc"})
        assert rc == 0
        assert out.read_text().strip().splitlines()[-1].split(",")[0] == "5"

    @pytest.mark.parametrize("cfg", [{"bogus": 3}, {"help": True},
                                     {"T": 2.5}, {"T": "five"}, {"T": True},
                                     {"T": None}, {"T": [3]},
                                     {"model": "mlp"},
                                     {"row_normalize": 1}])
    def test_bad_key_or_value_is_usage_error(self, bundle_dir, tmp_path,
                                             cfg, capsys):
        rc, out = self._train(bundle_dir, tmp_path, cfg)
        assert rc == 1
        assert "usage error: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_config_must_be_an_object(self, bundle_dir, tmp_path):
        rc, _ = self._train(bundle_dir, tmp_path, [3])
        assert rc == 1

    def test_flags_of_other_subcommands_are_ignored(self, bundle_dir,
                                                    tmp_path):
        # "models" and "compare" belong to experiment and analyze
        rc, out = self._train(bundle_dir, tmp_path,
                              {"models": "gcn,sgc", "compare": True, "T": 3})
        assert rc == 0
        assert out.read_text().strip().splitlines()[-1].split(",")[0] == "3"

    def test_switch_and_explicit_flag(self, bundle_dir, tmp_path):
        rc, out = self._train(bundle_dir, tmp_path,
                              {"row-normalize": True, "T": "3"}, "--T", "2")
        assert rc == 0
        assert out.read_text().strip().splitlines()[-1].split(",")[0] == "2"

    @pytest.mark.parametrize("spelling", [["--train", "0.5"],
                                          ["--train-frac=0.5"]])
    def test_any_flag_spelling_beats_config(self, bundle_dir, tmp_path,
                                            spelling):
        # argparse reads --train as a prefix of --train-frac
        cfg = {"train_frac": 0.2, "T": 3}
        rc, out = self._train(bundle_dir, tmp_path, cfg, *spelling)
        assert rc == 0
        got = out.read_bytes()
        rc, out = self._train(bundle_dir, tmp_path, cfg, "--train-frac", "0.5")
        assert rc == 0
        assert got == out.read_bytes()
        rc, out = self._train(bundle_dir, tmp_path, cfg)
        assert rc == 0
        assert got != out.read_bytes()
