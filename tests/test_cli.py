import argparse
import csv
import json
import shlex
from pathlib import Path

import pytest

from diffswitch import ThresholdPair, __version__, calibration, detection, load_csv, save_csv
from diffswitch.cli import build_parser, main
from diffswitch.rng import DEFAULT_SEED
from diffswitch.simulators import compose_scenario, scenario_preset, scenario_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestParser:
    OPTIONS = {
        "simulate": "--scenario --v --lam --out",
        "stats": "--input --k --alpha --variant --gamma1 --gamma2 --out",
        "calibrate": "--n --k --c --c-star --alpha --variant --replicates",
        "detect": "--input --k --c --c-star --alpha --variant --gamma1 --gamma2 --label "
                  "--stats-csv",
        "bench": "--scenario --sweep --k-list --n-list --replicates --alpha --variant "
                 "--variants --type1 --no-label --external --out",
    }

    def test_each_subcommand_keeps_its_options(self):
        actions = build_parser()._actions
        sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.OPTIONS)
        common = {"-h", "--help", "--seed", "--cache"}
        for name, parser in sub.choices.items():
            options = {o for action in parser._actions for o in action.option_strings}
            expected = set(self.OPTIONS[name].split()) | common
            assert options == (expected - {"--cache"} if name == "simulate" else expected)

    def test_readme_command_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("diffswitch ")]
        assert len(lines) == 6
        parser = build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line)[1:])
            assert callable(args.func), line


class TestSimulate:
    def test_scenario1_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run(
            capsys, "simulate", "--scenario", "1", "--v", "1.5",
            "--out", str(out), "--seed", "3",
        )
        assert code == 0
        assert json.loads(stdout)["ground_truth"] == [100, 175]
        traj = load_csv(out)
        assert traj.n_steps == 300 and traj.dim == 2

    def test_scenario1_without_v_fails(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "simulate", "--scenario", "1", "--out", str(tmp_path / "t.csv")
        )
        assert code == 1
        assert "InvalidParam" in stderr

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--scenario", "2", "--lam", "1", "--out", str(a), "--seed", "1")
        run(capsys, "simulate", "--scenario", "2", "--lam", "1", "--out", str(b), "--seed", "2")
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--scenario", "1", "--v", "2", "--out", "t.csv", "--seed", "-5"),
        ("calibrate", "--n", "300", "--k", "30", "--replicates", "1000", "--seed", "-5"),
    ], ids=["simulate", "calibrate"])
    def test_negative_seed_is_one_line_domain_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1 and stdout == ""
        assert stderr == "InvalidParam: seed must be a nonnegative integer, got -5\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("seed_flags, seed", [((), DEFAULT_SEED), (("--seed", "3"), 3)],
                             ids=["default-seed", "seed-3"])
    def test_preset_draws_from_its_seed(self, tmp_path, capsys, seed_flags, seed):
        out, expected = tmp_path / "cli.csv", tmp_path / "library.csv"
        run(capsys, "simulate", "--scenario", "1", "--v", "1", "--out", str(out), *seed_flags)
        save_csv(compose_scenario(scenario_preset(1, v=1.0, seed=seed))[0], expected)
        assert out.read_bytes() == expected.read_bytes()


class TestScenarioFile:
    @pytest.mark.parametrize("command", ["simulate", "bench"])
    @pytest.mark.parametrize("content, error", [
        (None, "IoFailure: cannot read {}: "),
        ("{not json", "InvalidParam: {}: not a scenario document: "),
        ('{"n": 300, "change_points": []}', "InvalidParam: {}: missing key 'regimes'"),
        ('{"n": 300, "regimes": [{"kind": "brownian", "sgima": 3}]}',
         "InvalidParam: {}: not a scenario document: RegimeSpec.__init__() got an unexpected "
         "keyword argument 'sgima'\n"),
        ('{"n": 300, "delta_t": 0.01, "regimes": [{"kind": "brownian"}]}',
         "InvalidParam: {}: not a scenario document: ScenarioSpec.__init__() got an unexpected "
         "keyword argument 'delta_t'\n"),
        ('{"regimes": [{"kind": "brownian"}]}', "InvalidParam: {}: missing key 'n'\n"),
        ('{"n": 300, "regimes": [{"sigma": 2.0}]}', "InvalidParam: {}: missing key 'kind'\n"),
        ('{"n": 300, "seed": null, "regimes": [{"kind": "brownian"}]}',
         "InvalidParam: seed must be a nonnegative integer, got None\n"),
        ('{"n": 300, "seed": 1.5, "regimes": [{"kind": "brownian"}]}',
         "InvalidParam: seed must be a nonnegative integer, got 1.5\n"),
        ('{"n": 300, "seed": -1, "regimes": [{"kind": "brownian"}]}',
         "InvalidParam: seed must be a nonnegative integer, got -1\n"),
        ("[1]", "InvalidParam: {}: not a scenario document: the document is not a JSON object: [1]\n"),
        ("null", "InvalidParam: {}: not a scenario document: the document is not a JSON object: None\n"),
        ('{"n": 300, "regimes": ["brownian"]}',
         "InvalidParam: {}: not a scenario document: regime 0 is not a JSON object: 'brownian'\n"),
        ('{"n": 300, "regimes": [{"kind": "ornstein_uhlenbeck", "lam": Infinity}]}',
         "InvalidParam: lam must be finite, got inf\n"),
        ('{"n": 300, "regimes": [{"kind": "brownian", "sigma": NaN}]}',
         "InvalidParam: sigma must be finite, got nan\n"),
    ], ids=["missing", "malformed", "no-regimes", "misspelled-regime-key", "misspelled-top-level-key",
            "no-n", "no-kind", "null-seed", "float-seed", "negative-seed", "list-document",
            "null-document", "string-regime", "infinite-lam", "nan-sigma"])
    def test_bad_file_is_one_line_domain_error(self, tmp_path, capsys, command, content, error):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_text(content)
        code, _, stderr = run(
            capsys, command, "--scenario", str(path), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert stderr.startswith(error.format(path))
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    @pytest.mark.parametrize("n, change_points", [(300.0, [100, 175]), (300, [100.5, 175])],
                             ids=["float-n", "float-change-point"])
    def test_non_integer_index_is_one_line_domain_error(
        self, tmp_path, capsys, command, n, change_points
    ):
        doc = json.loads(scenario_to_json(scenario_preset(1, v=1.0)))
        doc.update(n=n, change_points=change_points)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, stderr = run(
            capsys, command, "--scenario", str(path), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert stderr.startswith("InvalidParam: n and change points must be integers")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert not (tmp_path / "out").exists()

    def test_scenario_file_runs(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(scenario_preset(2, lam=1.0, n=80, change_points=(30, 50))))
        out = tmp_path / "t.csv"
        code, stdout, _ = run(capsys, "simulate", "--scenario", str(path), "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["ground_truth"] == [30, 50]
        assert load_csv(out).n_steps == 80

    def test_seed_flag_sets_the_files_seed(self, tmp_path, capsys):
        spec = scenario_preset(2, lam=1.0, n=80, change_points=(30, 50), seed=5)
        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(spec))
        outputs = {}
        for name, flags in (("none", ()), ("5", ("--seed", "5")), ("1", ("--seed", "1")),
                            ("2", ("--seed", "2")), ("random", ("--seed", "random"))):
            out = tmp_path / f"{name}.csv"
            code, _, _ = run(capsys, "simulate", "--scenario", str(path), "--out", str(out), *flags)
            assert code == 0
            outputs[name] = out.read_bytes()
        save_csv(compose_scenario(spec)[0], tmp_path / "library.csv")
        assert outputs["none"] == outputs["5"] == (tmp_path / "library.csv").read_bytes()
        assert len({outputs[name] for name in ("none", "1", "2", "random")}) == 4


class TestStatsAndDetect:
    @pytest.fixture()
    def traj_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        run(
            capsys, "simulate", "--scenario", "1", "--v", "2.0",
            "--out", str(out), "--seed", "41",
        )
        return str(out)

    def test_stats_csv(self, traj_csv, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        code, _, _ = run(
            capsys, "stats", "--input", traj_csv, "--k", "30",
            "--gamma1", "0.74", "--gamma2", "3.26", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 300 - 2 * 30 + 1
        assert rows[0]["i"] == "30"
        assert all(row["Q"] in {"-2", "-1", "0", "1", "2"} for row in rows)

    def test_stats_to_stdout(self, traj_csv, capsys):
        code, stdout, _ = run(
            capsys, "stats", "--input", traj_csv, "--k", "30",
            "--gamma1", "0.74", "--gamma2", "3.26",
        )
        assert code == 0
        assert stdout.splitlines()[0] == "i,B,A,Q"

    def test_detect_stats_csv_equals_stats(self, traj_csv, tmp_path, capsys):
        pair = ("--k", "30", "--gamma1", "0.74", "--gamma2", "3.26")
        stats_out, detect_out = tmp_path / "stats.csv", tmp_path / "detect.csv"
        assert run(capsys, "stats", "--input", traj_csv, *pair, "--out", str(stats_out))[0] == 0
        with_csv = run(capsys, "detect", "--input", traj_csv, *pair, "--stats-csv", str(detect_out))
        assert with_csv == run(capsys, "detect", "--input", traj_csv, *pair)
        assert with_csv[0] == 0
        assert detect_out.read_bytes() == stats_out.read_bytes()

    def test_detect_with_explicit_thresholds(self, traj_csv, capsys):
        code, stdout, _ = run(
            capsys, "detect", "--input", traj_csv, "--k", "30",
            "--gamma1", "0.74", "--gamma2", "3.26",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["change_points"]) == 2
        assert abs(doc["change_points"][0] - 100) <= 10
        assert abs(doc["change_points"][1] - 175) <= 10

    @pytest.mark.parametrize("flags, expected", [
        (("--c", "20"), (20, 15)),
        (("--c-star", "10"), (15, 10)),
        (("--c", "20", "--c-star", "9"), (20, 9)),
    ])
    def test_detect_calibrates_with_the_clustering_params(
        self, traj_csv, capsys, monkeypatch, flags, expected
    ):
        keys, configs = [], []
        run_procedure = detection.run_procedure

        def fake_calibrate(store, key):
            keys.append(key)
            return ThresholdPair(0.74, 3.26)

        def recording_run(traj, config, **kw):
            configs.append(config)
            return run_procedure(traj, config, **kw)

        monkeypatch.setattr(calibration, "cache_get_or_calibrate", fake_calibrate)
        monkeypatch.setattr(detection, "run_procedure", recording_run)
        code, _, _ = run(capsys, "detect", "--input", traj_csv, "--k", "30", *flags)
        assert code == 0
        assert [(key.c, key.c_star) for key in keys] == [expected]
        assert [(cfg.c, cfg.c_star) for cfg in configs] == [expected]

    def test_detect_label_reads_the_cache_once(self, traj_csv, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.json"
        table = calibration.ThresholdTable(cache)
        table.put(calibration.default_key(300, 30), ThresholdPair(0.74, 3.26))
        for length in calibration.SEGMENT_LENGTH_GRID:
            table.put(calibration.segment_test_key(length), ThresholdPair(0.6, 2.6))
        table.save()
        loads = []
        load = calibration.ThresholdTable._load
        monkeypatch.setattr(calibration.ThresholdTable, "_load", lambda t: loads.append(t) or load(t))
        code, stdout, _ = run(
            capsys, "detect", "--input", traj_csv, "--k", "30", "--label", "--cache", str(cache),
        )
        assert code == 0
        assert len(loads) == 1
        assert json.loads(stdout)["segments"]

    @pytest.mark.parametrize("command, flags", [("detect", ("--label",)), ("stats", ())],
                             ids=["detect", "stats"])
    def test_seed_selects_the_cached_calibration(
        self, traj_csv, tmp_path, capsys, monkeypatch, command, flags
    ):
        cache = tmp_path / "cache.json"
        table = calibration.ThresholdTable(cache)
        table.put(calibration.default_key(300, 30, seed=7), ThresholdPair(0.74, 3.26))
        for length in calibration.SEGMENT_LENGTH_GRID:
            table.put(calibration.segment_test_key(length, seed=7), ThresholdPair(0.6, 2.6))
        table.save()

        def no_pass(*args, **kwargs):
            raise AssertionError("a warm cache calibrated")

        monkeypatch.setattr(calibration, "_null_pass", no_pass)
        code, _, _ = run(capsys, command, "--input", traj_csv, "--k", "30", *flags,
                         "--seed", "7", "--cache", str(cache))
        assert code == 0

    @pytest.mark.parametrize("command", ["stats", "detect"])
    @pytest.mark.parametrize("gamma", [("--gamma1", "5"), ("--gamma2", "3.26")], ids=["gamma1", "gamma2"])
    def test_one_gamma_alone_is_a_domain_error(
        self, traj_csv, tmp_path, capsys, monkeypatch, command, gamma
    ):
        def no_calibration(store, key):
            raise AssertionError("calibrated without a full gamma pair")

        monkeypatch.setattr(calibration, "cache_get_or_calibrate", no_calibration)
        cache = tmp_path / "cache.json"
        code, stdout, stderr = run(
            capsys, command, "--input", traj_csv, "--k", "30", *gamma, "--cache", str(cache),
        )
        assert (code, stdout) == (1, "")
        assert stderr == "InvalidParam: --gamma1 and --gamma2 must be given together\n"
        assert not cache.exists()

    def test_detect_missing_input(self, capsys):
        code, _, stderr = run(
            capsys, "detect", "--input", "/no/such/file.csv", "--k", "30",
            "--gamma1", "0.74", "--gamma2", "3.26",
        )
        assert code == 1
        assert "IoFailure" in stderr

    @pytest.mark.parametrize("content, where", [
        (b"t,x,y\n0,0,0\n1,\xff,0\n2,2,0\n", ": invalid UTF-8 at byte 14"),
        (b"t,x,y\n0,0,0\n1," + b"1" * 131073 + b",0\n2,2,0\n",
         ":3: field larger than field limit (131072)"),
    ])
    def test_detect_unreadable_csv_is_domain_error(self, tmp_path, capsys, content, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        code, _, stderr = run(
            capsys, "detect", "--input", str(path), "--k", "30",
            "--gamma1", "0.74", "--gamma2", "3.26",
        )
        assert code == 1
        assert stderr == f"MalformedRow: {path}{where}\n"

    @pytest.mark.parametrize("content, error", [
        ("t,x,y\n0,0,0\nnan,1,0\n2,2,0\n3,3,0\n", "NonUniformGrid: {}:3: time stamp is not finite"),
        ("t,x,y\n0,0,0\n1,1,0\ninf,2,0\n", "NonUniformGrid: {}:4: time stamp is not finite"),
        ("t,x,y\n0,0,0\n1,nan,0\n2,2,0\n", "MalformedRow: {}:3: position is not finite"),
    ])
    def test_detect_non_finite_csv_is_domain_error(self, tmp_path, capsys, content, error):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        code, _, stderr = run(
            capsys, "detect", "--input", str(path), "--k", "30",
            "--gamma1", "0.74", "--gamma2", "3.26",
        )
        assert code == 1
        assert stderr == error.format(path) + "\n"


class TestCalibrate:
    def test_calibrate_with_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        args = (
            "calibrate", "--n", "300", "--k", "30", "--replicates", "1000",
            "--cache", str(cache), "--seed", "7",
        )
        code, stdout, _ = run(capsys, *args)
        assert code == 0
        first = json.loads(stdout)
        assert 0 < first["gamma1"] < first["gamma2"]
        assert cache.exists()
        # Second invocation is a cache hit with identical output.
        code, stdout, _ = run(capsys, *args)
        assert json.loads(stdout) == first

    def test_too_few_replicates(self, capsys):
        code, _, stderr = run(
            capsys, "calibrate", "--n", "300", "--k", "30", "--replicates", "10"
        )
        assert code == 1
        assert "InvalidParam" in stderr


class TestBench:
    def test_type1_mode_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "bench"
        cache = tmp_path / "cache.json"
        code, stdout, _ = run(
            capsys, "bench", "--type1", "--n-list", "300", "--k-list", "30",
            "--replicates", "500", "--cache", str(cache), "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["cells"] == 1
        for name in ("report.json", "report.csv", "report.md"):
            assert (out / name).exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["cells"][0]["n"] == 300

    @pytest.mark.parametrize("scenario, value, error", [
        ("2", "inf", "lam must be finite, got inf"), ("1", "nan", "v must be finite, got nan"),
    ], ids=["infinite-lam", "nan-v"])
    def test_non_finite_sweep_value_is_one_line_domain_error(
        self, tmp_path, capsys, scenario, value, error
    ):
        out = tmp_path / "bench"
        code, _, stderr = run(capsys, "bench", "--scenario", scenario, "--sweep", value,
                              "--replicates", "20", "--no-label", "--out", str(out))
        assert code == 1
        assert stderr == f"InvalidParam: {error}\n"
        assert not out.exists()

    def test_experiment_mode_reads_a_warm_cache(self, tmp_path, capsys, monkeypatch):
        cache, out = tmp_path / "cache.json", tmp_path / "bench"
        table = calibration.ThresholdTable(cache)
        table.put(calibration.default_key(300, 30), ThresholdPair(0.74, 3.26))
        for length in calibration.SEGMENT_LENGTH_GRID:
            table.put(calibration.segment_test_key(length), ThresholdPair(0.6, 2.6))
        table.save()

        def no_pass(*args, **kwargs):
            raise AssertionError("a warm cache calibrated")

        monkeypatch.setattr(calibration, "_null_pass", no_pass)
        code, stdout, _ = run(
            capsys, "bench", "--scenario", "1", "--sweep", "2", "--k-list", "30",
            "--replicates", "10", "--cache", str(cache), "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout) == {"out": str(out), "cells": 1}
        assert json.loads((out / "report.json").read_text())["cells"][0]["label_accuracy"] is not None
        assert (out / "report.csv").read_text().splitlines()[0] == (
            "param,k,p(-2),p(-1),p(0),p(1),p(2+),n_qualifying,"
            "tau1_mean,tau1_sd,tau2_mean,tau2_sd,label_accuracy"
        )
        assert (out / "report.md").read_text().splitlines()[0] == (
            "| v/lam | k | -2 | -1 | 0 | 1 | >=2 | tau1 (SD) | tau2 (SD) |"
        )
