import csv
import json

import pytest

from diffswitch import __version__, load_csv
from diffswitch.cli import main


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

    def test_detect_missing_input(self, capsys):
        code, _, stderr = run(
            capsys, "detect", "--input", "/no/such/file.csv", "--k", "30",
            "--gamma1", "0.74", "--gamma2", "3.26",
        )
        assert code == 1
        assert "IoFailure" in stderr


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
