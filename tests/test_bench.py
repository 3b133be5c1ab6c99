import csv
import json
import math
import os
import stat

import pytest

from diffswitch import (
    ExperimentSpec, SegmentQuantiles, ThresholdPair, Type1Spec, calibration, export_report,
)
from diffswitch.bench import (
    DIFF_CATEGORIES,
    ExperimentReport,
    _diff_category,
    report_to_dict,
    run_cell,
    run_experiment,
    run_type1_experiment,
)
from diffswitch.calibration import SEGMENT_LENGTH_GRID
from diffswitch.errors import InvalidParam

THRESHOLDS = ThresholdPair(0.74, 3.26)  # published relaxed pair for n=300, k=30


def spec_1(**kw):
    base = dict(
        scenario=1, param_values=(2.0,), k_values=(30,), replicates=20,
        seed=11, label=False, calib_replicates=1000,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParam):
            spec_1(param_values=())
        with pytest.raises(InvalidParam):
            spec_1(k_values=())

    def test_zero_replicates_rejected(self):
        with pytest.raises(InvalidParam):
            spec_1(replicates=0)


class TestDiffCategory:
    def test_buckets(self):
        assert _diff_category(0, 2) == "-2"
        assert _diff_category(1, 2) == "-1"
        assert _diff_category(2, 2) == "0"
        assert _diff_category(3, 2) == "1"
        assert _diff_category(5, 2) == "2+"
        assert _diff_category(0, 3) == "-2"


class TestRunCell:
    def test_strong_drift_mostly_correct(self):
        cell = run_cell(spec_1(replicates=40), 2.0, 30, THRESHOLDS)
        assert cell.proportions["0"] >= 0.8
        assert cell.failures == 0
        assert len(cell.tau_mean) == 2
        assert 90 <= cell.tau_mean[0] <= 110
        assert 165 <= cell.tau_mean[1] <= 185

    def test_proportions_sum_to_one(self):
        cell = run_cell(spec_1(replicates=30), 2.0, 30, THRESHOLDS)
        assert sum(cell.proportions.values()) == pytest.approx(1.0)
        assert set(cell.proportions) == set(DIFF_CATEGORIES)

    def test_binomial_se(self):
        cell = run_cell(spec_1(replicates=30), 2.0, 30, THRESHOLDS)
        p = cell.proportions["0"]
        assert cell.binomial_se("0") == pytest.approx(math.sqrt(p * (1 - p) / 30))

    def test_single_replicate_has_no_sd(self):
        cell = run_cell(spec_1(replicates=1), 2.0, 30, THRESHOLDS)
        if cell.n_qualifying == 1:
            assert cell.tau_sd == [None, None]

    def test_label_accuracy_with_quantiles(self):
        spec = spec_1(replicates=20, label=True)
        cell = run_cell(spec, 2.0, 30, THRESHOLDS, quantiles=lambda n: (0.60, 2.60))
        assert cell.label_accuracy is not None
        assert 0.0 <= cell.label_accuracy <= 1.0

    def test_labelling_calibrates_each_grid_length_once(self, monkeypatch):
        calls = []

        def counting(n, *args, **kwargs):
            calls.append(n)
            return original(n, *args, **kwargs)

        original = calibration.calibrate_segment_test
        monkeypatch.setattr(calibration, "calibrate_segment_test", counting)
        quantiles = SegmentQuantiles(replicates=1000, seed=3)
        spec = spec_1(replicates=20, label=True)
        run_cell(spec, 2.0, 30, THRESHOLDS, quantiles=quantiles)
        assert calls and len(calls) == len(set(calls))
        assert set(calls) <= set(SEGMENT_LENGTH_GRID)
        before = list(calls)
        run_cell(spec, 2.0, 30, THRESHOLDS, quantiles=quantiles)
        assert calls == before

    def test_seed_determinism(self):
        a = run_cell(spec_1(), 2.0, 30, THRESHOLDS)
        b = run_cell(spec_1(), 2.0, 30, THRESHOLDS)
        assert a.proportions == b.proportions and a.tau_mean == b.tau_mean


class TestRunExperiment:
    def test_grid_sweep_with_cache(self, tmp_path):
        spec = spec_1(
            param_values=(1.0, 2.0), k_values=(30,), replicates=10,
            cache_path=str(tmp_path / "cache.json"),
        )
        report = run_experiment(spec)
        assert len(report.cells) == 2
        assert [c.param for c in report.cells] == [1.0, 2.0]
        # Rerun hits the cache and reproduces the same cells (up to wall time).
        again = run_experiment(spec)

        def strip(doc):
            for cell in doc["cells"]:
                cell.pop("runtime_s")
            return doc

        assert strip(report_to_dict(again)) == strip(report_to_dict(report))

    def test_type1_grid(self, tmp_path):
        spec = Type1Spec(
            n_values=(300,), k_values=(30,), replicates=500, seed=11,
            calib_replicates=1000, cache_path=str(tmp_path / "cache.json"),
        )
        report = run_type1_experiment(spec)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert set(cell) >= {"n", "k", "variant", "type1", "se", "gamma1", "gamma2"}
        assert 0.0 <= cell["type1"] <= 0.25


class TestExternalDetector:
    def make_stub(self, tmp_path, points):
        path = tmp_path / "stub_detector.py"
        path.write_text(
            "#!/usr/bin/env python3\n"
            "import argparse, json\n"
            "p = argparse.ArgumentParser()\n"
            "p.add_argument('--input'); p.add_argument('--output')\n"
            "a = p.parse_args()\n"
            f"json.dump({{'change_points': {points}}}, open(a.output, 'w'))\n"
        )
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return str(path)

    def test_perfect_stub_scores_perfectly(self, tmp_path):
        prog = self.make_stub(tmp_path, [100, 175])
        cell = run_cell(
            spec_1(replicates=3, external_detector=prog), 2.0, 30, THRESHOLDS
        )
        assert cell.proportions["0"] == 1.0
        assert cell.tau_mean == [100.0, 175.0]

    def test_empty_stub_scores_minus2(self, tmp_path):
        prog = self.make_stub(tmp_path, [])
        cell = run_cell(
            spec_1(replicates=3, external_detector=prog), 2.0, 30, THRESHOLDS
        )
        assert cell.proportions["-2"] == 1.0


class TestExport:
    @pytest.fixture()
    def report(self):
        return run_experiment(
            spec_1(param_values=(2.0,), k_values=(30,), replicates=10)
        )

    def test_json_round_trip(self, tmp_path, report):
        path = tmp_path / "report.json"
        export_report(report, "json", path)
        doc = json.loads(path.read_text())
        assert doc == report_to_dict(report)

    def test_csv_matches_json_to_ten_digits(self, tmp_path, report):
        export_report(report, "json", tmp_path / "r.json")
        export_report(report, "csv", tmp_path / "r.csv")
        doc = json.loads((tmp_path / "r.json").read_text())
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(doc["cells"])
        for row, cell in zip(rows, doc["cells"]):
            for cat in DIFF_CATEGORIES:
                assert float(row[f"p({cat})"]) == pytest.approx(
                    cell["proportions"][cat], rel=1e-9
                )
            assert float(row["tau1_mean"]) == pytest.approx(cell["tau_mean"][0], rel=1e-9)

    def test_markdown_has_table(self, tmp_path, report):
        path = tmp_path / "r.md"
        export_report(report, "markdown", path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("|") and set(lines[1]) <= set("|- ")
        assert len(lines) == 2 + len(report.cells)

    def test_type1_report_exports(self, tmp_path):
        report = ExperimentReport(spec_summary={"experiment": "type1"}, cells=[])
        for fmt, name in (("json", "a.json"), ("csv", "a.csv"), ("markdown", "a.md")):
            export_report(report, fmt, tmp_path / name)
        assert json.loads((tmp_path / "a.json").read_text())["cells"] == []
        # An empty grid still yields a well-formed CSV (header only may be absent).
        assert os.path.exists(tmp_path / "a.csv")

    def test_unknown_format(self, tmp_path, report):
        with pytest.raises(InvalidParam):
            export_report(report, "xml", tmp_path / "r.xml")
