import csv
import json
import math
import os
import stat

import dataclasses

import numpy as np
import pytest

from diffswitch import (
    DetectionConfig, ExperimentSpec, RegimeSpec, ScenarioSpec, SegmentQuantiles, ThresholdPair,
    Type1Spec, calibration, compose_scenario, detection, export_report, run_procedure,
    simulators,
)
from diffswitch.bench import (
    DIFF_CATEGORIES,
    ExperimentReport,
    _diff_category,
    _scenario_spec,
    report_to_dict,
    run_cell,
    run_experiment,
    run_type1_experiment,
)
from diffswitch.calibration import SEGMENT_LENGTH_GRID
from diffswitch.errors import InvalidParam, NoMotion
from diffswitch.rng import replicate_rng
from diffswitch.stats import SegmentStats
from diffswitch.trajectory import TimeGrid, Trajectory

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

        original = calibration._null_pass
        monkeypatch.setattr(calibration, "_null_pass", counting)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_scenario_is_an_error_not_failures(self):
        brownian, drift = RegimeSpec(kind="brownian"), RegimeSpec(kind="brownian_drift", v=1e308)
        scenario = ScenarioSpec(n=300, change_points=(100, 175), regimes=(brownian, drift, brownian))
        with pytest.raises(InvalidParam, match="positions contain NaN or Inf"):
            run_cell(spec_1(scenario=scenario), 2.0, 30, THRESHOLDS)


# Non-unit time step, an OU piece with a fixed equilibrium and an fBm piece.
CUSTOM = ScenarioSpec(
    n=300, change_points=(100, 200), delta=0.25,
    regimes=(
        RegimeSpec(kind="brownian"),
        RegimeSpec(kind="ornstein_uhlenbeck", lam=2.0, theta=(1.0, -1.0)),
        RegimeSpec(kind="fractional_brownian", hurst=0.8),
    ),
)


def cell_fields(cell):
    doc = dataclasses.asdict(cell)
    del doc["runtime_s"]
    return doc


def oracle_cell(spec, param, k, thresholds, quantiles=None, fail=()):
    """run_cell's tallies from one compose_scenario and run_procedure per replicate."""
    scenario = _scenario_spec(spec, param)
    truth = [r.diffusion_type() for r in scenario.regimes]
    config = DetectionConfig(k=k, thresholds=thresholds)
    tag = (spec.param_values.index(param), spec.k_values.index(k))
    counts = dict.fromkeys(DIFF_CATEGORIES, 0)
    points, hits, total = [], 0, 0
    for rep in range(spec.replicates):
        if rep in fail:
            continue
        traj, _ = compose_scenario(scenario, rng=replicate_rng(spec.seed, *tag, rep))
        report = run_procedure(traj, config, labelling=quantiles is not None, quantiles=quantiles)
        cat = _diff_category(len(report.change_points), len(scenario.change_points))
        counts[cat] += 1
        if cat == "0":
            points.append(report.change_points)
            if report.raw_labels is not None:
                total += 1
                hits += [s.label for s in report.raw_labels] == truth
    scored = spec.replicates - len(fail)
    arr = np.array(points, dtype=float)
    return {
        "param": param, "k": k,
        "proportions": {cat: counts[cat] / scored for cat in DIFF_CATEGORIES},
        "n_qualifying": len(points),
        "tau_mean": arr.mean(axis=0).tolist() if points else [],
        "tau_sd": (arr.std(axis=0, ddof=1).tolist() if len(points) > 1
                   else [None] * arr.shape[1] if points else []),
        "label_accuracy": hits / total if total else None,
        "failures": len(fail),
        "replicates": spec.replicates,
    }


class TestBatchedCell:
    @pytest.mark.parametrize("scenario,param", [(1, 1.0), (2, 0.5), (CUSTOM, 0.0)])
    @pytest.mark.parametrize("label", [False, True])
    def test_matches_per_replicate_oracle(self, scenario, param, label):
        # 40 replicates: one full stack of 32 and a partial one.
        spec = spec_1(scenario=scenario, param_values=(param,), replicates=40, label=label)
        quantiles = (0.60, 2.60) if label else None
        cell = run_cell(spec, param, 30, THRESHOLDS, quantiles=quantiles)
        assert cell_fields(cell) == oracle_cell(spec, param, 30, THRESHOLDS, quantiles)

    def test_batch_size_does_not_change_cell(self, monkeypatch):
        spec = spec_1(scenario=2, param_values=(0.5, 1.0), replicates=40, label=True)
        cells = []
        for batch in (1, 7, 32):
            monkeypatch.setattr(simulators, "REPLICATE_BATCH", batch)
            cells.append(cell_fields(run_cell(spec, 1.0, 30, THRESHOLDS, quantiles=(0.6, 2.6))))
        assert cells[0] == cells[1] == cells[2]

    def test_one_failing_replicate_counts_once(self, monkeypatch):
        spec = spec_1(replicates=40, label=True)
        expected = oracle_cell(spec, 2.0, 30, THRESHOLDS, (0.6, 2.6), fail={5})
        traj, _ = compose_scenario(_scenario_spec(spec, 2.0), rng=replicate_rng(spec.seed, 0, 0, 5))
        target = run_procedure(traj, DetectionConfig(k=30, thresholds=THRESHOLDS)).stats.B[0]
        original = detection.estimate_change_points

        def failing(stats, clusters):
            if stats.B[0] == target:
                raise NoMotion("injected failure")
            return original(stats, clusters)

        monkeypatch.setattr(detection, "estimate_change_points", failing)
        cell = run_cell(spec, 2.0, 30, THRESHOLDS, quantiles=(0.6, 2.6))
        assert cell.failures == 1
        assert cell_fields(cell) == expected


class TestRawBatch:
    # A time step of 0.1, unlike 0.25, is not a power of two: it changes the bits of B, A and T.
    @pytest.mark.parametrize("scenario", [simulators.scenario_preset(2, lam=0.5), CUSTOM,
                                          dataclasses.replace(CUSTOM, delta=0.1)],
                             ids=["preset2", "custom", "custom_delta0.1"])
    @pytest.mark.parametrize("label", [False, True])
    def test_rows_equal_run_batch_reports(self, monkeypatch, scenario, label):
        stack = simulators.compose_stack(scenario, [replicate_rng(4, r) for r in range(12)])
        grid = TimeGrid(t0=0.0, delta=scenario.delta, n_steps=scenario.n)
        config = DetectionConfig(k=30, thresholds=THRESHOLDS)
        quantiles = SegmentQuantiles(replicates=1000, seed=3) if label else None
        reports = detection.run_batch([Trajectory(grid=grid, positions=row) for row in stack],
                                      config, labelling=label, quantiles=quantiles)
        rows = []
        original = detection.estimate_change_points

        def counting(stats, clusters):
            rows.append(stats.B[0])
            return original(stats, clusters)

        # The raw stage finds estimate_change_points through the module, where tests inject faults.
        monkeypatch.setattr(detection, "estimate_change_points", counting)
        lookup = detection.label_lookup(quantiles) if label else None
        segments = SegmentStats(stack, scenario.delta)
        _, _, points, labels = detection.raw_batch(segments, config, lookup)
        assert rows == [report.stats.B[0] for report in reports]
        assert points == [report.change_points for report in reports]
        assert labels == [report.raw_labels for report in reports]
        assert any(points) and (any(labels) if label else not any(labels))


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

    def test_labelled_sweep_fills_and_then_reads_the_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        spec = spec_1(scenario=2, param_values=(1.0,), label=True, cache_path=str(path))
        report = run_experiment(spec)
        assert all(cell.label_accuracy is not None for cell in report.cells)
        pair = calibration.default_key(300, 30, replicates=1000)
        keys = set(calibration.ThresholdTable(path).entries)
        segment_keys = {key for key in keys if key.variant == calibration.SEGMENT_TEST}
        assert keys - segment_keys == {pair, dataclasses.replace(pair, variant=calibration.STRICT)}
        assert segment_keys and {key.n for key in segment_keys} <= set(SEGMENT_LENGTH_GRID)
        assert all(key == calibration.segment_test_key(key.n, replicates=1000)
                   for key in segment_keys)

        def no_pass(*args, **kwargs):
            raise AssertionError("a warm cache calibrated")

        monkeypatch.setattr(calibration, "_null_pass", no_pass)
        again = run_experiment(spec)
        assert [cell_fields(c) for c in again.cells] == [cell_fields(c) for c in report.cells]

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


    def test_type1_variants_share_one_null_pass_without_a_cache(self, monkeypatch):
        passes = []
        null_pass = calibration._null_pass
        monkeypatch.setattr(calibration, "_null_pass",
                            lambda n, *args, **kw: passes.append(n) or null_pass(n, *args, **kw))
        spec = Type1Spec(
            n_values=(150,), k_values=(20,), variants=(calibration.STRICT, calibration.RELAXED),
            replicates=500, seed=11, calib_replicates=1000,
        )
        report = run_type1_experiment(spec)
        assert passes == [150]
        assert [cell["variant"] for cell in report.cells] == [calibration.STRICT, calibration.RELAXED]


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
