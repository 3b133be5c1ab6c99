"""Monte Carlo benchmark harness for the detection procedure.

Reproduces the simulation studies at configurable scale: for each cell
of a (parameter value x window size) grid it simulates replicates of a
piecewise-regime scenario, runs detection, and tallies the detected-
minus-true change-point count, the change-point location moments on the
correctly-detected subset, and the labelling accuracy. An external
detector executable can be scored through the same pipeline.
"""

import csv
import json
import math
import os
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import detection
from .calibration import (
    RELAXED,
    SegmentQuantiles,
    ThresholdTable,
    cache_get_or_calibrate,
    default_key,
    estimate_type1_error,
)
from .errors import DiffswitchError, InvalidParam, IoFailure
from .rng import DEFAULT_SEED
from .simulators import replicate_stacks, scenario_preset
from .stats import SegmentStats
from .trajectory import TimeGrid, Trajectory, save_csv

DIFF_CATEGORIES = ("-2", "-1", "0", "1", "2+")


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep of scenario parameters against window sizes.

    `scenario` is 1, 2, or a ScenarioSpec. `param_values` are drift
    magnitudes (scenario 1) or restoring forces (scenario 2); a custom
    ScenarioSpec runs unchanged at every value, which only tags its cell
    and its replicate streams.
    """

    scenario: object
    param_values: tuple
    k_values: tuple
    replicates: int = 200
    seed: int = DEFAULT_SEED
    variant: str = RELAXED
    alpha: float = 0.05
    calib_replicates: int = 10_001
    cache_path: str | None = None
    label: bool = True
    external_detector: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "param_values", tuple(self.param_values))
        object.__setattr__(self, "k_values", tuple(self.k_values))
        if self.replicates < 1:
            raise InvalidParam("need at least one replicate")
        if not self.param_values or not self.k_values:
            raise InvalidParam("sweep grid must be non-empty")


@dataclass
class CellResult:
    param: float
    k: int
    proportions: dict
    n_qualifying: int
    tau_mean: list
    tau_sd: list
    label_accuracy: float | None
    failures: int
    replicates: int
    runtime_s: float

    def binomial_se(self, category):
        p = self.proportions[category]
        return math.sqrt(p * (1 - p) / self.replicates)


@dataclass
class ExperimentReport:
    spec_summary: dict
    cells: list = field(default_factory=list)


def _scenario_spec(spec, param):
    if spec.scenario in (1, 2):
        kw = {"v": param} if spec.scenario == 1 else {"lam": param}
        return scenario_preset(spec.scenario, **kw)
    return spec.scenario


def _run_external(prog, traj):
    """Invoke an external detector: prog --input traj.csv --output cps.json."""
    with tempfile.TemporaryDirectory() as tmp:
        in_path = os.path.join(tmp, "traj.csv")
        out_path = os.path.join(tmp, "cps.json")
        save_csv(traj, in_path)
        proc = subprocess.run(
            [prog, "--input", in_path, "--output", out_path],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise IoFailure(f"external detector failed: {proc.stderr.strip()}")
        with open(out_path, encoding="utf-8") as fh:
            return [int(i) for i in json.load(fh)["change_points"]]


def _diff_category(n_hat, n_true):
    return DIFF_CATEGORIES[min(max(n_hat - n_true, -2), 2) + 2]


def _outcomes(spec, stack, delta, config, lookup):
    """(change points, raw labels) per row of a stack, or None where detection failed.

    The built-in detector takes the whole stack, on time step `delta`,
    through one detection.raw_batch; if that raises, it takes each row
    again as its own stack[r:r+1], so only the rows that fail on their
    own count as failures. An external detector is called once per row,
    on a Trajectory written to CSV.
    """

    def detect(rows):
        if spec.external_detector:
            grid = TimeGrid(t0=0.0, delta=delta, n_steps=rows.shape[1] - 1)
            trajs = [Trajectory(grid=grid, positions=row) for row in rows]
            return [(_run_external(spec.external_detector, traj), None) for traj in trajs]
        points, labels = detection.raw_batch(SegmentStats(rows, delta), config, lookup)[2:]
        return list(zip(points, labels))

    if not spec.external_detector:
        try:
            return detect(stack)
        except DiffswitchError:
            pass
    outcomes = []
    for r in range(len(stack)):
        try:
            outcomes += detect(stack[r : r + 1])
        except DiffswitchError:
            outcomes.append(None)
    return outcomes


def run_cell(spec, param, k, thresholds, quantiles=None):
    """All replicates of one grid cell, tallied into a CellResult.

    Each replicate_stacks stack goes as one array, with the scenario's
    time step, into the outcomes of its rows: no per-replicate Trajectory,
    merge or report is built for the built-in detector. Labels read one
    label_lookup for the whole cell. Replicate rep always draws from
    replicate_rng(seed, *cell, rep), so the result does not depend on how
    replicates are batched.
    """
    scenario = _scenario_spec(spec, param)
    truth = [r.diffusion_type() for r in scenario.regimes]
    n_true = len(scenario.change_points)
    config = detection.DetectionConfig(k=k, thresholds=thresholds)
    cell_tag = (spec.param_values.index(param), spec.k_values.index(k))
    lookup = detection.label_lookup(quantiles) if spec.label and quantiles is not None else None

    counts = {cat: 0 for cat in DIFF_CATEGORIES}
    qualifying_points = []
    label_hits = label_total = failures = 0
    start = time.perf_counter()
    for stack in replicate_stacks(scenario, spec.seed, *cell_tag, replicates=spec.replicates):
        # A scenario whose paths overflow is an error, not a cell of failed replicates.
        if not np.isfinite(stack).all():
            raise InvalidParam("positions contain NaN or Inf")
        for outcome in _outcomes(spec, stack, scenario.delta, config, lookup):
            if outcome is None:
                failures += 1
                continue
            points, labels = outcome
            cat = _diff_category(len(points), n_true)
            counts[cat] += 1
            if cat == "0":
                qualifying_points.append(points)
                if labels is not None:
                    label_total += 1
                    label_hits += [s.label for s in labels] == truth
    runtime = time.perf_counter() - start

    scored = spec.replicates - failures
    proportions = {cat: (counts[cat] / scored if scored else 0.0) for cat in DIFF_CATEGORIES}
    if qualifying_points:
        arr = np.array(qualifying_points, dtype=float)
        tau_mean = [float(m) for m in arr.mean(axis=0)]
        tau_sd = [float(s) for s in arr.std(axis=0, ddof=1)] if len(arr) > 1 else [None] * arr.shape[1]
    else:
        tau_mean, tau_sd = [], []
    return CellResult(
        param=param,
        k=k,
        proportions=proportions,
        n_qualifying=len(qualifying_points),
        tau_mean=tau_mean,
        tau_sd=tau_sd,
        label_accuracy=(label_hits / label_total) if label_total else None,
        failures=failures,
        replicates=spec.replicates,
        runtime_s=runtime,
    )


def run_experiment(spec):
    """Sweep the full grid; deterministic given the spec's seeds."""
    table = ThresholdTable(spec.cache_path)
    quantiles = None
    if spec.label and not spec.external_detector:
        quantiles = SegmentQuantiles(
            store=table, alpha=spec.alpha, replicates=spec.calib_replicates,
        )
    report = ExperimentReport(
        spec_summary={
            "scenario": spec.scenario if spec.scenario in (1, 2) else "custom",
            "replicates": spec.replicates,
            "seed": spec.seed,
            "variant": spec.variant,
            "alpha": spec.alpha,
        }
    )
    n = _scenario_spec(spec, spec.param_values[0]).n
    for k in spec.k_values:
        key = default_key(
            n, k, variant=spec.variant, alpha=spec.alpha,
            replicates=spec.calib_replicates,
        )
        thresholds = cache_get_or_calibrate(table, key)
        for param in spec.param_values:
            report.cells.append(run_cell(spec, param, k, thresholds, quantiles))
    return report


@dataclass(frozen=True)
class Type1Spec:
    """Grid for the false-detection-rate experiment on Brownian paths."""

    n_values: tuple
    k_values: tuple
    variants: tuple = (RELAXED,)
    replicates: int = 2000
    seed: int = DEFAULT_SEED
    alpha: float = 0.05
    calib_replicates: int = 10_001
    cache_path: str | None = None


def run_type1_experiment(spec):
    """Empirical type-I error for each (n, k, variant) grid cell."""
    table = ThresholdTable(spec.cache_path)
    report = ExperimentReport(
        spec_summary={
            "experiment": "type1",
            "replicates": spec.replicates,
            "seed": spec.seed,
            "alpha": spec.alpha,
        }
    )
    for n in spec.n_values:
        for k in spec.k_values:
            for variant in spec.variants:
                key = default_key(
                    n, k, variant=variant, alpha=spec.alpha,
                    replicates=spec.calib_replicates,
                )
                thresholds = cache_get_or_calibrate(table, key)
                start = time.perf_counter()
                p, se = estimate_type1_error(
                    n, k, key.c, key.c_star, thresholds, spec.replicates, spec.seed
                )
                report.cells.append(
                    {
                        "n": n,
                        "k": k,
                        "variant": variant,
                        "type1": p,
                        "se": se,
                        "gamma1": thresholds.gamma1,
                        "gamma2": thresholds.gamma2,
                        "replicates": spec.replicates,
                        "runtime_s": time.perf_counter() - start,
                    }
                )
    return report


def report_to_dict(report):
    cells = [dict(cell) if isinstance(cell, dict) else asdict(cell) for cell in report.cells]
    return {"spec": report.spec_summary, "cells": cells}


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def export_report(report, fmt, path):
    """Write a report as json (canonical), csv, or a markdown table."""
    doc = report_to_dict(report)
    try:
        if fmt == "json":
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
        elif fmt == "csv":
            _export_csv(doc, path)
        elif fmt == "markdown":
            _export_markdown(doc, path)
        else:
            raise InvalidParam(f"unknown format {fmt!r}")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _export_csv(doc, path):
    cells = doc["cells"]
    if cells and "type1" in cells[0]:
        headers = ["n", "k", "variant", "type1", "se", "gamma1", "gamma2", "replicates"]
        rows = [[_fmt(c[h]) for h in headers] for c in cells]
    else:
        headers = (
            ["param", "k"] + [f"p({c})" for c in DIFF_CATEGORIES]
            + ["n_qualifying", "tau1_mean", "tau1_sd", "tau2_mean", "tau2_sd", "label_accuracy"]
        )
        rows = []
        for c in cells:
            tau = (c["tau_mean"] + [None, None])[:2]
            sd = (c["tau_sd"] + [None, None])[:2]
            rows.append(
                [_fmt(c["param"]), _fmt(c["k"])]
                + [_fmt(c["proportions"][cat]) for cat in DIFF_CATEGORIES]
                + [_fmt(c["n_qualifying"]), _fmt(tau[0]), _fmt(sd[0]), _fmt(tau[1]), _fmt(sd[1]),
                   _fmt(c["label_accuracy"])]
            )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def _export_markdown(doc, path):
    cells = doc["cells"]
    with open(path, "w", encoding="utf-8") as fh:
        if cells and "type1" in cells[0]:
            fh.write("| n | k | variant | type I (%) | SE (%) |\n")
            fh.write("|---|---|---------|-----------|--------|\n")
            for c in cells:
                fh.write(
                    f"| {c['n']} | {c['k']} | {c['variant']} "
                    f"| {100 * c['type1']:.2f} | {100 * c['se']:.2f} |\n"
                )
            return
        fh.write("| v/lam | k | -2 | -1 | 0 | 1 | >=2 | tau1 (SD) | tau2 (SD) |\n")
        fh.write("|------|---|----|----|---|---|-----|-----------|-----------|\n")
        for c in cells:
            props = " | ".join(f"{100 * c['proportions'][cat]:.1f}" for cat in DIFF_CATEGORIES)
            taus = [f"{m:.1f}" + ("" if s is None else f" ({s:.1f})")
                    for m, s in zip(c["tau_mean"], c["tau_sd"])] + ["", ""]
            fh.write(f"| {c['param']} | {c['k']} | {props} | {taus[0]} | {taus[1]} |\n")
