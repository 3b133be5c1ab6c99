"""The four benchmark workloads: inputs from the seed, set-up, one op, checks.

Inputs are made by the benchmark's own generator (numpy only), so a change
to the package's simulators cannot change what the detector is given. The
package receives only the generated files or arrays.

Each workload is a closed loop with one client in one process, calling
library defaults (no `threads` argument, so one thread):

- detect_batch: a folder of n=300 CSV tracks; one op loads a track,
  detects with labels (k=30) and renders the report as a dict. The user's
  main path; fits in cache; `trajectory` and `detection` do the work.
- detect_long: one n=50,000 track in memory; one op detects with labels at
  k=300. The only workload whose kernel working set exceeds the L3 cache.
- calibrate_cold: one op calibrates the (300, 30) cut-offs and the n=300
  segment-test quantiles at 10,001 replicates each into an empty cache.
  All Monte Carlo: `rng`, `simulators`, `stats`, `calibration`.
- study: one op runs two Monte Carlo sweeps (scenario 1 with v in {1, 2},
  scenario 2 with lam in {0.5, 1}; k=30; labels; 200 replicates per cell)
  against a warm cache. The only workload where `simulators` and `bench`
  carry real weight.

The warm workloads read cut-offs and labelling quantiles from a cache file
that `prepare` fills through the library at its minimum of 1,000
replicates (calibration seed fixed to the library default, so the cache is
the same for every workload seed). Calibration cost itself is measured by
calibrate_cold.
"""

import dataclasses
import hashlib
import json
import math
import os
import shutil

import numpy as np

from diffswitch import bench, calibration, detection, trajectory
from diffswitch.errors import DiffswitchError
from diffswitch.stats import ThresholdPair

WARM_REPLICATES = 1_000
FALLBACK_LENGTH_GRID = (25, 50, 100, 150, 200, 300, 500)
# Published cut-offs for n=300, k=30: (gamma1, gamma2) per variant.
PUBLISHED_300_30 = {calibration.STRICT: (0.62, 3.55), calibration.RELAXED: (0.74, 3.26)}
PUBLISHED_TOLERANCE = 0.06
# Published relaxed pair for (n=300, k=40); calibrating at n=50,000 is out of reach.
LONG_PAIR = (0.75, 3.25)

# detect_batch track kinds: name -> pieces of (regime, parameter, steps).
BATCH_KINDS = {
    "scenario1_v1": (("brownian", 0.0, 100), ("drift", 1.0, 75), ("brownian", 0.0, 125)),
    "scenario1_v2": (("brownian", 0.0, 100), ("drift", 2.0, 75), ("brownian", 0.0, 125)),
    "scenario2_lam0.5": (("brownian", 0.0, 100), ("ou", 0.5, 75), ("brownian", 0.0, 125)),
    "scenario2_lam1": (("brownian", 0.0, 100), ("ou", 1.0, 75), ("brownian", 0.0, 125)),
    "brownian": (("brownian", 0.0, 300),),
}


@dataclasses.dataclass(frozen=True)
class Sizes:
    batch_tracks: int = 2_000
    batch_k: int = 30
    long_pieces: int = 10
    long_piece_steps: int = 5_000
    long_k: int = 300
    cold_replicates: int = 10_001
    study_replicates: int = 200


FULL = Sizes()
SMOKE = Sizes(batch_tracks=25, long_pieces=4, long_piece_steps=500, long_k=100,
              cold_replicates=1_000, study_replicates=20)


def digest(obj):
    """Short hash of a JSON-ready object; floats hash by their exact repr."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def piecewise_track(pieces, rng):
    """Positions (n+1, 2) of a continuous piecewise-regime path from the origin.

    Brownian steps are N(0, 1) per coordinate; drift adds v/sqrt(2) per
    coordinate per step (drift norm v); OU pieces use the exact AR(1)
    transition with equilibrium at the piece's start point.
    """
    chunks = [np.zeros((1, 2))]
    x = np.zeros(2)
    for regime, param, steps in pieces:
        if regime == "ou":
            a = math.exp(-param)
            noise = rng.normal(0.0, math.sqrt((1.0 - a * a) / (2.0 * param)), size=(steps, 2))
            out = np.empty((steps, 2))
            theta, cur = x, x
            for j in range(steps):
                cur = theta + (cur - theta) * a + noise[j]
                out[j] = cur
        else:
            inc = rng.normal(0.0, 1.0, size=(steps, 2))
            if regime == "drift":
                inc += param / math.sqrt(2.0)
            out = x + np.cumsum(inc, axis=0)
        chunks.append(out)
        x = out[-1]
    return np.concatenate(chunks)


def write_track(path, positions):
    """CSV `t,x,y` on the grid t = 0, 1, ..., n; floats round-trip exactly."""
    rows = "".join(f"{t},{x!r},{y!r}\n" for t, (x, y) in enumerate(positions.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y\n" + rows)


def check_report(report, n, k):
    """Reasons the report breaks its documented invariants (empty if none)."""
    reasons = []
    clusters, points = report.clusters, report.change_points
    if any(a.end >= b.start for a, b in zip(clusters, clusters[1:])) or any(
        c.start > c.end for c in clusters
    ):
        reasons.append("clusters_overlap_or_unordered")
    if len(points) != len(clusters) or any(
        not c.start <= p <= c.end for c, p in zip(clusters, points)
    ):
        reasons.append("not_one_change_point_per_cluster")
    if any(a >= b for a, b in zip(points, points[1:])):
        reasons.append("change_points_not_increasing")
    if any(not k <= p <= n - k for p in points):
        reasons.append("change_point_outside_k_n_minus_k")
    for labels, cps in ((report.raw_labels, points),
                        (report.merged_labels, report.merged_change_points)):
        if labels is None:
            continue
        bounds = [0] + list(cps) + [n]
        if [(s.start, s.end) for s in labels] != list(zip(bounds, bounds[1:])):
            reasons.append("labels_not_covering_0_n")
            break
    return reasons


def report_n(report):
    """Trajectory length n recovered from the sliding statistics in a report."""
    return report.stats.first_index + len(report.stats.B) + report.config.k - 1


def _warm_quantiles(table):
    quantiles = calibration.SegmentQuantiles(table, replicates=WARM_REPLICATES)
    for length in getattr(calibration, "SEGMENT_LENGTH_GRID", FALLBACK_LENGTH_GRID):
        quantiles(length)
    return quantiles


class Workload:
    """One workload. Subclasses define the inputs, set-up, op and checks."""

    name = ""
    warmup_ops = 0
    min_ops = 3
    trace_ops = 1
    # Whether set-up reads the warm threshold cache that `prepare` fills.
    warm = False

    def __init__(self, seed, sizes, workdir):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.cache_path = os.path.join(workdir, "thresholds.json")
        self.digests = {}
        self.repeats = 0
        self.mismatches = 0

    def generate(self):
        """Make the inputs from the seed (not timed)."""

    def prepare(self, shared_cache):
        """Fill the warm cache through the library (not timed).

        The cache depends only on the package source, so the first run
        keeps a copy at `shared_cache` (a path naming the source digest)
        and later runs copy it instead of calibrating again.
        """
        if not self.warm:
            return
        if os.path.exists(shared_cache):
            shutil.copyfile(shared_cache, self.cache_path)
            return
        calibration.cache_get_or_calibrate(self.cache_path, self.batch_key())
        _warm_quantiles(calibration.ThresholdTable(self.cache_path))
        tmp = f"{shared_cache}.{os.getpid()}.tmp"
        shutil.copyfile(self.cache_path, tmp)
        os.replace(tmp, shared_cache)

    def batch_key(self):
        return calibration.default_key(300, self.sizes.batch_k, replicates=WARM_REPLICATES)

    def setup(self):
        """Everything a user's process does before its first op (timed)."""

    def op(self, i):
        """One timed operation; returns its output."""
        raise NotImplementedError

    def items(self, output):
        """Units of work in one op (tracks, or Monte Carlo replicates)."""
        return 1

    def input_key(self, i):
        """Which distinct input op i runs on; outputs are checked once per input."""
        return 0

    def check(self, i, output):
        """Reasons the op's output is wrong (empty if it is right)."""
        raise NotImplementedError

    def record(self, key, value):
        """Determinism record: a repeated input must give the same digest."""
        if key in self.digests:
            self.repeats += 1
            if self.digests[key] != value:
                self.mismatches += 1
                return ["nondeterministic"]
        else:
            self.digests[key] = value
        return []

    def checksum(self):
        return digest(sorted(self.digests.items()))

    def cutoffs(self):
        """Cut-offs the workload ran with, as exact hex floats."""
        return {}


class DetectBatch(Workload):
    name = "detect_batch"
    warmup_ops = 50
    warm = True

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        folder = os.path.join(self.workdir, "tracks")
        os.makedirs(folder)
        kinds = list(BATCH_KINDS.values())
        self.paths = []
        for i in range(self.sizes.batch_tracks):
            path = os.path.join(folder, f"track_{i:05d}.csv")
            write_track(path, piecewise_track(kinds[i % len(kinds)], rng))
            self.paths.append(path)
        # Every run checks every track, so its failed count depends on the seed only.
        self.min_ops = self.trace_ops = len(self.paths)

    def setup(self):
        table = calibration.ThresholdTable(self.cache_path)
        thresholds = calibration.cache_get_or_calibrate(table, self.batch_key())
        self.config = detection.DetectionConfig(k=self.sizes.batch_k, thresholds=thresholds)
        self.quantiles = _warm_quantiles(table)

    def op(self, i):
        traj = trajectory.load_csv(self.paths[i % len(self.paths)])
        report = detection.run_procedure(traj, self.config, labelling=True,
                                         quantiles=self.quantiles)
        return traj.n_steps, report, detection.report_to_dict(report)

    def input_key(self, i):
        return i % len(self.paths)

    def check(self, i, output):
        n, report, doc = output
        return check_report(report, n, self.config.k) + self.record(self.input_key(i), digest(doc))

    def cutoffs(self):
        t = self.config.thresholds
        return {"relaxed": [t.gamma1.hex(), t.gamma2.hex()]}


class DetectLong(Workload):
    name = "detect_long"
    warmup_ops = 1
    trace_ops = 2
    warm = True

    def generate(self):
        rng = np.random.default_rng([self.seed, 2])
        middles = (("drift", 0.5), ("ou", 0.2))
        pieces = []
        for j in range(self.sizes.long_pieces):
            regime, param = ("brownian", 0.0) if j % 2 == 0 else middles[(j // 2) % 2]
            pieces.append((regime, param, self.sizes.long_piece_steps))
        positions = piecewise_track(pieces, rng)
        grid = trajectory.TimeGrid(t0=0.0, delta=1.0, n_steps=len(positions) - 1)
        self.traj = trajectory.Trajectory(grid=grid, positions=positions)

    def setup(self):
        table = calibration.ThresholdTable(self.cache_path)
        self.config = detection.DetectionConfig(k=self.sizes.long_k,
                                                thresholds=ThresholdPair(*LONG_PAIR))
        self.quantiles = _warm_quantiles(table)

    def op(self, i):
        report = detection.run_procedure(self.traj, self.config, labelling=True,
                                         quantiles=self.quantiles)
        return report, detection.report_to_dict(report)

    def check(self, i, output):
        report, doc = output
        return check_report(report, self.traj.n_steps, self.config.k) + self.record(0, digest(doc))


class CalibrateCold(Workload):
    name = "calibrate_cold"
    # Two ops on the same seed are the determinism record.
    min_ops = 2

    def setup(self):
        reps = self.sizes.cold_replicates
        self.key = calibration.default_key(300, 30, replicates=reps, seed=self.seed)
        self.segment_key = calibration.segment_test_key(300, replicates=reps, seed=self.seed)

    def op(self, i):
        path = os.path.join(self.workdir, f"cold_{i}.json")
        pair = calibration.cache_get_or_calibrate(path, self.key)
        segment = calibration.cache_get_or_calibrate(path, self.segment_key)
        return path, pair, segment

    def items(self, output):
        return self.key.replicates + self.segment_key.replicates

    def check(self, i, output):
        path, pair, segment = output
        reasons = []
        reloaded = calibration.ThresholdTable(path)
        os.remove(path)
        pairs = {variant: reloaded.get(dataclasses.replace(self.key, variant=variant))
                 for variant in PUBLISHED_300_30}
        if pairs[self.key.variant] != pair or reloaded.get(self.segment_key) != segment or any(
            p is None for p in pairs.values()
        ):
            return ["cache_reload_mismatch"]
        for variant, (g1, g2) in PUBLISHED_300_30.items():
            p = pairs[variant]
            if max(abs(p.gamma1 - g1), abs(p.gamma2 - g2)) > PUBLISHED_TOLERANCE:
                reasons.append(f"{variant}_pair_off_published_by_more_than_0.06")
        strict, relaxed = pairs[calibration.STRICT], pairs[calibration.RELAXED]
        if not (strict.gamma1 <= relaxed.gamma1 and strict.gamma2 >= relaxed.gamma2):
            reasons.append("strict_not_outside_relaxed")
        self.last = {variant: [p.gamma1.hex(), p.gamma2.hex()] for variant, p in pairs.items()}
        self.last["segment_test"] = [segment.gamma1.hex(), segment.gamma2.hex()]
        return reasons + self.record(0, digest(self.last))

    def cutoffs(self):
        return getattr(self, "last", {})


class Study(Workload):
    name = "study"
    warmup_ops = 1
    trace_ops = 2
    warm = True

    def setup(self):
        common = dict(k_values=(30,), replicates=self.sizes.study_replicates, seed=self.seed,
                      label=True, calib_replicates=WARM_REPLICATES, cache_path=self.cache_path)
        self.specs = (
            bench.ExperimentSpec(scenario=1, param_values=(1.0, 2.0), **common),
            bench.ExperimentSpec(scenario=2, param_values=(0.5, 1.0), **common),
        )

    def op(self, i):
        return [bench.run_experiment(spec) for spec in self.specs]

    def items(self, output):
        return sum(cell.replicates for report in output for cell in report.cells)

    def check(self, i, output):
        cells = [dataclasses.asdict(cell) for report in output for cell in report.cells]
        for cell in cells:
            del cell["runtime_s"]
        reasons = []
        strong = next(c for c in output[0].cells if c.param == 2.0 and c.k == 30)
        if strong.proportions["0"] < 0.90:
            reasons.append("v2_k30_exact_count_below_0.90")
        if strong.label_accuracy is None or strong.label_accuracy < 0.80:
            reasons.append("v2_k30_label_accuracy_below_0.80")
        return reasons + self.record(0, digest(cells))


WORKLOADS = {w.name: w for w in (DetectBatch, DetectLong, CalibrateCold, Study)}


def make(name, seed, smoke, workdir):
    return WORKLOADS[name](seed, SMOKE if smoke else FULL, workdir)


def run_op(workload, i):
    """Run one op; a domain error becomes a failure reason instead of an output."""
    try:
        return workload.op(i), None
    except DiffswitchError as exc:
        return None, f"error_{type(exc).__name__}"
