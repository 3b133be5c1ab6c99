"""Sequential change-point detection along a trajectory.

Pipeline: sliding backward/forward statistics -> Q signal -> clusters of
potential change points -> one estimated change point per cluster
(argmax of |B - A|) -> optional a-posteriori segment labelling, which
deletes change points whose flanking segments share a label.
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InvalidParam
from .stats import REGIME_LABELS, SegmentStats, SlidingStats, ThresholdPair, phi, sliding_stats
from .stats import BROWNIAN, SUBDIFFUSIVE, SUPERDIFFUSIVE  # re-exported segment labels

UNDETERMINED = "undetermined"

# Segments with fewer points carry too little signal to test.
MIN_LABEL_POINTS = 10


def default_cluster_params(k, c=None, c_star=None):
    """Cluster window and count threshold (c, c_star) for window size k.

    Values left as None follow the recommendation c = k/2 (at least 2)
    and c_star = ceil(0.75 c), taken from the given c when only c is set.
    """
    if c is None:
        c = max(2, k // 2)
    if c_star is None:
        c_star = math.ceil(0.75 * c)
    return c, c_star


@dataclass(frozen=True)
class DetectionConfig:
    """Tuning parameters of the detection procedure.

    Unset c and c_star are resolved by default_cluster_params.
    """

    k: int
    thresholds: ThresholdPair
    c: int = None
    c_star: int = None

    def __post_init__(self):
        c, c_star = default_cluster_params(self.k, self.c, self.c_star)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_star", c_star)
        if not all(isinstance(v, (int, np.integer)) for v in (self.k, c, c_star)):
            raise InvalidParam(f"k, c and c_star must be integers, got {(self.k, c, c_star)!r}")
        if self.k < 1:
            raise InvalidParam(f"window size must be >= 1, got {self.k}")
        if not 1 <= self.c_star <= self.c:
            raise InvalidParam(f"need 1 <= c_star <= c, got ({self.c_star}, {self.c})")


@dataclass(frozen=True)
class Cluster:
    """Contiguous run of indices covered by qualifying windows (see find_clusters)."""

    start: int
    end: int  # inclusive


@dataclass(frozen=True)
class SegmentLabel:
    """Diffusion label of one inter-change-point segment."""

    start: int
    end: int
    label: str
    T: float | None


@dataclass(frozen=True)
class ChangePointReport:
    config: DetectionConfig
    clusters: list
    change_points: list
    raw_labels: list | None
    merged_change_points: list | None
    merged_labels: list | None
    stats: object = field(repr=False, default=None)


def find_clusters(Q, c, c_star, first_index=0):
    """Clusters of potential change points from the Q signal.

    A window start m qualifies when at least c_star of the c entries
    Q_m .. Q_{m+c-1} are nonzero. A cluster covers a maximal run of
    consecutive qualifying starts m .. m+l, spanning indices
    [m, m+l+c-1] but clipped to end before the next run starts, so
    clusters are disjoint and in index order. Every length-c sub-window
    inside a cluster holds at least c_star potential change points; a
    cluster spans at least 2 indices, and c unless it was clipped.
    Indices are offset by first_index; a 2-D Q gives one list per row.
    """
    nz = np.atleast_2d(np.asarray(Q) != 0)
    clusters = [[] for _ in range(len(nz))]
    if nz.shape[1] >= c:
        # Nonzero count of every length-c window, from one cumulative sum per row.
        cs = np.zeros((len(nz), nz.shape[1] + 1), dtype=np.intp)
        np.cumsum(nz, axis=1, out=cs[:, 1:])
        padded = np.zeros((len(nz), nz.shape[1] - c + 3), dtype=bool)
        padded[:, 1:-1] = cs[:, c:] - cs[:, :-c] >= c_star
        # A run of qualifying starts m .. stop - 1 flips its padded row at m and at stop.
        rows, flips = np.nonzero(padded[:, 1:] != padded[:, :-1])
        rows, starts, stops = rows[::2].tolist(), flips[::2].tolist(), flips[1::2].tolist()
        for j, (r, m, stop) in enumerate(zip(rows, starts, stops)):
            end = stop + c - 2
            if j + 1 < len(rows) and rows[j + 1] == r:  # end before the row's next cluster
                end = min(end, starts[j + 1] - 1)
            clusters[r].append(Cluster(first_index + m, first_index + end))
    return clusters if np.ndim(Q) > 1 else clusters[0]


def estimate_change_points(stats, clusters):
    """One change point per cluster: the index maximising |B_i - A_i|.

    Ties break to the smallest index.
    """
    gap, i0 = np.abs(stats.B - stats.A), stats.first_index
    return [cl.start + int(gap[cl.start - i0 : cl.end - i0 + 1].argmax()) for cl in clusters]


def label_lookup(quantiles):
    """Step count -> its (q1, q2) as a ThresholdPair, validated once per step count."""

    @cache
    def lookup(n_steps):
        return ThresholdPair(*(quantiles(n_steps) if callable(quantiles) else quantiles))

    return lookup


def _label(lo, hi, T, total, lookup):
    """Segment [lo, hi] labelled by phi's step function on T; undetermined if short or still."""
    if hi - lo + 1 < MIN_LABEL_POINTS or total == 0:
        return SegmentLabel(lo, hi, UNDETERMINED, None)
    if not math.isfinite(T):
        raise InvalidParam("statistic is not finite; positions span too wide a range")
    return SegmentLabel(lo, hi, REGIME_LABELS[phi(T, lookup(hi - lo))], T)


def _raw_labels(segments, points, lookup):
    """Labels of the segments between each row's change points, one list per row."""
    values = iter(segments.between(points))
    return [
        [_label(lo, hi, *next(values), lookup) for lo, hi in zip([0, *p], [*p, segments.n])]
        for p in points
    ]


def _merge(segments, row, change_points, labels, lookup):
    """merge_same_label on one row of a SegmentStats; fused segments are relabelled from it."""
    points, labels = list(change_points), list(labels)
    j = 0
    while j < len(labels) - 1:
        if labels[j].label == labels[j + 1].label:
            lo, hi = labels[j].start, labels[j + 1].end
            labels[j : j + 2] = [_label(lo, hi, *segments.segment(row, lo, hi), lookup)]
            del points[j]
            j = max(j - 1, 0)
        else:
            j += 1
    return points, labels


def label_segments(traj, change_points, quantiles):
    """Label every segment between consecutive change points.

    `quantiles` is either a fixed (q1, q2) pair or a callable mapping a
    segment's step count to its pair (quantiles depend on length).
    Change points must be non-decreasing integers within 0 .. n.
    """
    return _raw_labels(SegmentStats(traj), [change_points], label_lookup(quantiles))[0]


def merge_same_label(traj, change_points, labels, quantiles):
    """Drop change points whose flanking segments share a label.

    The fused segment is relabelled from its own statistic; repeats
    until all adjacent labels differ. Returns (points, labels). Change
    points must be as for label_segments.
    """
    segments = SegmentStats(traj)
    segments.bounds([change_points])
    return _merge(segments, 0, change_points, labels, label_lookup(quantiles))


def raw_batch(segments, config, lookup=None):
    """Detection up to the raw labels on every row of a SegmentStats, with no merge.

    One sliding pass over the whole stack, one clustering pass, change
    points estimated row by row and, given a label_lookup, one labelling
    pass. Returns the lists (stats, clusters, change points, raw labels),
    one entry per row; raw labels are None without a lookup. An error in
    any row raises for the whole stack.
    """
    batch = sliding_stats(segments, config.k, config.thresholds)
    if config.c > batch.Q.shape[-1]:
        raise InvalidParam("cluster window c exceeds the statistic range")
    stats = [SlidingStats(batch.k, *row) for row in zip(batch.B, batch.A, batch.Q)]
    clusters = find_clusters(batch.Q, config.c, config.c_star, first_index=batch.first_index)
    points = [estimate_change_points(s, cl) for s, cl in zip(stats, clusters)]
    labels = [None] * len(points) if lookup is None else _raw_labels(segments, points, lookup)
    return stats, clusters, points, labels


def run_batch(trajectories, config, labelling=False, quantiles=None):
    """Run the full detection procedure on trajectories of one length and time step.

    raw_batch on one SegmentStats of the whole batch, then labels merged
    and reports built trajectory by trajectory. Report r equals
    run_procedure(trajectories[r], ...) exactly. An error in any
    trajectory raises for the whole batch.
    """
    if labelling and quantiles is None:
        raise InvalidParam("labelling requires segment quantiles")
    segments = SegmentStats(list(trajectories))
    lookup = label_lookup(quantiles) if labelling else None
    stats, clusters, points, raw = raw_batch(segments, config, lookup)
    merged = [(None, None) if l is None else _merge(segments, r, p, l, lookup)
              for r, (p, l) in enumerate(zip(points, raw))]
    return [ChangePointReport(config, cl, p, l, *m, s)
            for cl, p, l, m, s in zip(clusters, points, raw, merged, stats)]


def run_procedure(traj, config, labelling=False, quantiles=None):
    """Run the full detection procedure on one trajectory: a one-row run_batch.

    Pure function of (trajectory, config): raw clusters, change points
    and (optionally) labels before and after the a-posteriori merge.
    """
    return run_batch([traj], config, labelling, quantiles)[0]


def report_to_dict(report):
    """JSON-ready view of a detection report."""
    doc = {
        "change_points": list(report.change_points),
        "clusters": [
            {
                "start": cl.start,
                "end": cl.end,
                "argmax": cp,
            }
            for cl, cp in zip(report.clusters, report.change_points)
        ],
    }
    if report.raw_labels is not None:
        doc["segments"] = [dict(vars(s)) for s in report.raw_labels]
        doc["merged_change_points"] = list(report.merged_change_points)
        doc["merged_segments"] = [dict(vars(s)) for s in report.merged_labels]
    return doc
