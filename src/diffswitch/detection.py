"""Sequential change-point detection along a trajectory.

Pipeline: sliding backward/forward statistics -> Q signal -> clusters of
potential change points -> one estimated change point per cluster
(argmax of |B - A|) -> optional a-posteriori segment labelling, which
deletes change points whose flanking segments share a label.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParam, NoMotion, TooShort
from .stats import ThresholdPair, sliding_stats, statistic_T
from .trajectory import Segment

BROWNIAN = "brownian"
SUBDIFFUSIVE = "subdiffusive"
SUPERDIFFUSIVE = "superdiffusive"
UNDETERMINED = "undetermined"

# Segments with fewer points carry too little signal to test.
MIN_LABEL_POINTS = 10


def default_cluster_params(k):
    """Recommended cluster window and count threshold for window size k."""
    c = max(2, k // 2)
    return c, math.ceil(0.75 * c)


@dataclass(frozen=True)
class DetectionConfig:
    """Tuning parameters of the detection procedure.

    Defaults follow the recommendation c = k/2 (at least 2) and
    c_star = ceil(0.75 c).
    """

    k: int
    thresholds: ThresholdPair
    c: int = None
    c_star: int = None
    alpha: float = 0.05

    def __post_init__(self):
        if self.c is None:
            c, c_star = default_cluster_params(self.k)
            object.__setattr__(self, "c", c)
            if self.c_star is None:
                object.__setattr__(self, "c_star", c_star)
        elif self.c_star is None:
            # An explicit c keeps the recommended ratio.
            object.__setattr__(self, "c_star", math.ceil(0.75 * self.c))
        if self.k < 1:
            raise InvalidParam(f"window size must be >= 1, got {self.k}")
        if not 1 <= self.c_star <= self.c:
            raise InvalidParam(f"need 1 <= c_star <= c, got ({self.c_star}, {self.c})")
        if not 0 < self.alpha < 1:
            raise InvalidParam(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class Cluster:
    """Maximal contiguous run of indices covered by qualifying windows."""

    start: int
    end: int  # inclusive

    @property
    def indices(self):
        return range(self.start, self.end + 1)


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
    [m, m+l+c-1], so every length-c sub-window inside a cluster holds at
    least c_star potential change points and clusters have minimal size
    c. Returned clusters are maximal, disjoint and in index order, with
    indices offset by first_index.
    """
    nz = np.asarray(Q) != 0
    if nz.size < c:
        return []
    counts = np.add.accumulate(sliding_window_view(nz.astype(np.int64), c), axis=1)[:, -1]
    qualifies = counts >= c_star
    clusters = []
    cur_start = cur_end = None
    for m in map(int, np.flatnonzero(qualifies)):
        if cur_end is not None and m == cur_end + 1:
            cur_end = m
        else:
            if cur_end is not None:
                clusters.append(Cluster(first_index + cur_start, first_index + cur_end + c - 1))
            cur_start = cur_end = m
    if cur_end is not None:
        clusters.append(Cluster(first_index + cur_start, first_index + cur_end + c - 1))
    return clusters


def estimate_change_points(stats, clusters):
    """One change point per cluster: the index maximising |B_i - A_i|.

    Ties break to the smallest index.
    """
    gap = np.abs(stats.B - stats.A)
    points = []
    for cluster in clusters:
        lo = cluster.start - stats.first_index
        hi = cluster.end - stats.first_index + 1
        points.append(cluster.start + int(np.argmax(gap[lo:hi])))
    return points


def _as_lookup(quantiles):
    if callable(quantiles):
        return quantiles
    q1, q2 = quantiles
    return lambda n_steps: (q1, q2)


def _label_one(traj, lo, hi, lookup):
    if hi - lo + 1 < MIN_LABEL_POINTS:
        return SegmentLabel(lo, hi, UNDETERMINED, None)
    try:
        T = statistic_T(traj, Segment(lo, hi))
    except (NoMotion, TooShort):
        return SegmentLabel(lo, hi, UNDETERMINED, None)
    q1, q2 = lookup(hi - lo)
    if T < q1:
        label = SUBDIFFUSIVE
    elif T > q2:
        label = SUPERDIFFUSIVE
    else:
        label = BROWNIAN
    return SegmentLabel(lo, hi, label, float(T))


def label_segments(traj, change_points, quantiles):
    """Label every segment between consecutive change points.

    `quantiles` is either a fixed (q1, q2) pair or a callable mapping a
    segment's step count to its pair (quantiles depend on length).
    """
    lookup = _as_lookup(quantiles)
    bounds = [0] + list(change_points) + [traj.n_steps]
    return [
        _label_one(traj, bounds[j], bounds[j + 1], lookup) for j in range(len(bounds) - 1)
    ]


def merge_same_label(traj, change_points, labels, quantiles):
    """Drop change points whose flanking segments share a label.

    The fused segment is relabelled from its own statistic; repeats
    until all adjacent labels differ. Returns (points, labels).
    """
    lookup = _as_lookup(quantiles)
    points = list(change_points)
    labels = list(labels)
    j = 0
    while j < len(labels) - 1:
        if labels[j].label == labels[j + 1].label:
            fused = _label_one(traj, labels[j].start, labels[j + 1].end, lookup)
            labels[j : j + 2] = [fused]
            del points[j]
            j = max(j - 1, 0)
        else:
            j += 1
    return points, labels


def run_procedure(traj, config, labelling=False, quantiles=None):
    """Run the full detection procedure on one trajectory.

    Pure function of (trajectory, config): raw clusters, change points
    and (optionally) labels before and after the a-posteriori merge.
    """
    stats = sliding_stats(traj, config.k, config.thresholds)
    clusters = find_clusters(stats.Q, config.c, config.c_star, first_index=stats.first_index)
    change_points = estimate_change_points(stats, clusters)
    raw_labels = merged_points = merged_labels = None
    if labelling:
        if quantiles is None:
            raise InvalidParam("labelling requires segment quantiles")
        raw_labels = label_segments(traj, change_points, quantiles)
        merged_points, merged_labels = merge_same_label(traj, change_points, raw_labels, quantiles)
    return ChangePointReport(
        config=config,
        clusters=clusters,
        change_points=change_points,
        raw_labels=raw_labels,
        merged_change_points=merged_points,
        merged_labels=merged_labels,
        stats=stats,
    )


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
        doc["segments"] = [
            {"start": s.start, "end": s.end, "label": s.label, "T": s.T}
            for s in report.raw_labels
        ]
        doc["merged_change_points"] = list(report.merged_change_points)
        doc["merged_segments"] = [
            {"start": s.start, "end": s.end, "label": s.label, "T": s.T}
            for s in report.merged_labels
        ]
    return doc
