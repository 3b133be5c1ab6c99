"""Sequential change-point detection along a trajectory.

Pipeline: sliding backward/forward statistics -> Q signal -> clusters of
potential change points -> one estimated change point per cluster
(argmax of |B - A|) -> optional a-posteriori segment labelling, which
deletes change points whose flanking segments share a label.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam, NoMotion, TooShort
from .stats import REGIME_LABELS, SlidingStats, ThresholdPair, phi, sliding_stats, statistic_T
from .stats import BROWNIAN, SUBDIFFUSIVE, SUPERDIFFUSIVE  # re-exported segment labels
from .trajectory import Segment

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
        if self.k < 1:
            raise InvalidParam(f"window size must be >= 1, got {self.k}")
        if not 1 <= self.c_star <= self.c:
            raise InvalidParam(f"need 1 <= c_star <= c, got ({self.c_star}, {self.c})")


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
    # Nonzero count of every length-c window, from one cumulative sum.
    cs = np.concatenate(([0], np.cumsum(nz)))
    padded = np.concatenate(([False], cs[c:] - cs[:-c] >= c_star, [False]))
    # A run of qualifying starts m .. stop - 1 flips padded at m and at stop.
    flips = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return [
        Cluster(first_index + m, first_index + stop + c - 2)
        for m, stop in zip(flips[::2], flips[1::2])
    ]


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
    label = REGIME_LABELS[int(phi(T, ThresholdPair(*lookup(hi - lo))))]
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


def run_batch(trajectories, config, labelling=False, quantiles=None):
    """Run the full detection procedure on trajectories of one length and time step.

    One sliding pass covers the whole batch; clusters, change points and
    labels are then found trajectory by trajectory. Report r equals
    run_procedure(trajectories[r], ...) exactly. An error in any
    trajectory raises for the whole batch.
    """
    if labelling and quantiles is None:
        raise InvalidParam("labelling requires segment quantiles")
    trajectories = list(trajectories)
    batch = sliding_stats(trajectories, config.k, config.thresholds)
    reports = []
    for r, traj in enumerate(trajectories):
        stats = SlidingStats(
            batch.k, batch.first_index, batch.B[r], batch.A[r], batch.phi_B[r], batch.phi_A[r],
            batch.Q[r],
        )
        clusters = find_clusters(stats.Q, config.c, config.c_star, first_index=stats.first_index)
        change_points = estimate_change_points(stats, clusters)
        raw_labels = merged_points = merged_labels = None
        if labelling:
            raw_labels = label_segments(traj, change_points, quantiles)
            merged_points, merged_labels = merge_same_label(
                traj, change_points, raw_labels, quantiles
            )
        reports.append(ChangePointReport(
            config=config, clusters=clusters, change_points=change_points,
            raw_labels=raw_labels, merged_change_points=merged_points,
            merged_labels=merged_labels, stats=stats,
        ))
    return reports


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
