"""Sequential change-point detection along a trajectory.

Pipeline: sliding backward/forward statistics -> Q signal -> clusters of
potential change points -> one estimated change point per cluster
(argmax of |B - A|) -> optional a-posteriori segment labelling, which
deletes change points whose flanking segments share a label.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam, OutOfBounds
from .stats import REGIME_LABELS, SlidingStats, ThresholdPair, phi, sliding_stats
from .stats import _positions, _require_finite, _step_norms_sq, _unit_scaled
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
    indices offset by first_index; a 2-D Q gives one list per row.
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
        for r, m, stop in zip(rows[::2].tolist(), flips[::2].tolist(), flips[1::2].tolist()):
            clusters[r].append(Cluster(first_index + m, first_index + stop + c - 2))
    return clusters if np.ndim(Q) > 1 else clusters[0]


def estimate_change_points(stats, clusters):
    """One change point per cluster: the index maximising |B_i - A_i|.

    Ties break to the smallest index.
    """
    gap, i0 = np.abs(stats.B - stats.A), stats.first_index
    return [cl.start + int(np.argmax(gap[cl.start - i0 : cl.end - i0 + 1])) for cl in clusters]


def _as_lookup(quantiles):
    return quantiles if callable(quantiles) else lambda n_steps, pair=tuple(quantiles): pair


class _SegmentStats:
    """Statistic T of any segment of a stack, from one unit scaling and step-norm array per row.

    T equals statistic_T(traj, Segment(lo, hi)) bit for bit (power-of-two scaling is exact,
    math.fsum exactly rounded) unless a value goes subnormal under the row's scale but not
    under the segment's own: steps below 2**-500 of the row's largest.
    """

    def __init__(self, trajectories):
        pos, self.delta = _positions(list(trajectories))
        self.pos = _unit_scaled(pos)
        self.ssq = _step_norms_sq(self.pos)

    def label_one(self, row, lo, hi, lookup, excursion=None):
        """Label of segment [lo, hi] of a row; undetermined when too short or immobile."""
        total = math.fsum(self.ssq[row, lo:hi].tolist())  # exactly rounded, as in _sigma2
        if hi - lo + 1 < MIN_LABEL_POINTS or total == 0:
            return SegmentLabel(lo, hi, UNDETERMINED, None)
        if excursion is None:  # a fused segment, not one of the stacked pass
            disp = self.pos[row, lo + 1 : hi + 1] - self.pos[row, lo]
            excursion = np.sqrt(np.einsum("...i,...i->...", disp, disp)).max()
        n_steps, dim, delta = hi - lo, self.pos.shape[-1], self.delta
        T = float(excursion / math.sqrt(n_steps * delta * (total / (n_steps * dim * delta))))
        if not math.isfinite(T):
            _require_finite(T)
        return SegmentLabel(lo, hi, REGIME_LABELS[phi(T, ThresholdPair(*lookup(n_steps)))], T)

    def raw_labels(self, points, lookup):
        """Labels of the segments between each row's change points, one list per row."""
        n = self.pos.shape[1] - 1
        segs = [(r, lo, hi) for r, p in enumerate(points) for lo, hi in zip([0, *p], [*p, n])]
        row, lo, hi = np.array(segs).T
        if (hi < lo).any():
            raise OutOfBounds(f"change points must be non-decreasing within 0 .. {n}")
        # Raw segments tile steps 1 .. n of each row, so each point meets its own segment's
        # start; the appended 0 keeps the index of a zero-length last segment in range.
        starts = np.repeat(self.pos[row, lo], hi - lo, axis=0)
        disp = self.pos[:, 1:] - starts.reshape(len(points), n, -1)
        norms = np.append(np.sqrt(np.einsum("...i,...i->...", disp, disp)), 0.0)
        excursions = np.maximum.reduceat(norms, row * n + lo)
        labels = [[] for _ in points]
        for (r, a, b), excursion in zip(segs, excursions):
            labels[r].append(self.label_one(r, a, b, lookup, excursion))
        return labels

    def merge(self, row, change_points, labels, lookup):
        """merge_same_label on one row; fused segments are relabelled from the row's arrays."""
        points, labels = list(change_points), list(labels)
        j = 0
        while j < len(labels) - 1:
            if labels[j].label == labels[j + 1].label:
                fused = self.label_one(row, labels[j].start, labels[j + 1].end, lookup)
                labels[j : j + 2] = [fused]
                del points[j]
                j = max(j - 1, 0)
            else:
                j += 1
        return points, labels


def label_segments(traj, change_points, quantiles):
    """Label every segment between consecutive change points.

    `quantiles` is either a fixed (q1, q2) pair or a callable mapping a
    segment's step count to its pair (quantiles depend on length).
    Change points must be non-decreasing within 0 .. n.
    """
    return _SegmentStats([traj]).raw_labels([change_points], _as_lookup(quantiles))[0]


def merge_same_label(traj, change_points, labels, quantiles):
    """Drop change points whose flanking segments share a label.

    The fused segment is relabelled from its own statistic; repeats
    until all adjacent labels differ. Returns (points, labels).
    """
    return _SegmentStats([traj]).merge(0, change_points, labels, _as_lookup(quantiles))


def run_batch(trajectories, config, labelling=False, quantiles=None):
    """Run the full detection procedure on trajectories of one length and time step.

    One sliding pass and one clustering pass cover the whole batch, and
    one segment pass labels every row; change points are estimated and
    labels merged trajectory by trajectory. Report r equals
    run_procedure(trajectories[r], ...) exactly. An error in any
    trajectory raises for the whole batch.
    """
    if labelling and quantiles is None:
        raise InvalidParam("labelling requires segment quantiles")
    trajectories = list(trajectories)
    batch = sliding_stats(trajectories, config.k, config.thresholds)
    arrays = zip(batch.B, batch.A, batch.phi_B, batch.phi_A, batch.Q)
    stats = [SlidingStats(batch.k, batch.first_index, *row) for row in arrays]
    clusters = find_clusters(batch.Q, config.c, config.c_star, first_index=batch.first_index)
    points = [estimate_change_points(s, cl) for s, cl in zip(stats, clusters)]
    labels = [(None, None, None)] * len(stats)  # raw labels, merged points, merged labels
    if labelling:
        lookup, segments = _as_lookup(quantiles), _SegmentStats(trajectories)
        raw = enumerate(zip(points, segments.raw_labels(points, lookup)))
        labels = [(l, *segments.merge(r, p, l, lookup)) for r, (p, l) in raw]
    return [ChangePointReport(config, cl, p, *lab, s)
            for cl, p, lab, s in zip(clusters, points, labels, stats)]


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
