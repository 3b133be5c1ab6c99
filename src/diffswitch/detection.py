"""Sequential change-point detection along a trajectory.

Pipeline: sliding backward/forward statistics -> Q signal -> clusters of
potential change points -> one estimated change point per cluster
(argmax of |B - A|) -> optional a-posteriori segment labelling, which
deletes change points whose flanking segments share a label.
"""

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .errors import InvalidParam
from .stats import REGIME_LABELS, SegmentStats, SlidingStats, ThresholdPair, phi, sliding_stats
from .stats import BROWNIAN, SUBDIFFUSIVE, SUPERDIFFUSIVE  # re-exported segment labels

UNDETERMINED = "undetermined"
LABELS = (*REGIME_LABELS, UNDETERMINED)  # indexed by label codes: phi's codes, then UNDETERMINED

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


def _by_row(ends, items):
    """Items in row order, cut into one list per row given where each row's items end."""
    return [items[a:b] for a, b in zip([0, *ends], ends)]


def _clusters(Q, c, c_star, first_index=0):
    """(row, start, end) arrays of the clusters of every row of a 2-D Q, in row then index order."""
    nz = Q != 0
    rows, width = nz.shape
    # Nonzero count of every length-c window, from one cumulative sum per row.
    cs = np.zeros((rows, width + 1), dtype=np.intp)
    nz.cumsum(axis=1, out=cs[:, 1:])
    padded = np.zeros((rows, max(width - c + 1, 0) + 2), dtype=bool)
    padded[:, 1:-1] = cs[:, c:] - cs[:, :-c] >= c_star
    # A run of qualifying starts m .. stop - 1 flips its padded row at m and at stop.
    row, flips = np.divmod(np.flatnonzero(padded[:, 1:] != padded[:, :-1]), padded.shape[1] - 1)
    row, start, end = row[::2], flips[::2], flips[1::2] + (c - 2)
    # End before the next cluster, counted from this row: one in a later row starts past width.
    np.minimum(end[:-1], start[1:] + (row[1:] - row[:-1]) * width - 1, out=end[:-1])
    return row, start + first_index, end + first_index


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
    row, start, end = _clusters(np.atleast_2d(Q), c, c_star, first_index)
    ends = np.bincount(row, minlength=len(np.atleast_2d(Q))).cumsum().tolist()
    clusters = _by_row(ends, list(map(Cluster, start.tolist(), end.tolist())))
    return clusters if np.ndim(Q) > 1 else clusters[0]


def _change_points(stats, clusters):
    """Per cluster (row, start, end) of one row or a stack, the first argmax of |B - A| in it."""
    row, start, end = clusters
    gap = np.abs(stats.B - stats.A).reshape(-1)
    offset = row * stats.B.shape[-1] - stats.first_index  # a cluster's flat index less its index
    size = end - start + 1
    first = size.cumsum() - size
    index = (start + offset - first).repeat(size)
    index += np.arange(len(index))
    values = gap[index]
    top = values == np.maximum.reduceat(values, first).repeat(size)
    return np.minimum.reduceat(np.where(top, index, gap.size), first) - offset


def estimate_change_points(stats, clusters):
    """One change point per cluster: the index maximising |B_i - A_i|.

    Ties break to the smallest index.
    """
    start, end = np.array([(cl.start, cl.end) for cl in clusters], dtype=np.intp).reshape(-1, 2).T
    return _change_points(stats, (0, start, end)).tolist()


_pair = lru_cache(maxsize=256)(ThresholdPair)  # validated pairs by value, for every lookup


def label_lookup(quantiles):
    """Step count -> its (q1, q2) as a ThresholdPair: asked for once per step count, validated once."""
    pairs = quantiles if callable(quantiles) else lambda n_steps: quantiles
    return cache(lambda n_steps: _pair(*pairs(n_steps)))


def _label(lo, hi, T, total, lookup):
    """Segment [lo, hi] labelled by phi's step function on T; undetermined if short or still."""
    if hi - lo + 1 < MIN_LABEL_POINTS or total == 0:
        return SegmentLabel(lo, hi, UNDETERMINED, None)
    if not math.isfinite(T):
        raise InvalidParam("statistic is not finite; positions span too wide a range")
    return SegmentLabel(lo, hi, REGIME_LABELS[phi(T, lookup(hi - lo))], T)


def _segment_codes(segments, bounds, lookup):
    """(code, T) arrays of segments (row, lo, hi) that tile every row, by _label's rule; see LABELS."""
    T, totals = segments.tiled(*bounds)
    steps = bounds[2] - bounds[1]
    labelled = (steps >= MIN_LABEL_POINTS - 1) & (totals != 0)
    values = T[labelled]
    if not np.isfinite(values).all():
        raise InvalidParam("statistic is not finite; positions span too wide a range")
    pairs = [lookup(s) for s in steps[labelled].tolist()]
    codes = np.where(labelled, 0, len(REGIME_LABELS))
    gammas = np.array([p.gamma1 for p in pairs]), np.array([p.gamma2 for p in pairs])
    codes[labelled] = phi(values, gammas)
    return codes, T


def _segment_labels(lo, hi, codes, T):
    """SegmentLabel objects of segment arrays; an undetermined one has T None."""
    return [SegmentLabel(a, b, LABELS[c], None if c == len(REGIME_LABELS) else t)
            for a, b, c, t in zip(lo.tolist(), hi.tolist(), codes.tolist(), T.tolist())]


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
    segments = SegmentStats(traj)
    bounds = segments.bounds([change_points])
    return _segment_labels(*bounds[1:], *_segment_codes(segments, bounds, label_lookup(quantiles)))


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
    """Detection up to the raw labels on every row of a SegmentStats, with no merge, as arrays.

    Returns (stats, clusters, points, labels): a SlidingStats of (rows, m)
    arrays, (row, start, end) arrays in row then index order, one change
    point per cluster and, given a label_lookup, (row, lo, hi, code, T)
    arrays of the raw segments. An error in any row raises for the whole stack.
    """
    stats = sliding_stats(segments, config.k, config.thresholds)
    if config.c > stats.Q.shape[-1]:
        raise InvalidParam("cluster window c exceeds the statistic range")
    clusters = _clusters(stats.Q, config.c, config.c_star, stats.first_index)
    points = _change_points(stats, clusters)
    if lookup is None:
        return stats, clusters, points, None
    # A row's segments end at its change points, all in k .. n - k, and at n; each starts where
    # the one before ends, or at 0 = n % n.
    hi = np.full(len(points) + len(stats.Q), segments.n)
    hi[np.arange(len(points)) + clusters[0]] = points
    last = hi == segments.n
    bounds = last.cumsum() - last, np.concatenate(([0], hi[:-1] % segments.n)), hi
    return stats, clusters, points, (*bounds, *_segment_codes(segments, bounds, lookup))


def run_batch(trajectories, config, labelling=False, quantiles=None):
    """Run the full detection procedure on trajectories of one length and time step.

    raw_batch on one SegmentStats of the whole batch, its arrays cut into
    one report per trajectory, with that row's labels merged. Report r
    equals run_procedure(trajectories[r], ...) exactly. An error in any
    trajectory raises for the whole batch.
    """
    if labelling and quantiles is None:
        raise InvalidParam("labelling requires segment quantiles")
    segments = SegmentStats(list(trajectories))
    lookup = label_lookup(quantiles) if labelling else None
    stats, (row, start, end), points, labels = raw_batch(segments, config, lookup)
    ends = np.bincount(row, minlength=len(stats.Q)).cumsum().tolist()  # of each row's clusters
    clusters = _by_row(ends, list(map(Cluster, start.tolist(), end.tolist())))
    points = _by_row(ends, points.tolist())
    raw = ([None] * len(ends) if labels is None  # row r has r + 1 more segments than clusters so far
           else _by_row([e + r + 1 for r, e in enumerate(ends)], _segment_labels(*labels[1:])))
    merged = [(None, None) if l is None else _merge(segments, r, p, l, lookup)
              for r, (p, l) in enumerate(zip(points, raw))]
    return [ChangePointReport(config, cl, p, l, *m, SlidingStats(stats.k, *s))
            for cl, p, l, m, s in zip(clusters, points, raw, merged, zip(stats.B, stats.A, stats.Q))]


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
