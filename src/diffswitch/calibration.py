"""Monte Carlo calibration of the detection cut-offs.

Cut-off pairs (gamma1, gamma2) are empirical quantiles, under the fully
Brownian null with sigma = 1 and delta = 1, of extremes of windowed
order statistics of d_i = min(B_i, A_i) and D_i = max(B_i, A_i). The
strict variant uses rank ceil(c_star/2) and controls the false-detection
probability conservatively; the relaxed variant uses rank c_star and is
the recommended default. A JSON cache keyed by the full calibration key
makes repeated runs free.
"""

import bisect
import fcntl
import functools
import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .detection import DetectionConfig, default_cluster_params, find_clusters
from .errors import Degenerate, DiffswitchError, InvalidParam, IoFailure
from .rng import DEFAULT_SEED
from .simulators import BROWNIAN, RegimeSpec, ScenarioSpec, replicate_stacks
from .stats import SegmentStats, ThresholdPair, backward_forward, sliding_stats, statistic_T

STRICT = "strict"
RELAXED = "relaxed"
SEGMENT_TEST = "segment_test"

CACHE_SCHEMA_VERSION = 1

# Segment lengths (in steps) at which labelling quantiles are
# precalibrated; arbitrary lengths snap to the nearest entry.
SEGMENT_LENGTH_GRID = (25, 50, 100, 150, 200, 300, 500)
_GRID_MIDPOINTS = [(a + b) / 2 for a, b in zip(SEGMENT_LENGTH_GRID, SEGMENT_LENGTH_GRID[1:])]


@dataclass(frozen=True)
class CalibrationKey:
    """Everything that determines a calibrated threshold pair."""

    n: int
    k: int
    c: int
    c_star: int
    alpha: float
    variant: str
    replicates: int
    seed: int

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise InvalidParam(f"alpha must be in (0, 1), got {self.alpha}")
        if self.variant not in (STRICT, RELAXED, SEGMENT_TEST):
            raise InvalidParam(f"unknown variant {self.variant!r}")
        if self.variant != SEGMENT_TEST:
            DetectionConfig(self.k, None, self.c, self.c_star)  # integers, k >= 1, 1 <= c_star <= c
            if self.c > self.n - 2 * self.k + 1:
                raise InvalidParam("cluster window c exceeds the statistic range")


def default_key(n, k, variant=RELAXED, alpha=0.05, replicates=10_001, seed=DEFAULT_SEED,
                c=None, c_star=None):
    """The key of a window variant; unset c and c_star are resolved by default_cluster_params."""
    c, c_star = default_cluster_params(k, c, c_star)
    return CalibrationKey(
        n=n, k=k, c=c, c_star=c_star, alpha=alpha, variant=variant,
        replicates=replicates, seed=seed,
    )


def _order_rank(variant, c, c_star):
    """1-based rank q of the d order statistic; the D side uses c - q."""
    q = math.ceil(c_star / 2) if variant == STRICT else c_star
    if q < 1:
        raise Degenerate(f"order-statistic rank {q} < 1")
    if c - q < 1:
        raise Degenerate(f"complementary rank c - q = {c - q} < 1 (c_star too close to c)")
    return q


def _quantile_index(p, n):
    """Sorted-array index (0-based) for the empirical p-quantile: floor(p*N), 1-based, clamped."""
    return min(max(int(p * n), 1), n) - 1


def _null(n):
    """The fully Brownian null of the calibrations: n planar steps, sigma = delta = 1."""
    return ScenarioSpec(n, (), (RegimeSpec(BROWNIAN),))


def _window_order_min(x, c, q):
    """Per row of x, the least q-th smallest value of its length-c windows.

    Equals np.sort(sliding_window_view(x, c, axis=-1), axis=-1)[..., q - 1].min(-1)
    bit for bit, without that (..., m - c + 1, c) copy: it bisects each
    row's sorted values for the least v at which _window_holds, so the
    answer is an element of the row, even with ties. q broadcasts against
    the rows of x; memory is O(rows * m) for any c.
    """
    shape = np.broadcast_shapes(x.shape[:-1], np.shape(q))
    ordered = np.sort(np.broadcast_to(x, shape + x.shape[-1:]), axis=-1)
    # Bounds: the row's q-th smallest and its (q + m - c)-th smallest, as indices into ordered.
    lo = np.broadcast_to(q - 1, shape)
    hi = lo + x.shape[-1] - c
    while (lo < hi).any():
        mid = (lo + hi) // 2
        found = _window_holds(x, c, np.take_along_axis(ordered, mid[..., None], -1), q)
        hi = np.where(found, mid, hi)
        lo = np.where(found, lo, mid + 1)
    return np.take_along_axis(ordered, lo[..., None], -1)[..., 0]


def _window_holds(x, c, v, q):
    """Per row of x, whether some length-c window holds at least q values <= v.

    v broadcasts against x and q against the rows. The counts are sliding sums of the <=
    indicator, in a dtype that holds c.
    """
    shape = np.broadcast_shapes(x.shape, np.shape(v))
    below = np.zeros(math.prod(shape) + c - 1, np.min_scalar_type(c))
    np.less_equal(x, v, out=below[:below.size - c + 1].reshape(shape), casting="unsafe")
    return _window_sums(below, c).reshape(shape)[..., :shape[-1] - c + 1].max(axis=-1) >= q


def _window_sums(x, c):
    """Sums of the length-c windows of a 1-D x, by binary doubling: about log2(c) adds."""
    starts = len(x) - c + 1
    total, offset, power, width = None, 0, x, 1  # power: sums of the length-width windows
    while True:
        if c & width:
            piece = power[offset:offset + starts]
            total = piece if total is None else total + piece
            offset += width
        width *= 2
        if width > c:
            return total
        half = width // 2
        power = power[:-half] + power[half:]


def _null_pass(n, alpha, replicates, seed, window=None, segment=False):
    """{variant: ThresholdPair} from one simulation of the null at n.

    Each stack feeds every requested reduction: with `window` = (k, c,
    c_star), the strict and relaxed windowed order-statistic extremes;
    with `segment`, the SEGMENT_TEST whole-row statistic T.
    """
    if not 0 < alpha < 1:
        raise InvalidParam(f"alpha must be in (0, 1), got {alpha}")
    if replicates < 1000:
        raise InvalidParam(f"need at least 1000 replicates, got {replicates}")
    k, c, c_star = window or (None, None, None)
    ranks = [_order_rank(variant, c, c_star) for variant in (STRICT, RELAXED)] if window else []
    i_lo, i_hi = (_quantile_index(p, replicates) for p in (alpha / 2, 1 - alpha / 2))
    # d = min(B, A) at each rank q, and -D at q + 1: the max over windows of D's (c - q)-th
    # smallest is minus the min over windows of -D's (q + 1)-th smallest. Each (side, rank) pool
    # keeps the least values so far up to the index read: a replicate above that cannot move it.
    side_ranks = np.array([ranks, [q + 1 for q in ranks]], int)[..., None]
    reads = np.array([i_lo, replicates - 1 - i_hi])[:, None, None]
    pools, T = np.full((2, len(ranks), reads.max() + 1), np.inf), []
    # One SegmentStats per stack feeds T and the windows; it goes before the window pass.
    for segments in map(SegmentStats, replicate_stacks(_null(n), seed, replicates=replicates)):
        if segment:  # first, so its temporaries are freed before the window pass
            T.append(statistic_T(segments))
        if window:
            B, A = backward_forward(segments, k)
            del segments
            sides = np.stack([np.minimum(B, A), -np.maximum(B, A)])
            tau = np.take_along_axis(pools, reads, axis=-1)[..., None]
            side, rank, row = np.nonzero(_window_holds(sides[:, None], c, tau, side_ranks))
            found = np.full(pools.shape[:2] + (len(B),), np.inf)
            found[side, rank, row] = _window_order_min(sides[side, row], c, side_ranks[side, rank, 0])
            pools = np.sort(np.concatenate([pools, found], axis=-1))[..., :pools.shape[-1]]
    low, high = np.take_along_axis(pools, reads, axis=-1)[..., 0].tolist()
    T = np.sort(np.concatenate(T)) if segment else None
    return ({v: ThresholdPair(lo, -hi) for v, lo, hi in zip((STRICT, RELAXED), low, high)}
            | ({SEGMENT_TEST: ThresholdPair(float(T[i_lo]), float(T[i_hi]))} if segment else {}))


def calibrate_both(n, k, c, c_star, alpha, replicates, seed):
    """Calibrate strict and relaxed pairs from one shared replicate set.

    Returns {variant: ThresholdPair}. The two variants differ only in
    the order-statistic rank, so both come from the same simulations and
    the ordering gamma1_strict <= gamma1_relaxed, gamma2_strict >=
    gamma2_relaxed holds deterministically.
    """
    return _null_pass(n, alpha, replicates, seed, window=(k, c, c_star))


def calibrate_segment_test(n, alpha, replicates, seed):
    """Quantiles (q1, q2) of the whole-segment statistic under the null.

    Used for a-posteriori segment labelling: subdiffusive below q1,
    superdiffusive above q2, Brownian in between.
    """
    return _null_pass(n, alpha, replicates, seed, segment=True)[SEGMENT_TEST]


def segment_test_key(n, alpha=0.05, replicates=10_001, seed=DEFAULT_SEED):
    return CalibrationKey(
        n=n, k=0, c=0, c_star=0, alpha=alpha, variant=SEGMENT_TEST,
        replicates=replicates, seed=seed,
    )


class ThresholdTable:
    """CalibrationKey -> ThresholdPair, kept in one JSON file, or only in memory if path is None."""

    def __init__(self, path=None):
        self.path = path
        self.entries = {}
        self._lock = threading.Lock()  # held by put and all of save, so threads may share a table
        if path is not None:
            self._load()

    def _load(self):
        """Add the file's entries that the table lacks; the table's own win on equal keys."""
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("version") != CACHE_SCHEMA_VERSION:
                raise ValueError(f"schema version {doc.get('version')!r}")
            found = {CalibrationKey(**entry["key"]): ThresholdPair(entry["gamma1"], entry["gamma2"])
                     for entry in doc["entries"]}
        except (DiffswitchError, OSError, ValueError, KeyError, TypeError, AttributeError):
            # Unreadable, invalid or other-schema cache: move it aside so that
            # the next save cannot overwrite it, and recalibrate on demand.
            try:
                os.replace(self.path, f"{self.path}.unreadable")
            except OSError:
                pass
            return
        for key, pair in found.items():
            self.entries.setdefault(key, pair)

    def save(self):
        """Write the table merged with the file under an exclusive flock, so processes lose no entries.

        The lock is on the directory, which unlike the file keeps its inode when the file is replaced.
        """
        if self.path is None:
            return
        with self._lock:
            directory = os.path.dirname(os.path.abspath(self.path))
            try:
                os.makedirs(directory, exist_ok=True)
                held = os.open(directory, os.O_RDONLY)
                try:
                    fcntl.flock(held, fcntl.LOCK_EX)
                    self._load()
                    doc = {
                        "version": CACHE_SCHEMA_VERSION,
                        "library_version": __version__,
                        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                        "entries": [
                            {"key": vars(key), "gamma1": pair.gamma1, "gamma2": pair.gamma2}
                            for key, pair in self.entries.items()
                        ],
                    }
                    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh, indent=2)
                    os.replace(tmp, self.path)
                finally:
                    os.close(held)  # releases the lock
            except OSError as exc:
                raise IoFailure(f"cannot write cache {self.path}: {exc}") from exc

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, pair):
        with self._lock:
            self.entries[key] = pair


def _as_table(store):
    return store if isinstance(store, ThresholdTable) else ThresholdTable(store)


def cache_get_or_calibrate(store, key):
    """Cached calibration: exact key hit returns immediately, miss calibrates.

    `store` is a ThresholdTable, a path to one, or None for one in memory.
    A miss for a strict or relaxed key stores both variants and, if the
    table has a file, from the same null simulation the segment test at
    the same n, alpha, replicates and seed, unless it is stored already or
    n is off SEGMENT_LENGTH_GRID, where SegmentQuantiles never asks for it.
    """
    table = _as_table(store)
    hit = table.get(key)
    if hit is not None:
        return hit
    window = None if key.variant == SEGMENT_TEST else (key.k, key.c, key.c_star)
    segment_key = (key if window is None
                   else segment_test_key(key.n, key.alpha, key.replicates, key.seed))
    segment = window is None or (table.path is not None and key.n in SEGMENT_LENGTH_GRID
                                 and segment_key not in table.entries)
    found = _null_pass(key.n, key.alpha, key.replicates, key.seed, window=window, segment=segment)
    for variant, pair in found.items():
        table.put(segment_key if variant == SEGMENT_TEST else replace(key, variant=variant), pair)
    table.save()
    return found[key.variant]


def grid_length(n_steps):
    """The SEGMENT_LENGTH_GRID entry nearest to n_steps; a tie goes to the shorter one."""
    return SEGMENT_LENGTH_GRID[bisect.bisect_left(_GRID_MIDPOINTS, n_steps)]


class SegmentQuantiles:
    """Length-dependent labelling quantiles on a fixed grid of lengths.

    Quantiles of the whole-segment statistic drift slowly with segment
    length, so arbitrary lengths snap to the nearest grid entry.
    """

    def __init__(self, store=None, alpha=0.05, replicates=10_001, seed=DEFAULT_SEED):
        self.table = _as_table(store)
        self._key = functools.partial(segment_test_key, alpha=alpha, replicates=replicates, seed=seed)
        self._by_length = {}  # grid length -> its (q1, q2)

    def __call__(self, n_steps):
        length = grid_length(n_steps)
        if length not in self._by_length:
            pair = cache_get_or_calibrate(self.table, self._key(length))
            self._by_length[length] = (pair.gamma1, pair.gamma2)
        return self._by_length[length]


def estimate_type1_error(n, k, c, c_star, thresholds, replicates, seed):
    """Fraction of fully Brownian trajectories with a detected change point.

    Returns (proportion, binomial standard error).
    """
    if replicates < 500:
        raise InvalidParam(f"need at least 500 replicates, got {replicates}")
    # CalibrationKey's checks (any alpha) of k, c and c_star against n.
    CalibrationKey(n, k, c, c_star, 0.05, RELAXED, replicates, seed)
    hits = 0
    for stack in replicate_stacks(_null(n), seed, replicates=replicates):
        Q = sliding_stats(stack, k, thresholds).Q
        hits += sum(map(bool, find_clusters(Q, c, c_star)))
    p = hits / replicates
    se = math.sqrt(p * (1 - p) / replicates)
    return p, se
