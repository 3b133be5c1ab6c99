"""Monte Carlo calibration of the detection cut-offs.

Cut-off pairs (gamma1, gamma2) are empirical quantiles, under the fully
Brownian null with sigma = 1 and delta = 1, of extremes of windowed
order statistics of d_i = min(B_i, A_i) and D_i = max(B_i, A_i). The
strict variant uses rank ceil(c_star/2) and controls the false-detection
probability conservatively; the relaxed variant uses rank c_star and is
the recommended default. A JSON cache keyed by the full calibration key
makes repeated runs free.
"""

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._version import __version__
from .detection import default_cluster_params, find_clusters
from .errors import CorruptCache, Degenerate, InvalidParam, IoFailure
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
            if not 1 <= self.c_star <= self.c:
                raise InvalidParam(f"need 1 <= c_star <= c, got ({self.c_star}, {self.c})")
            if self.c > self.n - 2 * self.k + 1:
                raise InvalidParam("cluster window c exceeds the statistic range")


def default_key(n, k, variant=RELAXED, alpha=0.05, replicates=10_001, seed=DEFAULT_SEED):
    c, c_star = default_cluster_params(k)
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
    ranks = {variant: _order_rank(variant, c, c_star) for variant in (STRICT, RELAXED) if window}
    # Each replicate's lower and upper sample: per rank q, (min_r s_r, max_r S_r); T twice.
    T, extremes = [], {q: ([], []) for q in ranks.values()}
    # One SegmentStats per stack feeds T and the windows; it goes before the windows are sorted.
    for segments in map(SegmentStats, replicate_stacks(_null(n), seed, replicates=replicates)):
        if segment:  # first, so its temporaries are freed before the window arrays exist
            T.append(statistic_T(segments))
        if window:
            B, A = backward_forward(segments, k)
            del segments
            d_sorted = np.sort(sliding_window_view(np.minimum(B, A), c, axis=-1), axis=-1)
            D_sorted = np.sort(sliding_window_view(np.maximum(B, A), c, axis=-1), axis=-1)
            for q, (minima, maxima) in extremes.items():
                minima.append(d_sorted[..., q - 1].min(axis=-1))
                maxima.append(D_sorted[..., c - q - 1].max(axis=-1))
    samples = {v: extremes[q] for v, q in ranks.items()} | ({SEGMENT_TEST: (T, T)} if segment else {})
    i_lo = _quantile_index(alpha / 2, replicates)
    i_hi = _quantile_index(1 - alpha / 2, replicates)
    return {
        variant: ThresholdPair(float(np.sort(np.concatenate(lo))[i_lo]),
                               float(np.sort(np.concatenate(hi))[i_hi]))
        for variant, (lo, hi) in samples.items()
    }


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
    """Persistent map from CalibrationKey to ThresholdPair (single JSON file)."""

    def __init__(self, path):
        self.path = path
        self.entries = {}
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("version") != CACHE_SCHEMA_VERSION:
                raise CorruptCache(f"schema version {doc.get('version')!r}")
            for entry in doc["entries"]:
                key = CalibrationKey(**entry["key"])
                self.entries[key] = ThresholdPair(entry["gamma1"], entry["gamma2"])
        except (CorruptCache, OSError, ValueError, KeyError, TypeError):
            # Corrupt or other-schema cache: move it aside so that the next
            # save cannot overwrite it, and recalibrate on demand.
            self.entries = {}
            try:
                os.replace(self.path, f"{self.path}.unreadable")
            except OSError:
                pass

    def save(self):
        doc = {
            "version": CACHE_SCHEMA_VERSION,
            "library_version": __version__,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "entries": [
                {"key": vars(key), "gamma1": pair.gamma1, "gamma2": pair.gamma2}
                for key, pair in self.entries.items()
            ],
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
            os.replace(tmp, self.path)
        except OSError as exc:
            raise IoFailure(f"cannot write cache {self.path}: {exc}") from exc

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, pair):
        self.entries[key] = pair


def _as_table(store):
    return store if store is None or isinstance(store, ThresholdTable) else ThresholdTable(store)


def cache_get_or_calibrate(store, key):
    """Cached calibration: exact key hit returns immediately, miss calibrates.

    `store` is a ThresholdTable, a path to one, or None to calibrate
    without persisting. A miss for a strict or relaxed key persists both
    variants and, from the same null simulation, the segment test at the
    same n, alpha, replicates and seed, unless it is stored already or n
    is off SEGMENT_LENGTH_GRID, where SegmentQuantiles never asks for it.
    """
    table = _as_table(store)
    hit = table.get(key) if table is not None else None
    if hit is not None:
        return hit
    if key.variant == SEGMENT_TEST:
        pairs = {key: calibrate_segment_test(key.n, key.alpha, key.replicates, key.seed)}
    else:
        sibling = segment_test_key(key.n, key.alpha, key.replicates, key.seed)
        segment = table is not None and key.n in SEGMENT_LENGTH_GRID and sibling not in table.entries
        found = _null_pass(key.n, key.alpha, key.replicates, key.seed,
                           window=(key.k, key.c, key.c_star), segment=segment)
        pairs = {sibling if variant == SEGMENT_TEST else replace(key, variant=variant): p
                 for variant, p in found.items()}
    if table is not None:
        for stored_key, p in pairs.items():
            table.put(stored_key, p)
        table.save()
    return pairs[key]


class SegmentQuantiles:
    """Length-dependent labelling quantiles on a fixed grid of lengths.

    Quantiles of the whole-segment statistic drift slowly with segment
    length, so arbitrary lengths snap to the nearest grid entry.
    """

    def __init__(self, store=None, alpha=0.05, replicates=10_001, seed=DEFAULT_SEED):
        self.table = _as_table(store)
        self.alpha = alpha
        self.replicates = replicates
        self.seed = seed
        self._memo = {}  # grid length -> pair
        self._by_steps = {}  # any step count -> its grid length's pair

    def __call__(self, n_steps):
        if n_steps not in self._by_steps:
            length = min(SEGMENT_LENGTH_GRID, key=lambda g: (abs(g - n_steps), g))
            if length not in self._memo:
                key = segment_test_key(length, self.alpha, self.replicates, self.seed)
                pair = cache_get_or_calibrate(self.table, key)
                self._memo[length] = (pair.gamma1, pair.gamma2)
            self._by_steps[n_steps] = self._memo[length]
        return self._by_steps[n_steps]


def estimate_type1_error(n, k, c, c_star, thresholds, replicates, seed):
    """Fraction of fully Brownian trajectories with a detected change point.

    Returns (proportion, binomial standard error).
    """
    if replicates < 500:
        raise InvalidParam(f"need at least 500 replicates, got {replicates}")
    hits = 0
    for stack in replicate_stacks(_null(n), seed, replicates=replicates):
        Q = sliding_stats(stack, k, thresholds).Q
        hits += sum(map(bool, find_clusters(Q, c, c_star)))
    p = hits / replicates
    se = math.sqrt(p * (1 - p) / replicates)
    return p, se
