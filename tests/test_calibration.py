import functools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from diffswitch import (
    CalibrationKey,
    SegmentQuantiles,
    ThresholdPair,
    ThresholdTable,
    cache_get_or_calibrate,
    calibrate_segment_test,
    default_key,
    estimate_type1_error,
    gen_brownian,
    statistic_T,
)
from diffswitch import calibration, simulators, stats
from diffswitch.calibration import (
    RELAXED,
    SEGMENT_LENGTH_GRID,
    SEGMENT_TEST,
    STRICT,
    _order_rank,
    _quantile_index,
    _window_order_min,
    calibrate_both,
    default_cluster_params,
    grid_length,
    segment_test_key,
)
from diffswitch.errors import Degenerate, InvalidParam
from diffswitch.rng import DEFAULT_SEED, replicate_rng
from diffswitch.trajectory import TimeGrid

# Small but honest replicate counts keep the unit suite fast; the
# acceptance suite re-derives published values at full size.
REPS = 1000

# Run as `python -c SAVING_PROCESS path first replicates`: reads the table at path, says it is
# ready, waits for the go file, then puts and saves keys first .. first + 49 one at a time.
SAVING_PROCESS = """
import os, sys, time
from diffswitch.calibration import ThresholdTable, segment_test_key
from diffswitch.stats import ThresholdPair
path, first, replicates = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
folder = os.path.dirname(path)
table = ThresholdTable(path)
open(os.path.join(folder, f"ready{first}"), "w").close()
while not os.path.exists(os.path.join(folder, "go")):
    time.sleep(0.001)
for seed in range(first, first + 50):
    table.put(segment_test_key(25, replicates=replicates, seed=seed), ThresholdPair(0.5, 3.0))
    table.save()
"""


class TestDefaults:
    def test_cluster_params(self):
        assert default_cluster_params(30) == (15, 12)
        assert default_cluster_params(20) == (10, 8)
        assert default_cluster_params(4) == (2, 2)
        assert default_cluster_params(2) == (2, 2)

    def test_default_key(self):
        key = default_key(300, 30)
        assert (key.c, key.c_star) == (15, 12)
        assert key.variant == RELAXED
        assert key.replicates == 10_001

    def test_key_validation(self):
        with pytest.raises(InvalidParam):
            default_key(300, 30, alpha=1.5)
        with pytest.raises(InvalidParam):
            CalibrationKey(n=300, k=30, c=15, c_star=16, alpha=0.05,
                           variant=RELAXED, replicates=1000, seed=1)
        with pytest.raises(InvalidParam):
            CalibrationKey(n=300, k=30, c=15, c_star=12, alpha=0.05,
                           variant="loose", replicates=1000, seed=1)
        with pytest.raises(InvalidParam):
            # c larger than the number of sliding-statistic indices.
            CalibrationKey(n=70, k=30, c=15, c_star=12, alpha=0.05,
                           variant=RELAXED, replicates=1000, seed=1)

    @pytest.mark.parametrize("c, c_star, expected", [
        (None, None, (15, 12)), (20, None, (20, 15)), (None, 10, (15, 10)), (20, 9, (20, 9)),
    ])
    def test_default_key_resolves_cluster_params(self, c, c_star, expected):
        key = default_key(300, 30, c=c, c_star=c_star)
        assert (key.c, key.c_star) == expected

    def test_hand_edited_non_integer_entry_is_set_aside(self, tmp_path):
        key = vars(default_key(300, 30)) | {"k": 30.0}
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 1, "entries": [
            {"key": key, "gamma1": 0.74, "gamma2": 3.26}]}))
        assert ThresholdTable(path).entries == {}
        assert (tmp_path / "cache.json.unreadable").exists()


class TestOrderRank:
    def test_strict_halves(self):
        assert _order_rank(STRICT, 15, 12) == 6
        assert _order_rank(RELAXED, 15, 12) == 12

    def test_degenerate_when_rank_meets_c(self):
        with pytest.raises(Degenerate):
            _order_rank(RELAXED, 12, 12)


class TestQuantileIndex:
    def test_floor_one_based_clamped(self):
        assert _quantile_index(0.025, 10_001) == 249  # floor(250.025) -> rank 250
        assert _quantile_index(0.975, 10_001) == 9749
        assert _quantile_index(0.0001, 100) == 0  # clamps to rank 1
        assert _quantile_index(0.9999, 100) == 98  # floor(99.99) -> rank 99


@st.composite
def window_cases(draw):
    """(x, c, q, q2): rows of x, a window length and two ranks 1 <= q, q2 <= c - 1."""
    m = draw(st.integers(2, 40))
    c = draw(st.sampled_from([2, m]) | st.integers(2, m))
    q, q2 = (draw(st.sampled_from([1, c - 1]) | st.integers(1, c - 1)) for _ in range(2))
    rows = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(-100, 100), min_size=rows * m, max_size=rows * m))
    # Rounding to a few levels forces ties; + 0.0 folds -0.0 into 0.0, which sorts as its tie.
    decimals = draw(st.sampled_from([-2, -1, 0, 2, None]))
    x = np.array(values).reshape(rows, m)
    return (x if decimals is None else np.round(x, decimals)) + 0.0, c, q, q2


class TestWindowOrderMin:
    """The counting bisection against sorting every window, which it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(window_cases())
    def test_equals_sorting_every_window(self, case):
        x, c, q, q2 = case
        windows = np.sort(sliding_window_view(x, c, axis=-1), axis=-1)
        low = _window_order_min(x, c, np.array([[q], [q2]]))
        # The D side as _null_pass reads it: rank c - q of x through rank q + 1 of -x.
        high = -_window_order_min(-x, c, q + 1)
        for rank, got in ((q, low[0]), (q2, low[1])):
            assert got.tobytes() == windows[..., rank - 1].min(axis=-1).tobytes()
        assert high.tobytes() == windows[..., c - q - 1].max(axis=-1).tobytes()

    @pytest.mark.parametrize("c, q", [(15, 12), (150, 113)])
    def test_memory_does_not_grow_with_the_window(self, c, q):
        x = np.random.default_rng(5).gamma(2.0, size=(32, 49_401))
        tracemalloc.start()
        try:
            _window_order_min(x, c, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.size * 8


@functools.cache
def every_extreme(n, k, c, c_star, replicates, seed):
    """{q: (lows, highs)}: each replicate's window extremes at rank q, by sorting every window."""
    out = {}
    for q in {_order_rank(STRICT, c, c_star), _order_rank(RELAXED, c, c_star)}:
        lows, highs = [], []
        for stack in simulators.replicate_stacks(calibration._null(n), seed, replicates=replicates):
            B, A = stats.backward_forward(stack, k)
            lows.append(np.sort(sliding_window_view(np.minimum(B, A), c, axis=-1))[..., q - 1].min(-1))
            highs.append(np.sort(sliding_window_view(np.maximum(B, A), c, axis=-1))[..., c - q - 1].max(-1))
        out[q] = np.concatenate(lows), np.concatenate(highs)
    return out


class TestTailPools:
    """_null_pass reduces only the replicates that can reach the order statistics it reads."""

    @pytest.mark.parametrize("window", [(150, 20, 10, 8), (100, 10, 5, 1)])
    @pytest.mark.parametrize("replicates", [1000, 1001])
    @pytest.mark.parametrize("alpha", [0.002, 0.05, 0.5])
    def test_equals_keeping_every_replicate(self, window, replicates, alpha):
        n, k, c, c_star = window
        i_lo, i_hi = _quantile_index(alpha / 2, replicates), _quantile_index(1 - alpha / 2, replicates)
        # Replicate r does not depend on the count, so 1000 replicates are the first 1000 of 1001.
        extremes = every_extreme(n, k, c, c_star, 1001, 6)
        found = calibration._null_pass(n, alpha, replicates, 6, window=(k, c, c_star))
        for variant in (STRICT, RELAXED):
            lows, highs = extremes[_order_rank(variant, c, c_star)]
            expected = ThresholdPair(float(np.sort(lows[:replicates])[i_lo]),
                                     float(np.sort(highs[:replicates])[i_hi]))
            assert found[variant] == expected

    def test_most_replicates_are_not_reduced(self, monkeypatch):
        rows = []
        order_min = calibration._window_order_min
        monkeypatch.setattr(calibration, "_window_order_min",
                            lambda x, c, q: rows.append(len(x)) or order_min(x, c, q))
        calibration._null_pass(150, 0.05, 2002, 6, window=(20, 10, 8))
        batch = simulators.REPLICATE_BATCH
        # All of the first stack, while the pools fill, then a shrinking share over 2 sides x 2 ranks.
        assert rows[0] == 4 * batch
        assert sum(rows) < 4 * 2002 / 4


class TestGoldenCutoffs:
    """Cut-offs pinned bit for bit, so kernel rewrites cannot move them."""

    def test_calibrate_both(self):
        pairs = calibrate_both(150, 20, 10, 8, 0.05, 1000, DEFAULT_SEED)
        assert pairs[STRICT] == ThresholdPair(
            float.fromhex("0x1.3170cce391758p-1"), float.fromhex("0x1.aeafbb51043fdp+1")
        )
        assert pairs[RELAXED] == ThresholdPair(
            float.fromhex("0x1.73a03219222f4p-1"), float.fromhex("0x1.87c6be98d6d6ep+1")
        )

    def test_calibrate_segment_test(self):
        assert calibrate_segment_test(100, 0.05, 1000, 5) == ThresholdPair(
            float.fromhex("0x1.85a5406f576f1p-1"), float.fromhex("0x1.6894fed644639p+1")
        )


@pytest.fixture(scope="module")
def pairs():
    return calibrate_both(300, 30, 15, 12, 0.05, REPS, seed=7)


@pytest.fixture(scope="module")
def q100():
    return calibrate_segment_test(100, 0.05, REPS, seed=5)


class TestCalibrateBoth:
    def test_variant_ordering(self, pairs):
        # Shared replicates make the ordering deterministic, not just
        # probable: a lower order-statistic rank can only shrink minima
        # and grow maxima.
        assert pairs[STRICT].gamma1 <= pairs[RELAXED].gamma1
        assert pairs[STRICT].gamma2 >= pairs[RELAXED].gamma2

    def test_plausible_range(self, pairs):
        for pair in pairs.values():
            assert 0.3 < pair.gamma1 < 1.2
            assert 2.0 < pair.gamma2 < 4.5

    def test_deterministic(self, pairs):
        again = calibrate_both(300, 30, 15, 12, 0.05, REPS, seed=7)
        assert again == pairs

    def test_batch_size_does_not_change_result(self, pairs, monkeypatch):
        for batch in (1, simulators.REPLICATE_BATCH, 7):
            monkeypatch.setattr(simulators, "REPLICATE_BATCH", batch)
            assert calibrate_both(300, 30, 15, 12, 0.05, REPS, seed=7) == pairs

    def test_seed_changes_result(self, pairs):
        other = calibrate_both(300, 30, 15, 12, 0.05, REPS, seed=8)
        assert other != pairs

    def test_calibrate_rejects_tiny_replicate_count(self):
        key = default_key(300, 30, replicates=100)
        with pytest.raises(InvalidParam):
            cache_get_or_calibrate(None, key)


class TestSegmentTest:
    def test_coverage(self, q100):
        # About 95% of fresh Brownian segments fall between q1 and q2.
        grid = TimeGrid(0.0, 1.0, 100)
        inside = 0
        for rep in range(400):
            T = statistic_T(gen_brownian(grid, 2, 1.0, replicate_rng(999, rep)))
            inside += q100.gamma1 <= T <= q100.gamma2
        assert 0.90 <= inside / 400 <= 0.99

    def test_plausible_range(self, q100):
        assert 0.5 < q100.gamma1 < 1.2
        assert 1.5 < q100.gamma2 < 3.0

    def test_replicate_floor(self):
        with pytest.raises(InvalidParam):
            calibrate_segment_test(100, 0.05, 10, seed=5)

    def test_batch_size_does_not_change_result(self, q100, monkeypatch):
        for batch in (1, simulators.REPLICATE_BATCH, 7):
            monkeypatch.setattr(simulators, "REPLICATE_BATCH", batch)
            assert calibrate_segment_test(100, 0.05, REPS, seed=5) == q100


class TestThresholdTable:
    def key(self, **kw):
        return default_key(300, 30, replicates=REPS, **kw)

    def pass_keys(self, seed):
        """Entries one pair miss stores: both variants and the segment test at n."""
        return {self.key(seed=seed), self.key(seed=seed, variant=STRICT),
                segment_test_key(300, replicates=REPS, seed=seed)}

    def test_cache_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        pair = cache_get_or_calibrate(path, self.key(seed=7))
        table = ThresholdTable(path)
        assert table.get(self.key(seed=7)) == pair
        # The strict variant and the segment test at n were persisted by the same miss.
        assert set(table.entries) == self.pass_keys(7)
        assert table.get(self.key(seed=7, variant=STRICT)) is not None

    def test_cache_hit_skips_simulation(self, tmp_path):
        path = tmp_path / "cache.json"
        table = ThresholdTable(path)
        sentinel = ThresholdPair(0.123, 9.876)
        table.put(self.key(seed=7), sentinel)
        table.save()
        assert cache_get_or_calibrate(path, self.key(seed=7)) == sentinel

    def test_different_seed_misses(self, tmp_path):
        path = tmp_path / "cache.json"
        a = cache_get_or_calibrate(path, self.key(seed=7))
        b = cache_get_or_calibrate(path, self.key(seed=8))
        assert a != b
        assert set(ThresholdTable(path).entries) == self.pass_keys(7) | self.pass_keys(8)

    def test_corrupt_file_recalibrates(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        assert ThresholdTable(path).entries == {}
        pair = cache_get_or_calibrate(path, self.key(seed=7))
        assert pair == ThresholdTable(path).get(self.key(seed=7))

    def test_wrong_schema_version_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        assert ThresholdTable(path).entries == {}

    def test_unreadable_file_is_kept_aside(self, tmp_path):
        path = tmp_path / "cache.json"
        newer = json.dumps({"version": 999, "entries": [{"from": "a newer library"}]})
        path.write_text(newer)
        table = ThresholdTable(path)
        table.put(self.key(seed=7), ThresholdPair(0.5, 3.0))
        table.save()
        assert (tmp_path / "cache.json.unreadable").read_text() == newer
        assert ThresholdTable(path).get(self.key(seed=7)) == ThresholdPair(0.5, 3.0)

    @pytest.mark.parametrize("content", [
        [],
        "x",
        {"version": 1, "entries": [{"key": vars(segment_test_key(25)), "gamma1": 3.0, "gamma2": 1.0}]},
        {"version": 1, "entries": [{"key": vars(segment_test_key(25)), "gamma1": 0.5, "gamma2": math.nan}]},
    ], ids=["list", "string", "gammas_reversed", "nan_gamma"])
    def test_invalid_content_is_set_aside(self, tmp_path, content):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(content))
        assert ThresholdTable(path).entries == {}
        assert not path.exists()
        assert (tmp_path / "cache.json.unreadable").read_text() == json.dumps(content)

    def test_threads_share_a_table(self, tmp_path):
        # One thread puts new keys while another saves: no save may fail, and
        # a save started after the last put holds every entry.
        path = tmp_path / "cache.json"
        table, errors, saved = ThresholdTable(path), [], threading.Event()

        def putting():
            for seed in range(2000):
                if saved.is_set():
                    break
                table.put(segment_test_key(25, replicates=REPS, seed=seed), ThresholdPair(0.5, 3.0))

        def saving():
            for _ in range(20):
                try:
                    table.save()
                except Exception as exc:
                    errors.append(exc)
            saved.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fn) for fn in (putting, saving)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        table.save()
        assert ThresholdTable(path).entries == table.entries

    def test_processes_share_a_file(self, tmp_path):
        # Two processes each put and save 50 keys, one at a time, into one file, starting
        # together from tables read while it was empty: the file ends with all 100.
        path = tmp_path / "cache.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        workers = [subprocess.Popen([sys.executable, "-c", SAVING_PROCESS, str(path), str(first), str(REPS)],
                                    env=env) for first in (0, 50)]
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not all(
                    (tmp_path / f"ready{first}").exists() for first in (0, 50)):
                time.sleep(0.01)
            (tmp_path / "go").touch()
            codes = [worker.wait(timeout=60) for worker in workers]
        finally:
            for worker in workers:
                worker.kill()
        assert codes == [0, 0]
        expected = {segment_test_key(25, replicates=REPS, seed=seed) for seed in range(100)}
        assert set(ThresholdTable(path).entries) == expected

    def test_save_merges_the_file_and_keeps_its_own_pairs(self, tmp_path):
        path = tmp_path / "cache.json"
        first, second = (segment_test_key(25, replicates=REPS, seed=seed) for seed in (1, 2))
        older, newer = ThresholdTable(path), ThresholdTable(path)
        older.put(first, ThresholdPair(0.5, 3.0))
        older.put(second, ThresholdPair(0.5, 3.0))
        older.save()
        newer.put(first, ThresholdPair(0.6, 2.9))
        newer.save()
        expected = {first: ThresholdPair(0.6, 2.9), second: ThresholdPair(0.5, 3.0)}
        assert ThresholdTable(path).entries == expected

    def test_table_without_a_file_keeps_its_entries(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table = ThresholdTable()
        pair = cache_get_or_calibrate(table, self.key(seed=7))
        table.save()
        assert set(table.entries) == {self.key(seed=7), self.key(seed=7, variant=STRICT)}
        assert cache_get_or_calibrate(table, self.key(seed=7)) == pair
        assert list(tmp_path.iterdir()) == []

    def test_no_store_calibrates_without_persisting(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pair = cache_get_or_calibrate(None, self.key(seed=7))
        assert pair == calibrate_both(300, 30, 15, 12, 0.05, REPS, 7)[RELAXED]
        assert pair == cache_get_or_calibrate(tmp_path / "cache.json", self.key(seed=7))
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_file_is_schema_versioned_json(self, tmp_path):
        path = tmp_path / "cache.json"
        cache_get_or_calibrate(path, segment_test_key(25, replicates=REPS, seed=2))
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert len(doc["entries"]) == 1


class TestSharedNullPass:
    """A pair miss into a table also stores the segment test from the same simulation."""

    KEY = default_key(150, 20, replicates=REPS, seed=4)
    SIBLING = segment_test_key(150, replicates=REPS, seed=4)

    @pytest.fixture
    def counted(self, monkeypatch):
        """Lists of the null passes started and the T reductions run."""
        calls = {"passes": [], "T": []}

        def count(name, fn):
            def counting(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(calibration, "replicate_stacks",
                            count("passes", simulators.replicate_stacks))
        monkeypatch.setattr(calibration, "statistic_T", count("T", statistic_T))
        return calls

    def test_sibling_equals_direct_calibration(self, tmp_path):
        path = tmp_path / "cache.json"
        pair = cache_get_or_calibrate(path, self.KEY)
        table = ThresholdTable(path)
        assert table.get(self.SIBLING) == calibrate_segment_test(150, 0.05, REPS, 4)
        assert table.get(self.KEY) == pair == calibrate_both(150, 20, 10, 8, 0.05, REPS, 4)[RELAXED]

    def test_pair_then_segment_simulates_once(self, tmp_path, counted):
        table = ThresholdTable(tmp_path / "cache.json")
        cache_get_or_calibrate(table, self.KEY)
        cache_get_or_calibrate(table, self.SIBLING)
        assert len(counted["passes"]) == 1

    def test_sibling_independent_of_batch_size(self, tmp_path, monkeypatch):
        expected = calibrate_segment_test(150, 0.05, REPS, 4)
        for batch in (1, 7, 32):
            monkeypatch.setattr(simulators, "REPLICATE_BATCH", batch)
            table = ThresholdTable(tmp_path / f"cache_{batch}.json")
            cache_get_or_calibrate(table, self.KEY)
            assert table.get(self.SIBLING) == expected

    def test_one_scaling_per_stack(self, monkeypatch):
        calls = []
        unit_scaled = stats._unit_scaled
        monkeypatch.setattr(stats, "_unit_scaled", lambda pos: calls.append(pos.shape) or unit_scaled(pos))
        found = calibration._null_pass(150, 0.05, REPS, 4, window=(20, 10, 8), segment=True)
        batch = simulators.REPLICATE_BATCH
        assert calls == [(batch, 151, 2)] * (REPS // batch) + [(REPS % batch, 151, 2)]
        assert found[SEGMENT_TEST] == calibrate_segment_test(150, 0.05, REPS, 4)

    def test_no_store_skips_the_segment_reduction(self, counted):
        cache_get_or_calibrate(None, self.KEY)
        assert len(counted["passes"]) == 1
        assert counted["T"] == []

    def test_off_grid_pair_miss_skips_the_segment_reduction(self, tmp_path, counted):
        key = default_key(140, 20, replicates=REPS, seed=4)
        assert key.n not in SEGMENT_LENGTH_GRID
        table = ThresholdTable(tmp_path / "cache.json")
        cache_get_or_calibrate(table, key)
        assert counted["T"] == []
        assert set(table.entries) == {key, replace(key, variant=STRICT)}

    def test_pair_miss_looks_up_only_its_own_key(self, tmp_path, monkeypatch):
        requested = []
        get = ThresholdTable.get
        monkeypatch.setattr(ThresholdTable, "get", lambda t, key: requested.append(key) or get(t, key))
        table = ThresholdTable(tmp_path / "cache.json")
        cache_get_or_calibrate(table, self.KEY)
        assert requested == [self.KEY]
        assert self.SIBLING in table.entries

    def test_stored_sibling_is_kept(self, tmp_path, counted):
        table = ThresholdTable(tmp_path / "cache.json")
        sentinel = ThresholdPair(0.123, 9.876)
        table.put(self.SIBLING, sentinel)
        cache_get_or_calibrate(table, self.KEY)
        assert counted["T"] == []
        assert ThresholdTable(tmp_path / "cache.json").get(self.SIBLING) == sentinel


class TestMissPath:
    """Every miss is one _null_pass call; its reductions follow the key and the table."""

    PAIR = default_key(150, 20, replicates=REPS, seed=4)
    WINDOW = (20, 10, 8)

    @pytest.mark.parametrize("case, key, expected", [
        ("file", PAIR, (WINDOW, True)),
        ("memory", PAIR, (WINDOW, False)),
        ("file", default_key(140, 20, replicates=REPS, seed=4), (WINDOW, False)),
        ("file", segment_test_key(150, replicates=REPS, seed=4), (None, True)),
        ("stored", PAIR, (WINDOW, False)),
    ], ids=["pair_on_grid", "pair_in_memory", "pair_off_grid", "segment", "segment_stored"])
    def test_one_null_pass_per_miss(self, tmp_path, monkeypatch, case, key, expected):
        calls = []
        null_pass = calibration._null_pass

        def spying(n, alpha, replicates, seed, window=None, segment=False):
            calls.append((n, window, segment))
            return null_pass(n, alpha, replicates, seed, window=window, segment=segment)

        table = ThresholdTable(None if case == "memory" else tmp_path / "cache.json")
        if case == "stored":
            table.put(segment_test_key(150, replicates=REPS, seed=4), ThresholdPair(0.5, 3.0))
        monkeypatch.setattr(calibration, "_null_pass", spying)
        cache_get_or_calibrate(table, key)
        assert calls == [(key.n, *expected)]


class TestSegmentQuantiles:
    def test_snaps_to_grid_and_memoises(self, tmp_path):
        sq = SegmentQuantiles(tmp_path / "cache.json", replicates=REPS, seed=3)
        assert sq(24) == sq(25) == sq(30)
        assert sq(430) == sq(500)
        assert {key.n for key in sq.table.entries} == {25, 500}

    def test_every_step_count_memoised_to_its_grid_pair(self, monkeypatch):
        calls = []

        def counting(n, *args, **kwargs):
            calls.append(n)
            return original(n, *args, **kwargs)

        original = calibration._null_pass
        monkeypatch.setattr(calibration, "_null_pass", counting)
        sq = SegmentQuantiles(replicates=REPS, seed=3)
        steps = list(range(1, 700, 7)) * 2
        pairs = [sq(n) for n in steps]
        assert sorted(calls) == sorted(set(calls)) == list(SEGMENT_LENGTH_GRID)
        for n, pair in zip(steps, pairs):
            nearest = min(SEGMENT_LENGTH_GRID, key=lambda g: (abs(g - n), g))
            stored = sq.table.get(segment_test_key(nearest, replicates=REPS, seed=3))
            assert pair == sq(nearest) == (stored.gamma1, stored.gamma2)

    def test_grid_is_increasing(self):
        assert list(SEGMENT_LENGTH_GRID) == sorted(SEGMENT_LENGTH_GRID)

    def test_grid_length_is_the_nearest_entry_ties_to_the_shorter(self):
        for s in range(1001):
            assert grid_length(s) == min(SEGMENT_LENGTH_GRID, key=lambda g: (abs(g - s), g)), s

    def test_works_without_store(self):
        sq = SegmentQuantiles(replicates=REPS, seed=3)
        q1, q2 = sq(100)
        assert 0 < q1 < q2


class TestType1Error:
    def test_degenerate_thresholds_never_fire(self):
        p, se = estimate_type1_error(
            300, 30, 15, 12, ThresholdPair(0.0, math.inf), replicates=500, seed=1
        )
        assert p == 0.0
        assert se == 0.0

    def test_tight_thresholds_always_fire(self):
        p, _ = estimate_type1_error(
            300, 30, 15, 12, ThresholdPair(1.3, 1.35), replicates=500, seed=1
        )
        assert p > 0.95

    @pytest.mark.parametrize("c, c_star, message", [
        (15, 20, "need 1 <= c_star <= c"),
        (300, 12, "cluster window c exceeds the statistic range"),
        (0, 0, "need 1 <= c_star <= c"),
    ], ids=["c_star_above_c", "c_beyond_the_statistics", "empty_window"])
    def test_impossible_cluster_parameters_raise(self, c, c_star, message):
        # A window that can never qualify would report a type-I error of zero.
        with pytest.raises(InvalidParam, match=message):
            estimate_type1_error(300, 30, c, c_star, ThresholdPair(0.74, 3.26), 500, 1)

    def test_replicate_floor(self):
        with pytest.raises(InvalidParam):
            estimate_type1_error(300, 30, 15, 12, ThresholdPair(0.7, 3.2), 100, seed=1)

    def test_batch_size_does_not_change_result(self, monkeypatch):
        args = (300, 30, 15, 12, ThresholdPair(0.74, 3.26), 500, 1)
        results = []
        for batch in (1, simulators.REPLICATE_BATCH, 7):
            monkeypatch.setattr(simulators, "REPLICATE_BATCH", batch)
            results.append(estimate_type1_error(*args))
        assert results[0] == results[1] == results[2]
