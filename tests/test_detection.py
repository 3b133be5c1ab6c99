import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffswitch import (
    Cluster,
    DetectionConfig,
    ScenarioSpec,
    RegimeSpec,
    ThresholdPair,
    Trajectory,
    backward_forward,
    compose_scenario,
    estimate_change_points,
    find_clusters,
    label_segments,
    merge_same_label,
    phi,
    replicate_stacks,
    run_batch,
    run_procedure,
    scenario_preset,
    sliding_stats,
    statistic_T,
)
from diffswitch import detection, stats
from diffswitch.detection import (
    BROWNIAN,
    LABELS,
    MIN_LABEL_POINTS,
    REGIME_LABELS,
    SUBDIFFUSIVE,
    SegmentLabel,
    SUPERDIFFUSIVE,
    UNDETERMINED,
    report_to_dict,
)
from diffswitch.errors import InvalidParam, NoMotion, NoMotionWindow, OutOfBounds
from diffswitch.rng import replicate_rng
from diffswitch.stats import SegmentStats
from diffswitch.trajectory import TimeGrid

# A 64-entry classification signal with one dense run of nonzero values
# at offsets 6..41; with c = 15 and c_star = 10 it yields exactly one
# cluster, and none at c_star = 15 because of the zeros inside the run.
EXAMPLE_Q = np.array(
    [0, 0, 0, 1, 0, 0]
    + [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0,
       1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1]
    + [0] * 22
)


def outlier_positions(traj, exponent):
    """The positions of traj with every step from step 200 on scaled by 2**exponent."""
    steps = np.diff(traj.positions, axis=0)
    steps[200:] *= 2.0**exponent
    return np.vstack([traj.positions[:1], traj.positions[0] + steps.cumsum(axis=0)])


class TestDetectionConfig:
    def test_defaults_derive_from_k(self):
        cfg = DetectionConfig(k=30, thresholds=ThresholdPair(0.7, 3.2))
        assert (cfg.c, cfg.c_star) == (15, 12)
        cfg = DetectionConfig(k=3, thresholds=ThresholdPair(0.7, 3.2))
        assert (cfg.c, cfg.c_star) == (2, 2)

    def test_explicit_overrides(self):
        cfg = DetectionConfig(k=30, thresholds=ThresholdPair(0.7, 3.2), c=10, c_star=7)
        assert (cfg.c, cfg.c_star) == (10, 7)

    def test_validation(self):
        with pytest.raises(InvalidParam):
            DetectionConfig(k=0, thresholds=ThresholdPair(0.7, 3.2))
        with pytest.raises(InvalidParam):
            DetectionConfig(k=30, thresholds=ThresholdPair(0.7, 3.2), c=10, c_star=11)

    @pytest.mark.parametrize("params", [dict(k=30.0, c=15), dict(k=30.0), dict(k=30, c=15.0),
                                        dict(k=30, c=15, c_star=11.5), dict(k=30, c_star=12.0)])
    def test_non_integer_window_sizes_rejected(self, brownian_300, params):
        with pytest.raises(InvalidParam, match="must be integers"):
            run_procedure(brownian_300, DetectionConfig(thresholds=ThresholdPair(0.7, 3.2), **params))

    def test_numpy_integers_accepted(self, brownian_300):
        pair = ThresholdPair(0.7, 3.2)
        cfg = DetectionConfig(k=np.int64(30), thresholds=pair, c=np.int64(15), c_star=np.int64(12))
        expected = run_procedure(brownian_300, DetectionConfig(k=30, thresholds=pair))
        assert report_to_dict(run_procedure(brownian_300, cfg)) == report_to_dict(expected)


def naive_clusters(Q, c, c_star, first_index=0):
    """Clusters from a per-window count and a per-start loop over the runs, clipped."""
    qualifies = [np.count_nonzero(Q[m : m + c]) >= c_star for m in range(len(Q) - c + 1)]
    clusters, m = [], 0
    while m < len(qualifies):
        if qualifies[m]:
            last = m
            while last + 1 < len(qualifies) and qualifies[last + 1]:
                last += 1
            clusters.append(Cluster(first_index + m, first_index + last + c - 1))
            m = last
        m += 1
    ends = [min(a.end, b.start - 1) for a, b in zip(clusters, clusters[1:])] + [None]
    return [Cluster(cl.start, cl.end if end is None else end) for cl, end in zip(clusters, ends)]


class TestFindClusters:
    def test_matches_naive_window_count(self):
        # Each row of a stack, alone as a 1-D signal and within the 2-D stack.
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 120))
            Qs = rng.choice([-2, -1, 0, 1, 2], size=(3, n), p=[0.15, 0.15, 0.4, 0.15, 0.15])
            Qs[rng.random((3, n)) < rng.random()] = 0
            for c in {1, n, int(rng.integers(1, n + 1))}:
                for c_star in {1, c, int(rng.integers(1, c + 1))}:
                    first = int(rng.integers(0, 50))
                    stacked = find_clusters(Qs, c, c_star, first)
                    assert len(stacked) == len(Qs)
                    for Q, row in zip(Qs, stacked):
                        expected = naive_clusters(Q, c, c_star, first)
                        assert find_clusters(Q, c, c_star, first) == expected
                        assert row == expected

    def test_worked_example(self):
        clusters = find_clusters(EXAMPLE_Q, c=15, c_star=10)
        assert clusters == [Cluster(6, 44)]
        # The cluster covers the whole dense run of nonzero entries.
        nz = np.flatnonzero(EXAMPLE_Q[6:]) + 6
        assert clusters[0].start <= nz[0] and nz[-1] <= clusters[0].end

    def test_worked_example_strictest_count(self):
        assert find_clusters(EXAMPLE_Q, c=15, c_star=15) == []

    def test_all_zero(self):
        assert find_clusters(np.zeros(50, dtype=int), 10, 5) == []

    def test_all_nonzero_single_cluster(self):
        assert find_clusters(np.ones(50, dtype=int), 10, 5) == [Cluster(0, 49)]

    def test_short_signal(self):
        assert find_clusters(np.ones(4, dtype=int), 10, 5) == []

    def test_two_separated_runs(self):
        Q = np.zeros(60, dtype=int)
        Q[5:12] = 1
        Q[40:47] = -1
        clusters = find_clusters(Q, c=6, c_star=5)
        assert len(clusters) == 2
        assert set(range(5, 12)) <= set(range(clusters[0].start, clusters[0].end + 1))
        assert set(range(40, 47)) <= set(range(clusters[1].start, clusters[1].end + 1))
        assert all(cl.end - cl.start + 1 >= 6 for cl in clusters)

    def test_increasing_c_star_is_monotone(self):
        rng = np.random.default_rng(0)
        Q = (rng.random(200) < 0.4).astype(int)
        covered = None
        for c_star in range(1, 9):
            now = set()
            for cl in find_clusters(Q, c=8, c_star=c_star):
                now.update(range(cl.start, cl.end + 1))
            if covered is not None:
                assert now <= covered
            covered = now

    def test_first_index_offsets(self):
        base = find_clusters(EXAMPLE_Q, 15, 10)
        off = find_clusters(EXAMPLE_Q, 15, 10, first_index=30)
        assert off == [Cluster(base[0].start + 30, base[0].end + 30)]

    def test_clusters_disjoint_ordered_and_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(1, 150))
            c = int(rng.integers(1, n + 1))
            c_star = int(rng.integers(1, c + 1))
            nz = rng.random(n) < rng.random()
            Q = np.where(nz, rng.choice([-2, -1, 1, 2], size=n), 0)
            starts = [m for m in range(n - c + 1) if nz[m : m + c].sum() >= c_star]
            clusters = find_clusters(Q, c, c_star)
            assert all(a.end < b.start for a, b in zip(clusters, clusters[1:]))
            covered = set()
            for cl in clusters:
                assert cl.start in starts
                assert cl.end - cl.start + 1 >= min(c, 2)
                for m in range(cl.start, cl.end - c + 2):
                    assert nz[m : m + c].sum() >= c_star
                covered.update(range(cl.start, cl.end + 1))
            # Clipping gives no index away: the clusters cover every qualifying window.
            assert covered == {i for m in starts for i in range(m, m + c)}

    def test_every_subwindow_dense(self):
        # Cluster invariant: each length-c sub-window of a cluster holds
        # at least c_star nonzero entries.
        rng = np.random.default_rng(1)
        Q = (rng.random(300) < 0.5).astype(int)
        c, c_star = 10, 7
        for cl in find_clusters(Q, c, c_star):
            for m in range(cl.start, cl.end - c + 2):
                assert np.count_nonzero(Q[m : m + c]) >= c_star


class TestEstimateChangePoints:
    class FakeStats:
        def __init__(self, B, A, first_index=0):
            self.B = np.asarray(B, dtype=float)
            self.A = np.asarray(A, dtype=float)
            self.first_index = first_index

    def test_argmax_of_gap(self):
        stats = self.FakeStats(B=[1, 1, 5, 1, 1], A=[1, 1, 1, 1, 4])
        assert estimate_change_points(stats, [Cluster(0, 4)]) == [2]

    def test_tie_breaks_to_smallest_index(self):
        stats = self.FakeStats(B=[3, 3, 3], A=[1, 1, 1])
        assert estimate_change_points(stats, [Cluster(0, 2)]) == [0]

    def test_respects_first_index_offset(self):
        stats = self.FakeStats(B=[1, 9, 1], A=[1, 1, 1], first_index=20)
        assert estimate_change_points(stats, [Cluster(20, 22)]) == [21]

    def test_one_point_per_cluster(self):
        stats = self.FakeStats(B=[9, 1, 1, 1, 8], A=[1, 1, 1, 1, 1])
        points = estimate_change_points(stats, [Cluster(0, 1), Cluster(3, 4)])
        assert points == [0, 4]


class TestLabelling:
    QUANTILES = (0.75, 2.0)

    def straight_line(self, n):
        pos = np.stack([np.arange(n + 1.0), np.zeros(n + 1)], axis=1)
        return Trajectory(grid=TimeGrid(0.0, 1.0, n), positions=pos)

    def test_ballistic_segment_superdiffusive(self):
        labels = label_segments(self.straight_line(50), [], self.QUANTILES)
        assert len(labels) == 1
        assert labels[0].label == SUPERDIFFUSIVE
        # Unit-speed straight-line motion in 2-D gives T = sqrt(2 n):
        # excursion n over sqrt(n * n/2).
        assert labels[0].T == pytest.approx(np.sqrt(2 * 50))

    def test_oscillating_segment_subdiffusive(self):
        # Back and forth along x: excursion 1 over sqrt(n * n/2) = sqrt(2/n).
        x = np.arange(51.0) % 2
        traj = Trajectory(grid=TimeGrid(0.0, 1.0, 50), positions=np.stack([x, 0 * x], axis=1))
        labels = label_segments(traj, [], self.QUANTILES)
        assert labels[0].label == SUBDIFFUSIVE
        assert labels[0].T == pytest.approx(np.sqrt(2 / 50))

    def test_labels_are_indexed_by_phi_codes(self):
        codes = phi([2.0, 0.5, 3.5], ThresholdPair(1.0, 3.0))
        assert [REGIME_LABELS[c] for c in codes] == [BROWNIAN, SUBDIFFUSIVE, SUPERDIFFUSIVE]

    def test_short_segment_undetermined(self):
        labels = label_segments(self.straight_line(20), [5], self.QUANTILES)
        assert labels[0].label == UNDETERMINED
        assert labels[0].T is None
        assert labels[1].label == SUPERDIFFUSIVE

    def test_bad_quantiles_raise(self, brownian_300):
        with pytest.raises(InvalidParam):
            label_segments(self.straight_line(50), [], lambda n: (2.0, 1.0))
        cfg = DetectionConfig(k=30, thresholds=ThresholdPair(0.74, 3.26))
        with pytest.raises(InvalidParam):
            run_batch([brownian_300], cfg, labelling=True, quantiles=(2.0, 1.0))

    def test_quantiles_looked_up_once_per_step_count(self, brownian_300):
        calls = []

        def lookup(n_steps):
            calls.append(n_steps)
            return self.QUANTILES

        labels = label_segments(brownian_300, [100, 200], lookup)
        assert calls == [100]
        assert labels == label_segments(brownian_300, [100, 200], self.QUANTILES)

    def test_brownian_segments_usually_brownian(self, brownian_300):
        sq = lambda n: (0.60, 2.60)
        labels = label_segments(brownian_300, [100, 175], sq)
        assert [l.label for l in labels].count(BROWNIAN) >= 2

    def test_segments_partition_trajectory(self, brownian_300):
        labels = label_segments(brownian_300, [100, 175], self.QUANTILES)
        assert [(l.start, l.end) for l in labels] == [(0, 100), (100, 175), (175, 300)]

    def test_merge_fuses_same_label(self, brownian_300):
        sq = (0.01, 100.0)  # everything labels Brownian
        labels = label_segments(brownian_300, [100, 175], sq)
        points, merged = merge_same_label(brownian_300, [100, 175], labels, sq)
        assert points == []
        assert len(merged) == 1
        assert (merged[0].start, merged[0].end) == (0, 300)

    def test_merge_keeps_different_labels(self):
        pos = np.concatenate(
            [
                np.stack([np.arange(51.0), np.zeros(51)], axis=1),
                np.tile([50.0, 0.0], (50, 1))
                + np.random.default_rng(0).normal(scale=0.01, size=(50, 2)),
            ]
        )
        traj = Trajectory(grid=TimeGrid(0.0, 1.0, 100), positions=pos)
        labels = label_segments(traj, [50], self.QUANTILES)
        points, merged = merge_same_label(traj, [50], labels, self.QUANTILES)
        assert points == [50]
        assert [l.label for l in merged] == [l.label for l in labels]


class TestRunProcedure:
    def test_clean_brownian_path_reports_nothing(self, brownian_300, relaxed_300_30):
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        report = run_procedure(brownian_300, cfg)
        assert report.change_points == []
        assert report.clusters == []

    def test_strong_drift_scenario_found(self, relaxed_300_30):
        traj, truth = compose_scenario(scenario_preset(1, v=2.0, seed=41))
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        report = run_procedure(traj, cfg)
        assert len(report.change_points) == 2
        for est, true in zip(report.change_points, truth):
            assert abs(est - true) <= 10

    def test_scale_invariance(self, relaxed_300_30):
        traj, _ = compose_scenario(scenario_preset(1, v=2.0, seed=41))
        scaled = Trajectory(grid=traj.grid, positions=traj.positions * 1e3)
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        assert run_procedure(scaled, cfg).change_points == run_procedure(traj, cfg).change_points

    def test_labelling_requires_quantiles(self, brownian_300, relaxed_300_30):
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        with pytest.raises(InvalidParam):
            run_procedure(brownian_300, cfg, labelling=True)

    def test_labelled_report_and_dict(self, relaxed_300_30):
        traj, _ = compose_scenario(scenario_preset(1, v=2.0, seed=41))
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        report = run_procedure(traj, cfg, labelling=True, quantiles=(0.60, 2.60))
        assert report.raw_labels is not None
        middle = [l for l in report.merged_labels if l.start <= 140 <= l.end]
        assert middle and middle[0].label == SUPERDIFFUSIVE
        doc = report_to_dict(report)
        assert doc["change_points"] == report.change_points
        assert {"start", "end", "label", "T"} <= set(doc["merged_segments"][0])

    def test_deterministic(self, brownian_300, relaxed_300_30):
        cfg = DetectionConfig(k=20, thresholds=relaxed_300_30)
        a = run_procedure(brownian_300, cfg)
        b = run_procedure(brownian_300, cfg)
        assert a.change_points == b.change_points


class TestTimeStep:
    """B, A and T divide a distance by sqrt(span * sum / (m d delta)) with span m delta: no statistic
    reads delta, so every result is bit-equal to the one at delta = 1."""

    CONFIG = DetectionConfig(k=20, thresholds=ThresholdPair(0.74, 3.26))

    def results(self, traj, points):
        B, A = backward_forward(traj, 20)
        labels = label_segments(traj, points, (0.6, 2.6))
        report = run_procedure(traj, self.CONFIG, labelling=True, quantiles=(0.6, 2.6))
        return (B.tobytes(), A.tobytes(), statistic_T(traj).hex(), [l.T for l in labels],
                report_to_dict(report), report.stats.B.tobytes(), report.stats.A.tobytes())

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-300, 300), st.integers(2, 3), st.integers(0, 2**32 - 1))  # a Trajectory is 2-D or 3-D
    def test_any_time_step_gives_the_unit_step_results(self, log_delta, dim, seed):
        # A random walk that drifts over its middle third, so the report holds change points.
        steps = np.random.default_rng(seed).normal(size=(150, dim))
        steps[50:100] += 1.5
        pos = np.vstack([np.zeros((1, dim)), steps.cumsum(axis=0)])
        unit = Trajectory(grid=TimeGrid(0.0, 1.0, 150), positions=pos)
        scaled = Trajectory(grid=TimeGrid(0.0, 10.0**log_delta, 150), positions=pos)
        assert self.results(scaled, [50, 100]) == self.results(unit, [50, 100])

    def test_largest_time_step_detects_as_the_unit_step(self, relaxed_300_30):
        # k d delta overflows a float at this time step: a window sum divided by it would read 0.
        traj, _ = compose_scenario(scenario_preset(1, v=2.0, seed=41))
        huge = Trajectory(grid=TimeGrid(0.0, 1e307, 300), positions=traj.positions)
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        report, expected = (report_to_dict(run_procedure(t, cfg, labelling=True, quantiles=(0.6, 2.6)))
                            for t in (huge, traj))
        assert report == expected and expected["change_points"] == [100, 175]


class TestRunBatch:
    @pytest.mark.parametrize("delta", [1.0, 0.03])
    @pytest.mark.parametrize("labelling", [False, True])
    def test_rows_equal_run_procedure(self, relaxed_300_30, delta, labelling):
        # No statistic reads the time step; a non-unit one goes through both paths all the same.
        spec = scenario_preset(1, v=1.0)
        trajs = []
        for r in range(6):
            traj, _ = compose_scenario(spec, rng=replicate_rng(4, r))
            trajs.append(Trajectory(grid=TimeGrid(0.0, delta, 300), positions=traj.positions))
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        quantiles = (0.60, 2.60) if labelling else None
        reports = run_batch(trajs, cfg, labelling=labelling, quantiles=quantiles)
        assert len(reports) == len(trajs)
        for traj, report in zip(trajs, reports):
            single = run_procedure(traj, cfg, labelling=labelling, quantiles=quantiles)
            assert report_to_dict(report) == report_to_dict(single)
            B, A = backward_forward(traj, 30)
            assert np.array_equal(report.stats.B, B) and np.array_equal(single.stats.B, B)
            assert np.array_equal(report.stats.A, A) and np.array_equal(single.stats.A, A)

    def test_change_points_strictly_increase(self, relaxed_300_30):
        # Scenario 2 at lam = 0.5 often gives runs of qualifying starts less than c apart.
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        grid = TimeGrid(0.0, 1.0, 300)
        for stack in replicate_stacks(scenario_preset(2, lam=0.5), 3, replicates=96):
            trajs = [Trajectory(grid=grid, positions=row) for row in stack]
            for report in run_batch(trajs, cfg):
                cps, clusters = report.change_points, report.clusters
                assert all(a < b for a, b in zip(cps, cps[1:]))
                assert all(a.end < b.start for a, b in zip(clusters, clusters[1:]))
                assert all(cl.start <= cp <= cl.end for cl, cp in zip(clusters, cps))

    def test_one_scaling_per_labelled_batch(self, brownian_300, relaxed_300_30, monkeypatch):
        calls = []
        unit_scaled = stats._unit_scaled
        monkeypatch.setattr(stats, "_unit_scaled", lambda pos: calls.append(pos.shape) or unit_scaled(pos))
        trajs = [brownian_300, Trajectory(grid=brownian_300.grid, positions=-brownian_300.positions)]
        run_batch(trajs, DetectionConfig(k=30, thresholds=relaxed_300_30),
                  labelling=True, quantiles=(0.60, 2.60))
        assert calls == [(2, 301, 2)]

    def test_mixed_time_steps_rejected(self, brownian_300, relaxed_300_30):
        other = Trajectory(grid=TimeGrid(0.0, 0.5, 300), positions=brownian_300.positions)
        with pytest.raises(InvalidParam):
            run_batch([brownian_300, other], DetectionConfig(k=30, thresholds=relaxed_300_30))

    def test_empty_batch_is_a_domain_error(self, relaxed_300_30):
        with pytest.raises(InvalidParam, match="got shape \\(0,\\)"):
            run_batch([], DetectionConfig(k=30, thresholds=relaxed_300_30))

    def test_cluster_window_longer_than_the_statistics_rejected(self, brownian_300):
        # n = 300 steps at k = 30 gives 241 statistics; (1.3, 1.35) classifies nearly all of them.
        pair = ThresholdPair(1.3, 1.35)
        report = run_batch([brownian_300], DetectionConfig(k=30, thresholds=pair, c=241, c_star=12))[0]
        assert report.change_points == [237]
        with pytest.raises(InvalidParam, match="cluster window c exceeds the statistic range"):
            run_batch([brownian_300], DetectionConfig(k=30, thresholds=pair, c=242, c_star=12))

    def test_one_immobile_row_fails_the_batch(self, brownian_300, relaxed_300_30):
        pos = brownian_300.positions.copy()
        pos[100:150] = pos[100]
        still = Trajectory(grid=brownian_300.grid, positions=pos)
        with pytest.raises(NoMotionWindow):
            run_batch([brownian_300, still], DetectionConfig(k=30, thresholds=relaxed_300_30))


def cut(traj, lo, hi):
    """Segment [lo, hi] of a trajectory as a trajectory of its own."""
    grid = TimeGrid(0, traj.grid.delta, hi - lo)
    return Trajectory(grid=grid, positions=traj.positions[lo : hi + 1])


def oracle_label(traj, lo, hi, lookup):
    """One segment labelled through statistic_T on its own, as the rules state."""
    if hi - lo + 1 < MIN_LABEL_POINTS:
        return (lo, hi, UNDETERMINED, None)
    try:
        T = float(statistic_T(cut(traj, lo, hi)))
    except NoMotion:
        return (lo, hi, UNDETERMINED, None)
    return (lo, hi, REGIME_LABELS[phi(T, ThresholdPair(*lookup(hi - lo)))], T)


def oracle_labelling(traj, change_points, lookup):
    """(raw labels, merged points, merged labels) from one statistic_T call per segment."""
    bounds = [0, *change_points, traj.n_steps]
    raw = [oracle_label(traj, lo, hi, lookup) for lo, hi in zip(bounds, bounds[1:])]
    points, labels, j = list(change_points), list(raw), 0
    while j < len(labels) - 1:
        if labels[j][2] == labels[j + 1][2]:
            labels[j : j + 2] = [oracle_label(traj, labels[j][0], labels[j + 1][1], lookup)]
            del points[j]
            j = max(j - 1, 0)
        else:
            j += 1
    return raw, points, labels


def as_tuples(labels):
    return [(l.start, l.end, l.label, l.T) for l in labels]


def random_walk(rng, n, dim, delta=1.0, scale=1.0):
    pos = rng.normal(size=(n + 1, dim)).cumsum(axis=0) * scale
    return Trajectory(grid=TimeGrid(0.0, delta, n), positions=pos)


class TestSegmentPass:
    """T from the one-pass labelling equals statistic_T on each segment with ==.

    The pass scales positions once per trajectory, statistic_T once per
    segment; both scale by powers of two, which is exact. They could differ
    only if an intermediate value went subnormal under the trajectory's
    scale but not under the segment's own.
    """

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("delta", [1.0, 0.03])
    def test_T_bit_equal_to_statistic_T(self, dim, delta):
        rng = np.random.default_rng(dim * 100 + int(delta * 100))
        # A wide pair labels everything Brownian, so merging also relabels
        # fused segments up to the whole trajectory.
        for quantiles in ((0.6, 2.6), lambda n: (0.7 + 1e-4 * n, 2.4), (0.0, np.inf)):
            lookup = quantiles if callable(quantiles) else lambda n, q=quantiles: q
            for scale in (1.0, 1e160, 1e-160):
                for _ in range(15):
                    n = int(rng.integers(30, 400))
                    traj = random_walk(rng, n, dim, delta, scale)
                    points = sorted(rng.integers(1, n, size=int(rng.integers(0, 5))).tolist())
                    raw = label_segments(traj, points, quantiles)
                    merged = merge_same_label(traj, points, raw, quantiles)
                    expected = oracle_labelling(traj, points, lookup)
                    assert as_tuples(raw) == expected[0]
                    assert (merged[0], as_tuples(merged[1])) == expected[1:]
                    for l in raw + merged[1]:
                        if l.T is not None:
                            assert l.T == statistic_T(cut(traj, l.start, l.end))

    def test_tiny_steps_segment(self):
        # Steps of [100, 200] are 1e6 times smaller than the rest: scaled by
        # the trajectory's largest step, not by the segment's own.
        rng = np.random.default_rng(11)
        steps = rng.normal(size=(300, 2))
        steps[100:200] *= 1e-6
        pos = np.concatenate([[[0.0, 0.0]], steps.cumsum(axis=0)])
        traj = Trajectory(grid=TimeGrid(0.0, 1.0, 300), positions=pos)
        labels = label_segments(traj, [100, 200], (0.6, 2.6))
        assert [l.label != UNDETERMINED for l in labels] == [True] * 3
        for l in labels:
            assert l.T == statistic_T(cut(traj, l.start, l.end))

    def test_equal_change_points_give_zero_length_segments(self, brownian_300):
        labels = label_segments(brownian_300, [100, 100, 175], (0.6, 2.6))
        assert [(l.start, l.end) for l in labels] == [(0, 100), (100, 100), (100, 175), (175, 300)]
        assert (labels[1].label, labels[1].T) == (UNDETERMINED, None)
        for l in labels[::2] + labels[3:]:
            assert l.T == statistic_T(cut(brownian_300, l.start, l.end))
        points, merged = merge_same_label(brownian_300, [100, 100, 175], labels, (0.6, 2.6))
        expected = oracle_labelling(brownian_300, [100, 100, 175], lambda n: (0.6, 2.6))
        assert (points, as_tuples(merged)) == expected[1:]

    def test_decreasing_change_points_rejected(self, brownian_300):
        for points in ([175, 100], [301], [-1], [100.5], [100.0]):
            with pytest.raises(OutOfBounds):
                label_segments(brownian_300, points, (0.6, 2.6))
            bounds = [0, *points, 300]
            labels = [SegmentLabel(lo, hi, BROWNIAN, 1.0) for lo, hi in zip(bounds, bounds[1:])]
            with pytest.raises(OutOfBounds):
                merge_same_label(brownian_300, points, labels, (0.6, 2.6))

    def test_non_finite_segment_statistic_raises(self, brownian_300):
        # Under the row's unit scale the first 200 steps square to subnormals: their step sum
        # over m d underflows to 0 while their largest distance does not, so T is x / 0.
        traj = Trajectory(grid=brownian_300.grid, positions=outlier_positions(brownian_300, 536))
        with pytest.raises(InvalidParam, match="statistic is not finite"):
            label_segments(traj, [200], (0.6, 2.6))

    def test_immobile_segment_undetermined_between_labelled(self, brownian_300):
        pos = brownian_300.positions.copy()
        pos[100:176] = pos[100]
        traj = Trajectory(grid=brownian_300.grid, positions=pos)
        labels = label_segments(traj, [100, 175], (0.6, 2.6))
        assert [l.label == UNDETERMINED for l in labels] == [False, True, False]
        assert labels[1].T is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_statistic_raises(self):
        # Finite positions whose difference overflows.
        pos = np.random.default_rng(2).normal(size=(41, 2)).cumsum(axis=0)
        pos[20:25] += [1.5e308, 0.0]
        pos[25:] -= [1.5e308, 0.0]
        traj = Trajectory(grid=TimeGrid(0.0, 1.0, 40), positions=pos)
        with pytest.raises(InvalidParam):
            statistic_T(traj)
        with pytest.raises(InvalidParam):
            label_segments(traj, [], (0.6, 2.6))
        # Labels that agree, so the merge relabels the fused whole trajectory.
        labels = [SegmentLabel(0, 10, BROWNIAN, 1.0), SegmentLabel(10, 40, BROWNIAN, 1.0)]
        with pytest.raises(InvalidParam):
            merge_same_label(traj, [10], labels, (0.0, np.inf))


# Non-unit time step, an OU piece with a fixed equilibrium and an fBm piece.
CUSTOM = ScenarioSpec(
    n=300, change_points=(100, 200), delta=0.25,
    regimes=(
        RegimeSpec(kind="brownian"),
        RegimeSpec(kind="ornstein_uhlenbeck", lam=2.0, theta=(1.0, -1.0)),
        RegimeSpec(kind="fractional_brownian", hurst=0.8),
    ),
)


class TestRunBatchLabels:
    @pytest.mark.parametrize("spec", [scenario_preset(1, v=1.0), scenario_preset(2, lam=0.5), CUSTOM],
                             ids=["preset1", "preset2", "custom_delta_0.25"])
    @pytest.mark.parametrize("fixed", [True, False])
    def test_rows_equal_per_segment_oracle(self, relaxed_300_30, spec, fixed):
        trajs = [compose_scenario(spec, rng=replicate_rng(8, r))[0] for r in range(40)]
        quantiles = (0.6, 2.6) if fixed else (lambda n: (0.55 + 1e-4 * n, 2.5 + 1e-3 * n))
        lookup = quantiles if callable(quantiles) else lambda n: quantiles
        cfg = DetectionConfig(k=30, thresholds=relaxed_300_30)
        for traj, report in zip(trajs, run_batch(trajs, cfg, labelling=True, quantiles=quantiles)):
            raw, points, merged = oracle_labelling(traj, report.change_points, lookup)
            assert as_tuples(report.raw_labels) == raw
            assert report.merged_change_points == points
            assert as_tuples(report.merged_labels) == merged


@st.composite
def cluster_stacks(draw):
    """(stats, c, c_star) of a small stack: Q dense enough to clip clusters, gaps with many ties.

    Some rows are all zero, and c may equal the statistic range.
    """
    rows, m = draw(st.integers(1, 4)), draw(st.integers(2, 60))
    c = draw(st.sampled_from([1, 2, m]) | st.integers(1, m))
    c_star = draw(st.integers(1, c))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.where(rng.random((rows, m)) < draw(st.floats(0.0, 1.0)), rng.choice([-2, -1, 1, 2], (rows, m)), 0)
    Q[rng.random(rows) < 0.3] = 0
    values = np.array([0.0, 0.5, 1.0, 2.5])  # few distinct values, so |B - A| ties often
    B, A = values[rng.integers(0, 4, (rows, m))], values[rng.integers(0, 4, (rows, m))]
    return stats.SlidingStats(draw(st.integers(0, 40)), B, A, Q), c, c_star


class TestArrayTail:
    """raw_batch's stack arrays against the per-cluster and per-segment rules they replace."""

    @settings(max_examples=300, deadline=None)
    @given(cluster_stacks())
    def test_change_points_are_first_argmax_per_cluster(self, case):
        sliding, c, c_star = case
        i0 = sliding.first_index
        row, start, end = clusters = detection._clusters(sliding.Q, c, c_star, i0)
        assert [list(zip(start[row == r].tolist(), end[row == r].tolist())) for r in range(len(sliding.Q))] == [
            [(cl.start, cl.end) for cl in found] for found in find_clusters(sliding.Q, c, c_star, i0)]
        gap = np.abs(sliding.B - sliding.A)
        expected = [a + int(np.argmax(gap[r, a - i0 : b - i0 + 1])) for r, a, b in zip(row, start, end)]
        assert detection._change_points(sliding, clusters).tolist() == expected
        for r in range(len(sliding.Q)):  # and each row alone, through the public per-row call
            one = stats.SlidingStats(i0, sliding.B[r], sliding.A[r], sliding.Q[r])
            found = find_clusters(sliding.Q[r], c, c_star, i0)
            assert estimate_change_points(one, found) == [p for p, q in zip(expected, row) if q == r]

    def test_label_codes_follow_the_scalar_rule(self):
        rng = np.random.default_rng(17)
        stack = rng.normal(size=(3, 201, 2)).cumsum(axis=1)
        stack[1, 60:121] = stack[1, 60]  # a still segment [60, 120], step sum 0
        segments = SegmentStats(stack)
        # [0, 8] holds MIN_LABEL_POINTS - 1 points, [8, 17] MIN_LABEL_POINTS; row 2 has no point.
        points = [[8, 17, 100], [60, 120], []]
        bounds = segments.bounds(points)
        T, totals = segments.tiled(*bounds)
        steps = (bounds[2] - bounds[1]).tolist()
        assert MIN_LABEL_POINTS - 2 in steps and MIN_LABEL_POINTS - 1 in steps and 0.0 in totals
        # Each step count's pair puts one of its segments' T exactly at q1 or at q2.
        pairs = {}
        for s, t in zip(steps, T.tolist()):
            if s + 1 >= MIN_LABEL_POINTS and t == t and s not in pairs:
                pairs[s] = (t, t + 1.0) if len(pairs) % 2 else (t / 2, t)
        calls = []
        lookup = detection.label_lookup(lambda n: calls.append(n) or pairs[n])
        codes, T_codes = detection._segment_codes(segments, bounds, lookup)
        assert T_codes.tobytes() == T.tobytes() and sorted(calls) == sorted(pairs)
        expected = [detection._label(lo, hi, t, total, lookup) for lo, hi, t, total in
                    zip(bounds[1].tolist(), bounds[2].tolist(), T.tolist(), totals.tolist())]
        got = detection._segment_labels(bounds[1], bounds[2], codes, T)
        assert got == expected
        assert [l.label for l in got].count(UNDETERMINED) == 2
        assert {l.label for l in got} >= {BROWNIAN, UNDETERMINED}

    def test_non_finite_labelled_statistic_raises(self, brownian_300):
        # As in TestSegmentPass: segment [0, 200] of this track has a T of x / 0.
        segments = SegmentStats(outlier_positions(brownian_300, 536)[None])
        bounds = segments.bounds([[200]])
        with pytest.raises(InvalidParam, match="statistic is not finite"):
            detection._segment_codes(segments, bounds, detection.label_lookup((0.6, 2.6)))

    def test_lookup_validates_each_pair_once_across_calls(self, brownian_300, monkeypatch):
        cfg, built = DetectionConfig(k=30, thresholds=ThresholdPair(0.74, 3.26)), []
        original = stats.ThresholdPair.__post_init__
        monkeypatch.setattr(stats.ThresholdPair, "__post_init__", lambda self: built.append(self) or original(self))
        detection._pair.cache_clear()
        for _ in range(3):
            run_batch([brownian_300], cfg, labelling=True, quantiles=(0.61, 2.61))
            run_procedure(brownian_300, cfg, labelling=True, quantiles=lambda n: (0.62, 2.62))
        assert [(p.gamma1, p.gamma2) for p in built] == [(0.61, 2.61), (0.62, 2.62)]
