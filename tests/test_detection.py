import numpy as np
import pytest

from diffswitch import (
    Cluster,
    DetectionConfig,
    ThresholdPair,
    Trajectory,
    backward_forward,
    compose_scenario,
    estimate_change_points,
    find_clusters,
    label_segments,
    merge_same_label,
    phi,
    run_batch,
    run_procedure,
    scenario_preset,
    sliding_stats,
)
from diffswitch.detection import (
    BROWNIAN,
    REGIME_LABELS,
    SUBDIFFUSIVE,
    SUPERDIFFUSIVE,
    UNDETERMINED,
    report_to_dict,
)
from diffswitch.errors import InvalidParam, NoMotionWindow
from diffswitch.rng import replicate_rng
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


def naive_clusters(Q, c, c_star, first_index=0):
    """Clusters from a per-window count and a per-start loop over the runs."""
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
    return clusters


class TestFindClusters:
    def test_matches_naive_window_count(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 120))
            Q = rng.choice([-2, -1, 0, 1, 2], size=n, p=[0.15, 0.15, 0.4, 0.15, 0.15])
            Q[rng.random(n) < rng.random()] = 0
            for c in {1, n, int(rng.integers(1, n + 1))}:
                for c_star in {1, c, int(rng.integers(1, c + 1))}:
                    first = int(rng.integers(0, 50))
                    assert find_clusters(Q, c, c_star, first) == naive_clusters(Q, c, c_star, first)

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
        assert set(range(5, 12)) <= set(clusters[0].indices)
        assert set(range(40, 47)) <= set(clusters[1].indices)
        assert all(cl.end - cl.start + 1 >= 6 for cl in clusters)

    def test_increasing_c_star_is_monotone(self):
        rng = np.random.default_rng(0)
        Q = (rng.random(200) < 0.4).astype(int)
        covered = None
        for c_star in range(1, 9):
            now = set()
            for cl in find_clusters(Q, c=8, c_star=c_star):
                now.update(cl.indices)
            if covered is not None:
                assert now <= covered
            covered = now

    def test_first_index_offsets(self):
        base = find_clusters(EXAMPLE_Q, 15, 10)
        off = find_clusters(EXAMPLE_Q, 15, 10, first_index=30)
        assert off == [Cluster(base[0].start + 30, base[0].end + 30)]

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


class TestRunBatch:
    @pytest.mark.parametrize("delta", [1.0, 0.03])
    @pytest.mark.parametrize("labelling", [False, True])
    def test_rows_equal_run_procedure(self, relaxed_300_30, delta, labelling):
        # A non-unit time step must reach the stacked kernel exactly.
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

    def test_mixed_time_steps_rejected(self, brownian_300, relaxed_300_30):
        other = Trajectory(grid=TimeGrid(0.0, 0.5, 300), positions=brownian_300.positions)
        with pytest.raises(InvalidParam):
            run_batch([brownian_300, other], DetectionConfig(k=30, thresholds=relaxed_300_30))

    def test_one_immobile_row_fails_the_batch(self, brownian_300, relaxed_300_30):
        pos = brownian_300.positions.copy()
        pos[100:150] = pos[100]
        still = Trajectory(grid=brownian_300.grid, positions=pos)
        with pytest.raises(NoMotionWindow):
            run_batch([brownian_300, still], DetectionConfig(k=30, thresholds=relaxed_300_30))
