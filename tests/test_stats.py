import math
import tracemalloc

import numpy as np
import pytest

from diffswitch import (
    Segment,
    ThresholdPair,
    Trajectory,
    backward_forward,
    empirical_msd,
    estimate_sigma2,
    gen_brownian,
    phi,
    sliding_stats,
    statistic_T,
)
from diffswitch.errors import (
    InvalidParam,
    NoMotion,
    NoMotionWindow,
    TooShort,
    WindowTooLarge,
)
from diffswitch.trajectory import TimeGrid


def naive_backward_forward(traj, k):
    """Straight transcription of the definitions, one window at a time."""
    pos = traj.positions
    n = traj.n_steps
    d = traj.dim
    delta = traj.grid.delta
    B, A = [], []
    for i in range(k, n - k + 1):
        ssq_b = 0.0
        for j in range(i - k, i):
            ssq_b += float(np.sum((pos[j + 1] - pos[j]) ** 2))
        sig2_b = ssq_b / (k * d * delta)
        max_b = max(np.linalg.norm(pos[j] - pos[i]) for j in range(i - k, i))
        B.append(max_b / math.sqrt(k * delta * sig2_b))

        ssq_f = 0.0
        for j in range(i, i + k):
            ssq_f += float(np.sum((pos[j + 1] - pos[j]) ** 2))
        sig2_f = ssq_f / (k * d * delta)
        max_f = max(np.linalg.norm(pos[j] - pos[i]) for j in range(i + 1, i + k + 1))
        A.append(max_f / math.sqrt(k * delta * sig2_f))
    return np.array(B), np.array(A)


def make(positions, delta=1.0):
    positions = np.asarray(positions, dtype=float)
    return Trajectory(
        grid=TimeGrid(0.0, delta, positions.shape[0] - 1), positions=positions
    )


class TestThresholdPair:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidParam):
            ThresholdPair(2.0, 1.0)
        with pytest.raises(InvalidParam):
            ThresholdPair(-0.1, 1.0)

    def test_degenerate_pair_allowed(self):
        pair = ThresholdPair(0.0, math.inf)
        assert np.array_equal(phi([0.01, 5.0, 1e9], pair), [0, 0, 0])


class TestPhi:
    def test_three_levels(self):
        pair = ThresholdPair(1.0, 3.0)
        assert np.array_equal(phi([0.5, 1.0, 2.0, 3.0, 3.5], pair), [1, 0, 0, 0, 2])

    def test_scalar_input(self):
        assert phi(0.2, ThresholdPair(1.0, 3.0)) == 1


class TestSigma2:
    def test_hand_computed(self):
        # Steps (1,0), (0,2): sum of squares 5 over m=2, d=2, delta=1.
        traj = make([[0, 0], [1, 0], [1, 2]])
        assert estimate_sigma2(traj) == pytest.approx(5 / 4)

    def test_delta_scaling(self):
        traj1 = make([[0, 0], [1, 0], [1, 2]], delta=1.0)
        traj2 = make([[0, 0], [1, 0], [1, 2]], delta=0.5)
        assert estimate_sigma2(traj2) == pytest.approx(2 * estimate_sigma2(traj1))

    def test_unbiased_for_brownian(self):
        grid = TimeGrid(0.0, 1.0, 50_000)
        traj = gen_brownian(grid, 2, 1.5, np.random.default_rng(0))
        assert estimate_sigma2(traj) == pytest.approx(1.5**2, rel=0.02)

    def test_no_motion(self):
        with pytest.raises(NoMotion):
            estimate_sigma2(make([[1, 1], [1, 1], [1, 1]]))

    def test_segment_restriction(self):
        traj = make([[0, 0], [1, 0], [1, 2], [1, 2]])
        assert estimate_sigma2(traj, Segment(0, 2)) == pytest.approx(5 / 4)


class TestStatisticT:
    def test_hand_computed(self):
        # Straight line: excursion 2, sigma2_hat = 2/4, span 2 -> T = 2.
        traj = make([[0, 0], [1, 0], [2, 0]])
        assert statistic_T(traj) == pytest.approx(2.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        traj = gen_brownian(TimeGrid(0.0, 1.0, 100), 2, 1.0, rng)
        for scale in (7.3, 1e160, 1e-160):
            scaled = make(traj.positions * scale)
            assert statistic_T(scaled) == pytest.approx(statistic_T(traj), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_raises(self):
        # Finite positions whose difference overflows.
        with pytest.raises(InvalidParam):
            statistic_T(make([[0, 0], [1.5e308, 0], [-1.5e308, 0]]))

    def test_delta_invariant(self):
        pos = np.random.default_rng(4).normal(size=(60, 2)).cumsum(axis=0)
        assert statistic_T(make(pos, delta=1.0)) == pytest.approx(
            statistic_T(make(pos, delta=0.01)), rel=1e-12
        )

    def test_too_short(self):
        with pytest.raises(TooShort):
            statistic_T(make([[0, 0], [1, 0]]))


class TestBackwardForward:
    @pytest.mark.parametrize("k", [2, 5, 20, 50])
    def test_matches_naive_reference(self, brownian_300, k):
        B, A = backward_forward(brownian_300, k)
        B_ref, A_ref = naive_backward_forward(brownian_300, k)
        # Window sums accumulate left to right in both paths; any residual
        # difference comes from einsum vs np.sum and stays within a few ulp.
        np.testing.assert_allclose(B, B_ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(A, A_ref, rtol=1e-13, atol=0)

    def test_output_length(self, brownian_300):
        B, A = backward_forward(brownian_300, 30)
        assert len(B) == len(A) == 300 - 2 * 30 + 1

    def test_scale_invariance(self, brownian_300):
        B, A = backward_forward(brownian_300, 25)
        for scale in (100.0, 1e160, 1e-160):
            scaled = make(brownian_300.positions * scale)
            B2, A2 = backward_forward(scaled, 25)
            assert np.allclose(B, B2, rtol=1e-12)
            assert np.allclose(A, A2, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_raises(self):
        pos = np.zeros((21, 2))
        pos[1::2, 0] = 1.5e308
        pos[2::2, 0] = -1.5e308
        with pytest.raises(InvalidParam):
            backward_forward(make(pos), 5)

    def test_stack_rows_match_single_trajectory(self):
        grid = TimeGrid(0.0, 1.0, 120)
        trajs = [gen_brownian(grid, 2, 1.0, np.random.default_rng(seed)) for seed in range(6)]
        stack = np.stack([t.positions for t in trajs]).reshape(2, 3, 121, 2)
        B, A = backward_forward(stack, 20)
        assert B.shape == A.shape == (2, 3, 120 - 2 * 20 + 1)
        for row, traj in enumerate(trajs):
            B1, A1 = backward_forward(traj, 20)
            assert np.array_equal(B[row // 3, row % 3], B1)
            assert np.array_equal(A[row // 3, row % 3], A1)

    def test_memory_linear_in_length(self):
        traj = gen_brownian(TimeGrid(0.0, 1.0, 100_000), 2, 1.0, np.random.default_rng(1))
        tracemalloc.start()
        try:
            backward_forward(traj, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_time_reversal_swaps_roles(self, brownian_300):
        B, A = backward_forward(brownian_300, 25)
        rev = make(brownian_300.positions[::-1])
        B_r, A_r = backward_forward(rev, 25)
        assert np.allclose(B, A_r[::-1], rtol=1e-12)
        assert np.allclose(A, B_r[::-1], rtol=1e-12)

    def test_window_too_large(self, brownian_300):
        with pytest.raises(WindowTooLarge):
            backward_forward(brownian_300, 151)

    def test_no_motion_window_reports_first_index(self):
        pos = np.zeros((21, 2))
        pos[11:, 0] = np.arange(10) + 1.0
        traj = make(pos)
        with pytest.raises(NoMotionWindow) as exc:
            backward_forward(traj, 5)
        assert exc.value.index == 5


class TestSlidingStats:
    def test_q_is_difference(self, brownian_300, relaxed_300_30):
        stats = sliding_stats(brownian_300, 30, relaxed_300_30)
        assert np.array_equal(stats.Q, stats.phi_A - stats.phi_B)
        assert stats.first_index == 30
        assert stats.indices[0] == 30
        assert stats.indices[-1] == 270

    def test_q_range(self, brownian_300, relaxed_300_30):
        stats = sliding_stats(brownian_300, 30, relaxed_300_30)
        assert set(np.unique(stats.Q)) <= {-2, -1, 0, 1, 2}


class TestEmpiricalMsd:
    def test_linear_for_ballistic_motion(self):
        pos = np.stack([np.arange(101.0), np.zeros(101)], axis=1)
        msd = empirical_msd(make(pos), 5)
        # Straight-line motion: msd(lag) = lag^2 exactly.
        assert [m for _, m in msd] == pytest.approx([1, 4, 9, 16, 25])

    def test_brownian_slope(self):
        traj = gen_brownian(TimeGrid(0.0, 1.0, 50_000), 2, 1.0, np.random.default_rng(8))
        msd = empirical_msd(traj, 4)
        for lag, value in msd:
            assert value == pytest.approx(2 * lag, rel=0.05)

    def test_bad_lag(self, brownian_300):
        with pytest.raises(TooShort):
            empirical_msd(brownian_300, 300)
