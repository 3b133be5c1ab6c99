import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffswitch import (
    ThresholdPair,
    Trajectory,
    backward_forward,
    estimate_sigma2,
    gen_brownian,
    label_segments,
    phi,
    sliding_stats,
    statistic_T,
)
from diffswitch import simulators, stats
from diffswitch.errors import (
    InvalidParam,
    NoMotion,
    NoMotionWindow,
    TooShort,
    WindowTooLarge,
)
from diffswitch.stats import SegmentStats
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


def lag_einsum_backward_forward(pos, k):
    """The lag kernel with each squared distance from one einsum over d."""
    n, d = pos.shape[0] - 1, pos.shape[1]
    m = n - 2 * k + 1
    steps = np.diff(pos, axis=0)
    ssq = np.einsum("ij,ij->i", steps, steps)
    win = ssq[: n - k + 1].copy()
    for j in range(1, k):
        win += ssq[j : n - k + 1 + j]
    max_b, max_f = np.zeros(m), np.zeros(m)
    for j in range(1, k + 1):
        diff = pos[k : n - k + j + 1] - pos[k - j : n - k + 1]
        s = np.einsum("ij,ij->i", diff, diff)
        max_b = np.maximum(max_b, s[:m])
        max_f = np.maximum(max_f, s[j:])
    B = np.sqrt(max_b) / np.sqrt(k * (win[:m] / (k * d)))
    A = np.sqrt(max_f) / np.sqrt(k * (win[k:] / (k * d)))
    return B, A


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

    def test_scalar_agrees_with_array(self):
        pair = ThresholdPair(1.0, 3.0)
        xs = [0.5, 1.0, 2.0, 3.0, 3.5, math.nan]
        codes = phi(np.array(xs), pair)
        assert codes.tolist() == [1, 0, 0, 0, 2, 0]
        for x, code in zip(xs, codes):
            for scalar in (x, np.float64(x)):
                assert type(phi(scalar, pair)) is int
                assert phi(scalar, pair) == code


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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_list_and_stack_give_arrays(self, dim):
        grid = TimeGrid(0.0, 0.25, 80)
        trajs = [gen_brownian(grid, dim, 1.0, np.random.default_rng(seed)) for seed in range(6)]
        single = [estimate_sigma2(t) for t in trajs]
        assert all(type(v) is float for v in single)
        assert np.array_equal(estimate_sigma2(trajs), single)
        stack = np.stack([t.positions for t in trajs]).reshape(3, 2, 81, dim)
        per_row = [estimate_sigma2(make(t.positions)) for t in trajs]
        assert np.array_equal(estimate_sigma2(stack), np.reshape(per_row, (3, 2)))

    @pytest.mark.parametrize("e", [500, -500])
    def test_power_of_two_scale_is_exact(self, e):
        pos = np.random.default_rng(6).normal(size=(120, 2)).cumsum(axis=0)
        expected = math.ldexp(estimate_sigma2(make(pos)), 2 * e)
        assert estimate_sigma2(make(np.ldexp(pos, e))) == expected
        stack = np.stack([pos, 3 * pos])
        scaled = estimate_sigma2(np.ldexp(stack, e))
        assert np.array_equal(scaled, np.ldexp(estimate_sigma2(stack), 2 * e))

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_out_of_range_estimate_raises(self, scale):
        # The track moves, but its estimate overflows or underflows to zero.
        traj = gen_brownian(TimeGrid(0.0, 1.0, 100), 2, 1.0, np.random.default_rng(7))
        with pytest.raises(InvalidParam):
            estimate_sigma2(make(traj.positions * scale))
        with pytest.raises(InvalidParam):
            estimate_sigma2(np.stack([traj.positions, traj.positions * scale]))


class TestSegmentStats:
    @pytest.mark.parametrize("positions", [[], [0.0, 1.0, 2.0]], ids=["empty", "one_dim"])
    def test_positions_without_point_axis_are_a_domain_error(self, positions):
        with pytest.raises(InvalidParam, match="shape \\(..., points, dim\\)"):
            SegmentStats(positions)

    def test_empty_and_still_segments_give_nan(self):
        pos = np.random.default_rng(8).normal(size=(301, 2)).cumsum(axis=0)
        pos[100:161] = pos[100]  # 60 still steps
        segments = SegmentStats(make(pos))
        # [0, 100], [100, 100] without steps, [100, 160] still, [160, 300]
        values = segments.between([[100, 100, 160]])
        assert [math.isnan(T) for T, _ in values] == [False, True, True, False]
        for lo, hi in ((100, 100), (100, 160), (120, 150)):
            T, total = segments.segment(0, lo, hi)
            assert math.isnan(T) and total == 0.0

    @pytest.mark.parametrize("scale", [2.0**-500, 1.0, 2.0**500], ids=["2**-500", "1", "2**500"])
    @pytest.mark.parametrize("delta", [1.0, 0.03])
    def test_whole_row_T_is_one_value_on_every_path(self, delta, scale):
        rows = 4
        stack = scale * np.random.default_rng(9).normal(size=(rows, 301, 2)).cumsum(axis=1)
        trajs = [make(p, delta) for p in stack]
        segments = SegmentStats(trajs)
        paths = [
            segments.whole()[0].tolist(),
            [T for T, _ in segments.between([[]] * rows)],
            [segments.segment(r, 0, 300)[0] for r in range(rows)],
            [statistic_T(t) for t in trajs],
            statistic_T(trajs).tolist(),
        ]
        assert all(math.isfinite(T) for T in paths[0])
        assert [[T.hex() for T in path] for path in paths] == [[T.hex() for T in paths[0]]] * len(paths)


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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_definition_bit_for_bit(self, dim):
        # The definition in float arithmetic on the unscaled positions: power-of-two
        # scaling and an exactly rounded step sum leave every bit of T as it is.
        rng = np.random.default_rng(dim)
        for delta in (1.0, 0.03):
            for n in (2, 3, *rng.integers(4, 400, size=20).tolist()):
                pos = rng.normal(size=(n + 1, dim)).cumsum(axis=0)
                steps = np.diff(pos, axis=0)
                total = math.fsum(np.einsum("...i,...i->...", steps, steps).tolist())
                disp = pos[1:] - pos[0]
                peak = np.sqrt(np.einsum("...i,...i->...", disp, disp)).max()
                expected = peak / math.sqrt(n * delta * (total / (n * dim * delta)))
                assert statistic_T(make(pos, delta)) == expected

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_rows_match_single_trajectory(self, dim):
        grid = TimeGrid(0.0, 1.0, 80)
        trajs = [gen_brownian(grid, dim, 1.0, np.random.default_rng(seed)) for seed in range(6)]
        trajs[4] = make(trajs[4].positions * 1e160)
        stack = np.stack([t.positions for t in trajs]).reshape(3, 2, 81, dim)
        T = statistic_T(stack)
        assert T.shape == (3, 2)
        for row, traj in enumerate(trajs):
            assert np.array_equal(T[row // 2, row % 2], statistic_T(traj))

    def test_stack_with_immobile_row_raises(self):
        stack = np.random.default_rng(5).normal(size=(4, 51, 2)).cumsum(axis=1)
        stack[2] = stack[2, 0]
        with pytest.raises(NoMotion):
            statistic_T(stack)

    def test_steps_overflowing_a_float_raise_a_domain_error(self):
        # Finite positions whose last step overflows: without unit scaling
        # the finite squared steps overflow the exactly rounded step sum.
        traj = make([[0, 0], [1.2e154, 0], [2.4e154, 0], [1.7e308, 0], [-1.7e308, 0]])
        calls = (statistic_T, estimate_sigma2, lambda t: label_segments(t, [], (0.5, 2.0)),
                 lambda t: statistic_T(t.positions[None]), lambda t: backward_forward(t, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(InvalidParam, match="positions span too wide a range"):
                    call(traj)


@st.composite
def hard_rows(draw):
    """A 2-D array of nonnegative floats that is hard to sum exactly.

    Each row is one of: wide, tiny and subnormal values; a value plus
    pieces that add up to exactly half its ulp (a tie that rounds to
    even), perhaps nudged off the tie by a tiny value; or all zeros.
    """
    m = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["values", "tie", "zero"]))
        row = [0.0] * m
        if kind == "values":
            values = st.floats(0, 4) | st.floats(0, 1e-300) | st.floats(0, 2.0**-1022)
            row = draw(st.lists(values, min_size=m, max_size=m))
        elif kind == "tie" and m >= 2:
            a = draw(st.floats(2.0**-1000, 4))
            half, pieces = np.spacing(a) / 2, draw(st.integers(1, m - 1))
            # half / 2, half / 4, ..., and the last one twice: together exactly half.
            parts = [half / 2**j for j in range(1, pieces)] + [half / 2 ** (pieces - 1)]
            row[:pieces + 1] = [a, *parts]
            if draw(st.booleans()) and pieces + 1 < m:
                row[-1] = draw(st.floats(0, half * 2.0**-40))
            row = draw(st.permutations(row))
        rows.append(row)
    return np.array(rows)


@st.composite
def segment_cases(draw):
    """A SegmentStats of a random stack and segments of it, each row's tiling or one segment.

    Rows have few or many steps, on both sides of EXACT_SUM_CUTOVER; some
    may be still, and change points may repeat or sit at 0 and n.
    """
    rows, dim = draw(st.integers(1, 4)), draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 300) | st.integers(1000, 3000))
    pos = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(rows, n + 1, dim))
    pos = pos.cumsum(axis=1)
    still = draw(st.lists(st.integers(0, rows - 1), max_size=rows))
    pos[still] = pos[still, :1]
    segments = SegmentStats(np.ldexp(pos, draw(st.sampled_from([-500, 0, 500]))))
    if draw(st.booleans()):
        cut = st.sampled_from([0, n // 2, n]) | st.integers(0, n)  # repeats and ends are common
        return segments, [sorted(draw(st.lists(cut, max_size=6))) for _ in range(rows)]
    lo, hi = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    return segments, (draw(st.integers(0, rows - 1)), lo, hi)


def count_fsum_calls(monkeypatch):
    """The list of what each later stats.math.fsum call sums, as a list."""
    calls, fsum = [], math.fsum
    monkeypatch.setattr(stats.math, "fsum", lambda values: calls.append(list(values)) or fsum(values))
    return calls


class TestRowSums:
    """stats._exact_sums, the one exact sum behind every step sum of SegmentStats."""

    @settings(max_examples=150, deadline=None)
    @given(hard_rows())
    def test_equals_fsum(self, x):
        rows = len(x)
        with mock.patch.object(stats, "EXACT_SUM_CUTOVER", 0):  # the vectorised pass at any size
            sums = stats._exact_sums(x, range(rows), [0] * rows, [x.shape[-1]] * rows)
        assert sums == [math.fsum(row) for row in x.tolist()]

    def test_fallback_only_near_a_tie(self, monkeypatch):
        rows = count_fsum_calls(monkeypatch)
        monkeypatch.setattr(stats, "EXACT_SUM_CUTOVER", 0)
        # 1 + 2**-53 lies half-way between 1 and its successor and rounds to even.
        tie = [1.0, 2.0**-53, 0.0, 0.0, 0.0]
        # Just above that tie, by pieces each below half an ulp of the running residue sum,
        # which rounds them all away: only the rounding bound of the residues sends it to fsum.
        lost = np.nextafter(2.0**-107, 0.0)
        above = [1.0, 2.0**-53 - 2.0**-106, lost, lost, lost]
        # 1 + 3 * 2**-53 lies half-way too, and rounds up to even: the TwoSum error is negative.
        tie_up = [1.0, 3 * 2.0**-53, 0.0, 0.0, 0.0]
        x = np.array([tie, above, [1.0, 2.0**-52, 0.0, 0.0, 0.0], tie_up])
        assert stats._exact_sums(x, range(4), [0] * 4, [5] * 4) == [
            1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-52, 1.0 + 2.0**-51]
        assert rows == [tie, above, tie_up]

    @settings(max_examples=100, deadline=None)
    @given(segment_cases())
    def test_segments_equal_fsum(self, case):
        segments, points = case
        if isinstance(points, tuple):  # one segment, as the merge asks for it
            sums, (row, lo, hi) = [segments.segment(*points)[1]], ([p] for p in points)
        else:
            sums, (row, lo, hi) = [total for _, total in segments.between(points)], segments.bounds(points)
        assert sums == [math.fsum(segments.ssq[r, a:b].tolist()) for r, a, b in zip(row, lo, hi)]

    def test_brownian_stacks_never_fall_back(self, monkeypatch):
        fsum, calls = math.fsum, count_fsum_calls(monkeypatch)
        rng = np.random.default_rng(11)
        for n, rows, count in ((300, 32, 3), (50_000, 1, 20)):
            null = simulators.ScenarioSpec(n, (), (simulators.RegimeSpec(simulators.BROWNIAN),))
            segments = SegmentStats(next(simulators.replicate_stacks(null, 3, replicates=rows)))
            assert segments.ssq.size >= stats.EXACT_SUM_CUTOVER
            points = [np.sort(rng.choice(n, count - 1, replace=False)).tolist() for _ in range(rows)]
            totals = [segments.whole()[1].tolist(), [total for _, total in segments.between(points)]]
            row, lo, hi = segments.bounds(points)
            assert calls == []
            assert totals == [[fsum(r) for r in segments.ssq.tolist()],
                              [fsum(segments.ssq[r, a:b].tolist()) for r, a, b in zip(row, lo, hi)]]

    def test_still_segments_never_fall_back(self, monkeypatch):
        calls = count_fsum_calls(monkeypatch)
        stack = np.random.default_rng(12).normal(size=(32, 301, 2)).cumsum(axis=1)
        stack[5] = stack[5, 0]  # a still row
        stack[9, 120:181] = stack[9, 120]  # a 60-step still stretch
        segments = SegmentStats(stack)
        points = [[120, 180] if r == 9 else [50 + r, 200 + r] for r in range(32)]
        totals = [total for _, total in segments.between(points)]
        row, lo, hi = segments.bounds(points)
        assert calls == []
        assert totals == [math.fsum(segments.ssq[r, a:b].tolist()) for r, a, b in zip(row, lo, hi)]
        assert totals.count(0.0) == 4

    def test_segment_without_high_parts_still_falls_back(self, monkeypatch):
        # Next to a 1.0, values near 2**-200 have no high part: all of their sum is residue.
        # Scaled down, the above-a-tie row of test_fallback_only_near_a_tie then needs fsum.
        lost = np.nextafter(2.0**-107, 0.0)
        tiny = [v * 2.0**-200 for v in (1.0, 2.0**-53 - 2.0**-106, lost, lost, lost)]
        expected = math.fsum(tiny)
        calls = count_fsum_calls(monkeypatch)
        monkeypatch.setattr(stats, "EXACT_SUM_CUTOVER", 0)
        assert stats._exact_sums(np.array([[1.0, *tiny]]), [0], [1], [6]) == [expected]
        assert calls == [tiny]


class TestBackwardForward:
    @pytest.mark.parametrize("k", [2, 5, 20, 50])
    def test_matches_naive_reference(self, brownian_300, k):
        B, A = backward_forward(brownian_300, k)
        B_ref, A_ref = naive_backward_forward(brownian_300, k)
        # Window sums accumulate left to right in both paths; any residual
        # difference comes from einsum vs np.sum and stays within a few ulp.
        np.testing.assert_allclose(B, B_ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(A, A_ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k", [1, 7, 30])
    def test_matches_per_lag_einsum_oracle(self, k):
        # Planar squared distances have two terms, so any summation order
        # gives the same bits; in 3-D the order may move the last bit.
        rng = np.random.default_rng(k)
        for dim, rtol in ((2, 0.0), (3, 1e-15)):
            for _ in range(5):
                pos = rng.normal(size=(201, dim)).cumsum(axis=0)
                B, A = backward_forward(make(pos), k)
                B_ref, A_ref = lag_einsum_backward_forward(pos, k)
                if rtol == 0.0:
                    assert np.array_equal(B, B_ref) and np.array_equal(A, A_ref)
                else:
                    np.testing.assert_allclose(B, B_ref, rtol=rtol, atol=0)
                    np.testing.assert_allclose(A, A_ref, rtol=rtol, atol=0)
        # Steps from about 1e-30 to 1e30: here any other order of the window sums, such as
        # differences of a cumulative sum or a pairwise sum, moves bits.
        pos = rng.normal(size=(201, 2)) * 10.0 ** rng.uniform(-30, 30, size=(201, 1))
        B, A = backward_forward(make(pos), k)
        B_ref, A_ref = lag_einsum_backward_forward(pos, k)
        assert np.array_equal(B, B_ref) and np.array_equal(A, A_ref)

    def test_output_length(self, brownian_300):
        B, A = backward_forward(brownian_300, 30)
        assert len(B) == len(A) == 300 - 2 * 30 + 1

    def test_scale_invariance(self, brownian_300):
        B, A = backward_forward(brownian_300, 25)
        # A time step other than 1 cancels between the window span and the diffusion estimate.
        for scale, delta in ((100.0, 1.0), (1e160, 1.0), (1e-160, 1.0), (3.0, 0.1)):
            scaled = make(brownian_300.positions * scale, delta=delta)
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
        assert peak < 10 * 2**20

    def test_long_stack_is_copied_one_block_at_a_time(self):
        # 6.4 MB of positions; a copy of the whole stack at once would read about 32 MB.
        stack = np.random.default_rng(2).normal(size=(8, 50_001, 2)).cumsum(axis=1)
        tracemalloc.start()
        try:
            backward_forward(stack, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20

    def test_time_reversal_swaps_roles(self, brownian_300):
        B, A = backward_forward(brownian_300, 25)
        rev = make(brownian_300.positions[::-1])
        B_r, A_r = backward_forward(rev, 25)
        assert np.allclose(B, A_r[::-1], rtol=1e-12)
        assert np.allclose(A, B_r[::-1], rtol=1e-12)

    def test_window_too_large(self, brownian_300):
        with pytest.raises(WindowTooLarge):
            backward_forward(brownian_300, 151)

    @pytest.mark.parametrize("form", ["trajectory", "list", "stack"])
    def test_segment_stats_input_equals_raw_input(self, form):
        grid = TimeGrid(0.0, 0.5, 60)
        trajs = [gen_brownian(grid, 2, 1.0, np.random.default_rng(seed)) for seed in range(6)]
        traj = {"trajectory": trajs[0], "list": trajs,
                "stack": np.stack([t.positions for t in trajs]).reshape(2, 3, 61, 2)}[form]
        pair = ThresholdPair(0.74, 3.26)
        for k in (1, 30):
            B, A = backward_forward(traj, k)
            B_s, A_s = backward_forward(SegmentStats(traj), k)
            assert B_s.shape == B.shape and np.array_equal(B_s, B) and np.array_equal(A_s, A)
            assert np.array_equal(sliding_stats(SegmentStats(traj), k, pair).Q,
                                  sliding_stats(traj, k, pair).Q)
        if form != "list":
            assert np.array_equal(statistic_T(SegmentStats(traj)), statistic_T(traj))

    def test_block_size_does_not_change_result(self, monkeypatch):
        default = stats.KERNEL_BLOCK_BYTES
        stack = np.random.default_rng(8).normal(size=(32, 301, 2)).cumsum(axis=1)
        B, A = backward_forward(stack, 30)
        row_bytes = 8 * 2 * 301  # one planar row laid out in a block
        for block_bytes in (1, 7 * row_bytes, 32 * row_bytes):
            monkeypatch.setattr(stats, "KERNEL_BLOCK_BYTES", block_bytes)
            B_b, A_b = backward_forward(stack, 30)
            assert np.array_equal(B_b, B) and np.array_equal(A_b, A)
        # (rows, points, difference columns per lag in the buffer) at k = 30, where a 301-point
        # row has 271 differences per lag: one lag per pass; 30 lags in passes of 4, so the
        # last pass overlaps the one before; all 30 lags in one pass; one long row in 4 column
        # tiles, the last overlapping; tile edges inside each of 3 rows.
        blockings = ((5, 301, 301), (1, 301, 4 * 271), (1, 301, 30 * 271), (1, 2001, 600), (3, 401, 200))
        for rows, points, cols in blockings:
            for dim in (1, 2, 3):
                stack = np.random.default_rng(points + dim).normal(size=(rows, points, dim)).cumsum(axis=1)
                monkeypatch.setattr(stats, "KERNEL_BLOCK_BYTES", default)
                B, A = backward_forward(stack, 30)
                monkeypatch.setattr(stats, "KERNEL_BLOCK_BYTES", 8 * dim * cols)
                B_b, A_b = backward_forward(stack, 30)
                assert np.array_equal(B_b, B) and np.array_equal(A_b, A), (rows, points, cols, dim)
                if dim == 2:
                    for row in range(rows):
                        B_ref, A_ref = lag_einsum_backward_forward(stack[row], 30)
                        assert np.array_equal(B_b[row], B_ref) and np.array_equal(A_b[row], A_ref)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 6), n=st.integers(2, 240), dim=st.integers(1, 3),
           k_share=st.floats(0, 1), block_log2=st.integers(4, 20), seed=st.integers(0, 2**16))
    def test_any_blocking_matches_the_default(self, rows, n, dim, k_share, block_log2, seed):
        k = 1 + round(k_share * (n // 2 - 1))
        stack = np.random.default_rng(seed).normal(size=(rows, n + 1, dim)).cumsum(axis=1)
        B, A = backward_forward(stack, k)
        default = stats.KERNEL_BLOCK_BYTES
        try:
            stats.KERNEL_BLOCK_BYTES = 2**block_log2
            B_b, A_b = backward_forward(stack, k)
        finally:
            stats.KERNEL_BLOCK_BYTES = default
        assert np.array_equal(B_b, B) and np.array_equal(A_b, A)
        if dim == 2:
            B_ref, A_ref = lag_einsum_backward_forward(stack[-1], k)
            assert np.array_equal(B_b[-1], B_ref) and np.array_equal(A_b[-1], A_ref)

    @pytest.mark.parametrize("k", [30.0, 2.5, "3"])
    def test_non_integer_window_raises(self, brownian_300, k):
        with pytest.raises(InvalidParam, match="window size must be an integer"):
            backward_forward(brownian_300, k)

    def test_numpy_integer_window_accepted(self, brownian_300):
        B, A = backward_forward(brownian_300, np.int64(30))
        B_ref, A_ref = backward_forward(brownian_300, 30)
        assert np.array_equal(B, B_ref) and np.array_equal(A, A_ref)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("wrap", [lambda t: t, SegmentStats], ids=["raw", "segment_stats"])
    def test_which_error_wins(self, brownian_300, wrap):
        # Positions are unit-scaled before k is checked, so overflowing steps
        # win over a window that is too large; k is checked before motion.
        overflow = make([[0, 0], [1.7e308, 0], [-1.7e308, 0], [0, 0], [1, 0]])
        still = make(np.zeros((21, 2)))
        cases = ((overflow, 1, InvalidParam), (overflow, 3, InvalidParam),
                 (still, 11, WindowTooLarge), (still, 5, NoMotionWindow),
                 (still, 5.0, InvalidParam), (brownian_300, 151, WindowTooLarge))
        for traj, k, error in cases:
            with pytest.raises(error):
                backward_forward(wrap(traj), k)

    def test_no_motion_window_reports_first_index(self):
        pos = np.zeros((21, 2))
        pos[11:, 0] = np.arange(10) + 1.0
        traj = make(pos)
        with pytest.raises(NoMotionWindow) as exc:
            backward_forward(traj, 5)
        assert exc.value.index == 5

    @staticmethod
    def outlier_track(exponent=None, still=None):
        """n=300 Brownian positions, step 150 scaled by 2**exponent, steps still[0]:still[1] zero."""
        steps = np.random.default_rng(1).normal(size=(300, 2))
        if exponent is not None:
            steps[150] *= 2.0**exponent
        if still is not None:
            steps[slice(*still)] = 0.0
        return np.cumsum(np.vstack([np.zeros((1, 2)), steps]), axis=0)

    def test_underflowing_squares_are_a_range_error(self):
        # Under the row's unit scale every other step squares to 0, yet the windows move.
        pos = self.outlier_track(540)
        with pytest.raises(InvalidParam, match="dynamic range"):
            backward_forward(make(pos), 30)
        with pytest.raises(InvalidParam, match="dynamic range"):
            backward_forward(np.stack([self.outlier_track(), pos]), 30)

    @pytest.mark.parametrize("exponent", [500, 520])
    def test_positions_absorbed_by_an_outlier_are_still(self, exponent):
        # The cumulative sum absorbs the unit steps: the stored positions after 151 are constant.
        with pytest.raises(NoMotionWindow) as exc:
            backward_forward(make(self.outlier_track(exponent)), 30)
        assert exc.value.index == 151

    def test_still_stretch_is_still_no_motion(self):
        with pytest.raises(NoMotionWindow) as exc:
            backward_forward(make(self.outlier_track(still=(120, 150))), 30)
        assert exc.value.index == 120


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

