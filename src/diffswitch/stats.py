"""Maximum-excursion statistic and its sliding backward/forward variants.

The scalar statistic is the maximal distance from the start point,
scaled by the elapsed time and the estimated diffusion coefficient. The
estimate divides a step sum by the elapsed time, so the time step
cancels: every statistic here reads positions only, and none moves under
position scaling. The sliding pass computes the same statistic on the
k-point windows ending (B) and starting (A) at every admissible index,
classifies each against two cut-offs, and emits the difference signal Q.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParam, NoMotion, NoMotionWindow, OutOfBounds, TooShort, WindowTooLarge
from .trajectory import Trajectory

# Diffusion-regime labels, indexed by the codes phi returns.
REGIME_LABELS = (BROWNIAN, SUBDIFFUSIVE, SUPERDIFFUSIVE) = (
    "brownian",
    "subdiffusive",
    "superdiffusive",
)

# B/A kernel block bytes, which size the replicate stacks too (block_rows): a block fits a 2 MiB L2.
KERNEL_BLOCK_BYTES = 2**19

# Calls of _exact_sums that sum fewer values than this take one math.fsum per segment. Measured
# on a 2-core x86-64 host (CPU time, median of 7), fsum against the vectorised pass took 17.9
# against 32.6 us for 1,000 values in 3 segments, 34.5 against 35.4 us for 2,000, 36.5 against
# 34.0 us for 2,200, 212 against 85 us for 32 rows of 300 in 96 segments, and 798 against
# 119 us for 50,000 values in 20.
EXACT_SUM_CUTOVER = 2048


@dataclass(frozen=True)
class ThresholdPair:
    """Classification cut-offs gamma1 < gamma2.

    gamma1 = 0 with gamma2 = inf is admitted as the degenerate pair that
    classifies everything as Brownian (useful as a null in experiments);
    calibrated pairs are always strictly positive.
    """

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not 0 <= self.gamma1 < self.gamma2:
            raise InvalidParam(f"need 0 <= gamma1 < gamma2, got ({self.gamma1}, {self.gamma2})")


@dataclass(frozen=True)
class SlidingStats:
    """Per-index backward/forward statistics over i = k .. n-k, and Q = phi(A) - phi(B).

    Arrays are aligned: entry j corresponds to trajectory index k + j.
    """

    k: int
    B: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)

    @property
    def first_index(self):
        return self.k

    @property
    def indices(self):
        return np.arange(self.first_index, self.first_index + len(self.B))


def phi(x, thresholds):
    """Three-level step function: 1 below gamma1, 2 above gamma2, else 0.

    Each code indexes its label in REGIME_LABELS; NaN is 0. A scalar
    gives a plain int, an array an array of codes; an array may also take
    a (gamma1, gamma2) pair of arrays that broadcast against it.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        return 1 if x < thresholds.gamma1 else 2 if x > thresholds.gamma2 else 0
    if isinstance(thresholds, ThresholdPair):
        thresholds = thresholds.gamma1, thresholds.gamma2
    x = np.asarray(x)
    return np.where(x < thresholds[0], 1, np.where(x > thresholds[1], 2, 0))


def _unit_scaled(positions):
    """(positions / 2**e, e) for 2**e the power of two at or above the largest absolute step.

    Stacks are scaled per trajectory. Dividing by a power of two is exact,
    so the scale-invariant statistics keep every bit, while squared
    distances stay near 1 instead of overflowing or underflowing at
    extreme position scales. Raises InvalidParam if a step overflows a float.
    """
    with np.errstate(over="ignore"):
        largest = np.abs(np.diff(positions, axis=-2)).max(axis=(-2, -1), keepdims=True, initial=0.0)
    _require_finite(largest)
    exponent = np.frexp(largest)[1]
    return np.ldexp(positions, -exponent), exponent


def _positions(traj):
    """(positions, time step) of a Trajectory, a list of them or a stack, which is on a unit grid.

    A list of trajectories on one time step is stacked.
    """
    if isinstance(traj, Trajectory):
        return traj.positions, traj.grid.delta
    if isinstance(traj, list) and traj and isinstance(traj[0], Trajectory):
        delta, shape = traj[0].grid.delta, traj[0].positions.shape
        if any(t.grid.delta != delta or t.positions.shape != shape for t in traj):
            raise InvalidParam("stacked trajectories must share one length and time step")
        return np.stack([t.positions for t in traj]), delta
    pos = np.asarray(traj, dtype=float)
    if pos.ndim < 2:
        raise InvalidParam(f"need positions of shape (..., points, dim), got shape {pos.shape}")
    return pos, 1.0


def _require_finite(*values):
    if not all(np.isfinite(v).all() for v in values):
        raise InvalidParam("statistic is not finite; positions span too wide a range")


class SegmentStats:
    """Statistic T and exact step sum of segments of a trajectory, a list of them or a stack.

    Each row is unit-scaled once (see _unit_scaled), keeping its exponent,
    and its squared step norms are kept, so every segment, the whole row
    included, is a slice of the same arrays, and _exact_sums gives every
    step sum. A segment's T equals
    statistic_T of that segment cut out as its own trajectory bit for bit,
    unless a value goes subnormal under the row's scale but not under the
    segment's own: steps below 2**-500 of the row's largest. No statistic
    reads the time step, so a Trajectory's grid is dropped.
    """

    def __init__(self, traj):
        pos = _positions(traj)[0]
        self.shape, (length, self.dim) = pos.shape[:-2], pos.shape[-2:]
        self.pos, exponent = _unit_scaled(pos.reshape(-1, length, self.dim))
        self.exponent = exponent.reshape(self.shape)
        steps = np.diff(self.pos, axis=-2)
        self.ssq = np.einsum("...i,...i->...", steps, steps)
        self.n = length - 1

    def bounds(self, points):
        """(row, lo, hi) arrays of the segments between each row's change points, in row order.

        `points` holds one list of change points per row. Raises
        OutOfBounds unless each list holds integers non-decreasing within
        0 .. n.
        """
        lo = [c for p in points for c in (0, *p)]
        hi = [c for p in points for c in (*p, self.n)]
        if not all(isinstance(b, (int, np.integer)) and a <= b for a, b in zip(lo, hi)):
            raise OutOfBounds(f"change points must be non-decreasing integers within 0 .. {self.n}")
        row = np.repeat(np.arange(len(points)), [len(p) + 1 for p in points])
        return row, np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp)

    def tiled(self, row, lo, hi):
        """(T, step sum) arrays of segments (row, lo, hi) that tile steps 1 .. n of every row in order.

        One _exact_sums call gives every step sum: a stack takes its vectorised pass.
        """
        totals = np.array(_exact_sums(self.ssq, row, lo, hi))
        steps = hi - lo
        # The segments tile steps 1 .. n of each row, so each point meets its own segment's start.
        starts = self.pos[row, lo].repeat(steps, axis=0).reshape(len(self.pos), self.n, -1)
        disp = self.pos[:, 1:] - starts
        # The last 0 keeps the offset of a zero-length last segment in range.
        sq = np.zeros(disp.shape[0] * self.n + 1)
        np.einsum("...i,...i->...", disp, disp, out=sq[:-1].reshape(disp.shape[:-1]))
        peaks = np.maximum.reduceat(sq, steps.cumsum() - steps)
        return self._statistics(steps, peaks, totals), totals

    def segment(self, row, lo, hi):
        """(T, step sum) of segment [lo, hi] of one row."""
        disp = self.pos[row, lo + 1 : hi + 1] - self.pos[row, lo]
        peak = np.einsum("...i,...i->...", disp, disp).max(initial=0.0)
        total = _exact_sums(self.ssq[row : row + 1, lo:hi], [0], [0], [hi - lo])
        return self._statistics(hi - lo, peak, total)[0].item(), total[0]

    def whole(self):
        """(T, step sum) arrays of whole rows, shaped like the stack; NoMotion if a row is still.

        One _exact_sums call gives every step sum, and one _statistics call every T.
        """
        rows, n = len(self.pos), self.n
        # A repeated start point costs less than one broadcast over the (n, 1, dim) axis.
        disp = self.pos[:, 1:] - np.repeat(self.pos[:, :1], n, axis=1)
        peaks = np.einsum("...i,...i->...", disp, disp).max(axis=-1, initial=0.0)
        total = np.array(_exact_sums(self.ssq, range(rows), [0] * rows, [n] * rows))
        if (total == 0.0).any():
            raise NoMotion("all steps are zero; diffusion coefficient undefined")
        return self._statistics(n, peaks, total).reshape(self.shape), total.reshape(self.shape)

    def _statistics(self, steps, peaks, totals):
        """T of segments of m = `steps` steps, given each one's largest squared distance and step sum.

        T = max_i ||X_{t_i} - X_{t_lo}|| / sqrt((t_hi - t_lo) sigma2_hat),
        with sigma2_hat = sum / (m d delta) over the m steps, is
        sqrt(peak) / sqrt(m (sum / (m d))): delta cancels, and sqrt is
        monotonic, so the root of the peak is the largest distance. T is
        NaN (0/0) for a segment without steps or motion.
        """
        with np.errstate(all="ignore"):  # a still segment gives 0/0
            return np.sqrt(peaks) / np.sqrt(steps * (np.asarray(totals) / (steps * self.dim)))


def _exact_sums(x, row, lo, hi):
    """Sum of x[row, lo:hi] per segment of a 2-D array of nonnegative floats, as math.fsum gives it.

    The segments of every caller cover x, so a call on fewer than
    EXACT_SUM_CUTOVER values takes math.fsum segment by segment. Larger
    calls use Rump-Ogita-Oishi extraction. For a row of n values and
    sigma = 2**e > 4 (n + 2) max(row), q = (sigma + x) - sigma is a multiple
    of ulp(sigma) below sigma, so x - q and every partial sum of q are
    exact in any order, while |x - q| <= u sigma (u = 2**-53). The m
    residues of a segment then sum with an error under B = 2 m**2 u**2 sigma.
    One np.add.reduceat per part over (start, stop) index pairs sums every
    segment, and s = sum(q) + sum(x - q) is the exactly rounded sum if
    its TwoSum error keeps B clear of half the gap to either neighbour of s.
    The rare segment near such a tie goes to math.fsum. Values must stay
    below 2**(1021 - log2(n + 2)), as unit-scaled squared steps do.
    """
    if x.size < EXACT_SUM_CUTOVER:
        return [math.fsum(x[r, a:b].data) for r, a, b in zip(row, lo, hi)]
    exponent = np.frexp(x.max(axis=-1, initial=0.0))[1] + 2 + (x.shape[-1] + 1).bit_length()
    sigma = np.ldexp(1.0, exponent)[:, None]
    m = np.subtract(hi, lo)
    # A trailing 0: a stop at the end of x, and both ends of a zero-length segment, read it.
    ends = np.repeat(np.where(m > 0, np.multiply(row, x.shape[-1]) + lo, x.size), 2)
    ends[1::2] += m
    # One buffer holds q, then x - q.
    part = np.zeros(x.size + 1)
    q = part[:-1].reshape(x.shape)
    np.subtract(np.add(sigma, x, out=q), sigma, out=q)
    high = np.add.reduceat(part, ends)[::2]
    np.subtract(x, q, out=q)
    low = np.add.reduceat(part, ends)[::2]
    s = high + low
    error = (high - (s - (s - high))) + (low - (s - high))  # TwoSum: s + error == high + low
    bound = np.ldexp(m * m, exponent[row] - 105)  # B
    below, above = s - np.nextafter(s, -np.inf), np.nextafter(s, np.inf) - s
    # Twice the distance, not half the gap: half the least gap, 2**-1075, rounds to 0.
    for i in np.flatnonzero((2 * (bound - error) >= below) | (2 * (error + bound) >= above)):
        # x >= 0, so q >= 0: a 0 high sum means every q is 0 and every residue its x, and a
        # 0 low sum then means every x is 0. Such a still segment's sum, 0.0, is exact.
        if high[i] or low[i]:
            s[i] = math.fsum(x[row[i], lo[i] : hi[i]].data)
    return s.tolist()


def estimate_sigma2(traj):
    """Diffusion-coefficient estimate from mean squared step length.

    sigma2_hat = (1 / (m d delta)) * sum of squared step norms over the
    m steps; unbiased for Brownian motion in d dimensions. The sum is
    taken on unit-scaled positions and scaled back exactly, so positions
    times 2**e give the estimate times 2**(2e). Raises NoMotion if all
    steps are zero and InvalidParam if the estimate overflows or
    underflows to zero. Like statistic_T, a list or stack of trajectories
    gives an array, one trajectory a float.
    """
    pos, delta = _positions(traj)
    segments = SegmentStats(pos)
    unit = segments.whole()[1] / (segments.n * segments.dim * delta)
    with np.errstate(over="ignore", under="ignore"):
        sigma2 = np.ldexp(unit, 2 * segments.exponent)
    if not np.isfinite(sigma2).all() or (sigma2 == 0.0).any():
        raise InvalidParam("diffusion estimate overflows or underflows a float")
    return sigma2 if sigma2.ndim else float(sigma2)


def statistic_T(traj):
    """Scaled maximum excursion from the trajectory's start point.

    T = max_i ||X_{t_i} - X_{t_0}|| / sqrt((t_n - t_0) sigma2_hat).
    Under the Brownian null its law depends only on the number of steps.

    `traj` is a Trajectory, a stack of positions of shape (..., n+1, d)
    or a SegmentStats of either; the time step cancels. A stack gives a
    (...) array whose entries equal the single-trajectory results
    exactly. Raises NoMotion if any trajectory has no motion.
    """
    segments = traj if isinstance(traj, SegmentStats) else SegmentStats(traj)
    if segments.n < 2:
        raise TooShort("statistic needs at least 2 steps")
    T = segments.whole()[0]
    _require_finite(T)
    return T[()]


def _even_part(total, most):
    """Size of the fewest near-equal parts of total that are at most `most` each (at least 1)."""
    parts = -(-total // max(1, most))
    return -(-total // parts)


def block_rows(n, d):
    """Rows of n + 1 points in d dimensions per kernel block and per replicate stack: at least one."""
    return max(1, KERNEL_BLOCK_BYTES // (8 * d * (n + 1)))


def backward_forward(traj, k):
    """Arrays (B, A) of the windowed statistics for i = k .. n-k.

    B_i uses the window X_{t_{i-k}} .. X_{t_i} with reference point
    X_{t_i}; A_i mirrors it forward. Both denominators are sqrt(k delta
    sigma2_hat) = sqrt(k (sum / (k d))), from the window's own k steps:
    delta cancels. Raises NoMotionWindow if any window has zero motion.

    `traj` is a Trajectory, a list of trajectories of one length and time
    step, a stack of positions of shape (..., n+1, d), or a SegmentStats
    of one of these; a list or stack gives (..., n-2k+1) arrays whose
    rows equal the single-trajectory results exactly. Memory is O(n) per
    trajectory: one pass per lag j = 1..k shares the squared distances
    s_j[t] = ||X_{t+j} - X_t||^2 between B (which reads s_j[i-j]) and A
    (which reads s_j[i]). A block of rows is laid end to end,
    coordinate-major, so each pass runs over one contiguous array;
    differences that straddle two rows are never read. The room that a
    block of rows leaves in a buffer of KERNEL_BLOCK_BYTES goes to more
    lags per pass, and a row too long for it is cut into column tiles.
    """
    segments = traj if isinstance(traj, SegmentStats) else SegmentStats(traj)
    n, d, ssq = segments.n, segments.dim, segments.ssq
    if not isinstance(k, (int, np.integer)):
        raise InvalidParam(f"window size must be an integer, got {k!r}")
    if not 1 <= k <= n // 2:
        raise WindowTooLarge(f"need 1 <= k <= n/2 = {n // 2}, got {k}")
    m = n - 2 * k + 1

    # win[t] = sum of squared steps t .. t+k-1 (step t links points t, t+1), added left to right
    # like a naive sequential loop: a reduce over the leading axis of a (k, size) view adds its
    # rows in order. Rows run end to end: a sum that straddles two rows is never read.
    win, steps = np.zeros_like(ssq), ssq.reshape(-1)
    windows = np.ndarray((k, steps.size - k + 1), float, steps, 0, (8, 8))  # row j: steps j, j + 1, ..
    np.add.reduce(windows, axis=0, out=win.reshape(-1)[: steps.size - k + 1])
    win /= k * d
    sig2_back, sig2_fwd = win[:, :m], win[:, k : k + m]
    bad = (sig2_back == 0) | (sig2_fwd == 0)
    if bad.any():
        # A still window whose unit-scaled positions move holds squares that underflowed.
        held = sliding_window_view(np.diff(segments.pos, axis=-2).any(-1), k, axis=-1).any(-1)
        if ((held[:, :m] & (sig2_back == 0)) | (held[:, k : k + m] & (sig2_fwd == 0))).any():
            raise InvalidParam("squared steps underflow; positions span too wide a dynamic range")
        raise NoMotionWindow(k + int(np.nonzero(bad)[-1].min()))

    # Column u of a block's peaks is its point u + k; row r of the block starts at r (n + 1).
    max_b = np.zeros((len(ssq), n + 1))
    max_f = np.zeros_like(max_b)
    cols = max(1, KERNEL_BLOCK_BYTES // (8 * d))
    rows = block_rows(n, d)
    for r in range(0, len(ssq), rows):
        pt = segments.pos[r : r + rows].transpose(2, 0, 1).copy().reshape(d, -1)
        width = pt.shape[1] - 2 * k
        tile = _even_part(width, max(k, cols - k))
        lags = _even_part(k, cols // (tile + k))
        # behind[:, o, l, v] = X[o + l + v], so x[:, l, v] = X[u + k + v] - X[u + k + v - (top - l)]
        # at o = u + k - top, with lag top - l. With s its squared norm, B at point u + k + v
        # reads s[l, v] and A reads s[l, v + top - l] = forward[top, l, v].
        x = np.empty((d, lags, tile + k))
        s, *rest = x
        behind = np.ndarray((d, pt.shape[1] - lags - tile - k + 2, lags, tile + k), float, pt, 0,
                            (pt.strides[0], 8, 8, 8))
        forward = np.ndarray((k + 1, lags, tile), float, s, 0, (8, 8 * (tile + k - 1), 8))
        # The last tile and lag block may overlap the one before: a maximum taken twice is the same.
        for u in [min(u, width - tile) for u in range(0, width, tile)]:
            peaks = [p[r : r + rows].reshape(-1)[u : u + tile] for p in (max_b, max_f)]
            for top in [min(top, k) for top in range(lags, k + lags, lags)]:
                np.subtract(pt[:, None, u + k : u + tile + 2 * k], behind[:, u + k - top], out=x)
                x *= x
                for coord in rest:
                    s += coord
                for peak, lag_values in zip(peaks, (s[:, :tile], forward[top])):
                    # One lag is read in place: reducing a length-1 axis would copy it.
                    best = lag_values[0] if lags == 1 else np.maximum.reduce(lag_values)
                    np.maximum(peak, best, out=peak)

    # In place, so the window sums over k d turn into the denominators sqrt(k delta sigma2_hat).
    np.sqrt(np.multiply(k, win, out=win), out=win)
    B = np.sqrt(max_b[:, :m]) / win[:, :m]
    A = np.sqrt(max_f[:, :m]) / win[:, k : k + m]
    _require_finite(B, A)
    return B.reshape(segments.shape + (m,)), A.reshape(segments.shape + (m,))


def sliding_stats(traj, k, thresholds):
    """Full sliding pass: B, A and the Q signal phi(A) - phi(B)."""
    B, A = backward_forward(traj, k)
    return SlidingStats(k, B, A, phi(A, thresholds) - phi(B, thresholds))
