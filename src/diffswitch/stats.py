"""Maximum-excursion statistic and its sliding backward/forward variants.

The scalar statistic is the maximal distance from the start point,
scaled by the elapsed time and the estimated diffusion coefficient; it
is invariant to position scaling and to the time step. The sliding pass
computes the same statistic on the k-point windows ending (B) and
starting (A) at every admissible index, classifies each against two
cut-offs, and emits the difference signal Q.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam, NoMotion, NoMotionWindow, OutOfBounds, TooShort, WindowTooLarge
from .trajectory import Trajectory

# Diffusion-regime labels, indexed by the codes phi returns.
REGIME_LABELS = (BROWNIAN, SUBDIFFUSIVE, SUPERDIFFUSIVE) = (
    "brownian",
    "subdiffusive",
    "superdiffusive",
)

# B/A kernel scratch bytes per block of rows: a block's working set then fits a 2 MiB L2 cache.
KERNEL_BLOCK_BYTES = 2**19


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
    """Per-index backward/forward statistics over i = k .. n-k.

    Arrays are aligned: entry j corresponds to trajectory index k + j.
    """

    k: int
    first_index: int
    B: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    phi_B: np.ndarray = field(repr=False)
    phi_A: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)

    @property
    def indices(self):
        return np.arange(self.first_index, self.first_index + len(self.B))


def phi(x, thresholds):
    """Three-level step function: 1 below gamma1, 2 above gamma2, else 0.

    Each code indexes its label in REGIME_LABELS; NaN is 0. A scalar
    gives a plain int, an array an array of codes.
    """
    if np.ndim(x) == 0:
        return 1 if x < thresholds.gamma1 else 2 if x > thresholds.gamma2 else 0
    x = np.asarray(x)
    return np.where(x < thresholds.gamma1, 1, np.where(x > thresholds.gamma2, 2, 0))


def _step_norms_sq(positions):
    steps = np.diff(positions, axis=-2)
    return np.einsum("...i,...i->...", steps, steps)


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
    """(positions, delta) of a Trajectory, a list of them or a unit-grid stack.

    A list of trajectories on one time step is stacked.
    """
    if isinstance(traj, Trajectory):
        return traj.positions, traj.grid.delta
    if isinstance(traj, list) and traj and isinstance(traj[0], Trajectory):
        delta, shape = traj[0].grid.delta, traj[0].positions.shape
        if any(t.grid.delta != delta or t.positions.shape != shape for t in traj):
            raise InvalidParam("stacked trajectories must share one length and time step")
        return np.stack([t.positions for t in traj]), delta
    return np.asarray(traj, dtype=float), 1.0


def _require_finite(*values):
    if not all(np.isfinite(v).all() for v in values):
        raise InvalidParam("statistic is not finite; positions span too wide a range")


class SegmentStats:
    """Statistic T and exact step sum of segments of a trajectory, a list of them or a stack.

    Each row is unit-scaled once (see _unit_scaled), keeping its exponent,
    and its squared step norms are kept, so every segment, the whole row
    included, is a slice of the same arrays. A segment's T equals
    statistic_T of that segment cut out as its own trajectory bit for bit,
    unless a value goes subnormal under the row's scale but not under the
    segment's own: steps below 2**-500 of the row's largest.
    """

    def __init__(self, traj):
        pos, self.delta = _positions(traj)
        self.shape, (length, self.dim) = pos.shape[:-2], pos.shape[-2:]
        self.pos, exponent = _unit_scaled(pos.reshape(-1, length, self.dim))
        self.exponent = exponent.reshape(self.shape)
        self.ssq = _step_norms_sq(self.pos)
        self.n = length - 1

    def bounds(self, points):
        """(row, lo, hi) lists of the segments between each row's change points, in row order.

        `points` holds one list of change points per row. Raises
        OutOfBounds unless each list holds integers non-decreasing within
        0 .. n.
        """
        lo = [c for p in points for c in (0, *p)]
        hi = [c for p in points for c in (*p, self.n)]
        if not all(isinstance(b, (int, np.integer)) and a <= b for a, b in zip(lo, hi)):
            raise OutOfBounds(f"change points must be non-decreasing integers within 0 .. {self.n}")
        return [r for r, p in enumerate(points) for _ in range(len(p) + 1)], lo, hi

    def between(self, points):
        """(T, step sum) of each segment of bounds(points), in the same order."""
        row, lo, hi = self.bounds(points)
        steps = np.subtract(hi, lo)
        # The segments tile steps 1 .. n of each row, so each point meets its own segment's start.
        starts = np.repeat(self.pos[row, lo], steps, axis=0).reshape(len(points), self.n, -1)
        disp = self.pos[:, 1:] - starts
        # The last 0 keeps the offset of a zero-length last segment in range.
        sq = np.zeros(steps.sum() + 1)
        np.einsum("...i,...i->...", disp, disp, out=sq[:-1].reshape(disp.shape[:-1]))
        peaks = np.maximum.reduceat(sq, np.cumsum(steps) - steps).tolist()
        return self._statistics(row, lo, hi, peaks)

    def segment(self, row, lo, hi):
        """(T, step sum) of segment [lo, hi] of one row."""
        disp = self.pos[row, lo + 1 : hi + 1] - self.pos[row, lo]
        peak = np.einsum("...i,...i->...", disp, disp).max(initial=0.0)
        return self._statistics([row], [lo], [hi], [peak])[0]

    def whole(self):
        """(T, step sum) arrays of whole rows, shaped like the stack; NoMotion if a row is still."""
        T, total = np.array(self.between([()] * len(self.pos))).reshape(-1, 2).T
        if (total == 0.0).any():
            raise NoMotion("all steps are zero; diffusion coefficient undefined")
        return T.reshape(self.shape), total.reshape(self.shape)

    def _statistics(self, row, lo, hi, peaks):
        """(T, step sum) of segments (row, lo, hi), given each one's largest squared distance.

        T = max_i ||X_{t_i} - X_{t_lo}|| / sqrt((t_hi - t_lo) sigma2_hat),
        with sigma2_hat = sum / (m d delta) over the m steps; sqrt is
        monotonic, so the root of the peak is the largest distance. T is
        NaN for a segment without steps or motion.
        """
        values = []
        for r, a, b, peak in zip(row, lo, hi, peaks):
            # Exactly rounded; fsum reads the steps through a memoryview, so no list is built.
            total = math.fsum(self.ssq[r, a:b].data)
            m = b - a
            spread = m * self.delta * (total / (m * self.dim * self.delta)) if total else 0.0
            values.append((math.sqrt(peak) / math.sqrt(spread) if spread else math.nan, total))
        return values


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
    segments = SegmentStats(traj)
    unit = segments.whole()[1] / (segments.n * segments.dim * segments.delta)
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
    on a unit time grid, or a SegmentStats of either; a stack gives a
    (...) array whose entries equal the single-trajectory results
    exactly. Raises NoMotion if any trajectory has no motion.
    """
    segments = traj if isinstance(traj, SegmentStats) else SegmentStats(traj)
    if segments.n < 2:
        raise TooShort("statistic needs at least 2 steps")
    T = segments.whole()[0]
    _require_finite(T)
    return T[()]


def backward_forward(traj, k):
    """Arrays (B, A) of the windowed statistics for i = k .. n-k.

    B_i uses the window X_{t_{i-k}} .. X_{t_i} with reference point
    X_{t_i}; A_i mirrors it forward. Both denominators use the window
    span k*delta and the diffusion estimate from that window's own
    steps. Raises NoMotionWindow if any window has zero motion.

    `traj` is a Trajectory, a list of trajectories of one length and time
    step, a stack of positions of shape (..., n+1, d) on a unit time
    grid, or a SegmentStats of one of these; a list or stack gives
    (..., n-2k+1) arrays whose rows equal the single-trajectory results
    exactly. Memory is O(n) per trajectory: one pass per lag j = 1..k
    shares the squared distances s_j[t] = ||X_{t+j} - X_t||^2 between B
    (which reads s_j[i-j]) and A (which reads s_j[i]). Rows go in blocks,
    and all lags of a block reuse one buffer of about KERNEL_BLOCK_BYTES.
    """
    segments = traj if isinstance(traj, SegmentStats) else SegmentStats(traj)
    n, d, ssq = segments.n, segments.dim, segments.ssq
    if not isinstance(k, (int, np.integer)):
        raise InvalidParam(f"window size must be an integer, got {k!r}")
    if not 1 <= k <= n // 2:
        raise WindowTooLarge(f"need 1 <= k <= n/2 = {n // 2}, got {k}")
    m = n - 2 * k + 1

    # win[t] = sum of squared steps t .. t+k-1 (step t links points t, t+1),
    # accumulated left to right like a naive sequential loop over the window.
    win = ssq[:, : n - k + 1].copy()
    for j in range(1, k):
        win += ssq[:, j : n - k + 1 + j]
    win /= k * d * segments.delta
    sig2_back, sig2_fwd = win[:, :m], win[:, k:]
    bad = (sig2_back == 0) | (sig2_fwd == 0)
    if bad.any():
        raise NoMotionWindow(k + int(np.nonzero(bad)[-1].min()))

    max_b = np.zeros_like(sig2_back)
    max_f = np.zeros_like(max_b)
    rows = max(1, KERNEL_BLOCK_BYTES // (8 * d * (m + k)))
    for r in range(0, len(ssq), rows):
        # Coordinate-major copy, so each lag adds d contiguous rows of
        # squared coordinate differences, in coordinate order.
        pt = np.moveaxis(segments.pos[r : r + rows], -1, 0).copy()
        ahead = pt[..., k:]
        x = np.empty_like(ahead)
        (s, *rest), block_b, block_f = x, max_b[r : r + rows], max_f[r : r + rows]
        for j in range(1, k + 1):
            # s[u] = s_j[k - j + u] for u = 0 .. m + k - 1: B reads s[:m], A s[j : j + m].
            np.subtract(ahead, pt[..., k - j : n + 1 - j], out=x)
            x *= x
            for coord in rest:
                s += coord
            np.maximum(block_b, s[:, :m], out=block_b)
            np.maximum(block_f, s[:, j : j + m], out=block_f)

    span = k * segments.delta
    B = np.sqrt(max_b) / np.sqrt(span * sig2_back)
    A = np.sqrt(max_f) / np.sqrt(span * sig2_fwd)
    _require_finite(B, A)
    return B.reshape(segments.shape + (m,)), A.reshape(segments.shape + (m,))


def sliding_stats(traj, k, thresholds):
    """Full sliding pass: B, A, their classifications and the Q signal."""
    B, A = backward_forward(traj, k)
    phi_B = phi(B, thresholds)
    phi_A = phi(A, thresholds)
    return SlidingStats(
        k=k, first_index=k, B=B, A=A, phi_B=phi_B, phi_A=phi_A, Q=phi_A - phi_B
    )
