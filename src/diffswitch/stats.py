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
    """Positions divided by the power of two at or above their largest absolute step.

    Stacks are scaled per trajectory. Dividing by a power of two is exact,
    so the scale-invariant statistics keep every bit, while squared
    distances stay near 1 instead of overflowing or underflowing at
    extreme position scales.
    """
    largest = np.abs(np.diff(positions, axis=-2)).max(axis=(-2, -1), keepdims=True)
    return np.ldexp(positions, -np.frexp(largest)[1])


def _positions(traj, seg=None):
    """(positions, delta) of a Trajectory, a list of them or a unit-grid stack.

    A list of trajectories on one time step is stacked; cut to seg if given.
    """
    if isinstance(traj, Trajectory):
        pos, delta = traj.positions, traj.grid.delta
    elif isinstance(traj, list) and traj and isinstance(traj[0], Trajectory):
        delta, shape = traj[0].grid.delta, traj[0].positions.shape
        if any(t.grid.delta != delta or t.positions.shape != shape for t in traj):
            raise InvalidParam("stacked trajectories must share one length and time step")
        pos = np.stack([t.positions for t in traj])
    else:
        pos, delta = np.asarray(traj, dtype=float), 1.0
    if seg is not None:
        last = pos.shape[-2] - 1
        if seg.end_index > last:
            raise OutOfBounds(f"segment end {seg.end_index} exceeds last index {last}")
        pos = pos[..., seg.start_index : seg.end_index + 1, :]
    return pos, delta


def _require_finite(*values):
    if not all(np.isfinite(v).all() for v in values):
        raise InvalidParam("statistic is not finite; positions span too wide a range")


def _sigma2(positions, delta):
    """Diffusion estimate of each trajectory in a stack, from exact step sums."""
    ssq = _step_norms_sq(positions)
    n_steps, dim = ssq.shape[-1], positions.shape[-1]
    total = np.array([math.fsum(row) for row in ssq.reshape(-1, n_steps).tolist()])
    if (total == 0.0).any():
        raise NoMotion("all steps are zero; diffusion coefficient undefined")
    return total.reshape(ssq.shape[:-1]) / (n_steps * dim * delta)


def estimate_sigma2(traj, seg=None):
    """Diffusion-coefficient estimate from mean squared step length.

    sigma2_hat = (1 / (m d delta)) * sum of squared step norms over the
    m steps of the segment; unbiased for Brownian motion in d dimensions.
    Raises OutOfBounds if seg ends past the trajectory. Like statistic_T,
    a list or stack of trajectories gives an array, one trajectory a float.
    """
    sigma2 = _sigma2(*_positions(traj, seg))
    return sigma2 if sigma2.ndim else float(sigma2)


def statistic_T(traj, seg=None):
    """Scaled maximum excursion from the segment's start point.

    T = max_i ||X_{t_i} - X_{t_0}|| / sqrt((t_n - t_0) sigma2_hat).
    Under the Brownian null its law depends only on the number of steps.

    `traj` is a Trajectory or a stack of positions of shape (..., n+1, d)
    on a unit time grid; a stack gives a (...) array whose entries equal
    the single-trajectory results exactly. Raises NoMotion if any
    trajectory has no motion and OutOfBounds if seg ends past it.
    """
    pos, delta = _positions(traj, seg)
    n_steps = pos.shape[-2] - 1
    if n_steps < 2:
        raise TooShort("statistic needs at least 2 steps")
    pos = _unit_scaled(pos)
    sigma2 = _sigma2(pos, delta)
    disp = pos[..., 1:, :] - pos[..., :1, :]
    excursion = np.sqrt(np.einsum("...i,...i->...", disp, disp)).max(axis=-1)
    T = excursion / np.sqrt(n_steps * delta * sigma2)
    _require_finite(T)
    return T


def backward_forward(traj, k):
    """Arrays (B, A) of the windowed statistics for i = k .. n-k.

    B_i uses the window X_{t_{i-k}} .. X_{t_i} with reference point
    X_{t_i}; A_i mirrors it forward. Both denominators use the window
    span k*delta and the diffusion estimate from that window's own
    steps. Raises NoMotionWindow if any window has zero motion.

    `traj` is a Trajectory, a list of trajectories of one length and time
    step, or a stack of positions of shape (..., n+1, d) on a unit time
    grid; a list or stack gives (..., n-2k+1) arrays whose rows equal the
    single-trajectory results exactly. Memory is O(n) per
    trajectory: one pass per lag j = 1..k shares the squared distances
    s_j[t] = ||X_{t+j} - X_t||^2 between B (which reads s_j[i-j]) and
    A (which reads s_j[i]).
    """
    pos, delta = _positions(traj)
    n = pos.shape[-2] - 1
    if k < 1 or k > n // 2:
        raise WindowTooLarge(f"need 1 <= k <= n/2 = {n // 2}, got {k}")
    d = pos.shape[-1]
    m = n - 2 * k + 1
    pos = _unit_scaled(pos)

    ssq = _step_norms_sq(pos)
    # win[t] = sum of squared steps t .. t+k-1 (step t links points t, t+1),
    # accumulated left to right like a naive sequential loop over the window.
    win = ssq[..., : n - k + 1].copy()
    for j in range(1, k):
        win += ssq[..., j : n - k + 1 + j]
    sig2_back = win[..., :m] / (k * d * delta)
    sig2_fwd = win[..., k:] / (k * d * delta)
    bad = (sig2_back == 0) | (sig2_fwd == 0)
    if bad.any():
        raise NoMotionWindow(k + int(np.nonzero(bad)[-1].min()))

    # Coordinate-major copy, so each lag adds d contiguous rows of squared
    # coordinate differences, in coordinate order.
    pt = np.moveaxis(pos, -1, 0).copy()
    max_b = np.zeros(pos.shape[:-2] + (m,))
    max_f = np.zeros_like(max_b)
    for j in range(1, k + 1):
        # s[u] = s_j[k - j + u] for u = 0 .. m + j - 1.
        x = pt[..., k : n - k + j + 1] - pt[..., k - j : n - k + 1]
        x *= x
        s = x[0]
        for coord in x[1:]:
            s += coord
        np.maximum(max_b, s[..., :m], out=max_b)
        np.maximum(max_f, s[..., j:], out=max_f)

    span = k * delta
    B = np.sqrt(max_b) / np.sqrt(span * sig2_back)
    A = np.sqrt(max_f) / np.sqrt(span * sig2_fwd)
    _require_finite(B, A)
    return B, A


def sliding_stats(traj, k, thresholds):
    """Full sliding pass: B, A, their classifications and the Q signal."""
    B, A = backward_forward(traj, k)
    phi_B = phi(B, thresholds)
    phi_A = phi(A, thresholds)
    return SlidingStats(
        k=k, first_index=k, B=B, A=A, phi_B=phi_B, phi_A=phi_A, Q=phi_A - phi_B
    )
