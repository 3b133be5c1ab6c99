"""Trajectory representation on a uniform time grid, plus CSV I/O.

The CSV format is UTF-8 with a one-line header ``t,x,y`` or ``t,x,y,z``
and a decimal point. Non-uniform time grids are rejected rather than
resampled: the detection statistics assume a constant lag.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParam,
    IoFailure,
    MalformedRow,
    NonUniformGrid,
    OutOfBounds,
    TooShort,
)

# Relative tolerance on spacing deviation when inferring the grid.
_GRID_RTOL = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k*delta for k = 0..n_steps."""

    t0: float
    delta: float
    n_steps: int

    def __post_init__(self):
        if self.delta <= 0:
            raise InvalidParam(f"delta must be positive, got {self.delta}")
        if self.n_steps < 1:
            raise InvalidParam(f"n_steps must be >= 1, got {self.n_steps}")

    def point(self, k):
        return self.t0 + k * self.delta

    @property
    def span(self):
        """Total time t_n - t_0."""
        return self.n_steps * self.delta


@dataclass(frozen=True)
class Segment:
    """Inclusive index range [start_index, end_index] on a grid."""

    start_index: int
    end_index: int

    def __post_init__(self):
        if not 0 <= self.start_index < self.end_index:
            raise OutOfBounds(
                f"need 0 <= start < end, got ({self.start_index}, {self.end_index})"
            )

    @property
    def n_points(self):
        return self.end_index - self.start_index + 1

    @property
    def n_steps(self):
        return self.end_index - self.start_index


@dataclass(frozen=True)
class Trajectory:
    """Observed positions X_{t_k} in R^d (d = 2 or 3) on a uniform grid.

    Immutable after construction; safe to share across workers.
    """

    grid: TimeGrid
    positions: np.ndarray = field(repr=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] not in (2, 3):
            raise InvalidParam(f"positions must be (n+1, 2) or (n+1, 3), got {pos.shape}")
        if pos.shape[0] != self.grid.n_steps + 1:
            raise InvalidParam(
                f"got {pos.shape[0]} positions for a grid of {self.grid.n_steps + 1} points"
            )
        if not np.isfinite(pos).all():
            raise InvalidParam("positions contain NaN or Inf")

    @property
    def dim(self):
        return self.positions.shape[1]

    @property
    def n_steps(self):
        return self.grid.n_steps


def load_csv(path):
    """Read a trajectory from a `t,x,y[,z]` CSV file.

    The time step is inferred as the median of successive differences;
    any stamp deviating from the uniform grid by more than 1e-6 relative
    is rejected.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TooShort(f"{path}: empty file")
            ncols = len(header)
            if ncols not in (3, 4):
                raise MalformedRow(f"{path}: header must have 3 or 4 columns, got {ncols}")
            times, coords = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != ncols:
                    raise MalformedRow(f"{path}:{lineno}: expected {ncols} fields, got {len(row)}")
                try:
                    values = [float(v) for v in row]
                except ValueError:
                    raise MalformedRow(f"{path}:{lineno}: non-numeric field")
                times.append(values[0])
                coords.append(values[1:])
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if len(times) < 3:
        raise TooShort(f"{path}: need at least 3 points, got {len(times)}")
    t = np.asarray(times)
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise NonUniformGrid(f"{path}: time column must be strictly increasing")
    delta = float(np.median(diffs))
    expected = t[0] + delta * np.arange(len(t))
    scale = max(abs(t[0]), abs(t[-1]), delta)
    if np.max(np.abs(t - expected)) > _GRID_RTOL * scale:
        raise NonUniformGrid(f"{path}: spacing deviates from uniform beyond tolerance")
    grid = TimeGrid(t0=float(t[0]), delta=delta, n_steps=len(t) - 1)
    return Trajectory(grid=grid, positions=np.asarray(coords))


def save_csv(traj, path):
    """Write a trajectory as CSV; .17g round-trips every float64 exactly."""
    header = ["t", "x", "y", "z"][: traj.dim + 1]
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(traj.n_steps + 1):
                row = [f"{traj.grid.point(k):.17g}"]
                row += [f"{v:.17g}" for v in traj.positions[k]]
                writer.writerow(row)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def subtrajectory(traj, seg):
    """Extract the positions of a segment; t0 shifts to the segment start."""
    if seg.end_index > traj.n_steps:
        raise OutOfBounds(
            f"segment end {seg.end_index} exceeds last index {traj.n_steps}"
        )
    grid = TimeGrid(
        t0=traj.grid.point(seg.start_index),
        delta=traj.grid.delta,
        n_steps=seg.n_steps,
    )
    return Trajectory(grid=grid, positions=traj.positions[seg.start_index : seg.end_index + 1])
