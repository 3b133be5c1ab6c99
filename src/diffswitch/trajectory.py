"""Trajectory representation on a uniform time grid, plus CSV I/O.

The CSV format is UTF-8 with a one-line header ``t,x,y`` or ``t,x,y,z``
and a decimal point. Fields are read as `csv.reader` and ``float`` read
them: LF, CRLF or CR line ends, blank lines and a missing final newline
are all accepted, and a malformed row is reported with its line number.
A file that is not UTF-8, or has a field over `csv.field_size_limit`,
raises `MalformedRow`. Files without quotes or lone CRs are parsed whole,
by numpy's C parser where ASCII without whitespace (see `_parse_whole`);
any other file, and every malformed or non-finite one, goes row by row. A
non-finite value is reported with its line, unless a malformed row follows.
Non-uniform time grids are rejected rather than resampled: the
detection statistics assume a constant lag.
"""

import csv
import io
import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParam,
    IoFailure,
    MalformedRow,
    NonUniformGrid,
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
        if not (math.isfinite(self.t0) and math.isfinite(self.delta)):
            raise InvalidParam(f"t0 and delta must be finite, got ({self.t0}, {self.delta})")
        if self.delta <= 0:
            raise InvalidParam(f"delta must be positive, got {self.delta}")
        if self.n_steps < 1:
            raise InvalidParam(f"n_steps must be >= 1, got {self.n_steps}")

    def point(self, k):
        return self.t0 + k * self.delta


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
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: invalid UTF-8 at byte {exc.start}") from None
    del data
    table = _parse_whole(text)
    if table is None:
        table = _parse_rows(text, path)

    if len(table) < 3:
        raise TooShort(f"{path}: need at least 3 points, got {len(table)}")
    t = table[:, 0]
    if np.any(t[1:] <= t[:-1]):
        raise NonUniformGrid(f"{path}: time column must be strictly increasing")
    # Within a finite span no step overflows, nor the median of two steps.
    if not math.isfinite(float(t[-1]) - float(t[0])):
        raise NonUniformGrid(f"{path}: time span overflows a float")
    delta = _median(np.diff(t))
    with np.errstate(over="ignore"):  # an overflowing grid is far from uniform and fails below
        expected = t[0] + delta * np.arange(len(t))
    scale = max(abs(t[0]), abs(t[-1]), delta)
    if np.max(np.abs(t - expected)) > _GRID_RTOL * scale:
        raise NonUniformGrid(f"{path}: spacing deviates from uniform beyond tolerance")
    grid = TimeGrid(t0=float(t[0]), delta=delta, n_steps=len(t) - 1)
    return Trajectory(grid=grid, positions=np.ascontiguousarray(table[:, 1:]))


def _median(x):
    """np.median's bits for a 1-D array whose two middle values sum to a finite float, as a float.

    One partition at the middle indices costs a sixth of np.median; an odd count gives (a + a) / 2 = a.
    """
    lower, upper = (len(x) - 1) // 2, len(x) // 2
    middle = np.partition(x, (lower, upper))
    return float((middle[lower] + middle[upper]) / 2)


def _parse_whole(text):
    """Every data row of a CSV file as one finite (rows, columns) array, or None.

    Covers files without quotes or lone CRs whose rows all have the
    header's 3 or 4 fields, read as `csv.reader` and ``float`` read them.
    An ASCII body without whitespace (numpy reads it as -1.0), NUL, empty
    fields or room for a field over the size limit goes to `np.fromstring`,
    an ``inf`` closing each line. With one value per field, one (columns
    + 1)-wide row per line and the other columns finite, the ``inf`` fill
    the last column in order, so each line held the header's field count.
    Other texts fall back to ``float`` on the fields of `str.split`.
    """
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    header, _, body = text.partition("\n")
    ncols = header.count(",") + 1
    limit = csv.field_size_limit()
    step = limit // 2 + 1  # a field over the limit covers some [j * step, (j + 1) * step)
    raw = body.rstrip("\n").encode()
    if ncols in (3, 4) and len(header) <= limit and raw.isascii() and not any(
            c in raw for c in b" \t\x0b\x0c\x00") and all(
            raw.find(b",", i, i + step) >= 0 for i in range(0, len(raw) - step + 1, step)):
        marked = raw.replace(b"\n", b",inf,") + b",inf"  # 4 bytes longer per line
        commas = np.frombuffer(marked, np.uint8) == ord(",")
        if not (commas[1:] & commas[:-1]).any():  # an empty field, as a blank line leaves, stops numpy
            with suppress(ValueError, DeprecationWarning):  # older numpy warns and returns a prefix
                table = np.fromstring(marked, sep=",").reshape((len(marked) - len(raw)) // 4, ncols + 1)
                if table.size == np.count_nonzero(commas) + 1 and np.isfinite(table[:, :-1]).all():
                    return table[:, :-1]
    lines = list(filter(None, body.split("\n")))
    # Each row must hold its own fields: a total comma count would pass a short row next to a long one.
    if ncols not in (3, 4) or any(line.count(",") != ncols - 1 for line in lines):
        return None
    fields = ",".join(lines).split(",")
    if len(text) > limit and max(map(len, [header, *fields])) > limit:
        return None
    with suppress(ValueError):
        table = np.array(fields, dtype=float).reshape(-1, ncols)
        return table if np.isfinite(table).all() else None
    return None


def _parse_rows(text, path):
    """Parse row by row with `csv.reader`; the first malformed row raises before any non-finite one."""
    # StringIO splits lines where the file object did, at \r, \n or \r\n only.
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise TooShort(f"{path}: empty file")
        ncols = len(header)
        if ncols not in (3, 4):
            raise MalformedRow(f"{path}: header must have 3 or 4 columns, got {ncols}")
        values, non_finite = [], None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncols:
                raise MalformedRow(f"{path}:{lineno}: expected {ncols} fields, got {len(row)}")
            try:
                values.append([float(v) for v in row])
            except ValueError:
                raise MalformedRow(f"{path}:{lineno}: non-numeric field")
            if non_finite is None and not all(map(math.isfinite, values[-1])):
                non_finite = lineno, math.isfinite(values[-1][0])
    except csv.Error as exc:
        raise MalformedRow(f"{path}:{reader.line_num}: {exc}") from None
    if non_finite is not None:
        lineno, finite_time = non_finite
        if not finite_time:
            raise NonUniformGrid(f"{path}:{lineno}: time stamp is not finite")
        raise MalformedRow(f"{path}:{lineno}: position is not finite")
    return np.array(values, dtype=float).reshape(-1, ncols)


def save_csv(traj, path):
    """Write a trajectory as CSV; .17g round-trips every float64 exactly.

    The file has a `t,x,y[,z]` header and CRLF line ends, as `csv.writer`
    writes them.
    """
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

