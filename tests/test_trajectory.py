import csv
import warnings

import numpy as np
import pytest

from diffswitch import TimeGrid, Trajectory, load_csv, save_csv, trajectory
from diffswitch.errors import (
    InvalidParam,
    IoFailure,
    MalformedRow,
    NonUniformGrid,
    TooShort,
)


def write(tmp_path, text, name="traj.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n1,1,0\n2,2,0\n")
        traj = load_csv(path)
        assert traj.grid.delta == 1.0
        assert traj.n_steps == 2
        assert traj.dim == 2
        assert np.array_equal(traj.positions, [[0, 0], [1, 0], [2, 0]])

    def test_3d(self, tmp_path):
        path = write(tmp_path, "t,x,y,z\n0,0,0,1\n1,1,0,2\n2,2,0,3\n")
        assert load_csv(path).dim == 3

    def test_non_uniform_grid(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n1,1,0\n2.5,2,0\n")
        with pytest.raises(NonUniformGrid):
            load_csv(path)

    def test_too_short(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n1,1,0\n")
        with pytest.raises(TooShort) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: need at least 3 points, got 2"

    def test_bad_field_count(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n1,1\n2,2,0\n")
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}:3: expected 3 fields, got 2"

    def test_non_numeric(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n1,one,0\n2,2,0\n")
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}:3: non-numeric field"

    def test_decreasing_time(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n2,1,0\n1,2,0\n")
        with pytest.raises(NonUniformGrid):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_csv(tmp_path / "missing.csv")


class TestLoadCsvMessages:
    """Exact error texts, line numbers included, for malformed files."""

    @pytest.mark.parametrize(
        "text, exc_type, suffix",
        [
            ("", TooShort, ": empty file"),
            ("a,b,c,d,e\n0,0,0\n", MalformedRow, ": header must have 3 or 4 columns, got 5"),
            ("\nt,x,y\n0,0,0\n", MalformedRow, ": header must have 3 or 4 columns, got 0"),
            # A quoted comma stays inside its field, in the header too.
            ('t,x,y\n0,0,0\n1,"1,5",0\n2,2,0\n', MalformedRow, ":3: non-numeric field"),
            ('"t,x",y\n0,0,0\n1,1,0\n2,2,0\n', MalformedRow, ": header must have 3 or 4 columns, got 2"),
            # A lone carriage return ends a line, also where float() would
            # take it for trailing whitespace.
            ("t,x,y\n0,0,0\n1,1\r5,0\n2,2,0\n", MalformedRow, ":3: expected 3 fields, got 2"),
            ("t,x,y\n0,0\r,0\n1,1,0\n2,2,0\n", MalformedRow, ":2: expected 3 fields, got 2"),
            # A form feed or vertical tab is data, not a line break.
            ("t,x,y\n0,0,0\n1,1\x0c5,0\n2,2,0\n", MalformedRow, ":3: non-numeric field"),
            ("t,x,y\n0,0,0\x0b1,1,0\n2,2,0\n", MalformedRow, ":2: expected 3 fields, got 5"),
            # A field of whitespace or NUL is not a number (numpy's parser reads whitespace as -1.0).
            *[(f"t,x,y\n0,0,0\n1,{field},0\n2,2,0\n", MalformedRow, ":3: non-numeric field")
              for field in [" ", "  ", "\t", "\x0b", "\x0c", "\x00", " \t"]],
            # Short and long rows whose commas add up to the right total.
            ("t,x,y\n5\n1,2,3,4,5\n2,2,0\n", MalformedRow, ":2: expected 3 fields, got 1"),
            # Non-finite values are named by line, blank and CRLF lines counted.
            ("t,x,y\n0,0,0\nnan,1,0\n2,2,0\n3,3,0\n", NonUniformGrid, ":3: time stamp is not finite"),
            ("t,x,y\n0,0,0\n1,1,0\ninf,2,0\n", NonUniformGrid, ":4: time stamp is not finite"),
            ("t,x,y\n0,0,0\n1,nan,0\n2,2,0\n", MalformedRow, ":3: position is not finite"),
            ("t,x,y,z\r\n0,0,0,0\r\n\r\n1,1,0,-Infinity\r\n2,2,0,0\r\n", MalformedRow,
             ":4: position is not finite"),
            ('t,x,y\n0,0,0\n\n"1",1,0\n2,2,NaN\n3,3,0\n', MalformedRow, ":5: position is not finite"),
            ("t,x,y\n0,0,nan\n1,1,0\ninf,2,0\n", MalformedRow, ":2: position is not finite"),
            ("t,x,y\n0,0,0\n-inf,nan,0\n2,2,0\n", NonUniformGrid, ":3: time stamp is not finite"),
            # A malformed row wins over a non-finite row before it, quoted or not.
            ("t,x,y\n0,0,0\nnan,1,0\n2,2\n3,3,0\n", MalformedRow, ":4: expected 3 fields, got 2"),
            ('t,x,y\n0,0,0\n1,inf,0\n"2",x,0\n3,3,0\n', MalformedRow, ":4: non-numeric field"),
            # Finite stamps whose span does not fit in a float.
            ("t,x,y\n-1.5e308,0,0\n0,1,0\n1.5e308,2,0\n", NonUniformGrid,
             ": time span overflows a float"),
            ("t,x,y\n-8e307,0,0\n0,1,0\n1,2,0\n8e307,3,0\n", NonUniformGrid,
             ": spacing deviates from uniform beyond tolerance"),
        ],
    )
    def test_message(self, tmp_path, text, exc_type, suffix):
        path = write(tmp_path, text)
        with warnings.catch_warnings(), pytest.raises(exc_type) as exc:
            warnings.simplefilter("error")
            load_csv(path)
        assert str(exc.value) == f"{path}{suffix}"

    @pytest.mark.parametrize(
        "text",
        [
            't,x,y\n0,0,0\n1,"1.5",0\n2,2,0\n',
            "t,x,y\r0,0,0\r1,1.5,0\r2,2,0\r",
            "t,x,y\n0, 0 ,0\n1,1.5\x0c,0\n2,2,0\n",
        ],
        ids=["quoted", "lone-cr-lines", "field-whitespace"],
    )
    def test_csv_quoting_and_line_ends_accepted(self, tmp_path, text):
        assert load_csv(write(tmp_path, text)).positions.tolist() == [[0.0, 0.0], [1.5, 0.0], [2.0, 0.0]]

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_bytes(b"t,x,y\n0,0,0\n1,\xff,0\n2,2,0\n")
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: invalid UTF-8 at byte 14"

    def test_field_over_csv_limit(self, tmp_path):
        limit = csv.field_size_limit()
        path = write(tmp_path, "t,x,y\n0,0,0\n1," + "0" * limit + "1,0\n2,2,0\n")
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}:3: field larger than field limit ({limit})"
        path.write_text("t,x,y\n0,0,0\n1," + "0" * (limit - 1) + "1,0\n2,2,0\n")
        assert load_csv(path).positions[1, 0] == 1.0


def assert_bit_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def c_parse(monkeypatch, text):
    """_parse_whole's table for `text`, checked to be a view of the array np.fromstring returned."""
    parsed, real = [], np.fromstring

    def spy(*args, **kwargs):
        parsed.append(real(*args, **kwargs))
        return parsed[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np, "fromstring", spy)
        table = trajectory._parse_whole(text)
    assert table is not None and np.shares_memory(table, parsed[-1])
    return table


class TestCParse:
    """Files that numpy's parser reads, and those it must leave to the float conversion or the row loop."""

    @pytest.mark.parametrize(
        "text, suffix",
        [
            # A short row, then a long row whose extra field is inf, first or last.
            ("t,x,y\n0,0,0\n1,1\ninf,2,2,0\n3,3,0\n", ":3: expected 3 fields, got 2"),
            ("t,x,y\n0,0,0\n1,1\n2,2,0,inf\n3,3,0\n", ":3: expected 3 fields, got 2"),
            # A long row with an inf where a line's own inf would close a row.
            ("t,x,y\n0,0,0\n1,1,0,inf,2,2,0\n3,3,0\n", ":3: expected 3 fields, got 7"),
            # A short row, then a long row: the same value count, one line's inf in a data column.
            ("t,x,y\n0,0,0\n1,1\n2,2,0,0\n3,3,0\n", ":3: expected 3 fields, got 2"),
        ],
    )
    def test_short_and_long_rows_are_malformed(self, tmp_path, text, suffix):
        assert trajectory._parse_whole(text) is None
        path = write(tmp_path, text)
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}{suffix}"

    @pytest.mark.parametrize("blank_lines_after", [0, 1, 3])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("ncols", [3, 4])
    def test_line_ends_load_bit_equal(self, tmp_path, monkeypatch, ncols, eol, blank_lines_after):
        rng = np.random.default_rng(ncols)
        pos = rng.normal(size=(40, ncols - 1)) * 10.0 ** rng.integers(-300, 300, size=(40, ncols - 1))
        rows = [",".join(map(repr, [float(t), *row])) for t, row in enumerate(pos.tolist())]
        # No final line end when blank_lines_after is 0.
        text = eol.join([",".join("txyz"[:ncols]), *rows]) + eol * blank_lines_after
        assert_bit_equal(c_parse(monkeypatch, text)[:, 1:], pos)
        path = tmp_path / "traj.csv"
        path.write_bytes(text.encode())
        monkeypatch.setattr(trajectory, "_parse_rows", None)
        traj = load_csv(path)
        assert_bit_equal(traj.positions, pos)
        assert (traj.grid.t0, traj.grid.delta, traj.n_steps) == (0.0, 1.0, 39)

    @pytest.mark.parametrize("stop", ["prefix", "warning"])
    def test_parse_that_stops_early_takes_no_malformed_file(self, tmp_path, monkeypatch, stop):
        """Older numpy warns at a field it cannot read whole and returns the values before it."""
        def fromstring(string, sep):
            values = []
            for text_field in string.split(sep.encode()):
                try:
                    values.append(float(text_field))
                except ValueError:
                    if stop == "warning":  # as under -W error
                        raise DeprecationWarning("string or file could not be read to its end")
                    break
            return np.array(values)

        monkeypatch.setattr(np, "fromstring", fromstring)
        # The 15 values before "x" and one inf fill the 4 rows of 4 that the 4 lines ask for.
        text = "t,x,y\n" + ",".join(map(str, range(15))) + "\nx,0,0\n1,1,1\n2,2,2\n"
        assert trajectory._parse_whole(text) is None
        path = write(tmp_path, text)
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}:2: expected 3 fields, got 15"
        assert_bit_equal(c_parse(monkeypatch, "t,x,y\n0,1,2\n1,3,4\n"), np.array([[0.0, 1, 2], [1, 3, 4]]))

    def test_file_over_field_limit_takes_c_parse(self, tmp_path, monkeypatch):
        limit = csv.field_size_limit()
        rows = [f"{t},{t / 7!r},{-t / 3!r}" for t in range(limit // 20)]
        text = "t,x,y\n" + "\n".join(rows) + "\n"
        assert len(text) > limit
        table = c_parse(monkeypatch, text)
        assert_bit_equal(table, np.array([[float(v) for v in row.split(",")] for row in rows]))
        # One field over the limit, in a row or the header, sends the file to the row loop.
        for lineno, longer in ((7, text.replace("\n5,", "\n" + "0" * limit + "5,", 1)),
                               (1, text.replace("y", "y" * (limit + 1), 1))):
            path = write(tmp_path, longer)
            with pytest.raises(MalformedRow) as exc:
                load_csv(path)
            assert str(exc.value) == f"{path}:{lineno}: field larger than field limit ({limit})"


class TestSaveCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        grid = TimeGrid(t0=0.25, delta=0.1, n_steps=40)
        traj = Trajectory(grid=grid, positions=rng.normal(size=(41, 3)))
        path = tmp_path / "out.csv"
        save_csv(traj, path)
        back = load_csv(path)
        # %.17g prints float64 exactly, so positions survive unchanged.
        assert np.array_equal(back.positions, traj.positions)
        assert back.grid.delta == pytest.approx(grid.delta, rel=1e-15)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_positions_round_trip_bit_equal(self, tmp_path, monkeypatch, dim):
        # Mantissas and exponents across the whole float64 range.
        rng = np.random.default_rng(dim)
        pos = rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-300, 300, size=(60, dim))
        traj = Trajectory(grid=TimeGrid(0.0, 0.01, 59), positions=pos)
        save_csv(traj, tmp_path / "out.csv")
        # The CRLF line ends of save_csv must not send its files to the row loop.
        monkeypatch.setattr(trajectory, "_parse_rows", None)
        assert_bit_equal(load_csv(tmp_path / "out.csv").positions, pos)

    def test_unwritable_path(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 1)
        traj = Trajectory(grid=grid, positions=[[0, 0], [1, 0]])
        with pytest.raises(IoFailure):
            save_csv(traj, tmp_path / "no" / "such" / "dir.csv")


class TestTrajectory:
    def test_rejects_nan(self):
        with pytest.raises(InvalidParam):
            Trajectory(grid=TimeGrid(0, 1, 1), positions=[[0, 0], [np.nan, 0]])

    @pytest.mark.parametrize("t0, delta", [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan), (0.0, np.inf)])
    def test_grid_rejects_non_finite(self, t0, delta):
        with pytest.raises(InvalidParam) as exc:
            TimeGrid(t0=t0, delta=delta, n_steps=3)
        assert str(exc.value) == f"t0 and delta must be finite, got ({t0}, {delta})"

    @pytest.mark.parametrize("delta, n_steps, message", [(0.0, 10, "delta must be positive, got 0.0"),
                                                         (1.0, 0, "n_steps must be >= 1, got 0")])
    def test_grid_rejects_no_step(self, delta, n_steps, message):
        with pytest.raises(InvalidParam) as exc:
            TimeGrid(t0=0.0, delta=delta, n_steps=n_steps)
        assert str(exc.value) == message

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidParam):
            Trajectory(grid=TimeGrid(0, 1, 3), positions=[[0, 0], [1, 0]])

    def test_rejects_1d(self):
        with pytest.raises(InvalidParam):
            Trajectory(grid=TimeGrid(0, 1, 1), positions=[[0], [1]])

    def test_grid_points_exact(self):
        grid = TimeGrid(t0=2.0, delta=0.5, n_steps=4)
        assert [grid.point(k) for k in range(5)] == [2.0, 2.5, 3.0, 3.5, 4.0]

    def test_positions_immutable(self):
        traj = Trajectory(grid=TimeGrid(0, 1, 1), positions=[[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            traj.positions[0, 0] = 5.0
