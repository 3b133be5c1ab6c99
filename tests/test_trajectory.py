import numpy as np
import pytest

from diffswitch import Segment, TimeGrid, Trajectory, load_csv, save_csv, subtrajectory
from diffswitch.errors import (
    InvalidParam,
    IoFailure,
    MalformedRow,
    NonUniformGrid,
    OutOfBounds,
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
        with pytest.raises(TooShort):
            load_csv(path)

    def test_bad_field_count(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n1,1\n2,2,0\n")
        with pytest.raises(MalformedRow):
            load_csv(path)

    def test_non_numeric(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n1,one,0\n2,2,0\n")
        with pytest.raises(MalformedRow):
            load_csv(path)

    def test_decreasing_time(self, tmp_path):
        path = write(tmp_path, "t,x,y\n0,0,0\n2,1,0\n1,2,0\n")
        with pytest.raises(NonUniformGrid):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_csv(tmp_path / "missing.csv")


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
    def test_positions_round_trip_bit_equal(self, tmp_path, dim):
        # Mantissas and exponents across the whole float64 range.
        rng = np.random.default_rng(dim)
        pos = rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-300, 300, size=(60, dim))
        traj = Trajectory(grid=TimeGrid(0.0, 0.01, 59), positions=pos)
        save_csv(traj, tmp_path / "out.csv")
        assert np.array_equal(load_csv(tmp_path / "out.csv").positions, pos)

    def test_unwritable_path(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 1)
        traj = Trajectory(grid=grid, positions=[[0, 0], [1, 0]])
        with pytest.raises(IoFailure):
            save_csv(traj, tmp_path / "no" / "such" / "dir.csv")


class TestTrajectory:
    def test_rejects_nan(self):
        with pytest.raises(InvalidParam):
            Trajectory(grid=TimeGrid(0, 1, 1), positions=[[0, 0], [np.nan, 0]])

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


class TestSubtrajectory:
    @pytest.fixture
    def traj(self):
        pos = np.arange(10, dtype=float).reshape(5, 2)
        return Trajectory(grid=TimeGrid(0.0, 1.0, 4), positions=pos)

    def test_identity(self, traj):
        sub = subtrajectory(traj, Segment(0, 4))
        assert np.array_equal(sub.positions, traj.positions)
        assert sub.grid == traj.grid

    def test_prefix(self, traj):
        sub = subtrajectory(traj, Segment(0, 1))
        assert sub.n_steps == 1
        assert np.array_equal(sub.positions, traj.positions[:2])

    def test_t0_shift(self, traj):
        sub = subtrajectory(traj, Segment(2, 4))
        assert sub.grid.t0 == 2.0

    def test_reversed_segment_rejected(self):
        with pytest.raises(OutOfBounds):
            Segment(2, 1)

    def test_out_of_bounds(self, traj):
        with pytest.raises(OutOfBounds):
            subtrajectory(traj, Segment(2, 7))

    def test_composes(self, traj):
        outer = subtrajectory(traj, Segment(1, 4))
        inner = subtrajectory(outer, Segment(0, 2))
        direct = subtrajectory(traj, Segment(1, 3))
        assert np.array_equal(inner.positions, direct.positions)
        assert inner.grid == direct.grid
