import json
import math

import numpy as np
import pytest

from diffswitch import (
    RegimeSpec,
    ScenarioSpec,
    compose_scenario,
    compose_stack,
    scenario_preset,
)
from diffswitch import detection, simulators, stats
from diffswitch.errors import InvalidParam
from diffswitch.rng import replicate_rng
from diffswitch.simulators import (
    BROWNIAN,
    BROWNIAN_DRIFT,
    FRACTIONAL_BROWNIAN,
    ORNSTEIN_UHLENBECK,
    replicate_stacks,
    scenario_from_json,
    scenario_to_json,
)
from diffswitch.trajectory import TimeGrid


def path(kind, n, rng, delta=1.0, **params):
    """A planar one-regime path from the origin: compose_scenario on a one-regime spec."""
    spec = ScenarioSpec(n, (), (RegimeSpec(kind, **params),), delta=delta)
    return compose_scenario(spec, rng=rng)[0]


def normal_walk(rng, n, sd):
    """The planar reference path from the origin: a cumulative sum of Generator.normal(0.0, sd) steps."""
    return np.concatenate([np.zeros((1, 2)), np.cumsum(rng.normal(0.0, sd, (n, 2)), axis=0)])


class TestBrownian:
    def test_step_variance(self):
        # E||dX||^2 = d sigma^2 delta = 2 for sigma=1, delta=1, d=2.
        traj = path(BROWNIAN, 100_000, np.random.default_rng(0))
        ssq = np.sum(np.diff(traj.positions, axis=0) ** 2, axis=1)
        se = ssq.std(ddof=1) / math.sqrt(len(ssq))
        assert abs(ssq.mean() - 2.0) < 4 * se
        assert abs(ssq.mean() - 2.0) < 0.03

    def test_deterministic_given_seed(self):
        a = path(BROWNIAN, 50, replicate_rng(9, 0))
        b = path(BROWNIAN, 50, replicate_rng(9, 0))
        assert np.array_equal(a.positions, b.positions)

    def test_sigma_scales_steps(self):
        a = path(BROWNIAN, 50, replicate_rng(9, 0))
        b = path(BROWNIAN, 50, replicate_rng(9, 0), sigma=2.0)
        assert np.allclose(b.positions, 2 * a.positions)

    def test_invalid_sigma(self):
        with pytest.raises(InvalidParam):
            path(BROWNIAN, 10, np.random.default_rng(0), sigma=0.0)


class TestBrownianDrift:
    def test_drift_norm(self):
        # Mean displacement per unit time has euclidean norm v.
        traj = path(BROWNIAN_DRIFT, 100_000, np.random.default_rng(1), v=2.0)
        mean_step = np.diff(traj.positions, axis=0).mean(axis=0)
        assert abs(np.linalg.norm(mean_step) - 2.0) < 0.02

    def test_zero_drift_matches_brownian(self):
        a = path(BROWNIAN, 50, replicate_rng(3, 0))
        b = path(BROWNIAN_DRIFT, 50, replicate_rng(3, 0), v=0.0)
        assert np.array_equal(a.positions, b.positions)

    def test_negative_drift_rejected(self):
        with pytest.raises(InvalidParam):
            path(BROWNIAN_DRIFT, 10, np.random.default_rng(0), v=-1.0)


class TestOrnsteinUhlenbeck:
    def test_stationary_variance(self):
        # sigma^2 / (2 lambda) = 0.5 per coordinate for sigma = lambda = 1.
        traj = path(ORNSTEIN_UHLENBECK, 100_000, np.random.default_rng(2))
        var = traj.positions[1000:].var(axis=0)
        assert np.allclose(var, 0.5, atol=0.02)

    def test_small_lambda_limit_matches_brownian_step(self):
        # Transition sd -> sigma sqrt(delta) as lambda -> 0.
        lam, delta = 1e-10, 1.0
        sd = 1.0 * math.sqrt((1 - math.exp(-2 * lam * delta)) / (2 * lam))
        assert sd == pytest.approx(math.sqrt(delta), rel=1e-6)

    def test_autoregression_coefficient(self):
        # Reference parameter set: lambda = 7.3870 at delta = 0.05.
        assert round(math.exp(-7.3870 * 0.05), 4) == 0.6912

    def test_invalid_lambda(self):
        with pytest.raises(InvalidParam):
            path(ORNSTEIN_UHLENBECK, 10, np.random.default_rng(0), lam=0.0)

    def test_theta_is_a_tuple_of_floats(self):
        as_list = RegimeSpec(kind=ORNSTEIN_UHLENBECK, theta=[1, 2])
        assert as_list == RegimeSpec(kind=ORNSTEIN_UHLENBECK, theta=(1.0, 2.0))
        assert as_list == RegimeSpec(kind=ORNSTEIN_UHLENBECK, theta=np.array([1, 2]))
        assert hash(as_list) == hash(RegimeSpec(kind=ORNSTEIN_UHLENBECK, theta=(1.0, 2.0)))
        assert as_list.theta == (1.0, 2.0) and all(type(x) is float for x in as_list.theta)

    @pytest.mark.parametrize("theta", ["12", [[1, 2]], [1, [2]], [1, "2"]])
    def test_theta_must_be_a_flat_sequence_of_numbers(self, theta):
        with pytest.raises(InvalidParam, match="theta must be a flat sequence of numbers"):
            RegimeSpec(kind=ORNSTEIN_UHLENBECK, theta=theta)

    def test_theta_of_another_dimension_is_rejected(self):
        spec = ScenarioSpec(n=30, change_points=(10, 20), regimes=(
            RegimeSpec(kind=BROWNIAN),
            RegimeSpec(kind=ORNSTEIN_UHLENBECK, lam=0.5, theta=(0, 0, 0)),
            RegimeSpec(kind=BROWNIAN),
        ))
        with pytest.raises(InvalidParam, match="theta has 3 coordinates, the path has 2"):
            compose_stack(spec, [replicate_rng(1)])


def lag1_autocorrelation(x):
    """Known-mean (zero) lag-1 autocorrelation estimate of fGn."""
    return np.dot(x[:-1], x[1:]) / np.dot(x, x)


class BasisRng:
    """Stands in for a Generator whose normal draws are unit vectors.

    An fBm piece draws normals of shape (2, dim, 2n), real then imaginary
    parts, so there are 4n unit vectors in all; each draw hands the next
    one to each axis. After 2n planar paths every unit vector has been
    used once, and the Gram matrix of all their increments is the
    covariance of the generator's linear map.
    """

    def __init__(self, n):
        self.units = iter(np.eye(4 * n).reshape(4 * n, 2, 2 * n))

    def standard_normal(self, shape):
        return np.stack([next(self.units) for _ in range(shape[1])], axis=1)


class TestFractionalBrownian:
    def test_half_hurst_uncorrelated_increments(self):
        traj = path(FRACTIONAL_BROWNIAN, 5000, np.random.default_rng(4))
        inc = np.diff(traj.positions, axis=0)
        r = np.corrcoef(inc[:-1, 0], inc[1:, 0])[0, 1]
        assert abs(r) < 0.05
        assert abs(inc.var() - 1.0) < 0.05

    def test_lag1_correlation(self):
        # fGn lag-1 autocorrelation is 2^{2h-1} - 1.
        rs = []
        for seed in range(3):
            traj = path(FRACTIONAL_BROWNIAN, 10_000, np.random.default_rng(seed), hurst=0.8)
            inc = np.diff(traj.positions, axis=0)
            rs += [lag1_autocorrelation(inc[:, a]) for a in range(2)]
        assert abs(np.mean(rs) - (2**0.6 - 1)) < 0.02

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("n", [1, 6, 17])
    def test_exact_increment_covariance(self, hurst, n):
        sigma, delta = 1.5, 0.25
        rng = BasisRng(n)
        paths = [path(FRACTIONAL_BROWNIAN, n, rng, delta=delta, sigma=sigma, hurst=hurst)
                 for _ in range(2 * n)]
        inc = np.hstack([np.diff(p.positions, axis=0) for p in paths])
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        two_h = 2 * hurst
        rho = 0.5 * ((lag + 1) ** two_h - 2 * lag**two_h + np.abs(lag - 1) ** two_h)
        expected = sigma**2 * delta**two_h * rho
        assert np.abs(inc @ inc.T - expected).max() < 1e-12

    def test_invalid_hurst(self):
        with pytest.raises(InvalidParam):
            path(FRACTIONAL_BROWNIAN, 10, np.random.default_rng(0), hurst=1.2)

    @pytest.mark.parametrize("hurst", [0.2, 0.8])
    def test_long_path(self, hurst):
        traj = path(FRACTIONAL_BROWNIAN, 100_000, np.random.default_rng(0), hurst=hurst)
        inc = np.diff(traj.positions, axis=0)
        assert traj.positions.shape == (100_001, 2)
        assert abs(np.mean(inc**2) - 1.0) < 0.1


def mixed_spec(dim):
    """Every regime kind, a fixed OU equilibrium and a non-unit time step."""
    return ScenarioSpec(
        n=120, change_points=(30, 60, 90), delta=0.25, seed=2,
        regimes=(
            RegimeSpec(kind=BROWNIAN_DRIFT, sigma=1.5, v=2.0),
            RegimeSpec(kind=ORNSTEIN_UHLENBECK, lam=2.0, theta=tuple(np.linspace(-1, 1, dim))),
            RegimeSpec(kind=FRACTIONAL_BROWNIAN, hurst=0.8),
            RegimeSpec(kind=ORNSTEIN_UHLENBECK, lam=0.5),
        ),
    )


# Every regime kind, an OU equilibrium, an fBm hurst, and a non-default time step and seed.
EVERY_KIND = ScenarioSpec(
    n=200, change_points=(40, 80, 120, 160), delta=0.25, seed=12,
    regimes=(
        RegimeSpec(kind=BROWNIAN, sigma=2.0),
        RegimeSpec(kind=ORNSTEIN_UHLENBECK, lam=3.0, theta=(1, -2.5)),
        RegimeSpec(kind=FRACTIONAL_BROWNIAN, sigma=0.5, hurst=0.8),
        RegimeSpec(kind=BROWNIAN),
        RegimeSpec(kind=BROWNIAN_DRIFT, v=1.5),
    ),
)


class TestScenario:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_pieces_chain_the_plain_generators(self, dim):
        # Each piece on a one-row stack of its own, from the last point of the piece before.
        spec = mixed_spec(dim)
        traj, _ = compose_scenario(spec, dim=dim, rng=replicate_rng(9))
        rng, pieces = replicate_rng(9), [np.zeros((1, dim))]
        bounds = (0,) + spec.change_points + (spec.n,)
        for lo, hi, r in zip(bounds, bounds[1:], spec.regimes):
            piece = np.zeros((1, hi - lo + 1, dim))
            piece[0, 0] = pieces[-1][-1]
            simulators._advance(piece, (0, hi - lo), (r,), spec.delta, [rng])
            pieces.append(piece[0, 1:])
        assert np.array_equal(traj.positions, np.concatenate(pieces))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_rows_equal_compose_scenario(self, dim):
        for spec in (scenario_preset(1, v=1.0), scenario_preset(2, lam=1.0), mixed_spec(dim)):
            stack = compose_stack(spec, [replicate_rng(6, r) for r in range(5)], dim=dim)
            assert stack.shape == (5, spec.n + 1, dim)
            for r, row in enumerate(stack):
                traj, _ = compose_scenario(spec, dim=dim, rng=replicate_rng(6, r))
                assert np.array_equal(row, traj.positions)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_leaves_each_stream_where_piece_by_piece_draws_do(self, dim):
        # Row equality cannot see a draw too many or too few at the end of a row.
        for spec in (scenario_preset(1, v=1.0), scenario_preset(2, lam=1.0), mixed_spec(dim)):
            rngs = [replicate_rng(6, r) for r in range(5)]
            compose_stack(spec, rngs, dim=dim)
            bounds = (0,) + spec.change_points + (spec.n,)
            for r, rng in enumerate(rngs):
                oracle = replicate_rng(6, r)
                for lo, hi, regime in zip(bounds, bounds[1:], spec.regimes):
                    if regime.kind == FRACTIONAL_BROWNIAN:
                        oracle.standard_normal((2, dim, 2 * (hi - lo)))
                    else:
                        oracle.normal(0.0, regime.sigma, size=(hi - lo, dim))
                assert np.array_equal(rng.random(4), oracle.random(4))

    @pytest.mark.parametrize("sigma, delta", [(1.0, 1.0), (1.5, 0.3), (5e-324, 1.0)],
                             ids=["unit_scale", "scaled", "signed_zeros"])
    def test_rows_hold_the_bits_of_normal_draws_regime_by_regime(self, sigma, delta):
        # A reference path from Generator.normal(0.0, sd) per regime; bytes also tell -0.0 from +0.0.
        regimes = (BROWNIAN, ORNSTEIN_UHLENBECK, BROWNIAN, BROWNIAN_DRIFT)
        spec = ScenarioSpec(n=120, change_points=(30, 60, 90), delta=delta,
                            regimes=[RegimeSpec(kind=k, sigma=sigma, v=1.0, lam=0.5) for k in regimes])
        bounds = (0,) + spec.change_points + (spec.n,)
        stack = compose_stack(spec, [replicate_rng(8, r) for r in range(6)])
        for r, row in enumerate(stack):
            rng, expected = replicate_rng(8, r), np.zeros((spec.n + 1, 2))
            for lo, hi, regime in zip(bounds, bounds[1:], spec.regimes):
                start, n = expected[lo].copy(), hi - lo
                if regime.kind == ORNSTEIN_UHLENBECK:
                    a = math.exp(-regime.lam * delta)
                    noise = rng.normal(0.0, sigma * math.sqrt((1.0 - a * a) / (2.0 * regime.lam)), (n, 2))
                    for t in range(n):
                        expected[lo + 1 + t] = start + (expected[lo + t] - start) * a + noise[t]
                    continue
                steps = rng.normal(0.0, sigma * math.sqrt(delta), (n, 2))
                if regime.kind == BROWNIAN_DRIFT:
                    steps += (regime.v / math.sqrt(2)) * delta
                steps = np.cumsum(steps, axis=0)
                expected[lo + 1 : hi + 1] = steps + start if start.any() else steps
            assert row.tobytes() == expected.tobytes()

    def test_diffusion_types_are_segment_labels(self):
        regimes = [
            RegimeSpec(kind=BROWNIAN),
            RegimeSpec(kind=BROWNIAN_DRIFT, v=1.0),
            RegimeSpec(kind=BROWNIAN_DRIFT, v=0.0),
            RegimeSpec(kind=ORNSTEIN_UHLENBECK),
            RegimeSpec(kind=FRACTIONAL_BROWNIAN, hurst=0.3),
            RegimeSpec(kind=FRACTIONAL_BROWNIAN, hurst=0.5),
            RegimeSpec(kind=FRACTIONAL_BROWNIAN, hurst=0.7),
        ]
        brown, sub, sup = detection.BROWNIAN, detection.SUBDIFFUSIVE, detection.SUPERDIFFUSIVE
        assert [r.diffusion_type() for r in regimes] == [brown, sup, brown, sub, sub, brown, sup]

    def test_scenario1_shape_and_truth(self):
        spec = scenario_preset(1, v=1.0, seed=5)
        traj, truth = compose_scenario(spec)
        assert traj.positions.shape == (301, 2)
        assert truth == [100, 175]

    def test_continuity_at_change_points(self):
        spec = scenario_preset(2, lam=4.0, seed=5)
        traj, _ = compose_scenario(spec)
        steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        # No jump: boundary steps look like ordinary steps.
        assert steps[99:101].max() < 10 * np.median(steps)

    def test_ou_equilibrium_at_first_change_point(self):
        # Strong restoring force pins the middle segment near X_{tau1}.
        spec = scenario_preset(2, lam=8.0, seed=11)
        traj, _ = compose_scenario(spec)
        anchor = traj.positions[100]
        middle = traj.positions[110:175]
        assert np.linalg.norm(middle.mean(axis=0) - anchor) < 0.5

    def test_single_regime_matches_plain_generator(self):
        spec = ScenarioSpec(n=80, change_points=(), regimes=(RegimeSpec(kind=BROWNIAN),), seed=3)
        traj, truth = compose_scenario(spec)
        assert truth == []
        assert traj.grid == TimeGrid(0.0, 1.0, 80)
        assert traj.positions.tobytes() == normal_walk(replicate_rng(3), 80, 1.0).tobytes()

    def test_deterministic(self):
        spec = scenario_preset(1, v=0.8, seed=21)
        a, _ = compose_scenario(spec)
        b, _ = compose_scenario(spec)
        assert np.array_equal(a.positions, b.positions)

    def test_adjacent_same_type_rejected(self):
        with pytest.raises(InvalidParam):
            ScenarioSpec(
                n=100,
                change_points=(50,),
                regimes=(RegimeSpec(kind=BROWNIAN), RegimeSpec(kind=BROWNIAN)),
            )

    @pytest.mark.parametrize("n, delta", [(0, 1.0), (-3, 1.0), (10, 0.0), (10, -1.0),
                                          (10, math.nan), (10, math.inf)])
    def test_bad_length_or_time_step_rejected(self, n, delta):
        with pytest.raises(InvalidParam):
            ScenarioSpec(n, (), (RegimeSpec(kind=BROWNIAN),), delta=delta)

    @pytest.mark.parametrize("n, change_points", [(300.0, ()), (300, (100.5, 175)),
                                                  (300, (100.0, 175)), ("300", ())])
    def test_non_integer_length_or_change_point_rejected(self, n, change_points):
        regimes = [RegimeSpec(kind=BROWNIAN), RegimeSpec(kind=ORNSTEIN_UHLENBECK)] * 2
        with pytest.raises(InvalidParam):
            ScenarioSpec(n, change_points, regimes[: len(change_points) + 1])

    @pytest.mark.parametrize("build, message", [
        (lambda: RegimeSpec("nope"), "unknown regime kind 'nope'"),
        (lambda: ScenarioSpec(300, (100,), (RegimeSpec(BROWNIAN),)), "1 change points require 2 regimes"),
        (lambda: ScenarioSpec(300, (175, 100), (RegimeSpec(BROWNIAN), RegimeSpec(ORNSTEIN_UHLENBECK),
                                                RegimeSpec(BROWNIAN))), "strictly increasing"),
        (lambda: ScenarioSpec(300, (), (RegimeSpec(BROWNIAN),), seed=None), "seed must be a nonneg"),
        (lambda: scenario_preset(2), "scenario 2 needs a restoring force lam"),
        (lambda: scenario_preset(3, v=1.0), "unknown scenario preset 3"),
        (lambda: RegimeSpec(BROWNIAN, sigma=math.inf), "sigma must be finite, got inf"),
        (lambda: RegimeSpec(BROWNIAN_DRIFT, v=math.nan), "v must be finite, got nan"),
        (lambda: scenario_preset(2, lam=math.inf), "lam must be finite, got inf"),
        (lambda: RegimeSpec(ORNSTEIN_UHLENBECK, theta=(0, -math.inf)),
         r"theta must be finite, got \(0.0, -inf\)"),
        (lambda: RegimeSpec(BROWNIAN, hurst=math.nan), "hurst must be finite, got nan"),
    ], ids=["unknown-kind", "regime-count", "decreasing-change-points", "null-seed", "no-lam",
            "unknown-preset", "infinite-sigma", "nan-v", "infinite-lam", "infinite-theta",
            "nan-hurst"])
    def test_bad_spec_rejected(self, build, message):
        with pytest.raises(InvalidParam, match=message):
            build()

    def test_change_point_bounds(self):
        with pytest.raises(InvalidParam):
            scenario_preset(1, v=1.0, change_points=(100, 400))

    def test_json_round_trip(self):
        spec = ScenarioSpec(
            n=200,
            change_points=(60, 120),
            regimes=(
                RegimeSpec(kind=BROWNIAN, sigma=2.0),
                RegimeSpec(kind=ORNSTEIN_UHLENBECK, sigma=2.0, lam=3.0),
                RegimeSpec(kind=BROWNIAN_DRIFT, sigma=2.0, v=1.5),
            ),
            delta=0.5,
            seed=9,
        )
        for spec in (spec, EVERY_KIND):
            back = scenario_from_json(scenario_to_json(spec))
            assert back == spec
            a, _ = compose_scenario(spec)
            b, _ = compose_scenario(back)
            assert np.array_equal(a.positions, b.positions)

    def test_json_in_the_per_kind_layout_reads_back(self):
        # The per-kind layout of older files: each kind's own fields, theta only when set.
        text = """{
          "n": 200, "delta": 0.25, "seed": 12, "change_points": [40, 80, 120, 160],
          "regimes": [
            {"kind": "brownian", "sigma": 2.0},
            {"kind": "ornstein_uhlenbeck", "sigma": 1.0, "lam": 3.0, "theta": [1.0, -2.5]},
            {"kind": "fractional_brownian", "sigma": 0.5, "hurst": 0.8},
            {"kind": "brownian", "sigma": 1.0},
            {"kind": "brownian_drift", "sigma": 1.0, "v": 1.5}
          ]
        }"""
        back = scenario_from_json(text)
        assert back == EVERY_KIND
        assert compose_scenario(back)[0].positions.tobytes() == (
            compose_scenario(EVERY_KIND)[0].positions.tobytes())

    def test_json_is_valid_document(self):
        doc = json.loads(scenario_to_json(scenario_preset(1, v=1.0)))
        assert doc["change_points"] == [100, 175]
        assert len(doc["regimes"]) == 3
        assert set(doc) == {"n", "change_points", "regimes", "delta", "seed"}
        assert all(set(r) == {"kind", "sigma", "v", "lam", "theta", "hurst"} for r in doc["regimes"])


class TestReplicateStacks:
    def test_null_stack_is_a_prefix_of_a_longer_one(self):
        # Pins, on the installed numpy, that one long null simulation holds every shorter one.
        def null(n):
            return np.concatenate(list(replicate_stacks(
                ScenarioSpec(n, (), (RegimeSpec(BROWNIAN),)), 7, 2, replicates=40)))

        long = null(350)
        for n in (1, 100, 349):
            assert null(n).tobytes() == long[:, : n + 1].tobytes()

    def test_null_stacks_are_kernel_blocks(self):
        for n, rows in ((150, 217), (300, 108), (3000, 10)):
            assert stats.block_rows(n, 2) == rows
            stacks = replicate_stacks(ScenarioSpec(n, (), (RegimeSpec(BROWNIAN),)), 7, replicates=255)
            assert [len(stack) for stack in stacks] == [rows] * (255 // rows) + [255 % rows]

    def test_rows_equal_one_row_compose_stack(self, monkeypatch):
        monkeypatch.setattr(stats, "block_rows", lambda n, d: 4)
        spec = mixed_spec(2)
        stacks = list(replicate_stacks(spec, 11, 3, 5, replicates=10))
        assert [s.shape for s in stacks] == [(4, 121, 2), (4, 121, 2), (2, 121, 2)]
        for r, row in enumerate(np.concatenate(stacks)):
            assert np.array_equal(row, compose_stack(spec, [replicate_rng(11, 3, 5, r)])[0])

    def test_rows_equal_normal_walk(self, monkeypatch):
        monkeypatch.setattr(stats, "block_rows", lambda n, d: 4)
        spec = ScenarioSpec(60, (), (RegimeSpec(kind=BROWNIAN, sigma=2.0),), delta=0.5)
        stacks = list(replicate_stacks(spec, 11, replicates=10))
        assert [s.shape for s in stacks] == [(4, 61, 2), (4, 61, 2), (2, 61, 2)]
        for r, row in enumerate(np.concatenate(stacks)):
            assert row.tobytes() == normal_walk(replicate_rng(11, r), 60, 2.0 * math.sqrt(0.5)).tobytes()
