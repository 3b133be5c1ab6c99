"""Acceptance suite: published-table reproduction plus exact properties.

Each test prints one PASS/FAIL line (visible with -v as the test verdict,
and via the printed summary on failure). The Monte Carlo criteria use the
library's default master seed and full calibration sizes, so this module
is slower than the unit suites.
"""

import math
import time

import numpy as np
import pytest

from diffswitch import (
    DetectionConfig,
    ExperimentSpec,
    RegimeSpec,
    ScenarioSpec,
    SegmentQuantiles,
    ThresholdPair,
    Trajectory,
    backward_forward,
    compose_scenario,
    estimate_type1_error,
    find_clusters,
    load_csv,
    run_procedure,
    save_csv,
    scenario_preset,
)
from diffswitch import calibration
from diffswitch.bench import run_cell
from diffswitch.calibration import RELAXED, STRICT, default_cluster_params
from diffswitch.rng import DEFAULT_SEED
from diffswitch.simulators import BROWNIAN, BROWNIAN_DRIFT, FRACTIONAL_BROWNIAN, ORNSTEIN_UHLENBECK

CALIB_REPLICATES = 10_001

# Published cut-off values: (n, k) -> (strict g1, strict g2, relaxed g1, relaxed g2).
PUBLISHED_CUTOFFS = {
    (150, 20): (0.61, 3.38, 0.74, 3.09),
    (150, 30): (0.65, 3.35, 0.78, 3.05),
    (150, 40): (0.68, 3.28, 0.80, 3.03),
    (300, 20): (0.58, 3.55, 0.71, 3.27),
    (300, 30): (0.62, 3.55, 0.74, 3.26),
    (300, 40): (0.64, 3.52, 0.75, 3.25),
}

# The calibrated fixture's cut-offs bit for bit, as float.hex: (n, k) -> (strict gamma1,
# strict gamma2, relaxed gamma1, relaxed gamma2).
CALIBRATED_HEX = {
    (150, 20): ("0x1.3675d2b65b3b8p-1", "0x1.abf5d34fcfa85p+1",
                "0x1.77def2273b25fp-1", "0x1.87d9f09bfce11p+1"),
    (150, 30): ("0x1.4ac1d03d50ef6p-1", "0x1.a8111cee944a5p+1",
                "0x1.8facec66ced05p-1", "0x1.8142e5c3d93eep+1"),
    (150, 40): ("0x1.5b8018a07e3bdp-1", "0x1.a27674203c8f9p+1",
                "0x1.99197944c4e34p-1", "0x1.7de6e7bce4f39p+1"),
    (300, 20): ("0x1.25b77e2db55e5p-1", "0x1.c15b6ff3ba039p+1",
                "0x1.66bdbba59b16fp-1", "0x1.9e682d0f55c41p+1"),
    (300, 30): ("0x1.373117ce2d43fp-1", "0x1.c393842a40e7ap+1",
                "0x1.78272cbfdc34ap-1", "0x1.9c80dd8aff73bp+1"),
    (300, 40): ("0x1.434fc203d1e54p-1", "0x1.c189704d4216cp+1",
                "0x1.7c66537334ccdp-1", "0x1.a095f5bc48554p+1"),
}


@pytest.fixture(scope="module")
def calibrated():
    """Both variants for every published (n, k) row, at full replication."""
    out = {}
    for n, k in PUBLISHED_CUTOFFS:
        c, c_star = default_cluster_params(k)
        out[(n, k)] = calibration._null_pass(
            n, 0.05, CALIB_REPLICATES, DEFAULT_SEED, window=(k, c, c_star)
        )
    return out


def verdict(criterion, ok, detail):
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def regime_path(kind, n, rng, **params):
    """A unit-step path of one regime from the origin, drawn from rng."""
    return compose_scenario(ScenarioSpec(n, (), (RegimeSpec(kind, **params),)), rng=rng)[0]


def bench_spec(**kw):
    base = dict(
        scenario=1, param_values=(0.6, 1.0, 2.0), k_values=(20, 30, 40),
        replicates=200, seed=DEFAULT_SEED, label=False,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_criterion_1_cutoff_reproduction(calibrated):
    worst = 0.0
    for (n, k), (s1, s2, r1, r2) in PUBLISHED_CUTOFFS.items():
        pairs = calibrated[(n, k)]
        diffs = [
            abs(pairs[STRICT].gamma1 - s1), abs(pairs[STRICT].gamma2 - s2),
            abs(pairs[RELAXED].gamma1 - r1), abs(pairs[RELAXED].gamma2 - r2),
        ]
        worst = max(worst, *diffs)
        # Ordering between variants holds exactly on shared replicates.
        assert pairs[STRICT].gamma1 <= pairs[RELAXED].gamma1
        assert pairs[STRICT].gamma2 >= pairs[RELAXED].gamma2
    verdict(1, worst <= 0.06, f"max |cut-off - published| = {worst:.3f} <= 0.06")


def test_calibrated_cutoffs_are_pinned(calibrated):
    # Full-size calibrations, so a change to how the null pass reduces its replicates
    # must keep every bit at 10,001 replicates, not only at the unit suite's 1,000.
    for (n, k), expected in CALIBRATED_HEX.items():
        pairs = calibrated[(n, k)]
        got = (pairs[STRICT].gamma1, pairs[STRICT].gamma2, pairs[RELAXED].gamma1, pairs[RELAXED].gamma2)
        assert tuple(value.hex() for value in got) == expected, (n, k)


def test_criterion_2_type1_control(calibrated):
    rows = []
    ok = True
    for (n, k), pairs in calibrated.items():
        c, c_star = default_cluster_params(k)
        p_rel, _ = estimate_type1_error(
            n, k, c, c_star, pairs[RELAXED], 2000, DEFAULT_SEED
        )
        p_str, _ = estimate_type1_error(
            n, k, c, c_star, pairs[STRICT], 2000, DEFAULT_SEED
        )
        rows.append(f"(n={n},k={k}): relaxed {100*p_rel:.2f}%, strict {100*p_str:.2f}%")
        ok = ok and 0.03 <= p_rel <= 0.07 and p_str < 0.025
    verdict(2, ok, "; ".join(rows))


def test_criterion_3_drift_scenario_power(calibrated):
    spec = bench_spec()
    strong = run_cell(spec, 2.0, 30, calibrated[(300, 30)][RELAXED])
    weak = run_cell(spec, 0.6, 20, calibrated[(300, 20)][RELAXED])
    mid = run_cell(spec, 1.0, 30, calibrated[(300, 30)][RELAXED])
    ok = (
        strong.proportions["0"] >= 0.90
        and weak.proportions["-2"] >= 0.25
        and 100 <= mid.tau_mean[0] <= 106
        and 171 <= mid.tau_mean[1] <= 177
    )
    verdict(
        3,
        ok,
        f"v=2,k=30 exact-count {100*strong.proportions['0']:.1f}% >= 90; "
        f"v=0.6,k=20 missed-both {100*weak.proportions['-2']:.1f}% >= 25; "
        f"v=1,k=30 tau_hat = ({mid.tau_mean[0]:.1f}, {mid.tau_mean[1]:.1f})",
    )


def test_criterion_4_confinement_window_collapse(calibrated):
    spec = bench_spec(scenario=2, param_values=(1.0, 4.0), k_values=(30, 40))
    lam4_k30 = run_cell(spec, 4.0, 30, calibrated[(300, 30)][RELAXED])
    lam4_k40 = run_cell(spec, 4.0, 40, calibrated[(300, 40)][RELAXED])
    lam1_k40 = run_cell(spec, 1.0, 40, calibrated[(300, 40)][RELAXED])
    gap = lam4_k30.proportions["0"] - lam4_k40.proportions["0"]
    ok = gap >= 0.20 and lam1_k40.proportions["0"] >= 0.70
    verdict(
        4,
        ok,
        f"lam=4 exact-count k=30 {100*lam4_k30.proportions['0']:.1f}% vs "
        f"k=40 {100*lam4_k40.proportions['0']:.1f}% (gap {100*gap:.1f}pp >= 20); "
        f"lam=1,k=40 {100*lam1_k40.proportions['0']:.1f}% >= 70",
    )


def test_criterion_5_labelling_accuracy(calibrated):
    spec = bench_spec(label=True)
    quantiles = SegmentQuantiles(replicates=CALIB_REPLICATES, seed=DEFAULT_SEED)
    cell = run_cell(spec, 2.0, 30, calibrated[(300, 30)][RELAXED], quantiles=quantiles)
    ok = cell.label_accuracy is not None and cell.label_accuracy >= 0.80
    verdict(5, ok, f"v=2,k=30 correct-label fraction {cell.label_accuracy:.3f} >= 0.80")


def test_criterion_6_worked_example():
    # Verbatim printed classification sequence with one dense run.
    Q = np.array(
        [0, 0, 0, 1, 0, 0,
         1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0,
         1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1]
        + [0] * 22
    )
    clusters = find_clusters(Q, c=15, c_star=10)
    run = set(range(6, 42))
    ok = (
        len(clusters) == 1
        and run <= set(range(clusters[0].start, clusters[0].end + 1))
        and find_clusters(Q, c=15, c_star=15) == []
    )
    verdict(6, ok, f"(c=15, c*=10) -> {clusters}; (c=15, c*=15) -> no clusters")


def test_criterion_7_property_suite(tmp_path, stack_rows):
    checks = {}

    # Scale invariance of B/A/Q and of the full report.
    pair_thresholds = ThresholdPair(0.74, 3.26)
    traj, _ = compose_scenario(scenario_preset(1, v=1.0, seed=2024))
    cfg = DetectionConfig(k=30, thresholds=pair_thresholds)
    base = run_procedure(traj, cfg)
    scale_ok = True
    for s in (1e-3, 1.0, 1e3):
        scaled = Trajectory(grid=traj.grid, positions=traj.positions * s)
        rep = run_procedure(scaled, cfg)
        scale_ok &= np.allclose(rep.stats.B, base.stats.B, rtol=1e-10)
        scale_ok &= np.allclose(rep.stats.A, base.stats.A, rtol=1e-10)
        scale_ok &= np.array_equal(rep.stats.Q, base.stats.Q)
        scale_ok &= rep.change_points == base.change_points
        scale_ok &= rep.clusters == base.clusters
    checks["scale invariance"] = bool(scale_ok)

    # Time reversal swaps the backward and forward statistics.
    B, A = backward_forward(traj, 30)
    rev = Trajectory(grid=traj.grid, positions=np.ascontiguousarray(traj.positions[::-1]))
    B_r, A_r = backward_forward(rev, 30)
    checks["time-reversal swap"] = bool(
        np.allclose(B, A_r[::-1], rtol=1e-10) and np.allclose(A, B_r[::-1], rtol=1e-10)
    )

    # Batch-size determinism of the calibration pipeline.
    runs, shapes = [], []
    for batch in (1, None, 7):
        stack_rows(batch)
        runs.append(calibration._null_pass(150, 0.05, 1000, DEFAULT_SEED, window=(20, 10, 8)))
        shapes.append(stack_rows.made == stack_rows.split(1000, batch, 150))
    checks["batch determinism"] = runs[0] == runs[1] == runs[2] and all(shapes)

    # CSV round-trip preserves positions exactly.
    path = tmp_path / "round_trip.csv"
    save_csv(traj, path)
    checks["csv round-trip"] = bool(np.array_equal(load_csv(path).positions, traj.positions))

    # Simulator moments within 4 standard errors of the Monte Carlo mean.
    rng = np.random.default_rng(77)

    ssq = np.sum(np.diff(regime_path(BROWNIAN, 100_000, rng).positions, axis=0) ** 2, axis=1)
    checks["brownian step variance"] = bool(
        abs(ssq.mean() - 2.0) < 4 * ssq.std(ddof=1) / math.sqrt(len(ssq))
    )

    steps = np.diff(regime_path(BROWNIAN_DRIFT, 100_000, rng, v=2.0).positions, axis=0)
    se_drift = steps.std(ddof=1) / math.sqrt(len(steps))
    checks["drift norm"] = bool(
        abs(np.linalg.norm(steps.mean(axis=0)) - 2.0) < 4 * se_drift
    )

    ou = regime_path(ORNSTEIN_UHLENBECK, 100_000, rng).positions[1000:]
    # Correlated samples: inflate the naive SE by the integrated
    # autocorrelation time, roughly 1/(lambda delta) = 1 here -> use a
    # conservative effective sample size of n/10.
    se_ou = ou[:, 0].var() * math.sqrt(2 / (len(ou) / 10))
    checks["ou stationary variance"] = bool(abs(ou.var(axis=0).mean() - 0.5) < 4 * se_ou)

    fbm_half = regime_path(FRACTIONAL_BROWNIAN, 5000, rng)
    inc = np.diff(fbm_half.positions, axis=0).ravel()
    checks["fbm h=1/2 reduction"] = bool(
        abs(inc.var() - 1.0) < 4 * math.sqrt(2 / len(inc))
        and abs(np.corrcoef(inc[:-1], inc[1:])[0, 1]) < 4 / math.sqrt(len(inc))
    )

    rs = []
    for rep in range(4):
        inc = np.diff(regime_path(FRACTIONAL_BROWNIAN, 10_000, rng, hurst=0.8).positions, axis=0)
        # Known-mean (zero) estimator: corrcoef's sample mean biases it low.
        rs += [np.dot(inc[:-1, a], inc[1:, a]) / np.dot(inc[:, a], inc[:, a]) for a in range(2)]
    checks["fgn lag-1 correlation"] = bool(
        abs(np.mean(rs) - (2**0.6 - 1)) < 4 * np.std(rs, ddof=1) / math.sqrt(len(rs))
    )

    failed = [name for name, ok in checks.items() if not ok]
    verdict(7, not failed, f"properties: {', '.join(checks)}; failed: {failed or 'none'}")


def test_criterion_8_single_detection_speed():
    traj = regime_path(BROWNIAN, 300, np.random.default_rng(0))
    cfg = DetectionConfig(k=30, thresholds=ThresholdPair(0.74, 3.26))
    run_procedure(traj, cfg)  # warm-up excluded from timing
    best = min(
        (lambda t0: (run_procedure(traj, cfg), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(20)
    )
    verdict(8, best < 0.050, f"best single detection {1000 * best:.2f} ms < 50 ms")
