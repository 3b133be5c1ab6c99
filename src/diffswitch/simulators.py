"""Exact-distribution simulators for the three diffusion regimes.

Brownian motion is the null model; Brownian motion with drift models
superdiffusion (drift vector (v, v)/sqrt(2) so its norm equals v); the
Ornstein-Uhlenbeck process models subdiffusion and is sampled with its
exact AR(1) Gaussian transition, not Euler-Maruyama. Fractional Brownian
motion uses exact Davies-Harte circulant embedding of the increment
covariance.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .errors import InvalidParam
from .rng import replicate_rng
from .trajectory import TimeGrid, Trajectory

BROWNIAN = "brownian"
BROWNIAN_DRIFT = "brownian_drift"
ORNSTEIN_UHLENBECK = "ornstein_uhlenbeck"
FRACTIONAL_BROWNIAN = "fractional_brownian"

# Diffusion type implied by each regime kind, used for scenario validation
# and as ground-truth labels in the bench harness.
_DIFFUSION_TYPE = {
    BROWNIAN: stats.BROWNIAN,
    BROWNIAN_DRIFT: stats.SUPERDIFFUSIVE,
    ORNSTEIN_UHLENBECK: stats.SUBDIFFUSIVE,
}


@dataclass(frozen=True)
class RegimeSpec:
    """Parameters of one homogeneous stretch of motion."""

    kind: str
    sigma: float = 1.0
    v: float = 0.0
    lam: float = 1.0
    theta: tuple | None = None
    hurst: float = 0.5

    def __post_init__(self):
        if self.kind not in (BROWNIAN, BROWNIAN_DRIFT, ORNSTEIN_UHLENBECK, FRACTIONAL_BROWNIAN):
            raise InvalidParam(f"unknown regime kind {self.kind!r}")
        if self.sigma <= 0:
            raise InvalidParam(f"sigma must be positive, got {self.sigma}")
        if self.kind == BROWNIAN_DRIFT and self.v < 0:
            raise InvalidParam(f"drift magnitude must be >= 0, got {self.v}")
        if self.kind == ORNSTEIN_UHLENBECK and self.lam <= 0:
            raise InvalidParam(f"lambda must be positive, got {self.lam}")
        if self.kind == FRACTIONAL_BROWNIAN and not 0 < self.hurst < 1:
            raise InvalidParam(f"hurst must be in (0, 1), got {self.hurst}")

    def diffusion_type(self):
        if self.kind == FRACTIONAL_BROWNIAN:
            if self.hurst == 0.5:
                return stats.BROWNIAN
            return stats.SUBDIFFUSIVE if self.hurst < 0.5 else stats.SUPERDIFFUSIVE
        if self.kind == BROWNIAN_DRIFT and self.v == 0:
            return stats.BROWNIAN
        return _DIFFUSION_TYPE[self.kind]


@dataclass(frozen=True)
class ScenarioSpec:
    """A piecewise-regime trajectory: change points plus one regime per piece."""

    n: int
    change_points: tuple
    regimes: tuple
    delta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "change_points", tuple(self.change_points))
        object.__setattr__(self, "regimes", tuple(self.regimes))
        cps = self.change_points
        if len(self.regimes) != len(cps) + 1:
            raise InvalidParam(
                f"{len(cps)} change points require {len(cps) + 1} regimes, got {len(self.regimes)}"
            )
        if any(not 0 < tau < self.n for tau in cps):
            raise InvalidParam(f"change points must lie strictly inside (0, {self.n})")
        if any(a >= b for a, b in zip(cps, cps[1:])):
            raise InvalidParam("change points must be strictly increasing")
        for left, right in zip(self.regimes, self.regimes[1:]):
            if left.diffusion_type() == right.diffusion_type():
                raise InvalidParam(
                    "adjacent regimes must be of different diffusion types, "
                    f"both are {left.diffusion_type()}"
                )


def _require_sigma(sigma):
    if sigma <= 0:
        raise InvalidParam(f"sigma must be positive, got {sigma}")


def _walk(grid, dim, increments, start):
    start = np.zeros(dim) if start is None else np.asarray(start, dtype=float)
    pos = np.empty((grid.n_steps + 1, dim))
    pos[0] = start
    np.cumsum(increments, axis=0, out=pos[1:])
    pos[1:] += start
    return Trajectory(grid=grid, positions=pos)


def gen_brownian(grid, dim, sigma, rng, start=None):
    """Brownian path: i.i.d. Gaussian increments of variance sigma^2 * delta."""
    _require_sigma(sigma)
    inc = rng.normal(0.0, sigma * math.sqrt(grid.delta), size=(grid.n_steps, dim))
    return _walk(grid, dim, inc, start)


def gen_brownian_drift(grid, sigma, v, rng, dim=2, start=None):
    """Brownian motion with constant drift of norm v (superdiffusion model).

    Each coordinate drifts at v/sqrt(2) per unit time, so the drift
    vector (v, v)/sqrt(2) has euclidean norm exactly v (2-D convention;
    in d dimensions the per-coordinate rate is v/sqrt(d)).
    """
    _require_sigma(sigma)
    if v < 0:
        raise InvalidParam(f"drift magnitude must be >= 0, got {v}")
    inc = rng.normal(0.0, sigma * math.sqrt(grid.delta), size=(grid.n_steps, dim))
    inc += (v / math.sqrt(dim)) * grid.delta
    return _walk(grid, dim, inc, start)


def gen_ou(grid, sigma, lam, rng, theta=None, dim=2, start=None):
    """Ornstein-Uhlenbeck path via the exact Gaussian transition.

    X_{k+1} = theta + (X_k - theta) e^{-lam delta}
              + sigma sqrt((1 - e^{-2 lam delta}) / (2 lam)) N(0, 1)

    Starts at theta unless a start point is supplied; theta defaults to
    the start point (or the origin).
    """
    _require_sigma(sigma)
    if lam <= 0:
        raise InvalidParam(f"lambda must be positive, got {lam}")
    if theta is None:
        theta = np.zeros(dim) if start is None else np.asarray(start, dtype=float)
    else:
        theta = np.asarray(theta, dtype=float)
    if start is None:
        start = theta
    a = math.exp(-lam * grid.delta)
    sd = sigma * math.sqrt((1.0 - a * a) / (2.0 * lam))
    noise = rng.normal(0.0, sd, size=(grid.n_steps, dim))
    pos = np.empty((grid.n_steps + 1, dim))
    pos[0] = start
    for k in range(grid.n_steps):
        pos[k + 1] = theta + (pos[k] - theta) * a + noise[k]
    return Trajectory(grid=grid, positions=pos)


def gen_fbm(grid, dim, sigma, hurst, rng, start=None):
    """Fractional Brownian path scaled by sigma, one independent fBm per axis.

    Exact Davies-Harte circulant embedding: the n x n Toeplitz covariance
    of unit fractional Gaussian noise sits in a 2n-point circulant whose
    eigenvalues come from one FFT, and the real part of the FFT of
    eigenvalue-weighted complex normals has exactly that covariance.
    O(n log n) time, O(n) memory, any path length and any hurst.
    """
    _require_sigma(sigma)
    if not 0 < hurst < 1:
        raise InvalidParam(f"hurst must be in (0, 1), got {hurst}")
    n = grid.n_steps
    idx = np.arange(n + 1, dtype=float)
    two_h = 2.0 * hurst
    # rho[j] is the lag-j autocovariance of unit fGn (rho[0] = 1).
    rho = 0.5 * ((idx + 1) ** two_h - 2 * idx**two_h + np.abs(idx - 1) ** two_h)
    lam = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real
    # Rounding leaves tiny negative eigenvalues when hurst is near 1.
    if lam.min() < -1e-6 * lam.max():
        raise InvalidParam(f"circulant embedding is not nonnegative definite at hurst={hurst}")
    np.maximum(lam, 0.0, out=lam)
    z = rng.standard_normal((2, dim, 2 * n))
    z = z[0] + 1j * z[1]
    fgn = np.fft.fft(np.sqrt(lam / (2 * n)) * z, axis=-1)[:, :n].real
    return _walk(grid, dim, (sigma * grid.delta**hurst) * fgn.T, start)


def _gen_regime(regime, grid, dim, rng, start):
    if regime.kind == BROWNIAN:
        return gen_brownian(grid, dim, regime.sigma, rng, start=start)
    if regime.kind == BROWNIAN_DRIFT:
        return gen_brownian_drift(grid, regime.sigma, regime.v, rng, dim=dim, start=start)
    if regime.kind == ORNSTEIN_UHLENBECK:
        theta = regime.theta if regime.theta is None else np.asarray(regime.theta)
        return gen_ou(grid, regime.sigma, regime.lam, rng, theta=theta, dim=dim, start=start)
    return gen_fbm(grid, dim, regime.sigma, regime.hurst, rng, start=start)


def compose_scenario(spec, dim=2, rng=None):
    """Simulate a piecewise-regime trajectory.

    Each regime continues from the last position of the previous one, so
    the path is continuous at change points. OU regimes with theta unset
    anchor their equilibrium at the position where the regime begins.
    Returns (trajectory, ground-truth change-point indices).
    """
    if rng is None:
        rng = replicate_rng(spec.seed)
    bounds = (0,) + spec.change_points + (spec.n,)
    positions = np.empty((spec.n + 1, dim))
    start = np.zeros(dim)
    positions[0] = start
    for j, regime in enumerate(spec.regimes):
        lo, hi = bounds[j], bounds[j + 1]
        seg_grid = TimeGrid(t0=lo * spec.delta, delta=spec.delta, n_steps=hi - lo)
        if regime.kind == ORNSTEIN_UHLENBECK and regime.theta is None:
            regime = RegimeSpec(
                kind=regime.kind, sigma=regime.sigma, lam=regime.lam, theta=tuple(start)
            )
        piece = _gen_regime(regime, seg_grid, dim, rng, start)
        positions[lo : hi + 1] = piece.positions
        start = positions[hi]
    grid = TimeGrid(t0=0.0, delta=spec.delta, n_steps=spec.n)
    return Trajectory(grid=grid, positions=positions), list(spec.change_points)


def scenario_preset(number, *, v=None, lam=None, n=300, change_points=(100, 175), sigma=1.0, seed=0):
    """The two Monte Carlo study scenarios.

    1: Brownian -> Brownian-with-drift(v) -> Brownian.
    2: Brownian -> Ornstein-Uhlenbeck(lam) -> Brownian, with the OU
       equilibrium anchored at the first change point.
    """
    brown = RegimeSpec(kind=BROWNIAN, sigma=sigma)
    if number == 1:
        if v is None:
            raise InvalidParam("scenario 1 needs a drift magnitude v")
        middle = RegimeSpec(kind=BROWNIAN_DRIFT, sigma=sigma, v=v)
    elif number == 2:
        if lam is None:
            raise InvalidParam("scenario 2 needs a restoring force lam")
        middle = RegimeSpec(kind=ORNSTEIN_UHLENBECK, sigma=sigma, lam=lam)
    else:
        raise InvalidParam(f"unknown scenario preset {number}")
    return ScenarioSpec(
        n=n, change_points=tuple(change_points), regimes=(brown, middle, brown), seed=seed
    )


def scenario_to_json(spec):
    doc = {
        "n": spec.n,
        "delta": spec.delta,
        "seed": spec.seed,
        "change_points": list(spec.change_points),
        "regimes": [],
    }
    for r in spec.regimes:
        entry = {"kind": r.kind, "sigma": r.sigma}
        if r.kind == BROWNIAN_DRIFT:
            entry["v"] = r.v
        elif r.kind == ORNSTEIN_UHLENBECK:
            entry["lam"] = r.lam
            if r.theta is not None:
                entry["theta"] = list(r.theta)
        elif r.kind == FRACTIONAL_BROWNIAN:
            entry["hurst"] = r.hurst
        doc["regimes"].append(entry)
    return json.dumps(doc, indent=2)


def scenario_from_json(text):
    doc = json.loads(text)
    regimes = []
    for entry in doc["regimes"]:
        theta = entry.get("theta")
        regimes.append(
            RegimeSpec(
                kind=entry["kind"],
                sigma=entry.get("sigma", 1.0),
                v=entry.get("v", 0.0),
                lam=entry.get("lam", 1.0),
                theta=tuple(theta) if theta is not None else None,
                hurst=entry.get("hurst", 0.5),
            )
        )
    return ScenarioSpec(
        n=doc["n"],
        change_points=tuple(doc.get("change_points", ())),
        regimes=tuple(regimes),
        delta=doc.get("delta", 1.0),
        seed=doc.get("seed", 0),
    )
