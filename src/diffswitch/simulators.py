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
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import stats
from .errors import InvalidParam
from .rng import check_seed, replicate_rng, replicate_rngs
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
    """Parameters of one homogeneous stretch of motion; theta is kept as a tuple of floats."""

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
        if self.theta is not None:
            theta = np.asarray(self.theta, dtype=object)
            if theta.ndim != 1 or not all(isinstance(x, numbers.Real) for x in theta):
                raise InvalidParam(f"theta must be a flat sequence of numbers, got {self.theta!r}")
            object.__setattr__(self, "theta", tuple(map(float, theta)))

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
        if not all(isinstance(i, (int, np.integer)) for i in (self.n, *self.change_points)):
            raise InvalidParam(
                f"n and change points must be integers, got {self.n!r} and {self.change_points}"
            )
        if self.n < 1:
            raise InvalidParam(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InvalidParam(f"delta must be finite and positive, got {self.delta}")
        check_seed(self.seed)
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


def _advance(stack, bounds, regimes, delta, rngs):
    """Simulate regimes[j] over steps bounds[j] .. bounds[j+1] of every row of a stack, in place.

    `stack` has shape (b, n+1, dim) and each row continues from its
    position at index bounds[0]. Row r draws only from rngs[r], in regime
    order, so a row does not depend on the rows it is stacked with: one
    standard-normal fill per maximal run of non-fBm regimes, straight into
    the run's steps, and one (2, dim, 2n) draw per fBm regime. _piece then
    gives each step the bits of Generator.normal(0.0, sd), 0.0 + sd * z,
    drawn regime by regime.
    """
    pieces = list(zip(regimes, bounds, bounds[1:]))
    draws = []  # (lo, hi, the fBm piece's index, or None for a run of other regimes)
    for j, (regime, lo, hi) in enumerate(pieces):
        fbm = regime.kind == FRACTIONAL_BROWNIAN
        if not fbm and draws and draws[-1][2] is None:
            draws[-1] = (draws[-1][0], hi, None)
        else:
            draws.append((lo, hi, j if fbm else None))
    fbm_noise = {j: [] for _, _, j in draws if j is not None}
    for row, rng in zip(stack, rngs):
        for lo, hi, j in draws:
            if j is None:
                rng.standard_normal(out=row[lo + 1 : hi + 1])
            else:
                fbm_noise[j].append(rng.standard_normal((2, stack.shape[-1], 2 * (hi - lo))))
    for j, (regime, lo, hi) in enumerate(pieces):
        _piece(stack[:, lo : lo + 1], stack[:, lo + 1 : hi + 1], regime, delta, fbm_noise.get(j))


def _piece(start, out, regime, delta, fbm_noise):
    """Turn the noise in `out` (b, n, dim) into positions that continue from `start` (b, 1, dim).

    `out` holds standard normals, except for an fBm regime, whose noise
    is the list `fbm_noise` of each row's (2, dim, 2n) draw. OU regimes
    with theta unset anchor their equilibrium at the starting position.
    """
    n, dim = out.shape[-2:]
    if regime.kind == ORNSTEIN_UHLENBECK:
        # Exact AR(1) transition, one step of every row at a time, on a step-major copy
        # (so each step is contiguous) with every ufunc writing into a buffer.
        if regime.theta is not None and len(regime.theta) != dim:
            raise InvalidParam(f"theta has {len(regime.theta)} coordinates, the path has {dim}")
        a = math.exp(-regime.lam * delta)
        sd = regime.sigma * math.sqrt((1.0 - a * a) / (2.0 * regime.lam))
        steps = np.multiply(out.swapaxes(0, 1), sd, order="C")
        steps += 0.0  # normal's loc: a -0.0 turns into +0.0
        theta = start[:, 0] if regime.theta is None else np.asarray(regime.theta)
        prev, buf = start[:, 0], np.empty_like(start[:, 0])
        for step in steps:
            # step = theta + (prev - theta) * a + step, in that order.
            np.subtract(prev, theta, buf)
            np.multiply(buf, a, buf)
            np.add(theta, buf, buf)
            np.add(buf, step, step)
            prev = step
        out[...] = steps.swapaxes(0, 1)
        return
    if regime.kind == FRACTIONAL_BROWNIAN:
        # rho[j] is the lag-j autocovariance of unit fGn (rho[0] = 1).
        idx = np.arange(n + 1, dtype=float)
        two_h = 2.0 * regime.hurst
        rho = 0.5 * ((idx + 1) ** two_h - 2 * idx**two_h + np.abs(idx - 1) ** two_h)
        lam = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real
        # Rounding leaves tiny negative eigenvalues when hurst is near 1.
        if lam.min() < -1e-6 * lam.max():
            raise InvalidParam(
                f"circulant embedding is not nonnegative definite at hurst={regime.hurst}"
            )
        np.maximum(lam, 0.0, out=lam)
        z = np.stack(fbm_noise)
        z = z[:, 0] + 1j * z[:, 1]
        fgn = np.fft.fft(np.sqrt(lam / (2 * n)) * z, axis=-1)[..., :n].real
        out[...] = (regime.sigma * delta**regime.hurst) * fgn.swapaxes(-1, -2)
    else:
        sd = regime.sigma * math.sqrt(delta)
        if sd != 1.0:  # z * 1.0 is z
            out *= sd
        if regime.kind == BROWNIAN_DRIFT:
            # A drift v >= 0 gives the bits of adding normal's loc 0.0 first.
            out += (regime.v / math.sqrt(dim)) * delta
        else:
            # normal's loc: 0.0 + -0.0 is +0.0. A -0.0 step changes the cumulative sum below
            # only where that sum is -0.0, which only a piece's first step can make it.
            out[:, 0] += 0.0
    np.cumsum(out, axis=1, out=out)
    # Repeated rows add much faster than a broadcast start; paths from the origin need neither.
    if start.any():
        out += np.repeat(start, n, axis=1)


def _one_path(grid, dim, regime, rng, start):
    stack = np.zeros((1, grid.n_steps + 1, dim))
    if start is not None:
        stack[0, 0] = start
    _advance(stack, (0, grid.n_steps), (regime,), grid.delta, [rng])
    return Trajectory(grid=grid, positions=stack[0])


def gen_brownian(grid, dim, sigma, rng, start=None):
    """Brownian path: i.i.d. Gaussian increments of variance sigma^2 * delta."""
    return _one_path(grid, dim, RegimeSpec(kind=BROWNIAN, sigma=sigma), rng, start)


def gen_brownian_drift(grid, sigma, v, rng, dim=2, start=None):
    """Brownian motion with constant drift of norm v (superdiffusion model).

    Each coordinate drifts at v/sqrt(2) per unit time, so the drift
    vector (v, v)/sqrt(2) has euclidean norm exactly v (2-D convention;
    in d dimensions the per-coordinate rate is v/sqrt(d)).
    """
    regime = RegimeSpec(kind=BROWNIAN_DRIFT, sigma=sigma, v=v)
    return _one_path(grid, dim, regime, rng, start)


def gen_ou(grid, sigma, lam, rng, theta=None, dim=2, start=None):
    """Ornstein-Uhlenbeck path via the exact Gaussian transition.

    X_{k+1} = theta + (X_k - theta) e^{-lam delta}
              + sigma sqrt((1 - e^{-2 lam delta}) / (2 lam)) N(0, 1)

    Starts at theta unless a start point is supplied; theta defaults to
    the start point (or the origin).
    """
    regime = RegimeSpec(kind=ORNSTEIN_UHLENBECK, sigma=sigma, lam=lam, theta=theta)
    if theta is not None and len(regime.theta) != dim:
        raise InvalidParam(f"theta has {len(regime.theta)} coordinates, the path has {dim}")
    return _one_path(grid, dim, regime, rng, regime.theta if start is None else start)


def gen_fbm(grid, dim, sigma, hurst, rng, start=None):
    """Fractional Brownian path scaled by sigma, one independent fBm per axis.

    Exact Davies-Harte circulant embedding: the n x n Toeplitz covariance
    of unit fractional Gaussian noise sits in a 2n-point circulant whose
    eigenvalues come from one FFT, and the real part of the FFT of
    eigenvalue-weighted complex normals has exactly that covariance.
    O(n log n) time, O(n) memory, any path length and any hurst.
    """
    regime = RegimeSpec(kind=FRACTIONAL_BROWNIAN, sigma=sigma, hurst=hurst)
    return _one_path(grid, dim, regime, rng, start)


def compose_stack(spec, rngs, dim=2):
    """Positions (b, n+1, dim) of one piecewise-regime path per generator.

    Every path starts at the origin, and each regime continues from the
    last position of the previous one, so paths are continuous at change
    points. Row r draws only from rngs[r], in regime order, straight into
    its own steps (see _advance), so it equals compose_scenario(spec, dim,
    rngs[r]) whatever it is stacked with, and leaves rngs[r] where drawing
    each regime's normals in turn would.
    """
    rngs = list(rngs)
    stack = np.zeros((len(rngs), spec.n + 1, dim))
    _advance(stack, (0, *spec.change_points, spec.n), spec.regimes, spec.delta, rngs)
    return stack


def replicate_stacks(spec, seed, *prefix, replicates):
    """Replicates 0 .. replicates-1 of `spec`, in compose_stack stacks of stats.block_rows rows.

    A stack is one kernel block (108 rows at n=300, one for n >= 16,384).
    Replicate r draws only from replicate_rng(seed, *prefix, r), so no row
    depends on how replicates are batched; each stack's streams are hashed
    in one replicate_rngs call.
    """
    reps, rows = range(replicates), stats.block_rows(spec.n, 2)
    for lo in range(0, replicates, rows):
        yield compose_stack(spec, replicate_rngs(seed, *prefix, reps=reps[lo : lo + rows]))


def compose_scenario(spec, dim=2, rng=None):
    """Simulate one piecewise-regime trajectory: a one-row compose_stack.

    Returns (trajectory, ground-truth change-point indices).
    """
    if rng is None:
        rng = replicate_rng(spec.seed)
    grid = TimeGrid(t0=0.0, delta=spec.delta, n_steps=spec.n)
    positions = compose_stack(spec, [rng], dim)[0]
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
    """Every field of the spec and of its regimes, as a JSON document."""
    return json.dumps(asdict(spec), indent=2)


def scenario_from_json(text):
    """The spec whose fields are the document's keys.

    A missing n, regimes or kind is a KeyError; a document or regime that is not a JSON object
    is a TypeError that names it.
    """
    doc = _json_object("the document", json.loads(text))
    regimes = [_json_object(f"regime {i}", entry) for i, entry in enumerate(doc.pop("regimes"))]
    regimes = [RegimeSpec(entry.pop("kind"), **entry) for entry in regimes]
    return ScenarioSpec(doc.pop("n"), doc.pop("change_points", ()), regimes, **doc)


def _json_object(what, value):
    if not isinstance(value, dict):
        raise TypeError(f"{what} is not a JSON object: {value!r:.40}")
    return value
