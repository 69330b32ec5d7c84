"""Regulated Ornstein-Uhlenbeck simulation and the Feynman-Kac validator.

The fundamental follows df = -rho*f dt + sigma dw - dU + dL, where the
regulators L and U are the minimal pushes keeping f inside [f_lo, f_hi].
`simulate_regulated_ou` discretizes by Euler-Maruyama followed by projection
onto the band, booking the clipped amounts into the cumulative regulators.

The exchange rate admits the forward representation

    e(t, f0) = (1/alpha) * E[ integral_0^t exp(-s/alpha) f(s) ds ],  f(0) = f0,

with f the regulated process; `feynman_kac_estimate` evaluates it by Monte
Carlo with a trapezoidal discount integral. Inside the estimator the boundary
is handled by symmetrized Euler (mirror reflection of the overshoot) rather
than projection: projection's weak error is O(sqrt(dt)), several standard
errors at the path counts used for PDE cross-checks, while the symmetrized
step is O(dt) and measurably unbiased here.

Noise comes from counter-based Philox substreams keyed by (seed, block), a
fixed block being 8192 paths, so every path's randomness is a pure function
of (seed, path index): estimates do not depend on execution order and are
prefix-stable in n_paths.

The estimator runs each block as one task on a thread pool of at most four
workers. A task streams its block's noise in chunks of 64 steps into one
(64, 8192) scratch array, so noise memory depends on neither n_steps nor
n_paths. Each path reads the same stream positions whatever the chunk size or
thread count, so estimates are identical to the last bit on any machine.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count
from .model import Band, ModelParams

_BLOCK = 8192  # noise rows per Philox substream; part of the reproducibility contract
_CHUNK = 64  # steps per streamed noise chunk; does not change any result
# Most blocks run at once. Each worker holds a (64, 8192) float scratch of
# 4.2 MB, so the cap bounds an estimate's noise memory at about 17 MB on any
# machine.
_MAX_GROUP = 4
MIN_PATHS = 100  # fewest paths for which the standard error is reported
# Most time steps of a path or an estimate; each holds a few arrays of one
# float per step, so beyond this a typo like dt = 1e-320 would exhaust memory.
MAX_STEPS = 10**8
# Most paths of an estimate; its samples take 8 bytes per path.
MAX_PATHS = 10**8


def _check_step_and_seed(dt: float, seed: int) -> None:
    """The step and seed rules shared by `PathSpec` and `check_mc_settings`."""
    if not 0 < dt < math.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt}", key="dt")
    # The Philox key of a Monte-Carlo block is the two uint64 words [seed, block].
    check_count(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be in [0, 2**64), got {seed}", key="seed")


@dataclass(frozen=True)
class PathSpec:
    """One simulated path: start value, step size, step count, seed."""

    f0: float
    dt: float
    n_steps: int
    seed: int

    def __post_init__(self):
        _check_step_and_seed(self.dt, self.seed)
        check_count(self.n_steps, "n_steps")
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ParameterError(
                f"n_steps must lie in [1, {MAX_STEPS:.0e}], got {self.n_steps}", key="n_steps"
            )


@dataclass(frozen=True)
class RegulatedPath:
    """Path values (including the start) and cumulative regulator totals."""

    values: np.ndarray
    cum_l: float
    cum_u: float


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error and provenance."""

    mean: float
    std_error: float
    n_paths: int
    seed: int


def check_mc_settings(t: float | None, n_paths: int, dt: float, seed: int) -> None:
    """Check the Monte-Carlo settings that do not need the band.

    A ``None`` t is not checked. Errors carry the run-setting key (t, paths,
    dt, seed); a step count t/dt beyond MAX_STEPS is a ``dt`` error.
    """
    if t is not None and not 0 <= t < math.inf:
        raise ParameterError(f"t must be non-negative and finite, got {t}", key="t")
    check_count(n_paths, "paths")
    if not MIN_PATHS <= n_paths <= MAX_PATHS:
        raise ParameterError(
            f"n_paths must lie in [{MIN_PATHS}, {MAX_PATHS:.0e}], got {n_paths}", key="paths"
        )
    _check_step_and_seed(dt, seed)
    if t is not None and not t / dt <= MAX_STEPS:
        raise ParameterError(f"t/dt = {t / dt:.3g} steps exceeds {MAX_STEPS:.0e}", key="dt")


def _check_band_point(band: Band, f0: float) -> None:
    if not band.f_lo <= f0 <= band.f_hi:
        raise ParameterError(f"f0={f0} outside the band [{band.f_lo}, {band.f_hi}]", "f0")


def simulate_regulated_ou(
    params: ModelParams,
    band: Band,
    spec: PathSpec,
    zero_noise: bool = False,
) -> RegulatedPath:
    """Simulate one regulated path; identical spec gives an identical path.

    `zero_noise` switches the diffusion term off (drift-only stepping), used
    to exercise the regulators and the mean reversion deterministically.
    """
    _check_band_point(band, spec.f0)
    if params.rho * spec.dt > 0.1:
        warnings.warn(
            f"rho*dt = {params.rho * spec.dt:.3g} > 0.1: Euler steps are coarse "
            "relative to the mean-reversion time",
            stacklevel=2,
        )

    if zero_noise:
        shocks = np.zeros(spec.n_steps)
    else:
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        shocks = params.sigma * math.sqrt(spec.dt) * rng.standard_normal(spec.n_steps)

    values = np.empty(spec.n_steps + 1)
    values[0] = spec.f0
    f = spec.f0
    cum_l = 0.0
    cum_u = 0.0
    rdt = params.rho * spec.dt
    for k in range(spec.n_steps):
        raw = f - rdt * f + shocks[k]
        if raw < band.f_lo:
            cum_l += band.f_lo - raw
            f = band.f_lo
        elif raw > band.f_hi:
            cum_u += raw - band.f_hi
            f = band.f_hi
        else:
            f = raw
        values[k + 1] = f
    return RegulatedPath(values, cum_l, cum_u)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _integrate_block(
    params: ModelParams,
    band: Band,
    f: np.ndarray,
    acc: np.ndarray,
    shocks: np.ndarray,
    dt: float,
    weights: np.ndarray,
) -> None:
    """Advance paths ``f`` and their discounted trapezoidal integrals ``acc`` in place.

    ``f`` has shape (rows,). ``shocks`` is step-major, shape (n_steps, rows),
    so each step reads a contiguous row. ``weights`` holds the trapezoid
    weight of each step's end.
    """
    decay = 1.0 - params.rho * dt
    two_hi = 2.0 * band.f_hi
    two_lo = 2.0 * band.f_lo
    for k in range(len(shocks)):
        f *= decay
        f += shocks[k]
        # Symmetrized Euler: mirror the overshoot back inside; the final clip
        # only guards a (physically unreachable) jump across the whole band.
        np.subtract(two_hi, f, out=f, where=f > band.f_hi)
        np.subtract(two_lo, f, out=f, where=f < band.f_lo)
        np.clip(f, band.f_lo, band.f_hi, out=f)
        acc += weights[k] * f


def feynman_kac_estimate(
    params: ModelParams,
    band: Band,
    f0: float,
    t: float,
    n_paths: int,
    dt: float,
    seed: int,
) -> McEstimate:
    """Monte-Carlo value of the discounted-fundamental integral at (t, f0).

    Parameters
    ----------
    t : time remaining; the integral runs over [0, t] with weight exp(-s/alpha)/alpha.
    n_paths : at least MIN_PATHS.
    dt : nominal step; the actual step is t/round(t/dt) so the grid ends at t.
    """
    _check_band_point(band, f0)
    check_mc_settings(t, n_paths, dt, seed)

    if t == 0.0:
        return McEstimate(0.0, 0.0, n_paths, seed)

    n_steps = max(1, round(t / dt))
    step = t / n_steps
    s_grid = step * np.arange(n_steps + 1)
    weights = step * np.exp(-s_grid / params.alpha) / params.alpha
    weights[0] *= 0.5
    weights[-1] *= 0.5

    sigma_dt = params.sigma * math.sqrt(step)
    n_blocks = -(-n_paths // _BLOCK)
    samples = np.empty(n_paths)

    def run_block(b: int) -> None:
        """Integrate block b's paths over all steps, one noise chunk at a time.

        Each chunk is drawn at the full block width, so the stream advances
        exactly as a single full-block draw would; only the block's first
        ``rows`` columns are used.
        """
        rng = _block_rng(seed, b)
        lo = b * _BLOCK
        rows = min(_BLOCK, n_paths - lo)
        scratch = np.empty((_CHUNK, _BLOCK))
        f = np.full(rows, f0)
        acc = weights[0] * f
        for k0 in range(0, n_steps, _CHUNK):
            k1 = min(k0 + _CHUNK, n_steps)
            draw = scratch[: k1 - k0]
            rng.standard_normal(out=draw)
            shocks = draw[:, :rows]
            shocks *= sigma_dt
            _integrate_block(params, band, f, acc, shocks, step, weights[k0 + 1 : k1 + 1])
        samples[lo : lo + rows] = acc

    with ThreadPoolExecutor(max_workers=min(_cpu_count(), _MAX_GROUP, n_blocks)) as pool:
        list(pool.map(run_block, range(n_blocks)))

    mean = float(np.mean(samples))
    std_error = float(np.std(samples, ddof=1) / math.sqrt(n_paths))
    return McEstimate(mean, std_error, n_paths, seed)
