"""Regulated Ornstein-Uhlenbeck simulation and the Feynman-Kac validator.

The fundamental follows df = -rho*(f - mu) dt + sigma dw - dU + dL, where the
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

The estimator streams that noise in chunks of 64 steps instead of drawing a
block's whole (n_steps, 8192) array, so its noise memory depends on neither
n_steps nor n_paths. It runs as a two-stage pipeline: a thread pool, one
worker per CPU in the process's affinity mask (at most four), draws and
scales the next chunk of a group of that many blocks (numpy releases the GIL
while it fills), while the calling thread advances all lanes of the group
over the current chunk. Each lane reads the same stream positions whatever
the chunk size, group size or thread count, so estimates are identical to
the last bit on any machine.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import Band, ModelParams

_BLOCK = 8192  # noise rows per Philox substream; part of the reproducibility contract
_CHUNK = 64  # steps per streamed noise chunk; does not change any result
# Most blocks drawn at once. A draw costs about 2.5 times a kernel step per
# lane (20 vs 8 ns on a 2-vCPU x86 VM), so beyond about three drawing threads
# the calling thread's kernel sets the pace and a larger group would only hold
# more noise memory.
_MAX_GROUP = 4
MIN_PATHS = 100  # fewest paths for which the standard error is reported


def _check_step_and_seed(dt: float, seed: int) -> None:
    """The step and seed rules shared by `PathSpec` and `check_mc_settings`."""
    if not 0 < dt < math.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt}", key="dt")
    # The Philox key of a Monte-Carlo block is the two uint64 words [seed, block].
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
        if self.n_steps < 1:
            raise ParameterError(f"n_steps must be at least 1, got {self.n_steps}", key="n_steps")


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


def check_mc_settings(
    f0: float | None,
    t: float | None,
    n_paths: int,
    dt: float,
    seed: int,
    antithetic: bool | None = None,
) -> bool:
    """Check the Monte-Carlo settings that do not need the band; return `antithetic`.

    A ``None`` t is not checked. The ``antithetic`` default is True exactly
    when f0 == 0. Errors carry the run-setting key (t, paths, dt, seed).
    """
    if t is not None and not 0 <= t < math.inf:
        raise ParameterError(f"t must be non-negative and finite, got {t}", key="t")
    if n_paths < MIN_PATHS:
        raise ParameterError(f"n_paths must be at least {MIN_PATHS}, got {n_paths}", key="paths")
    _check_step_and_seed(dt, seed)
    if antithetic is None:
        antithetic = f0 == 0.0
    if antithetic and n_paths % 2:
        raise ParameterError(
            f"antithetic pairing needs an even n_paths, got {n_paths}", key="paths"
        )
    return antithetic


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
        raw = f - rdt * (f - params.mu) + shocks[k]
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


def _fill_chunk(
    rng: np.random.Generator,
    draw: np.ndarray,
    plus: np.ndarray,
    minus: np.ndarray | None,
    sigma_dt: float,
) -> None:
    """Draw one block's next chunk into ``draw`` and scale it into its lanes.

    ``draw`` spans the full block width, so the stream advances exactly as a
    single full-block draw would; only the block's first ``plus.shape[1]``
    columns are used. ``minus`` receives the negated noise of antithetic lanes.
    """
    rng.standard_normal(out=draw)
    np.multiply(draw[:, : plus.shape[1]], sigma_dt, out=plus)
    if minus is not None:
        np.negative(plus, out=minus)


def _noise_chunks(pool, seed, n_rows, n_steps, sigma_dt, width, group):
    """Yield ``(lo, rows, k0, shocks)``: scaled noise of steps k0.. for rows lo..lo+rows.

    Rows are taken ``group`` blocks at a time. ``shocks`` has one column per
    lane: the plus lanes of the rows and, for ``width`` 2 (antithetic), their
    minus lanes after them. The pool fills the next chunk into the other of two
    buffers while the caller uses the one yielded, which it must be done with
    before asking for the next.
    """
    buffers = [np.empty((_CHUNK, width * min(n_rows, group * _BLOCK))) for _ in range(2)]
    draws = [np.empty((_CHUNK, _BLOCK)) for _ in range(group)]

    def items():
        for lo in range(0, n_rows, group * _BLOCK):
            rows = min(group * _BLOCK, n_rows - lo)
            rngs = [_block_rng(seed, b) for b in range(lo // _BLOCK, -(-(lo + rows) // _BLOCK))]
            for k0 in range(0, n_steps, _CHUNK):
                yield lo, rows, k0, rngs

    def submit(i, item):
        lo, rows, k0, rngs = item
        shocks = buffers[i % 2][: min(_CHUNK, n_steps - k0), : width * rows]
        futures = []
        for slot, rng in enumerate(rngs):
            col = slot * _BLOCK
            cols = min(_BLOCK, rows - col)
            plus = shocks[:, col : col + cols]
            minus = shocks[:, rows + col : rows + col + cols] if width == 2 else None
            draw = draws[slot][: len(shocks)]
            futures.append(pool.submit(_fill_chunk, rng, draw, plus, minus, sigma_dt))
        return (lo, rows, k0, shocks), futures

    def ready(pending):
        chunk, futures = pending
        for future in futures:
            future.result()
        return chunk

    work = enumerate(items())
    pending = submit(*next(work))
    for i, item in work:
        chunk = ready(pending)
        pending = submit(i, item)
        yield chunk
    yield ready(pending)


def _integrate_block(
    params: ModelParams,
    band: Band,
    f: np.ndarray,
    acc: np.ndarray,
    shocks: np.ndarray,
    dt: float,
    weights: np.ndarray,
) -> None:
    """Advance lanes ``f`` and their discounted trapezoidal integrals ``acc`` in place.

    ``shocks`` is step-major, shape (n_steps, n_lanes), so each step reads a
    contiguous row; ``weights`` holds the trapezoid weight of each step's end.
    """
    decay = 1.0 - params.rho * dt
    pull = params.rho * dt * params.mu
    two_hi = 2.0 * band.f_hi
    two_lo = 2.0 * band.f_lo
    for k in range(len(shocks)):
        f *= decay
        f += pull
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
    antithetic: bool | None = None,
) -> McEstimate:
    """Monte-Carlo value of the discounted-fundamental integral at (t, f0).

    Parameters
    ----------
    t : time remaining; the integral runs over [0, t] with weight exp(-s/alpha)/alpha.
    n_paths : at least MIN_PATHS; with antithetic pairing it must be even.
    dt : nominal step; the actual step is t/round(t/dt) so the grid ends at t.
    antithetic : pair each even path with the negated noise of its predecessor;
        defaults to True exactly when f0 == 0 (where pairing cancels the mean
        error by symmetry). Pairing changes only the noise assignment; the
        mean and standard error are always computed over per-path integrals.
    """
    _check_band_point(band, f0)
    antithetic = check_mc_settings(f0, t, n_paths, dt, seed, antithetic)

    if t == 0.0:
        return McEstimate(0.0, 0.0, n_paths, seed)

    n_steps = max(1, round(t / dt))
    step = t / n_steps
    s_grid = step * np.arange(n_steps + 1)
    weights = step * np.exp(-s_grid / params.alpha) / params.alpha
    weights[0] *= 0.5
    weights[-1] *= 0.5

    sigma_dt = params.sigma * math.sqrt(step)
    width = 2 if antithetic else 1
    n_rows = n_paths // width
    group = min(_cpu_count(), _MAX_GROUP, -(-n_rows // _BLOCK))

    samples = np.empty(n_paths)
    with ThreadPoolExecutor(max_workers=group) as pool:
        chunks = _noise_chunks(pool, seed, n_rows, n_steps, sigma_dt, width, group)
        for lo, rows, k0, shocks in chunks:
            if k0 == 0:
                f = np.full(shocks.shape[1], f0)
                acc = weights[0] * f
            k1 = k0 + len(shocks)
            _integrate_block(params, band, f, acc, shocks, step, weights[k0 + 1 : k1 + 1])
            if k1 == n_steps:
                # Antithetic path 2i is row i's plus lane, path 2i + 1 its minus lane.
                samples[width * lo : width * (lo + rows)] = acc.reshape(width, rows).T.ravel()

    mean = float(np.mean(samples))
    std_error = float(np.std(samples, ddof=1) / math.sqrt(n_paths))
    return McEstimate(mean, std_error, n_paths, seed)
