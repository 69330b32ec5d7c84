"""Regulated Ornstein-Uhlenbeck simulation and the Feynman-Kac validator.

The fundamental follows df = -rho*f dt + sigma dw - dU + dL, where the
regulators L and U are the minimal pushes keeping f inside [f_lo, f_hi].

The exchange rate admits the forward representation

    e(t, f0) = (1/alpha) * E[ integral_0^t exp(-s/alpha) f(s) ds ],  f(0) = f0,

with f the regulated process; `feynman_kac_estimate` evaluates it by Monte
Carlo with a trapezoidal discount integral.

Both simulators take one step: the exact OU transition over dt, then a fold
(mirror) of the overshoot back into the band. Away from the edges the step

    f <- f*exp(-rho*dt) + sigma*sqrt((1 - exp(-2*rho*dt)) / (2*rho)) * Z

has exactly the law of the OU process (Gillespie, "Exact numerical
simulation of the Ornstein-Uhlenbeck process and its integral", Phys. Rev. E
54, 1996), and sigma*sqrt(dt)*Z at rho = 0, so the drift carries no step
error at any rho*dt. What remains is the fold's O(dt) error at the edges.
Projection onto the band would instead carry an O(sqrt(dt)) error, in the
estimates and in the regulator totals. For driftless Brownian motion at one
wall the folded walk x_{k+1} = |x_k + dW_k| has the law of reflected Brownian
motion, and its pushes sum to x_n - x_0 - W_n, whose mean is the mean local
time there. A landing beyond the far edge, a jump across the whole band, is
folded at the edge it crossed and then clipped at the other edge, so the
step is odd on a band symmetric about 0. Each push is booked into the
regulator of its edge, and f_n = f_0 - (1 - exp(-rho*dt))*sum(f_k) +
sum(shocks) - U + L.

Noise comes from SFC64 generators, one per (seed, block), a fixed block
being 8192 paths. Block b of a seed draws from the b-th child of
SeedSequence(seed), that is SeedSequence(seed, spawn_key=(b,)), so every
path's randomness is a pure function of (seed, path index): estimates do not
depend on execution order and are prefix-stable in n_paths. SFC64 draws
normals about a third faster than counter-based Philox. The trade-off:
Philox streams under distinct keys are distinct by construction, while
spawned SeedSequence streams are distinct with overwhelming probability,
which is numpy's documented way to make parallel streams. A regulated path
draws from SFC64(SeedSequence(seed)).

The estimator runs each block as one task on a thread pool of at most four
workers. A task streams its block's noise in chunks of 64 steps into one
(64, 8192) scratch array, so noise memory depends on neither n_steps nor
n_paths. Each path reads the same stream positions whatever the chunk size or
thread count, so estimates are identical to the last bit on any machine. A
regulated path draws its noise 4096 steps at a time in the same way, so it
holds one float per step.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count, check_real
from .model import Band, ModelParams

_BLOCK = 8192  # noise rows per (seed, block) stream; part of the reproducibility contract
_CHUNK = 64  # steps per streamed noise chunk; does not change any result
_SEGMENT = 4096  # path steps per noise draw; does not change any result
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
_MAX_SEED = 2**64 - 1  # a seed is one uint64 word; SeedSequence(seed) feeds the blocks


@dataclass(frozen=True)
class PathSpec:
    """One simulated path: start value, step size, step count, seed."""

    f0: float
    dt: float
    n_steps: int
    seed: int

    def __post_init__(self):
        check_real(self.dt, "dt", 0, open_lo=True)
        check_count(self.seed, "seed", 0, _MAX_SEED)
        check_count(self.n_steps, "n_steps", 1, MAX_STEPS)


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
    if t is not None:
        check_real(t, "t", 0)
    check_count(n_paths, "paths", MIN_PATHS, MAX_PATHS)
    check_real(dt, "dt", 0, open_lo=True)
    check_count(seed, "seed", 0, _MAX_SEED)
    if t is not None and not t / dt <= MAX_STEPS:
        raise ParameterError(f"t/dt = {t / dt:.3g} steps exceeds {MAX_STEPS:.0e}", key="dt")


def _ou_step(params: ModelParams, dt: float) -> tuple[float, float]:
    """Decay and noise scale of the exact OU transition over dt."""
    if params.rho == 0.0:
        return 1.0, params.sigma * math.sqrt(dt)
    variance = -math.expm1(-2.0 * params.rho * dt) / (2.0 * params.rho)
    return math.exp(-params.rho * dt), params.sigma * math.sqrt(variance)


def simulate_regulated_ou(params: ModelParams, band: Band, spec: PathSpec) -> RegulatedPath:
    """Simulate one regulated path; identical spec gives an identical path.

    Each step is one lane of `_integrate_block`'s: the exact OU step, a fold
    at the edge it crossed, then a clip at the other edge (reached only by a
    jump across the whole band). Each push is booked into the regulator of
    its edge.
    """
    check_real(spec.f0, "f0", band.f_lo, band.f_hi)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(spec.seed)))
    decay, scale = _ou_step(params, spec.dt)
    lo, hi = band.f_lo, band.f_hi
    two_lo, two_hi = 2.0 * lo, 2.0 * hi
    values = np.empty(spec.n_steps + 1)
    values[0] = f = spec.f0
    cum_l = cum_u = 0.0
    for k0 in range(0, spec.n_steps, _SEGMENT):
        shocks = rng.standard_normal(min(_SEGMENT, spec.n_steps - k0))
        shocks *= scale
        out = values[k0 + 1 : k0 + 1 + len(shocks)]
        for k, shock in enumerate(shocks):
            raw = f * decay + shock
            if raw > hi:
                f = two_hi - raw
                cum_u += raw - f
                if f < lo:
                    cum_l += lo - f
                    f = lo
            elif raw < lo:
                f = two_lo - raw
                cum_l += f - raw
                if f > hi:
                    cum_u += f - hi
                    f = hi
            else:
                f = raw
            out[k] = f
    return RegulatedPath(values, float(cum_l), float(cum_u))  # numpy shocks make np.float64


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # The spawn key keeps (seed, block) streams apart: entropy [seed, block]
    # would give seed 2**32 + 5's block 0 the stream of seed 5's block 1.
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,))))


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
    decay, _ = _ou_step(params, dt)
    lo, hi = band.f_lo, band.f_hi
    two_lo, two_hi = 2.0 * lo, 2.0 * hi
    for k in range(len(shocks)):
        f *= decay
        f += shocks[k]
        # Mirror each overshoot back inside at the edge it crossed; the clip
        # then only stops a jump across the whole band at the other edge.
        over = f > hi
        under = f < lo
        np.subtract(two_hi, f, out=f, where=over)
        np.subtract(two_lo, f, out=f, where=under)
        np.clip(f, lo, hi, out=f)
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
        The fold at the band edges biases the estimate by O(dt), and nothing
        warns of it: at rho = 10, alpha = 3, sigma = 0.1, t = 1, f0 = 0.5 f_bar,
        20,000 paths and seed 1 it gives 0.00550 at dt = 0.1 and 0.00925 at
        dt = 0.3, against the PDE's 0.005026. ROADMAP item 16 would cancel it.
    """
    check_real(f0, "f0", band.f_lo, band.f_hi)
    check_mc_settings(t, n_paths, dt, seed)

    if t == 0.0:
        return McEstimate(0.0, 0.0, n_paths, seed)

    n_steps = max(1, round(t / dt))
    step = t / n_steps
    s_grid = step * np.arange(n_steps + 1)
    weights = step * np.exp(-s_grid / params.alpha) / params.alpha
    weights[0] *= 0.5
    weights[-1] *= 0.5

    _, scale = _ou_step(params, step)
    n_blocks = -(-n_paths // _BLOCK)
    samples = np.empty(n_paths)
    n_workers = min(_cpu_count(), _MAX_GROUP, n_blocks)
    # One scratch per worker, allocated here rather than in the workers: what a
    # worker allocates stays resident in its thread's malloc arena afterwards.
    scratches = queue.SimpleQueue()
    for _ in range(n_workers):
        scratches.put(np.empty((_CHUNK, _BLOCK)))

    def run_block(b: int) -> None:
        """Integrate block b's paths over all steps, one noise chunk at a time.

        Each chunk is drawn at the full block width, so the stream advances
        exactly as a single full-block draw would; only the block's first
        ``rows`` columns are used.
        """
        rng = _block_rng(seed, b)
        lo = b * _BLOCK
        rows = min(_BLOCK, n_paths - lo)
        scratch = scratches.get()
        try:
            f = np.full(rows, f0)
            acc = weights[0] * f
            for k0 in range(0, n_steps, _CHUNK):
                k1 = min(k0 + _CHUNK, n_steps)
                draw = scratch[: k1 - k0]
                rng.standard_normal(out=draw)
                shocks = draw[:, :rows]
                shocks *= scale
                _integrate_block(params, band, f, acc, shocks, step, weights[k0 + 1 : k1 + 1])
        finally:
            scratches.put(scratch)
        samples[lo : lo + rows] = acc

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(run_block, range(n_blocks)))

    mean = float(np.mean(samples))
    std_error = float(np.std(samples, ddof=1) / math.sqrt(n_paths))
    return McEstimate(mean, std_error, n_paths, seed)
