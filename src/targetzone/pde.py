"""Theta-weighted implicit finite differences for the non-stationary problem.

In time remaining t = T - tau the rate solves

    de/dt + rho*f de/df - (sigma^2/2) d2e/df2 + e/alpha = f/alpha

on the band with e(0, f) = 0 and zero-slope (smooth pasting) edges. Writing
the right-hand operator L e = (sigma^2/2) e_ff - rho*f e_f - e/alpha and
source s = f/alpha, each step solves

    (I - theta*dt*L) e_{n+1} = (I + (1-theta)*dt*L) e_n + dt*s

with one tridiagonal system per step. The matrix does not change with time:
it is factored once by LAPACK `gttrf`, and each step is one `gttrs` solve of
a right-hand side built in place in the row it fills. _march_blocks is the
one march loop. It solves 64 steps per block and checks each block's row maxima
and minima: the forward and back substitutions keep a non-finite right-hand
side non-finite, so the InstabilityError names the first step whose values
are not finite, with its t. A march that ends finite raises it too, after its
last block, naming the first step past the exact solution's bound
|e| <= max(|f_lo|, |f_hi|): an unstable explicit grid that has not
overflowed yet, or a Crank-Nicolson step so much longer than alpha that it
overshoots. The advection term uses central differences and the Neumann
edges use mirror ghost nodes folded into the boundary rows, keeping the
scheme second order in f. Central advection is monotone while the cell
Peclet number rho*|f|*df/sigma^2 stays at or below one; building the
operator warns with a RuntimeWarning when it does not.

_march_blocks yields step 0's zero row and then each solved block with its
times, through a (65, nf) buffer whose memory does not grow with nt. Only
this module knows the grid, and none of its helpers holds nt + 1 times.
GridSpec's nf*(nt + 1) <= 1e8 rule bounds the full surface (also with `steps`).
"""

from __future__ import annotations

import sys
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import InstabilityError, ParameterError, SingularSystemError, check_count, check_real
from .model import Band, ModelParams

# Probe fractions for the self-convergence diagnostics. Off-center in f:
# the symmetric solution is odd, so the midpoint carries no signal.
_PROBE_T_FRACTIONS = (0.5, 0.75, 1.0)
_PROBE_F_FRACTIONS = (0.30, 0.65, 0.85)

# Time steps marched between finiteness checks, and the rows (plus one) of the
# buffer the march runs through; does not change any result.
_BLOCK = 64
# Most nodes nf*(nt + 1) of a surface, 0.8 GB of floats; solve_nonstationary
# allocates the rows it keeps at once, all of them by default.
MAX_CELLS = 10**8
Blocks = Iterable[tuple[np.ndarray, np.ndarray]]  # (times, rows), as _march_blocks yields them


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: nf spatial nodes, nt time steps, theta time weighting."""

    nf: int = 401
    nt: int = 3000
    theta: float = 0.5

    def __post_init__(self):
        check_count(self.nf, "nf", 3)
        check_count(self.nt, "nt", 1)
        if int(self.nf) * (int(self.nt) + 1) > MAX_CELLS:  # numpy integers would wrap
            raise ParameterError(f"nf*(nt+1) = {self.nf}*({self.nt}+1) > {MAX_CELLS:.0e}", "nt")
        check_real(self.theta, "theta", 0, 1)


@dataclass(frozen=True)
class Surface:
    """Discrete solution e(t, f); values[k, i] at time-remaining t_axis[k], f_axis[i]."""

    t_axis: np.ndarray
    f_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for arr in (self.t_axis, self.f_axis, self.values):
            arr.setflags(write=False)


def _operator_diagonals(params: ModelParams, band: Band, f: np.ndarray):
    """Tridiagonal representation of L on the f axis, with mirror-ghost Neumann rows."""
    nf = len(f)
    df = (band.f_hi - band.f_lo) / (nf - 1)
    diff = 0.5 * params.sigma**2 / df**2
    adv = params.rho * f / (2.0 * df)
    # Above a cell Peclet number of one an interior off-diagonal of L is
    # negative and central advection stops being monotone.
    peclet = params.rho * np.max(np.abs(f[1:-1])) * df / params.sigma**2
    if peclet > 1.0:
        # Name the first caller outside this module, also when convergence_order
        # is the one that calls solve_nonstationary.
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_globals.get("__name__") == __name__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"cell Peclet number {peclet:.3g} > 1: central advection is not monotone "
            f"on {nf} nodes; refine nf",
            RuntimeWarning,
            stacklevel=level,
        )

    lower = np.zeros(nf)
    main = np.full(nf, -params.sigma**2 / df**2 - 1.0 / params.alpha)
    upper = np.zeros(nf)
    lower[1:-1] = diff + adv[1:-1]
    upper[1:-1] = diff - adv[1:-1]
    # Mirror ghost: e_{-1} = e_1 kills the advection difference at the edge
    # and doubles the one-sided diffusion neighbour.
    upper[0] = 2.0 * diff
    lower[-1] = 2.0 * diff
    return lower, main, upper


def _kept_steps(steps, nt: int) -> np.ndarray:
    """The steps argument as a non-empty 1-D integer array of steps in [0, nt]."""
    kept = np.asarray(steps)
    if kept.ndim != 1 or kept.size == 0 or kept.dtype.kind not in "iu":
        raise ParameterError(
            f"must be a non-empty 1-D list of integers, got {kept.dtype} of shape {kept.shape}",
            "steps",
        )
    outside = kept[(kept < 0) | (kept > nt)]
    if outside.size:
        raise ParameterError(f"step {outside[0]} outside [0, {nt}]", "steps")
    return kept


def _f_axis(band: Band, grid: GridSpec) -> np.ndarray:
    """The f axis: nf nodes on the band."""
    return np.linspace(band.f_lo, band.f_hi, grid.nf)


def _step_times(horizon: float, nt: int, steps) -> np.ndarray:
    """np.linspace(0, horizon, nt + 1)[steps] bit for bit, with k/nt*horizon where dt underflows."""
    k, dt = np.asarray(steps, dtype=float), horizon / nt
    return np.where(k == nt, horizon, k * dt if dt else k / nt * horizon)


def _nearest_steps(horizon: float, nt: int, times) -> list[int]:
    """The step nearest each time, the first on a tie, as argmin finds it among all nt + 1."""
    # Steps below nt have non-decreasing times, repeated where dt is subnormal, that may pass the
    # horizon, step nt's. Candidates: nt, the first step at or above t, the first of the one below.
    node = partial(_step_times, horizon, nt)
    first = partial(bisect_left, range(nt), key=node)
    return [
        min((first(node(first(t) - 1)), first(t), nt), key=lambda k: (abs(node(k) - t), k))
        for t in times
    ]


def _march_blocks(params: ModelParams, band: Band, grid: GridSpec) -> Blocks:
    """Yield the theta-scheme march from e(0, f) = 0 as (times, rows) blocks.

    The first block is step 0's zero row; each later one holds the solved
    rows of up to 64 steps and their times, so the blocks give every step
    once, in order. The march runs through a (65, nf) buffer, and `rows`
    stays valid only until the next block is asked for.
    A non-finite block raises InstabilityError before it is yielded; a march
    past the bound raises it once the last block has been yielded.
    """
    f = _f_axis(band, grid)
    lower, main, upper = _operator_diagonals(params, band, f)
    dt = params.horizon / grid.nt
    theta = grid.theta

    # LU factors of the step-invariant matrix I - theta*dt*L.
    dl, d, du, du2, ipiv, info = dgttrf(
        -theta * dt * lower[1:], 1.0 - theta * dt * main, -theta * dt * upper[:-1]
    )
    if info:
        raise SingularSystemError(f"I - theta*dt*L is singular: pivot {info} is exactly zero")

    w = (1.0 - theta) * dt
    w_upper = w * upper[:-1]
    w_lower = w * lower[1:]
    dt_source = dt * (f / params.alpha)
    # The buffer's row 0 holds the last solved step and is carried over.
    march = np.empty((min(_BLOCK, grid.nt) + 1, grid.nf))
    march[0] = 0.0
    yield _step_times(params.horizon, grid.nt, [0]), march[:1]
    coupling = np.empty(grid.nf - 1)
    bound = max(abs(band.f_lo), abs(band.f_hi))
    first_over = 0  # the first step past the bound; 0 while there is none
    for n0 in range(0, grid.nt, _BLOCK):
        n1 = min(n0 + _BLOCK, grid.nt)
        old, new = march[: n1 - n0], march[1 : n1 - n0 + 1]
        rows = zip(old, new, old[:, 1:], old[:, :-1], new[:, :-1], new[:, 1:])
        # Blowup is reported as an error below. The state is not held across
        # a yield, so the caller's code between blocks keeps its own.
        with np.errstate(over="ignore", invalid="ignore"):
            for u, rhs, u_up, u_down, rhs_head, rhs_tail in rows:
                # The right-hand side (I + (1-theta)*dt*L) u + dt*s is built in
                # the row the solution goes to, and solved there.
                np.multiply(main, u, out=rhs)
                rhs *= w
                rhs += u
                rhs += dt_source
                np.multiply(w_upper, u_up, out=coupling)
                rhs_head += coupling
                np.multiply(w_lower, u_down, out=coupling)
                rhs_tail += coupling
                # A contiguous float64 row is solved in place; the pinned surface
                # hash in the CLI tests would catch a wrapper that copied it.
                dgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
        # The substitutions keep a non-finite right-hand side non-finite,
        # so the first bad solved row is the first bad step. A row is not
        # finite exactly where its max or min is not, and past the bound
        # exactly where max > bound or min < -bound.
        top, bottom = new.max(axis=1), new.min(axis=1)
        bad = np.flatnonzero(~(np.isfinite(top) & np.isfinite(bottom)))
        if bad.size:
            k = n0 + 1 + int(bad[0])
            raise InstabilityError(f"non-finite values at step {k} (t = {k * dt:g})")
        over = np.flatnonzero((top > bound) | (bottom < -bound))
        if over.size and not first_over:
            first_over = n0 + 1 + int(over[0])
        yield _step_times(params.horizon, grid.nt, np.arange(n0 + 1, n1 + 1)), new
        march[0] = new[-1]
    if first_over:
        k = first_over
        raise InstabilityError(
            f"|e| exceeds max(|f_lo|, |f_hi|) = {bound:g} from step {k} (t = {k * dt:g})"
        )


def solve_nonstationary(
    params: ModelParams, band: Band, grid: GridSpec, *, steps=None
) -> Surface:
    """March the theta scheme from e(0, f) = 0 over nt steps of T/nt years.

    steps lists the time steps to keep, in any order and with repeats, like
    ``values[steps]`` on the full surface; the default None keeps all nt + 1.
    The returned Surface holds the kept rows and their t values only.
    """
    kept = np.arange(grid.nt + 1) if steps is None else _kept_steps(steps, grid.nt)
    # Kept rows are copied out in step order as their block (from step end - len(rows)) passes.
    values = np.empty((kept.size, grid.nf))
    order = np.argsort(kept, kind="stable")
    ordered = kept[order]
    done = end = 0
    for _, rows in _march_blocks(params, band, grid):
        start, done = done, int(np.searchsorted(ordered, end := end + len(rows)))
        values[order[start:done]] = rows[ordered[start:done] - (end - len(rows))]
    return Surface(_step_times(params.horizon, grid.nt, kept), _f_axis(band, grid), values)


@dataclass(frozen=True)
class Slice:
    """One time section of a surface; t is the grid node actually used."""

    t: float
    f: np.ndarray
    e: np.ndarray


def slice_at(surface: Surface, t: float) -> Slice:
    """Nearest-time-node section (no interpolation; the node's t is reported)."""
    t_max = surface.t_axis.max()  # kept steps may come in any order
    if not 0.0 <= t <= t_max:
        raise ParameterError(f"t={t} outside [0, {t_max}]", "t")
    k = int(np.argmin(np.abs(surface.t_axis - t)))
    return Slice(float(surface.t_axis[k]), surface.f_axis, surface.values[k])


@dataclass(frozen=True)
class BoundaryPaths:
    """Rate at the band edges for every time node."""

    t: np.ndarray
    e_lower: np.ndarray
    e_upper: np.ndarray


def boundary_paths(surface: Surface) -> BoundaryPaths:
    """e(t, f_lo) and e(t, f_hi) along the whole time axis."""
    return BoundaryPaths(surface.t_axis, surface.values[:, 0], surface.values[:, -1])


def edge_slopes(surface: Surface) -> tuple[np.ndarray, np.ndarray]:
    """Second-order one-sided df-slopes at both edges, one value per time node.

    Diagnostic for the discrete smooth-pasting property: both arrays shrink
    as O(df^2) under refinement.
    """
    v = surface.values
    df = surface.f_axis[1] - surface.f_axis[0]
    at_lo = (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2.0 * df)
    at_hi = (3.0 * v[:, -1] - 4.0 * v[:, -2] + v[:, -3]) / (2.0 * df)
    return at_lo, at_hi


def convergence_order(params: ModelParams, band: Band, base: GridSpec) -> tuple[float, float]:
    """Observed self-convergence orders (spatial, temporal) by Richardson ratios.

    Spatial: solve on nf, 2nf-1, 4nf-3 nodes at fixed nt; temporal: nt, 2nt,
    4nt steps at fixed nf. The base grid (nf, nt) is solved once for both.
    Probes sit on shared coarse-grid nodes, and the order is log2 of the
    ratio of RMS probe differences. Non-monotone refinement raises with the
    three probe values.
    """
    t_idx = np.array([round(fr * base.nt) for fr in _PROBE_T_FRACTIONS], dtype=int)
    f_idx = np.array([round(fr * (base.nf - 1)) for fr in _PROBE_F_FRACTIONS], dtype=int)

    def probes(nf: int, nt: int, kt: int, kf: int) -> np.ndarray:
        # Only the three probe rows are kept, never the refined surface.
        try:
            surface = solve_nonstationary(
                params, band, GridSpec(nf, nt, base.theta), steps=t_idx * kt
            )
        except InstabilityError as exc:
            raise InstabilityError(f"on {nf} x {nt}: {exc}") from exc
        return surface.values[:, f_idx * kf].ravel()

    def order_from(ladder: list[np.ndarray]) -> float:
        d1 = np.sqrt(np.mean((ladder[0] - ladder[1]) ** 2))
        d2 = np.sqrt(np.mean((ladder[1] - ladder[2]) ** 2))
        if not d2 < d1:
            raise InstabilityError(
                f"refinement not monotone at probes: coarse-mid {d1:.3e}, mid-fine {d2:.3e}; "
                f"probe values {[p.tolist() for p in ladder]}"
            )
        return float(np.log2(d1 / d2))

    coarse = probes(base.nf, base.nt, 1, 1)
    order_f = order_from(
        [coarse, probes(2 * base.nf - 1, base.nt, 1, 2), probes(4 * base.nf - 3, base.nt, 1, 4)]
    )
    order_t = order_from(
        [coarse, probes(base.nf, 2 * base.nt, 2, 1), probes(base.nf, 4 * base.nt, 4, 1)]
    )
    return order_f, order_t
