"""The four benchmark workloads: inputs, one timed pass, and its correctness checks.

Each workload is a `setup` that builds inputs and reference values from the
seed (timed as set-up), a `run` that is one timed pass and returns its
outputs as a dict, and a `check` that verifies them outside the timed
region. The package is only ever given the generated inputs; the seed stays
in the benchmark. Why each workload was chosen is in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

# Input sizes. "full" is what the benchmark measures; "tiny" is for the smoke test.
SIZES = {
    "full": {
        "sweep_points": 384,
        "export_grid": (401, 3000),
        "refine_grid": (401, 3000),
        "mc_paths": 16384,
        "mc_dt": 1e-3,
        "single_path_steps": 1_000_000,
    },
    "tiny": {
        "sweep_points": 16,
        "export_grid": (41, 300),
        "refine_grid": (41, 200),
        "mc_paths": 256,
        "mc_dt": 1e-3,
        "single_path_steps": 10_000,
    },
}

# SHA-256 of `targetzone solve --nf NF --nt NT --out surface.csv` at the
# reference parameters, recorded from the package as first benchmarked.
# Reports and CSVs are byte-reproducible, so any change is a regression.
SURFACE_SHA256 = {
    (401, 3000): "8391be7ad1db8854c6ef7d8ed486c3f3cce7bd370bfc26bd5c3708422e7225cf",
    (41, 300): "4745c9cadde767b7235e82a4b122b9a86aa2d5b3f1b9ab6e34b39231f394b587",
}

# ROADMAP parameter cube, sampled log-uniformly: alpha, rho, sigma, e_bar.
CUBE_LO = (0.5, 1e-4, 0.01, 0.001)
CUBE_HI = (50.0, 20.0, 0.3, 0.2)
RESIDUAL_TOL = 1e-10
ODE_TOL = 1e-8
ODE_NODES = 41
SWEEP_DESIGN_SEED = 20_240

# Reference experiment: alpha=3, rho=1, sigma=0.1, mu=0, e_bar=0.01, T=3.
REFERENCE = {"alpha": 3.0, "rho": 1.0, "sigma": 0.1, "e_bar": 0.01, "horizon": 3.0}
REFERENCE_GRID = (401, 3000)
ORDER_WINDOW = (1.8, 2.2)
# Criterion-7 probes: (time remaining t, f0 as a fraction of f_bar).
MC_PROBES = ((0.5, 0.0), (1.0, 0.5), (2.0, 0.9))
MC_SIGMAS = 3.0
# Feynman-Kac seed of acceptance criterion 7. A 3-SE test fails by chance
# about once in 200 seeds, so the estimates keep one seed, as criterion 7
# does; the workload seed drives the single regulated path.
MC_SEED = 20_240
SE_TARGET = 1e-5
WRONG_SHA256 = "0" * 64


FAILURE_KINDS = ("typed", "untyped", "nonfinite", "checks")


@dataclass
class Tally:
    """Failure accounting for one pass, or for several once added up.

    The counts grow with every pass. `ops` and `failed_ops` name the distinct
    operations of the workload's inputs (a sweep point, a probe, the export)
    and the ones that failed in at least one pass, so they do not depend on
    how many passes fit into a run.
    """

    attempted: int = 0
    typed: int = 0
    untyped: int = 0
    nonfinite: int = 0
    checks: int = 0
    runtime_warnings: int = 0
    aborted: int = 0  # passes cut short by an exception; its error is counted above
    ops: set = field(default_factory=set)
    failed_ops: set = field(default_factory=set)
    op: object = "pass"  # the operation running now; errors are charged to it

    @property
    def failed(self) -> int:
        return self.typed + self.untyped + self.nonfinite + self.checks

    @property
    def correct(self) -> bool:
        """No wrong or non-finite output, no untyped error and no lost pass.

        A typed error from one sweep point is the package's documented way to
        decline; it counts as a failure but not as a wrong result.
        """
        return self.untyped == 0 and self.nonfinite == 0 and self.checks == 0 and self.aborted == 0

    def add(self, other: "Tally") -> None:
        for name in ("attempted", *FAILURE_KINDS, "runtime_warnings", "aborted"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.ops |= other.ops
        self.failed_ops |= other.failed_ops

    def attempt(self, op) -> None:
        self.attempted += 1
        self.ops.add(op)
        self.op = op

    def fail(self, kind: str, op=None) -> None:
        """Count one failure of `kind` against `op` (default: the running operation)."""
        assert kind in FAILURE_KINDS
        setattr(self, kind, getattr(self, kind) + 1)
        op = self.op if op is None else op
        self.ops.add(op)
        self.failed_ops.add(op)

    def record_error(self, exc: BaseException, typed_error: type) -> None:
        self.fail("typed" if isinstance(exc, typed_error) else "untyped")


def _finite(*xs: float) -> bool:
    return all(math.isfinite(float(x)) for x in xs)


def _reference_params(tz):
    r = REFERENCE
    return tz.ModelParams(r["alpha"], r["rho"], r["sigma"], 0.0, r["horizon"])


# --- stationary_sweep -------------------------------------------------------


def sweep_points(n: int) -> np.ndarray:
    """n points (alpha, rho, sigma, e_bar), log-uniform over the cube; n // 8 of them at rho = 0.

    One fixed space-filling design (scrambled Sobol, one scramble) covers the
    cube, failure corners included. It is the same for every seed, so the
    points that fail, and thus the run's `failed` count, do not change with
    the seed; independent draws of this size also changed a pass's work by
    about 6 % from seed to seed, which would swamp the changes the benchmark
    is there for.
    """
    n_bm = n // 8
    design = np.random.default_rng(SWEEP_DESIGN_SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # balance warning for n not a power of 2
        u = np.vstack(
            [qmc.Sobol(d=4, rng=design).random(n - n_bm), qmc.Sobol(d=4, rng=design).random(n_bm)]
        )
    lo, hi = np.log(CUBE_LO), np.log(CUBE_HI)
    points = np.exp(lo + u * (hi - lo))
    points[n - n_bm :, 1] = 0.0
    return points


def setup_sweep(tz, seed: int, size: dict, corrupt: str | None, tmp_dir: str) -> dict:
    """The design's points as (index, point), in an order drawn from the seed."""
    points = sweep_points(size["sweep_points"]).tolist()
    order = np.random.default_rng(seed).permutation(len(points))
    return {"points": [(int(i), points[i]) for i in order]}


def _sweep_point(tz, alpha: float, rho: float, sigma: float, e_bar: float, tally: Tally) -> None:
    if rho == 0.0:
        coefs, band = tz.calibrate_bm(alpha, sigma, e_bar)
        res_value = tz.eval_stationary_bm(coefs, band.f_hi) - e_bar
        res_slope = tz.eval_stationary_bm_slope(coefs, band.f_hi)
        ode = 0.0
    else:
        params = tz.ModelParams(alpha, rho, sigma)
        coefs, band = tz.calibrate_symmetric(params, e_bar)
        res_value = tz.eval_stationary(params, coefs, band.f_hi) - e_bar
        res_slope = tz.eval_stationary_slope(params, coefs, band.f_hi)
        nodes = np.linspace(band.f_lo, band.f_hi, ODE_NODES)
        ode = float(np.max(np.abs(tz.stationary_ode_residual(params, coefs, nodes))))
    if not _finite(band.f_hi, res_value, res_slope, ode):
        tally.fail("nonfinite")
    elif abs(res_value) > RESIDUAL_TOL or abs(res_slope) > RESIDUAL_TOL or ode > ODE_TOL:
        tally.fail("checks")


def run_sweep(tz, state: dict, tally: Tally) -> dict:
    for index, (alpha, rho, sigma, e_bar) in state["points"]:
        tally.attempt(("point", index))
        try:
            _sweep_point(tz, alpha, rho, sigma, e_bar, tally)
        except Exception as exc:  # every outcome of a point is counted, none stops the sweep
            tally.record_error(exc, tz.TargetZoneError)
    return {}


def check_sweep(tz, state: dict, outcome: dict, tally: Tally) -> None:
    """Checks run inside the pass, point by point."""


# --- surface_export ---------------------------------------------------------


def setup_export(tz, seed: int, size: dict, corrupt: str | None, tmp_dir: str) -> dict:
    nf, nt = size["export_grid"]
    csv_path = os.path.join(tmp_dir, "surface.csv")
    expected = WRONG_SHA256 if corrupt == "csv_hash" else SURFACE_SHA256[(nf, nt)]
    argv = ["solve", "--nf", str(nf), "--nt", str(nt), "--out", csv_path]
    return {"argv": argv, "csv_path": csv_path, "expected_sha256": expected}


def run_export(tz, state: dict, tally: Tally) -> dict:
    tally.attempt("export")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = tz.cli.main(state["argv"])
    return {"status": status}


def check_export(tz, state: dict, outcome: dict, tally: Tally) -> None:
    path = state["csv_path"]
    if outcome["status"] != 0 or not os.path.isfile(path):
        tally.fail("checks", "export")
        return
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    os.remove(path)
    if digest.hexdigest() != state["expected_sha256"]:
        tally.fail("checks", "export")


# --- pde_refine -------------------------------------------------------------


def setup_refine(tz, seed: int, size: dict, corrupt: str | None, tmp_dir: str) -> dict:
    params = _reference_params(tz)
    _, band = tz.calibrate_symmetric(params, REFERENCE["e_bar"])
    nf, nt = size["refine_grid"]
    window = ORDER_WINDOW if corrupt != "pde_ref" else (0.8, 1.2)
    return {"params": params, "band": band, "grid": tz.GridSpec(nf, nt, 0.5), "window": window}


def run_refine(tz, state: dict, tally: Tally) -> dict:
    tally.attempt("refine")
    orders = tz.convergence_order(state["params"], state["band"], state["grid"])
    return {"orders": orders}


def check_refine(tz, state: dict, outcome: dict, tally: Tally) -> None:
    lo, hi = state["window"]
    orders = outcome["orders"]
    if not _finite(*orders):
        tally.fail("nonfinite", "refine")
    elif not all(lo <= order <= hi for order in orders):
        tally.fail("checks", "refine")


# --- mc_crosscheck ----------------------------------------------------------


def setup_mc(tz, seed: int, size: dict, corrupt: str | None, tmp_dir: str) -> dict:
    params = _reference_params(tz)
    _, band = tz.calibrate_symmetric(params, REFERENCE["e_bar"])
    nf, nt = REFERENCE_GRID
    surface = tz.solve_nonstationary(params, band, tz.GridSpec(nf, nt, 0.5))
    dt_pde = params.horizon / nt
    df = (band.f_hi - band.f_lo) / (nf - 1)
    offset = band.e_hi if corrupt == "pde_ref" else 0.0
    probes = []
    for t, fraction in MC_PROBES:
        f0 = fraction * band.f_hi
        ref = float(surface.values[round(t / dt_pde), round((f0 - band.f_lo) / df)])
        probes.append((t, f0, ref + offset))
    path_seed = int(np.random.default_rng(seed).integers(0, 2**31))
    return {
        "params": params,
        "band": band,
        "probes": probes,
        "n_paths": size["mc_paths"],
        "dt": size["mc_dt"],
        "mc_seed": MC_SEED,
        "path_spec": tz.PathSpec(0.0, size["mc_dt"], size["single_path_steps"], path_seed),
    }


def run_mc(tz, state: dict, tally: Tally) -> dict:
    params, band = state["params"], state["band"]
    estimates = []
    for index, (t, f0, _) in enumerate(state["probes"]):
        tally.attempt(("probe", index))
        start = time.perf_counter()
        est = tz.feynman_kac_estimate(
            params, band, f0, t, state["n_paths"], state["dt"], state["mc_seed"]
        )
        estimates.append((start, time.perf_counter(), est.mean, est.std_error))
    tally.attempt("path")
    path = tz.simulate_regulated_ou(params, band, state["path_spec"])
    return {"estimates": estimates, "path": path}


def check_mc(tz, state: dict, outcome: dict, tally: Tally) -> None:
    band = state["band"]
    for index, ((_, _, ref), (_, _, mean, se)) in enumerate(zip(state["probes"], outcome["estimates"])):
        if not _finite(mean, se):
            tally.fail("nonfinite", ("probe", index))
        elif abs(mean - ref) > MC_SIGMAS * se:
            tally.fail("checks", ("probe", index))
    path = outcome["path"]
    values = path.values
    if not (np.all(np.isfinite(values)) and _finite(path.cum_l, path.cum_u)):
        tally.fail("nonfinite", "path")
    elif not (
        values.min() >= band.f_lo and values.max() <= band.f_hi and path.cum_l >= 0 and path.cum_u >= 0
    ):
        tally.fail("checks", "path")


def mc_time_to_se(outcome: dict, seconds_between) -> float:
    """Seconds to reach a SE_TARGET standard error at every probe, at this estimator's variance.

    `seconds_between(t0, t1)` turns two perf_counter readings into the seconds
    the pass is timed in.
    """
    return sum(
        seconds_between(t0, t1) * (se / SE_TARGET) ** 2
        for t0, t1, _, se in outcome["estimates"]
    )


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "stationary_sweep": Workload(setup_sweep, run_sweep, check_sweep),
    "surface_export": Workload(setup_export, run_export, check_export),
    "pde_refine": Workload(setup_refine, run_refine, check_refine),
    "mc_crosscheck": Workload(setup_mc, run_mc, check_mc),
}
