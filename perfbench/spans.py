"""In-memory span tracing around the public functions of the targetzone layers.

A span is (name, start, end, parent) plus an error code and two work counts
that a per-function hook fills in (node updates and steps for a PDE solve,
bytes for a CSV write, path-steps and steps for a Monte-Carlo estimate).
Spans live in flat typed arrays, so a traced stationary sweep of a few
hundred thousand Kummer calls costs a few megabytes, and they are written
out once, when the run ends.

Wrapping rebinds every module-level name in the package that refers to a
traced function, including the names callers bind with ``from .x import y``,
so calls between layers are seen wherever they are made.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from array import array

import numpy as np

# Public functions each layer is expected to have. A name missing from its
# module is reported, not treated as an error, so the tracer keeps working
# while the package is refactored. Public functions found in a module but not
# listed here are traced too. `_integrate_block` is the one private helper:
# nothing public separates the regulated-step kernel from noise generation.
LAYERS = {
    "kummer": ("kummer_m", "kummer_m_dz"),
    "stationary": (
        "calibrate_symmetric",
        "calibrate_bm",
        "eval_stationary",
        "eval_stationary_slope",
        "eval_stationary_curvature",
        "eval_stationary_bm",
        "eval_stationary_bm_slope",
        "stationary_ode_residual",
    ),
    "pde": (
        "solve_nonstationary",
        "convergence_order",
        "slice_at",
        "boundary_paths",
        "edge_slopes",
    ),
    "stochastic": ("feynman_kac_estimate", "simulate_regulated_ou", "_integrate_block"),
    "cli": ("write_csv",),
}

# Only write_csv is traced in the CLI layer; its other functions are the
# command plumbing the workloads call through.
_DISCOVER = ("kummer", "stationary", "pde", "stochastic")

_CALIBRATE = ("stationary.calibrate_symmetric", "stationary.calibrate_bm")
_EVAL = (
    "stationary.eval_stationary",
    "stationary.eval_stationary_slope",
    "stationary.eval_stationary_curvature",
    "stationary.eval_stationary_bm",
    "stationary.eval_stationary_bm_slope",
)

# Unit of every per-layer metric the traced run reports.
METRIC_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "kummer.calls": "count",
    "kummer.calls_per_calibration": "count",
    "kummer.us_per_call": "us",
    "kummer.busy_s": "s",
    "kummer.convergence_errors": "count",
    "stationary.calibrate_calls": "count",
    "stationary.calibrate_failed": "count",
    "stationary.calibrate_p50_ms": "ms",
    "stationary.calibrate_p97_ms": "ms",
    "stationary.calibrate_self_s": "s",
    "stationary.residual_s": "s",
    "stationary.eval_us_per_point": "us",
    "pde.solves": "count",
    "pde.node_updates": "count",
    "pde.solve_s": "s",
    "pde.step_us": "us",
    "pde.ns_per_node_update": "ns",
    "cli.csv_s": "s",
    "cli.csv_bytes": "count",
    "cli.csv_mb_per_s": "MB/s",
    "stochastic.fk_s": "s",
    "stochastic.path_steps": "count",
    "stochastic.ns_per_path_step": "ns",
    "stochastic.kernel_s": "s",
    "stochastic.noise_s": "s",
    "stochastic.se_max": "1",
    "stochastic.noise_bytes": "B",
    "stochastic.single_path_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.missing": "count",
    "fail_ratio": "ratio",
    "mc_time_to_se_s": "s",
    "failures.typed": "count",
    "failures.untyped": "count",
    "failures.nonfinite": "count",
    "failures.checks": "count",
    "failures.runtime_warnings": "count",
}

# Error codes stored per span.
OK, CONVERGENCE, CALIBRATION, TYPED, UNTYPED = 0, 1, 2, 3, 4


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _solve_work(args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    return grid.nf * grid.nt, grid.nt


def _csv_work(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path")), 0


def _fk_work(args, kwargs, result):
    t = _arg(args, kwargs, 3, "t")
    dt = _arg(args, kwargs, 5, "dt")
    n_steps = max(1, round(t / dt)) if t > 0 else 0
    return result.n_paths * n_steps, n_steps


def _path_work(args, kwargs, result):
    return len(result.values) - 1, len(result.values) - 1


_WORK_HOOKS = {
    "pde.solve_nonstationary": _solve_work,
    "cli.write_csv": _csv_work,
    "stochastic.feynman_kac_estimate": _fk_work,
    "stochastic.simulate_regulated_ou": _path_work,
}


class Tracer:
    """Owns the span arrays and the wrapped functions of one run."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.missing: list[str] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.err = array("b")
        self.units = array("d")
        self.steps = array("d")
        self._stack: list[int] = []
        self._errors = tuple(
            getattr(package, name, None)
            for name in ("CalibrationError", "ConvergenceError", "TargetZoneError")
        )
        self._build()

    def _code(self, exc: BaseException) -> int:
        calibration, convergence, typed = self._errors
        if calibration is not None and isinstance(exc, calibration):
            return CALIBRATION
        if convergence is not None and isinstance(exc, convergence):
            return CONVERGENCE
        if typed is not None and isinstance(exc, typed):
            return TYPED
        return UNTYPED

    def _build(self) -> None:
        for layer, expected in LAYERS.items():
            module = sys.modules.get(f"{self.package.__name__}.{layer}")
            found = {}
            if module is not None and layer in _DISCOVER:
                for attr, value in vars(module).items():
                    if (
                        not attr.startswith("_")
                        and inspect.isfunction(value)
                        and value.__module__ == module.__name__
                    ):
                        found[attr] = value
            for attr in expected:
                value = getattr(module, attr, None) if module is not None else None
                if inspect.isfunction(value):
                    found[attr] = value
                else:
                    self.missing.append(f"{layer}.{attr}")
            for attr, fn in sorted(found.items()):
                qualname = f"{layer}.{attr}"
                self._originals[qualname] = fn
                self._wrappers[qualname] = self._wrap(qualname, layer, fn)

    def _wrap(self, qualname: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        hook = _WORK_HOOKS.get(qualname)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        errs, units, steps = self.err, self.units, self.steps
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            errs.append(OK)
            units.append(0.0)
            steps.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                errs[idx] = self._code(exc)
                raise
            finally:
                stack.pop()
            ends[idx] = clock()
            if hook is not None:
                try:
                    units[idx], steps[idx] = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # a changed signature leaves the work counts at zero, never fails the call
            return result

        return traced

    def _rebind(self, table_from: dict, table_to: dict) -> None:
        prefix = self.package.__name__
        replace = {id(table_from[q]): table_to[q] for q in table_from}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                target = replace.get(id(value))
                if target is not None:
                    setattr(module, attr, target)

    def install(self) -> None:
        self._rebind(self._originals, self._wrappers)

    def uninstall(self) -> None:
        self._rebind(self._wrappers, self._originals)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8).copy(),
            "units": np.frombuffer(self.units, dtype=np.float64).copy(),
            "steps": np.frombuffer(self.steps, dtype=np.float64).copy(),
        }

    def write(self, path, provenance_json: str) -> None:
        """Write every recorded span, the name table and the run provenance."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            provenance=np.array(provenance_json),
            **self.columns(),
        )


class SpanTable:
    """Derived views over recorded spans: durations, self times, per-name masks."""

    def __init__(self, tracer: Tracer):
        cols = tracer.columns()
        self.names = tracer.names
        self.name = cols["name"]
        self.err = cols["err"]
        self.units = cols["units"]
        self.steps = cols["steps"]
        self.duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(parent)
        )
        self.self_time = self.duration - child_time
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        name_layer = np.array([layer_ids[layer] for layer in tracer.layer_of], dtype=np.int32)
        self.layer = name_layer[self.name] if len(self.name) else np.zeros(0, dtype=np.int32)
        parent_layer = np.full(len(parent), -1, dtype=np.int32)
        parent_layer[has_parent] = self.layer[parent[has_parent]]
        # Outermost span of its layer: the caller is in another layer or none.
        self.outermost = parent_layer != self.layer
        self.parent = parent
        self._layer_ids = layer_ids

    def of(self, *qualnames: str) -> np.ndarray:
        ids = [self.names.index(q) for q in qualnames if q in self.names]
        return np.isin(self.name, ids)

    def within(self, *qualnames: str) -> np.ndarray:
        """Spans called, directly or not, from a span of one of `qualnames`."""
        has_parent = self.parent >= 0
        inside = np.zeros(len(self.name), dtype=bool)
        ancestor = self.of(*qualnames)
        while True:
            step = inside.copy()
            step[has_parent] |= ancestor[self.parent[has_parent]] | inside[self.parent[has_parent]]
            if np.array_equal(step, inside):
                return inside
            inside = step

    def in_layer(self, layer: str) -> np.ndarray:
        return self.layer == self._layer_ids[layer]


def layer_metrics(table: SpanTable, passes: int, noise_rows: int) -> dict[str, float]:
    """Per-layer metrics, as means per traced pass where they are totals.

    `noise_rows` is the number of paths whose noise one Philox block draws at
    once; with the longest estimate's step count it gives the computed size of
    one float64 noise block.
    """
    per = 1.0 / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(table.self_time[table.in_layer(layer)].sum()) * per

    kummer = table.in_layer("kummer") & table.outermost
    calibrate = table.of(*_CALIBRATE)
    symmetric = table.of("stationary.calibrate_symmetric")
    kummer_calls = int(kummer.sum())
    kummer_busy = float(table.duration[kummer].sum())
    m["kummer.calls"] = kummer_calls * per
    in_calibration = int((kummer & table.within("stationary.calibrate_symmetric")).sum())
    m["kummer.calls_per_calibration"] = ratio(in_calibration, int(symmetric.sum()))
    m["kummer.us_per_call"] = ratio(kummer_busy, kummer_calls) * 1e6
    m["kummer.busy_s"] = kummer_busy * per
    m["kummer.convergence_errors"] = int((kummer & (table.err == CONVERGENCE)).sum()) * per

    cal_ms = table.duration[calibrate] * 1e3
    m["stationary.calibrate_calls"] = int(calibrate.sum()) * per
    m["stationary.calibrate_failed"] = int((calibrate & (table.err != OK)).sum()) * per
    m["stationary.calibrate_p50_ms"] = float(np.percentile(cal_ms, 50)) if cal_ms.size else 0.0
    m["stationary.calibrate_p97_ms"] = float(np.percentile(cal_ms, 97)) if cal_ms.size else 0.0
    m["stationary.calibrate_self_s"] = float(table.self_time[calibrate].sum()) * per
    residual = table.of("stationary.stationary_ode_residual")
    m["stationary.residual_s"] = float(table.duration[residual].sum()) * per
    evals = table.of(*_EVAL)
    m["stationary.eval_us_per_point"] = (
        ratio(float(table.duration[evals].sum()), int(evals.sum())) * 1e6
    )

    solves = table.of("pde.solve_nonstationary")
    solve_s = float(table.duration[solves].sum())
    node_updates = float(table.units[solves].sum())
    m["pde.solves"] = int(solves.sum()) * per
    m["pde.node_updates"] = node_updates * per
    m["pde.solve_s"] = solve_s * per
    m["pde.step_us"] = ratio(solve_s, float(table.steps[solves].sum())) * 1e6
    m["pde.ns_per_node_update"] = ratio(solve_s, node_updates) * 1e9

    csv = table.of("cli.write_csv")
    csv_s = float(table.duration[csv].sum())
    csv_bytes = float(table.units[csv].sum())
    m["cli.csv_s"] = csv_s * per
    m["cli.csv_bytes"] = csv_bytes * per
    m["cli.csv_mb_per_s"] = ratio(csv_bytes / 1e6, csv_s)

    fk = table.of("stochastic.feynman_kac_estimate")
    fk_s = float(table.duration[fk].sum())
    path_steps = float(table.units[fk].sum())
    m["stochastic.fk_s"] = fk_s * per
    m["stochastic.path_steps"] = path_steps * per
    m["stochastic.ns_per_path_step"] = ratio(fk_s, path_steps) * 1e9
    m["stochastic.kernel_s"] = float(table.duration[table.of("stochastic._integrate_block")].sum()) * per
    m["stochastic.noise_s"] = float(table.self_time[fk].sum()) * per
    m["stochastic.noise_bytes"] = float(table.steps[fk].max()) * noise_rows * 8 if fk.any() else 0.0
    single = table.of("stochastic.simulate_regulated_ou")
    m["stochastic.single_path_s"] = float(table.duration[single].sum()) * per
    m["trace.spans"] = len(table.name) * per
    return m
