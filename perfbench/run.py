"""Benchmark of the targetzone package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stationary_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

Set-up (importing the package from ./src, generating inputs from the seed,
reference values) is timed as `setup_s`, sampled in this and two fresh
processes and reported as a median. Passes then repeat for `--seconds`
seconds and `wall_s` is the median pass time. Both are timed at a reference
machine speed (see clock.py); the raw times are printed next to them. With
`--trace 1` the run alternates untraced and traced passes and reports
per-layer metrics instead; the spans are written to .perfbench_out/. The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. A failed correctness check prints `"correct": false`
and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from clock import PROBE_REF_S, ScaledTimer

# Single-threaded numerics: set before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("stationary_sweep", "surface_export", "pde_refine", "mc_crosscheck")


def _require_package() -> Path:
    src = ROOT / "src"
    if not (src / "targetzone" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no targetzone package under {src}")
    return src


def load_package():
    """Import targetzone from ./src of this checkout, never from anywhere else."""
    src = _require_package()
    sys.path.insert(0, str(src))
    import targetzone
    import targetzone.cli  # noqa: F401  (the CLI layer is part of what is measured)

    if Path(targetzone.__file__).resolve().parent != src / "targetzone":
        raise SystemExit(f"perfbench: targetzone imported from {targetzone.__file__}, not {src}")
    return targetzone


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, size: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inputs": size,
    }


def _setup(args, tmp_dir: str):
    """Import, inputs and references; returns (package, workloads module, state, timer)."""
    with ScaledTimer() as timer:
        tz = load_package()
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        state = wl.setup(tz, args.seed, workloads.SIZES[args.size], args.corrupt, tmp_dir)
    return tz, workloads, state, timer


def _child_setup(args) -> tuple[float, float]:
    """(scaled, raw) set-up seconds from a fresh interpreter."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--setup-only",
    ]  # fmt: skip
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up sample failed:\n{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return float(sample["setup_s"]), float(sample["raw_s"])


@dataclass
class Pass:
    timer: ScaledTimer
    traced: bool
    tally: object
    outcome: object


def _one_pass(tz, workloads, wl, state, tracer) -> Pass:
    """Run and check one pass; a traced pass is timed without in-pass probes."""
    tally = workloads.Tally()
    outcome = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
        try:
            with ScaledTimer(sample=tracer is None) as timer:
                outcome = wl.run(tz, state, tally)
        except Exception as exc:  # the pass is lost; the failure is counted and reported
            tally.record_error(exc, tz.TargetZoneError)
            tally.aborted += 1
            print(f"perfbench: pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.uninstall()
    tally.runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
    if outcome is not None:
        wl.check(tz, state, outcome, tally)
    return Pass(timer, tracer is not None, tally, outcome)


def _run_passes(tz, workloads, wl, state, tracer, seconds: float) -> list[Pass]:
    """Passes until the next one would end after `seconds`; with a tracer, every other pass is traced."""
    passes: list[Pass] = []
    longest = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        start = time.perf_counter()
        passes.append(_one_pass(tz, workloads, wl, state, tracer if traced else None))
        longest = max(longest, time.perf_counter() - start)
        if not passes[-1].tally.correct:
            break
        if tracer is not None and len(passes) < 2:
            continue
        if time.perf_counter() + longest > deadline:
            break
    return passes


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _print_metric(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"perfbench {workload} {name} = {value:.6g} {unit}{'  (' + note + ')' if note else ''}")


def measure(args) -> int:
    _require_package()  # before anything is written
    tmp_dir = OUT_DIR / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, str(tmp_dir))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _measure(args, tmp_dir: str) -> int:
    tz, workloads, state, timer = _setup(args, tmp_dir)
    if args.setup_only:
        print(json.dumps({"setup_s": timer.scaled, "raw_s": timer.raw}))
        return 0
    setups = [(timer.scaled, timer.raw)]
    setups += [_child_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    import spans

    wl = workloads.WORKLOADS[args.workload]
    prov = provenance(args, workloads.SIZES[args.size])
    print("perfbench provenance " + json.dumps(prov, sort_keys=True))

    tracer = spans.Tracer(tz) if args.trace else None
    passes = _run_passes(tz, workloads, wl, state, tracer, args.seconds)
    plain = [p for p in passes if not p.traced]
    total, plain_total = workloads.Tally(), workloads.Tally()
    for p in passes:
        total.add(p.tally)
        if not p.traced:
            plain_total.add(p.tally)

    name = args.workload
    q1, wall_s, q3 = _quartiles([p.timer.scaled for p in plain])
    raw_wall = statistics.median(p.timer.raw for p in plain)
    probe_s = statistics.median(p.timer.probe_s for p in plain)
    setup_s = statistics.median(scaled for scaled, _ in setups)
    raw_setup = statistics.median(raw for _, raw in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_ratio = len(plain_total.failed_ops) / len(plain_total.ops) if plain_total.ops else 0.0
    _print_metric(
        name, "wall_s", wall_s, "s",
        f"median of {len(plain)} passes, quartiles {q1:.4g} {q3:.4g}; raw median {raw_wall:.4g} s, "
        f"speed probe {probe_s * 1e3:.4g} ms against {PROBE_REF_S * 1e3:g} ms",
    )  # fmt: skip
    _print_metric(name, "setup_s", setup_s, "s", f"median of {len(setups)} set-ups; raw {raw_setup:.4g} s")
    _print_metric(name, "peak_rss_mb", peak_rss_mb, "MB")
    _print_metric(
        name, "fail_ratio", fail_ratio, "ratio",
        f"{len(plain_total.failed_ops)} of {len(plain_total.ops)} operations; over {len(plain)} passes "
        f"{plain_total.failed} of {plain_total.attempted}: typed {plain_total.typed}, "
        f"untyped {plain_total.untyped}, non-finite {plain_total.nonfinite}, "
        f"checks {plain_total.checks}; RuntimeWarnings {plain_total.runtime_warnings}",
    )  # fmt: skip
    time_to_se = [
        workloads.mc_time_to_se(p.outcome, p.timer.scaled_between)
        for p in plain
        if p.outcome is not None and "estimates" in p.outcome
    ]
    mc_time_to_se_s = statistics.median(time_to_se) if time_to_se else 0.0
    if time_to_se:
        _print_metric(
            name, "mc_time_to_se_s", mc_time_to_se_s, "s",
            f"to a standard error of {workloads.SE_TARGET:g} at every probe",
        )  # fmt: skip

    if tracer is None:
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        extra = {"fail_ratio": fail_ratio, "mc_time_to_se_s": mc_time_to_se_s}
        metrics = _layer_metrics(args, tz, spans, tracer, passes, plain_total, extra, prov)

    result = {
        "correct": total.correct,
        "attempted": len(total.ops),
        "failed": len(total.failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if total.correct else 1


def _layer_metrics(args, tz, spans, tracer, passes, plain_total, extra, prov):
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    table = spans.SpanTable(tracer)
    noise_rows = getattr(tz.stochastic, "_BLOCK", 8192)
    layer = spans.layer_metrics(table, len(traced), noise_rows)
    se = [se for p in plain if p.outcome is not None for *_, se in p.outcome.get("estimates", ())]
    n_plain = len(plain)
    layer.update(extra)
    layer.update(
        {
            "stochastic.se_max": max(se) if se else 0.0,
            "trace.overhead_s": statistics.median(p.timer.scaled for p in traced)
            - statistics.median(p.timer.scaled for p in plain),
            "trace.missing": float(len(tracer.missing)),
            "failures.typed": plain_total.typed / n_plain,
            "failures.untyped": plain_total.untyped / n_plain,
            "failures.nonfinite": plain_total.nonfinite / n_plain,
            "failures.checks": plain_total.checks / n_plain,
            "failures.runtime_warnings": plain_total.runtime_warnings / n_plain,
        }
    )
    for missing in tracer.missing:
        print(f"perfbench {args.workload} trace: {missing} not found, not traced")
    units = spans.METRIC_UNITS
    for key in sorted(layer.keys() - extra.keys()):
        _print_metric(args.workload, key, layer[key], units[key])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz", json.dumps(prov))
    return {k: (layer[k], units[k]) for k in sorted(layer)}


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
        ]  # fmt: skip
        if args.corrupt:
            cmd += ["--corrupt", args.corrupt]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if done.returncode != 0:
            status = 1
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--corrupt",
        choices=("csv_hash", "pde_ref"),
        help="replace a reference value by a wrong one; the run must then fail (smoke test)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
