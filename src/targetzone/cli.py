"""Command-line front end: calibrate / solve / simulate / figure.

Reports echo every resolved setting so a run can be audited and repeated;
identical configuration and seed reproduce reports and CSV files byte for
byte. Figure CSVs are long-format so any plotting tool can pivot them.
Times are reported as time remaining t; calendar time is tau = T - t.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import SETTINGS, RunConfig, parse_config
from .errors import ParameterError, TargetZoneError
from .model import Band, ModelParams
from .pde import Surface, boundary_paths, slice_at, solve_nonstationary
from .stationary import (
    calibrate_bm,
    calibrate_symmetric,
    eval_stationary,
    eval_stationary_bm,
    eval_stationary_bm_slope,
    eval_stationary_slope,
)
from .stochastic import feynman_kac_estimate

# Section times for figure 2 as fractions of the horizon; at the default
# T = 3 these are the figure's times 0, 0.15, 0.6, 1.95, 3.
_SECTION_FRACTIONS = (0.0, 0.05, 0.2, 0.65, 1.0)
_FIG4_CURVE_POINTS = 201


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    chunks: Iterable[str],
    comments: Sequence[str] = (),
) -> None:
    """Write comment lines, the header and pre-formatted text chunks."""
    with open(path, "w", newline="") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for chunk in chunks:
            fh.write(chunk)


def _csv_lines(rows: Iterable[Sequence]) -> Iterator[str]:
    for row in rows:
        yield ",".join(_fmt(x) for x in row) + "\n"


def _echo(pairs: Iterable[tuple[str, object]]) -> None:
    for key, value in pairs:
        print(f"  {key} = {_fmt(value)}")


def _param_pairs(config: RunConfig) -> list[tuple[str, object]]:
    p = config.params
    return [
        ("alpha", p.alpha),
        ("rho", p.rho),
        ("sigma", p.sigma),
        ("e_bar", config.e_bar),
        ("horizon", p.horizon),
    ]


class _Calibrated(NamedTuple):
    """A calibrated stationary model: band, evaluators and report lines."""

    band: Band
    value: Callable[[float], float]
    slope: Callable[[float], float]
    pairs: list[tuple[str, object]]
    tag: str  # names the model's figure-4 curve file


def _calibrated_band(params: ModelParams, e_bar: float) -> _Calibrated:
    """Calibrate the stationary model; rho = 0 routes to the BM reference."""
    if params.rho == 0:
        bm, band = calibrate_bm(params.alpha, params.sigma, e_bar)
        return _Calibrated(
            band,
            lambda f: eval_stationary_bm(bm, f),
            lambda f: eval_stationary_bm_slope(bm, f),
            [("model", "bm"), ("lambda", bm.lam)],
            "bm",
        )
    coefs, band = calibrate_symmetric(params, e_bar)
    return _Calibrated(
        band,
        lambda f: eval_stationary(params, coefs, f),
        lambda f: eval_stationary_slope(params, coefs, f),
        [("model", "ou"), ("c2", coefs.c2)],
        f"ou_rho={params.rho:g}",
    )


def cmd_calibrate(config: RunConfig) -> int:
    print("targetzone calibrate")
    _echo(_param_pairs(config))
    model = _calibrated_band(config.params, config.e_bar)
    f_bar = model.band.f_hi
    _echo(
        [
            *model.pairs,
            ("f_bar", f_bar),
            ("residual_value", model.value(f_bar) - config.e_bar),
            ("residual_slope", model.slope(f_bar)),
        ]
    )
    return 0


def _solve(config: RunConfig) -> tuple[Surface, _Calibrated]:
    model = _calibrated_band(config.params, config.e_bar)
    return solve_nonstationary(config.params, model.band, config.grid), model


def cmd_solve(config: RunConfig) -> int:
    surface, model = _solve(config)
    final = surface.values[-1]
    gap = float(np.max(np.abs(final - np.array([model.value(f) for f in surface.f_axis.tolist()]))))
    print("targetzone solve")
    _echo(_param_pairs(config))
    _echo(
        [
            ("nf", config.grid.nf),
            ("nt", config.grid.nt),
            ("theta", config.grid.theta),
            ("f_bar", model.band.f_hi),
            ("edge_value_at_horizon", float(final[-1])),
            ("max_gap_to_stationary_at_horizon", gap),
        ]
    )
    if config.output_path:
        _write_surface(config.output_path, surface)
        print(f"  wrote {config.output_path}")
    return 0


def cmd_simulate(config: RunConfig) -> int:
    band = _calibrated_band(config.params, config.e_bar).band
    f0 = config.f0 if config.f0 is not None else 0.5 * band.f_hi
    t = config.probe_t if config.probe_t is not None else config.params.horizon
    est = feynman_kac_estimate(
        config.params, band, f0, t, config.mc.n_paths, config.mc.dt, config.mc.seed
    )
    print("targetzone simulate")
    _echo(_param_pairs(config))
    _echo(
        [
            ("f_bar", band.f_hi),
            ("f0", f0),
            ("t", t),
            ("paths", est.n_paths),
            ("dt", config.mc.dt),
            ("seed", est.seed),
            ("mean", est.mean),
            ("std_error", est.std_error),
        ]
    )
    if config.output_path:
        write_csv(
            config.output_path,
            ["f0", "t", "n_paths", "dt", "seed", "mean", "std_error"],
            _csv_lines([[f0, t, est.n_paths, config.mc.dt, est.seed, est.mean, est.std_error]]),
        )
        print(f"  wrote {config.output_path}")
    return 0


def _surface_lines(surface: Surface) -> Iterator[str]:
    # The f column is formatted once into line tails ",<f_i>,%.12g\n"; each
    # time step joins them behind its own formatted t and fills the e column
    # with one %, so one step's block is the most text held at a time.
    tails = [f",{_fmt(f)},%.12g\n" for f in surface.f_axis.tolist()]
    for t, values in zip(surface.t_axis.tolist(), surface.values):
        t_text = _fmt(t)
        yield (t_text + t_text.join(tails)) % tuple(values.tolist())


def _write_surface(path: str | Path, surface: Surface) -> None:
    write_csv(path, ["t", "f", "e"], _surface_lines(surface))


def cmd_figure(which: int, config: RunConfig) -> int:
    out = config.output_path or f"figure{which}.csv"
    print(f"targetzone figure {which}")
    _echo(_param_pairs(config))

    if which == 1:
        surface, _ = _solve(config)
        _write_surface(out, surface)
        written = [out]
    elif which == 2:
        surface, _ = _solve(config)
        rows = []
        for fraction in _SECTION_FRACTIONS:
            section = slice_at(surface, fraction * config.params.horizon)
            rows.extend((section.t, float(f), float(e)) for f, e in zip(section.f, section.e))
        write_csv(out, ["t", "f", "e"], _csv_lines(rows))
        written = [out]
    elif which == 3:
        surface, _ = _solve(config)
        paths = boundary_paths(surface)
        write_csv(out, ["t", "e_lower", "e_upper"], _csv_lines(paths.rows()))
        written = [out]
    elif which == 4:
        written = _write_fig4(out, config)
    else:
        raise ParameterError(f"must be 1, 2, 3 or 4, got {which}", "which")

    for path in written:
        print(f"  wrote {path}")
    return 0


def _write_fig4(out: str, config: RunConfig) -> list[str]:
    """One stationary curve per model tag, each on its own calibrated band.

    Every curve is calibrated before any file is written, so a failed
    calibration leaves no partial set behind.
    """
    p = config.params
    stem = Path(out)
    written: list[str] = []
    # BM first, then one mean-reverting curve per rho.
    models = [
        _calibrated_band(ModelParams(p.alpha, rho, p.sigma, horizon=p.horizon), config.e_bar)
        for rho in (0.0, *config.rho_list)
    ]
    for model in models:
        f_grid = np.linspace(model.band.f_lo, model.band.f_hi, _FIG4_CURVE_POINTS)
        path = stem.with_name(f"{stem.stem}_{model.tag}{stem.suffix or '.csv'}")
        write_csv(
            path,
            ["f", "e"],
            _csv_lines((float(f), model.value(float(f))) for f in f_grid),
            comments=[f"f_bar={_fmt(model.band.f_hi)}"],
        )
        written.append(str(path))
    return written


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key in SETTINGS:
        common.add_argument("--" + key.replace("_", "-"))
    common.add_argument("--config", dest="config_path")

    parser = argparse.ArgumentParser(
        prog="targetzone",
        description=(
            "Target-zone exchange rate with a fixed entry date and a regulated "
            "mean-reverting fundamental: calibration, PDE solve, Monte-Carlo "
            "check, and figure-ready CSV exports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("calibrate", parents=[common], help="solve the stationary band calibration")
    sub.add_parser("solve", parents=[common], help="solve the time-dependent problem")
    sub.add_parser("simulate", parents=[common], help="Feynman-Kac Monte-Carlo estimate")
    fig = sub.add_parser("figure", parents=[common], help="write figure data as CSV")
    fig.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    return parser


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    if ns.config_path:
        path = Path(ns.config_path)
        if not path.is_file():
            raise ParameterError(f"no such file: {path}", "config")
        file_text = path.read_text()
    else:
        file_text = ""
    overrides = [(key, getattr(ns, key)) for key in SETTINGS if getattr(ns, key) is not None]
    return parse_config(file_text, overrides)


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(ns)
        if ns.command == "calibrate":
            return cmd_calibrate(config)
        if ns.command == "solve":
            return cmd_solve(config)
        if ns.command == "simulate":
            return cmd_simulate(config)
        return cmd_figure(ns.which, config)
    except (TargetZoneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
