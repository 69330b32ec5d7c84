"""Command-line front end: calibrate / solve / simulate / figure.

Reports echo every resolved setting so a run can be audited and repeated;
identical configuration and seed reproduce reports and CSV files byte for
byte. Figure CSVs are long-format so any plotting tool can pivot them.
Times are reported as time remaining t; calendar time is tau = T - t.

`solve` and `figure --which 1/2/3` hold O(nf) state whatever nt is: the CSVs
are written block by block, each block with its own times, as the PDE march
yields them, and figure 2 keeps only its five sections. A CSV replaces a
missing or regular-file target atomically, so a run that fails part-way leaves
no file; other targets, such as a pipe, are written in place.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import SETTINGS, RunConfig, parse_config
from .errors import ParameterError, TargetZoneError
from .model import Band, ModelParams
from .pde import Blocks, _f_axis, _march_blocks, _nearest_steps, solve_nonstationary
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


@contextmanager
def _replacing(path: str | Path) -> Iterator[BinaryIO]:
    """Open `path` for writing so that it changes only if the block ends without error.

    The bytes go to a temporary file beside the file `path` names, which
    replaces it once the block is done; on any error the temporary file is
    deleted and `path` keeps what it held. It gets the mode open(path, "wb")
    would give. Where a rename would lose something, `path` is opened with
    open(path, "wb") and written in place: a target that is not a regular
    file (a device, a FIFO, /dev/stdout), a file with other hard links or
    another owner, and a directory in which no new file can be made.
    """
    try:
        st = os.stat(path)  # through symlinks, as open() writes
        in_place = not (
            stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
        )
    except FileNotFoundError:
        st, in_place = None, False
    except OSError:  # open() raises it again, naming path
        st, in_place = None, True
    if not in_place:
        target = os.path.realpath(path)
        head, name = os.path.split(target)
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        try:  # 0o666 less the umask, as open() creates
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            in_place = True
    if in_place:
        with open(path, "wb") as fh:
            yield fh
        return
    try:
        with open(fd, "wb") as fh:
            if st is not None:  # an existing file's mode stays
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(
    path: str | Path,
    header: Sequence[str],
    chunks: Iterable[bytes],
    comments: Sequence[str] = (),
) -> None:
    """Write comment lines, the header and pre-formatted ASCII chunks.

    A regular file is replaced only once every chunk is written, so a run
    that fails while `chunks` are made leaves no file behind and an existing
    file keeps its bytes (see _replacing for the targets written in place).
    """
    with _replacing(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n".encode())
        fh.write((",".join(header) + "\n").encode())
        for chunk in chunks:
            fh.write(chunk)


def _csv_lines(rows: Iterable[Sequence]) -> Iterator[bytes]:
    for row in rows:
        yield (",".join(_fmt(x) for x in row) + "\n").encode()


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
    """A calibrated stationary model: band, evaluators and report lines.

    `value` and `slope` each take a float or an array of f.
    """

    band: Band
    value: Callable
    slope: Callable
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


def cmd_solve(config: RunConfig) -> int:
    """Report the surface at the horizon; with --out, stream the whole surface to CSV first."""
    model = _calibrated_band(config.params, config.e_bar)
    grid = config.grid
    if config.output_path:
        f_axis, final = _stream_surface(config.output_path, config, model.band)
    else:
        horizon = solve_nonstationary(config.params, model.band, grid, steps=[grid.nt])
        f_axis, final = horizon.f_axis, horizon.values[0]
    gap = float(np.max(np.abs(final - model.value(f_axis))))
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
        print(f"  wrote {config.output_path}")
    return 0


def cmd_simulate(config: RunConfig) -> int:
    band = _calibrated_band(config.params, config.e_bar).band
    f0 = config.f0 if config.f0 is not None else 0.5 * band.f_hi
    t = config.probe_t if config.probe_t is not None else config.params.horizon
    est = feynman_kac_estimate(config.params, band, f0, t, config.n_paths, config.dt, config.seed)
    print("targetzone simulate")
    _echo(_param_pairs(config))
    _echo(
        [
            ("f_bar", band.f_hi),
            ("f0", f0),
            ("t", t),
            ("paths", est.n_paths),
            ("dt", config.dt),
            ("seed", est.seed),
            ("mean", est.mean),
            ("std_error", est.std_error),
        ]
    )
    if config.output_path:
        write_csv(
            config.output_path,
            ["f0", "t", "n_paths", "dt", "seed", "mean", "std_error"],
            _csv_lines([[f0, t, est.n_paths, config.dt, est.seed, est.mean, est.std_error]]),
        )
        print(f"  wrote {config.output_path}")
    return 0


# The surface's e column is formatted by numpy where its text is "0." and
# 12 digits, and by '%.12g' elsewhere (see _g12_lines). A block of
# _BLOCK_STEPS time steps is laid out as one NUL-padded matrix of words, and
# the NULs are dropped in one translate. At 401 points, 16 steps raise the
# peak RSS of `solve --out` by 1.9 MB over a one-step-at-a-time writer, and
# 64 steps by 6.4 MB.
_BLOCK_STEPS = 16
_POW10 = np.array([float(10**k) for k in range(11, 17)])  # exact 10^(11 - X) at -X, X = -5 ... 0


def _digit_words() -> np.ndarray:
    """k < 10_000 in four ASCII digits as one word at k, and at 10_000 + k with trailing 0s NUL."""
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):  # digit j of k runs along axis j
        ascii4[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
    ascii4 = ascii4.reshape(10_000, 4)
    keep = ascii4 != 48
    for j in (2, 1, 0):
        keep[:, j] |= keep[:, j + 1]  # a digit stays if a later one is nonzero
    return np.concatenate([ascii4, ascii4 * keep]).view(np.uint32).ravel()


_DIGITS = _digit_words()
# "0." and the -1 - X leading zeros of exponent X = -1 ... -4, then the same
# four with a minus sign, each in 8 bytes.
_PREFIX = np.array(
    [f"{sign}0.{'0' * k}".encode() for sign in ("", "-") for k in range(4)], dtype="S8"
).view(np.uint64)
_NEWLINE = np.frombuffer(b"\n\0\0\0", np.uint32)[0]
_LINE_WORDS = 6  # the longest '%.12g' text, "-1.23456789012e-308", and "\n" in 24 bytes


def _padded_words(texts: list[str]) -> np.ndarray:
    """ASCII texts as the NUL-padded rows of one uint32 matrix."""
    width = -(-max(map(len, texts)) // 4)
    return np.array(texts, dtype=f"S{4 * width}").view(np.uint32).reshape(len(texts), width)


def _g12_lines(values: np.ndarray) -> np.ndarray:
    """`'%.12g' % v + "\\n"` for each v of a 1-D float array, as NUL-padded (n, _LINE_WORDS) uint32 rows.

    Numpy lays out the lanes whose text is "0." and 12 digits, the exponents
    X = -4 ... -1. Candidates are 1e-5 <= |v| < 1. X = floor(log10|v|),
    moved by one where the scaled value s = |v|*10^(11-X) falls outside
    [1e11, 1e12). 10^(11-X) is an exact double and s < 2^40 is rounded once,
    so s is within 2^-14 of the exact product, and rint(s) is the correctly
    rounded 12-digit mantissa wherever s is more than 1e-3 from a
    half-integer; a carry to 1e12 moves X up. Every other lane (other
    exponents, near-ties, zeros, non-finite values, an s still outside
    [1e11, 1e12)) takes `'%.12g' % v`, in one substitution: 18,897 of
    1,203,401 lanes (1.57 %) of the reference surface, and 7.8 % at
    e_bar = 0.001.
    """
    a = np.abs(values)
    candidate = (a >= 1e-5) & (a < 1.0)  # False for nan
    a = np.where(candidate, a, 0.1)
    x = np.floor(np.log10(a)).astype(np.intp)
    s = a * _POW10[-x]
    miss = np.flatnonzero((s >= 1e12) | (s < 1e11))  # log10 may miss by one
    if miss.size:
        x[miss] += 2 * (s[miss] >= 1e12) - 1
        s[miss] = a[miss] * _POW10[-x[miss]]
    d = np.rint(s)
    clear = np.abs(s - d) < 0.499
    carry = d == 1e12
    d[carry] = 1e11
    x += carry
    ok = candidate & clear & (x >= -4) & (x <= -1) & (s >= 1e11) & (d < 1e12)

    # d < 2^40 is an exact integer, so these float quotients floor exactly.
    d = np.where(ok, d, 1e11)
    hi = np.floor(d / 1e8)
    rest = d - hi * 1e8
    mid = np.floor(rest / 1e4)
    lo = (rest - mid * 1e4).astype(np.intp)
    hi, mid = hi.astype(np.intp), mid.astype(np.intp)
    words = np.empty((len(values), _LINE_WORDS), np.uint32)
    words.view(np.uint64)[:, 0] = _PREFIX[np.where(ok, -1 - x, 0) + 4 * (values < 0)]
    words[:, 2] = _DIGITS[hi + 10_000 * ((mid | lo) == 0)]
    words[:, 3] = _DIGITS[mid + 10_000 * (lo == 0)]
    words[:, 4] = _DIGITS[lo + 10_000]
    words[:, 5] = _NEWLINE

    fallback = np.flatnonzero(~ok)
    if fallback.size:
        text = ("%.12g\n" * fallback.size % tuple(values[fallback].tolist())).encode()
        rows = np.array(text.splitlines(keepends=True), f"S{4 * _LINE_WORDS}")
        words[fallback] = rows.view(np.uint32).reshape(-1, _LINE_WORDS)
    return words


def _surface_lines(f_axis: np.ndarray, blocks: Blocks) -> Iterator[bytes]:
    """The CSV lines of each block's rows, read before the next block is asked for."""
    # A line is t and ",<f>," NUL-padded to whole words, then the e words. Each
    # sub-block lays out its own t words, padded to its widest t; the buffer and
    # its f words are laid out again only when that width changes.
    f_words = _padded_words([f",{_fmt(f)}," for f in f_axis.tolist()])
    ht = 0
    for times, rows in blocks:
        for start in range(0, len(rows), _BLOCK_STEPS):
            values = rows[start : start + _BLOCK_STEPS]
            t_words = _padded_words([_fmt(t) for t in times[start : start + _BLOCK_STEPS].tolist()])
            if t_words.shape[1] != ht:
                ht, head = t_words.shape[1], t_words.shape[1] + f_words.shape[1]
                words = np.empty((_BLOCK_STEPS, len(f_words), head + _LINE_WORDS), np.uint32)
                words[:, :, ht:head] = f_words
            block = words[: len(values)]
            block[:, :, :ht] = t_words[:, None]
            block[:, :, head:] = _g12_lines(values.ravel()).reshape(len(values), -1, _LINE_WORDS)
            yield block.tobytes().translate(None, b"\0")


def _stream_surface(
    path: str | Path, config: RunConfig, band: Band
) -> tuple[np.ndarray, np.ndarray]:
    """Write the surface CSV block by block as the march goes; return the f axis and last row.

    Of the surface only the march's 65-row buffer, its block's times and one
    formatting block are held, however many steps the grid has.
    """
    f_axis = _f_axis(band, config.grid)
    last = np.empty(config.grid.nf)

    def blocks() -> Blocks:
        for times, rows in _march_blocks(config.params, band, config.grid):
            last[:] = rows[-1]
            yield times, rows

    write_csv(path, ["t", "f", "e"], _surface_lines(f_axis, blocks()))
    return f_axis, last


def cmd_figure(which: int, config: RunConfig) -> int:
    out = config.output_path or f"figure{which}.csv"
    print(f"targetzone figure {which}")
    _echo(_param_pairs(config))

    if which == 4:
        written = _write_fig4(out, config)
    else:
        _write_pde_figure(which, out, config)
        written = [out]

    for path in written:
        print(f"  wrote {path}")
    return 0


def _write_pde_figure(which: int, out: str, config: RunConfig) -> None:
    """Figure 1 (the surface), 2 (five time sections) or 3 (the band-edge paths)."""
    params, grid = config.params, config.grid
    band = _calibrated_band(params, config.e_bar).band
    if which == 1:
        _stream_surface(out, config, band)
        return
    if which == 2:
        # The steps nearest each section time, as slice_at picks them on the full surface.
        times = [fr * params.horizon for fr in _SECTION_FRACTIONS]
        steps = _nearest_steps(params.horizon, grid.nt, times)
        sections = solve_nonstationary(params, band, grid, steps=steps)
        lines = _surface_lines(sections.f_axis, [(sections.t_axis, sections.values)])
        write_csv(out, ["t", "f", "e"], lines)
        return

    def edge_lines() -> Iterator[bytes]:
        """Each march block's two edge columns, written as the block passes."""
        for times, rows in _march_blocks(params, band, grid):
            yield from _csv_lines(zip(times.tolist(), rows[:, 0].tolist(), rows[:, -1].tolist()))

    write_csv(out, ["t", "e_lower", "e_upper"], edge_lines())


def _write_fig4(out: str, config: RunConfig) -> list[str]:
    """One stationary curve per model tag, each on its own calibrated band.

    Every curve is calibrated, and every file name checked to be its own,
    before any file is written, so a failure leaves no partial set behind.
    """
    p = config.params
    stem = Path(out)
    if not stem.name:  # "." or "/": no file name to build the curve names from
        raise ParameterError(f"{out!r} names no file", "out")
    # BM first, then one mean-reverting curve per rho.
    models = [
        _calibrated_band(ModelParams(p.alpha, rho, p.sigma, horizon=p.horizon), config.e_bar)
        for rho in (0.0, *config.rho_list)
    ]
    paths = [str(stem.with_name(f"{stem.stem}_{m.tag}{stem.suffix or '.csv'}")) for m in models]
    if len(set(paths)) < len(paths):  # the tag formats rho with :g
        raise ParameterError(f"two curves would write one file among {paths}", "rho_list")
    for model, path in zip(models, paths):
        f_grid = np.linspace(model.band.f_lo, model.band.f_hi, _FIG4_CURVE_POINTS)
        write_csv(
            path,
            ["f", "e"],
            _csv_lines(zip(f_grid.tolist(), model.value(f_grid).tolist())),
            comments=[f"f_bar={_fmt(model.band.f_hi)}"],
        )
    return paths


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
        try:
            file_text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}", "config") from None
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
