"""Run configuration: defaults < config file < command-line flags.

The config file is plain text, one ``key = value`` per line with ``#``
comments. Keys are the flag names without the leading dashes; internal
dashes and underscores are interchangeable (``e-bar`` == ``e_bar``).
Unknown keys are errors, never ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import ParameterError, check_real
from .model import ModelParams
from .pde import GridSpec
from .stochastic import check_mc_settings


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


# Every run setting: key -> (parser of its text form, default). Config-file
# keys and CLI flags both come from this table. Defaults reproduce the
# reference experiment: rho=1, sigma=0.1, alpha=3, e_bar=0.01, T=3.
SETTINGS: dict[str, tuple[Callable[[str], object], object]] = {
    "alpha": (float, 3.0),
    "rho": (float, 1.0),
    "sigma": (float, 0.1),
    "e_bar": (float, 0.01),
    "horizon": (float, 3.0),
    "nf": (int, 401),
    "nt": (int, 3000),
    "theta": (float, 0.5),
    "paths": (int, 200_000),
    "dt": (float, 1e-3),
    "seed": (int, 1),
    "f0": (float, None),
    "t": (float, None),
    "rho_list": (_float_list, (1.0, 0.1, 0.001)),
    "out": (str, None),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one CLI run."""

    params: ModelParams
    e_bar: float
    grid: GridSpec
    n_paths: int
    dt: float
    seed: int
    f0: float | None
    probe_t: float | None
    rho_list: tuple[float, ...]
    output_path: str | None


def _convert(key: str, raw: object):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        return SETTINGS[key][0](text)
    except ValueError as exc:
        raise ParameterError(f"cannot parse {text!r}: {exc}", key) from None


def _validated(settings: dict[str, object]) -> RunConfig:
    check_real(settings["e_bar"], "e_bar", 0, open_lo=True)
    # rho_list belongs to no domain type, so it is checked here.
    rho_list = settings["rho_list"]
    if not rho_list or not all(r > 0 and math.isfinite(r) for r in rho_list):
        raise ParameterError(f"needs positive finite entries, got {rho_list}", "rho_list")

    params = ModelParams(
        alpha=settings["alpha"],
        rho=settings["rho"],
        sigma=settings["sigma"],
        horizon=settings["horizon"],
    )
    grid = GridSpec(nf=settings["nf"], nt=settings["nt"], theta=settings["theta"])
    check_mc_settings(settings["t"], settings["paths"], settings["dt"], settings["seed"])

    return RunConfig(
        params=params,
        e_bar=settings["e_bar"],
        grid=grid,
        n_paths=settings["paths"],
        dt=settings["dt"],
        seed=settings["seed"],
        f0=settings["f0"],
        probe_t=settings["t"],
        rho_list=tuple(settings["rho_list"]),
        output_path=settings["out"],
    )


def _setting_pairs(file_text: str, flag_overrides: Iterable) -> Iterator[tuple[str, object]]:
    """(key, value) of each config-file line, then the flag overrides, read lazily."""
    for lineno, line in enumerate(file_text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(f"expected 'key = value', got {stripped!r}", f"line {lineno}")
        key, value = stripped.split("=", 1)
        yield key, value
    yield from flag_overrides


def parse_config(file_text: str, flag_overrides: Iterable[tuple[str, object]] = ()) -> RunConfig:
    """Resolve defaults, then the config file, then flag overrides (later wins)."""
    settings = {key: default for key, (_, default) in SETTINGS.items()}
    for key, value in _setting_pairs(file_text, flag_overrides):
        key = key.strip().replace("-", "_")
        if key not in settings:
            raise ParameterError("unknown key", key)
        settings[key] = _convert(key, value)
    return _validated(settings)
