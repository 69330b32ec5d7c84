"""Run configuration: defaults < config file < command-line flags.

The config file is plain text, one ``key = value`` per line with ``#``
comments. Keys are the flag names without the leading dashes; internal
dashes and underscores are interchangeable (``e-bar`` == ``e_bar``).
Unknown keys are errors, never ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError, ParameterError
from .model import ModelParams
from .pde import GridSpec
from .stochastic import MIN_PATHS

# Reference-experiment defaults: mu=0, rho=1, sigma=0.1, alpha=3, e_bar=0.01, T=3.
_DEFAULTS: dict[str, object] = {
    "alpha": 3.0,
    "rho": 1.0,
    "sigma": 0.1,
    "mu": 0.0,
    "e_bar": 0.01,
    "horizon": 3.0,
    "nf": 401,
    "nt": 3000,
    "theta": 0.5,
    "paths": 200_000,
    "dt": 1e-3,
    "seed": 1,
    "f0": None,
    "t": None,
    "rho_list": (1.0, 0.1, 0.001),
    "out": None,
}

_FLOAT_KEYS = {"alpha", "rho", "sigma", "mu", "e_bar", "horizon", "theta", "dt", "f0", "t"}
_INT_KEYS = {"nf", "nt", "paths", "seed"}


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo settings for the simulate pipeline."""

    n_paths: int
    dt: float
    seed: int


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one CLI run."""

    params: ModelParams
    e_bar: float
    grid: GridSpec
    mc: McConfig
    f0: float | None
    probe_t: float | None
    rho_list: tuple[float, ...]
    output_path: str | None


def _canonical(key: str) -> str:
    return key.strip().replace("-", "_")


def _convert(key: str, raw: object):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _INT_KEYS:
            return int(text)
        if key == "rho_list":
            return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {text!r}: {exc}") from None
    return text  # out


def _validated(settings: dict[str, object]) -> RunConfig:
    for key in ("e_bar", "dt"):
        if not settings[key] > 0:
            raise ConfigError(key, f"must be positive, got {settings[key]}")
    if settings["paths"] < MIN_PATHS:
        raise ConfigError("paths", f"must be at least {MIN_PATHS}, got {settings['paths']}")
    if settings["seed"] < 0:
        raise ConfigError("seed", f"must be unsigned, got {settings['seed']}")
    if settings["t"] is not None and settings["t"] < 0:
        raise ConfigError("t", f"must be non-negative, got {settings['t']}")
    if not settings["rho_list"] or any(r <= 0 for r in settings["rho_list"]):
        raise ConfigError("rho_list", f"needs positive entries, got {settings['rho_list']}")

    try:
        params = ModelParams(
            alpha=settings["alpha"],
            rho=settings["rho"],
            sigma=settings["sigma"],
            mu=settings["mu"],
            horizon=settings["horizon"],
        )
        grid = GridSpec(nf=settings["nf"], nt=settings["nt"], theta=settings["theta"])
    except ParameterError as exc:
        raise ConfigError(exc.key, str(exc)) from exc

    return RunConfig(
        params=params,
        e_bar=settings["e_bar"],
        grid=grid,
        mc=McConfig(n_paths=settings["paths"], dt=settings["dt"], seed=settings["seed"]),
        f0=settings["f0"],
        probe_t=settings["t"],
        rho_list=tuple(settings["rho_list"]),
        output_path=settings["out"],
    )


def parse_config(file_text: str, flag_overrides: Iterable[tuple[str, object]] = ()) -> RunConfig:
    """Resolve defaults, then the config file, then flag overrides (later wins)."""
    settings = dict(_DEFAULTS)

    for lineno, line in enumerate(file_text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = _canonical(key)
        if key not in settings:
            raise ConfigError(key, "unknown key")
        settings[key] = _convert(key, value)

    for key, value in flag_overrides:
        key = _canonical(key)
        if key not in settings:
            raise ConfigError(key, "unknown key")
        settings[key] = _convert(key, value)

    return _validated(settings)
