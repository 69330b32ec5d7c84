"""Domain types: economic constants, band bounds, and solution coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class ModelParams:
    """Economic constants of the model.

    alpha    semi-elasticity of the rate to its expected change (years), > 0
    rho      mean-reversion speed of the fundamental (1/years), >= 0
    sigma    fundamental volatility (per sqrt(year)), > 0
    mu       long-run level of the fundamental
    horizon  time to the entry date T (years), > 0
    """

    alpha: float
    rho: float
    sigma: float
    mu: float = 0.0
    horizon: float = 3.0

    def __post_init__(self):
        for key in ("alpha", "rho", "sigma", "mu", "horizon"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ParameterError(f"{key} must be finite, got {value}", key)
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}", "alpha")
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}", "sigma")
        if not 0 < self.sigma * self.sigma < math.inf:  # the models divide by sigma**2
            raise ParameterError(f"sigma*sigma over- or underflows at sigma={self.sigma}", "sigma")
        if self.rho < 0:
            raise ParameterError(f"rho must be non-negative, got {self.rho}", "rho")
        if not self.horizon > 0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}", "horizon")


@dataclass(frozen=True)
class Band:
    """Fundamental bounds [f_lo, f_hi] and exchange-rate bounds [e_lo, e_hi]."""

    f_lo: float
    f_hi: float
    e_lo: float
    e_hi: float

    def __post_init__(self):
        if not self.f_lo < self.f_hi:
            raise ParameterError(
                f"band requires f_lo < f_hi, got [{self.f_lo}, {self.f_hi}]", "f_lo"
            )
        if not self.e_lo < self.e_hi:
            raise ParameterError(
                f"band requires e_lo < e_hi, got [{self.e_lo}, {self.e_hi}]", "e_lo"
            )


@dataclass(frozen=True)
class StationaryCoefficients:
    """Constant c2 of the odd stationary solution; the symmetric band forces c1 = 0."""

    c2: float


@dataclass(frozen=True)
class BmStationaryCoefficients:
    """Brownian-motion reference f + a*(e^{lf} - e^{-lf}); evaluated from lam and f_bar."""

    lam: float
    f_bar: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ParameterError(f"lambda must be positive, got {self.lam}", "lam")
