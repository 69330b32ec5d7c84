"""Domain types: economic constants, band bounds, and solution coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, check_real


@dataclass(frozen=True)
class ModelParams:
    """Economic constants of the model; each range below is one `check_real` call.

    alpha    semi-elasticity of the rate to its expected change (years), > 0
    rho      mean-reversion speed of the fundamental (1/years), >= 0
    sigma    fundamental volatility (per sqrt(year)), > 0
    mu       must be 0; kept for perfbench's positional call until ROADMAP item 7
    horizon  time to the entry date T (years), > 0
    """

    alpha: float
    rho: float
    sigma: float
    mu: float = 0.0
    horizon: float = 3.0

    def __post_init__(self):
        check_real(self.alpha, "alpha", 0, open_lo=True)
        check_real(self.rho, "rho", 0)
        check_real(self.sigma, "sigma", 0, open_lo=True)
        check_real(self.horizon, "horizon", 0, open_lo=True)
        if self.mu != 0:  # nan included; the band is symmetric about central parity
            raise ParameterError(f"mu must be 0, got {self.mu}", "mu")
        if not 0 < self.sigma * self.sigma < math.inf:  # the models divide by sigma**2
            raise ParameterError(f"sigma*sigma over- or underflows at sigma={self.sigma}", "sigma")


@dataclass(frozen=True)
class Band:
    """Fundamental bounds [f_lo, f_hi] and exchange-rate bounds [e_lo, e_hi]."""

    f_lo: float
    f_hi: float
    e_lo: float
    e_hi: float

    def __post_init__(self):
        for key in ("f_lo", "f_hi", "e_lo", "e_hi"):
            check_real(getattr(self, key), key, -math.inf)
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

    def __post_init__(self):
        check_real(self.c2, "c2", -math.inf)


@dataclass(frozen=True)
class BmStationaryCoefficients:
    """Brownian-motion reference f + a*(e^{lf} - e^{-lf}); evaluated from lam and f_bar."""

    lam: float
    f_bar: float

    def __post_init__(self):
        check_real(self.lam, "lam", 0, open_lo=True)
        check_real(self.f_bar, "f_bar", 0, open_lo=True)
