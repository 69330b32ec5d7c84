"""Target-zone exchange-rate model with a terminal entry date.

A mean-reverting fundamental is kept inside a band by marginal interventions
(regulation) and pulls toward central parity in between (intramarginal
interventions). The package provides the closed-form stationary solution and
its band calibration, a finite-difference solver for the time-dependent
problem up to the entry date, a regulated-process Monte-Carlo cross-check,
and a CLI that exports figure-ready CSV data.
"""

from .errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    InstabilityError,
    ParameterError,
    SingularSystemError,
    TargetZoneError,
)
from .kummer import kummer_m, kummer_m_dz
from .model import Band, BmStationaryCoefficients, ModelParams, StationaryCoefficients
from .pde import (
    BoundaryPaths,
    GridSpec,
    Slice,
    Surface,
    boundary_paths,
    convergence_order,
    edge_slopes,
    slice_at,
    solve_nonstationary,
)
from .stationary import (
    calibrate_bm,
    calibrate_symmetric,
    eval_stationary,
    eval_stationary_bm,
    eval_stationary_bm_slope,
    eval_stationary_curvature,
    eval_stationary_slope,
    stationary_ode_residual,
)
from .stochastic import (
    McEstimate,
    PathSpec,
    RegulatedPath,
    feynman_kac_estimate,
    simulate_regulated_ou,
)
from .config import RunConfig, parse_config

__all__ = [
    "Band",
    "BmStationaryCoefficients",
    "BoundaryPaths",
    "CalibrationError",
    "ConfigError",
    "ConvergenceError",
    "GridSpec",
    "InstabilityError",
    "McEstimate",
    "ModelParams",
    "ParameterError",
    "PathSpec",
    "RegulatedPath",
    "RunConfig",
    "SingularSystemError",
    "Slice",
    "StationaryCoefficients",
    "Surface",
    "TargetZoneError",
    "boundary_paths",
    "calibrate_bm",
    "calibrate_symmetric",
    "convergence_order",
    "edge_slopes",
    "eval_stationary",
    "eval_stationary_bm",
    "eval_stationary_bm_slope",
    "eval_stationary_curvature",
    "eval_stationary_slope",
    "feynman_kac_estimate",
    "kummer_m",
    "kummer_m_dz",
    "parse_config",
    "simulate_regulated_ou",
    "slice_at",
    "solve_nonstationary",
    "stationary_ode_residual",
]

__version__ = "0.1.0"
