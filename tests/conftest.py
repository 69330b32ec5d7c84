import numpy as np
import pytest

from targetzone import GridSpec, ModelParams, calibrate_symmetric, solve_nonstationary


@pytest.fixture(scope="session")
def base_params():
    # Parameter set of the numerical experiment: +/-1% zone, 3-year horizon.
    return ModelParams(alpha=3.0, rho=1.0, sigma=0.1, horizon=3.0)


@pytest.fixture(scope="session")
def calibrated(base_params):
    return calibrate_symmetric(base_params, 0.01)


@pytest.fixture(scope="session")
def default_surface(base_params, calibrated):
    _, band = calibrated
    return solve_nonstationary(base_params, band, GridSpec(nf=401, nt=3000, theta=0.5))


@pytest.fixture(scope="session")
def band_grid(calibrated):
    _, band = calibrated
    return np.linspace(band.f_lo, band.f_hi, 401)
