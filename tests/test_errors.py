"""The error contract: every bad input ends in a typed error that names its key."""

import math

import numpy as np
import pytest

from targetzone import (
    Band,
    BmStationaryCoefficients,
    ConfigError,
    ConvergenceError,
    GridSpec,
    ModelParams,
    ParameterError,
    PathSpec,
    StationaryCoefficients,
    Surface,
    TargetZoneError,
    calibrate_bm,
    calibrate_symmetric,
    eval_stationary,
    eval_stationary_bm,
    eval_stationary_bm_slope,
    eval_stationary_curvature,
    eval_stationary_slope,
    feynman_kac_estimate,
    kummer_m,
    slice_at,
)
from targetzone.cli import main

REFERENCE = ModelParams(alpha=3.0, rho=1.0, sigma=0.1)
REFERENCE_COEFS = StationaryCoefficients(0.0093)
BM_REFERENCE_COEFS = calibrate_bm(3.0, 0.1, 0.01)[0]
HUGE_SIGMA = ModelParams(alpha=3.0, rho=1.0, sigma=1e62)
WIDE_BAND = Band(-0.1, 0.1, -0.01, 0.01)
FLAT_SURFACE = Surface(np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 3), np.zeros((3, 3)))


def test_config_error_is_parameter_error():
    assert ConfigError is ParameterError


def test_keyed_error_reads_key_colon_message():
    err = ParameterError("must be positive", "sigma")
    assert err.key == "sigma"
    assert str(err) == "sigma: must be positive"
    assert str(ParameterError("no key here")) == "no key here"


# Each of these once ended in ZeroDivisionError, OverflowError, an unkeyed
# error or a non-finite value.
@pytest.mark.parametrize(
    ("case", "error", "key"),
    [
        pytest.param(
            lambda: calibrate_bm(math.inf, 0.1, 0.01), ParameterError, "alpha", id="bm-alpha-inf"
        ),
        pytest.param(
            lambda: calibrate_bm(3.0, math.inf, 0.01), ParameterError, "sigma", id="bm-sigma-inf"
        ),
        pytest.param(
            lambda: calibrate_bm(3.0, 1e-170, 0.01), ParameterError, "sigma", id="bm-sigma-tiny"
        ),
        pytest.param(
            lambda: calibrate_symmetric(ModelParams(3.0, 1.0, 1e-70), 0.01),
            ParameterError,
            "sigma",
            id="ou-sigma-tiny",
        ),
        pytest.param(
            lambda: eval_stationary(REFERENCE, REFERENCE_COEFS, 10.0),
            ConvergenceError,
            None,
            id="eval-f-10",
        ),
        pytest.param(
            lambda: eval_stationary(REFERENCE, REFERENCE_COEFS, 1e103),
            ConvergenceError,
            None,
            id="eval-f-1e103",
        ),
        pytest.param(
            lambda: calibrate_bm(1e300, 1e10, 0.01), ParameterError, "alpha", id="bm-lambda-zero"
        ),
        pytest.param(
            lambda: eval_stationary(HUGE_SIGMA, REFERENCE_COEFS, 0.01),
            ParameterError,
            "sigma",
            id="eval-sigma-1e62",
        ),
        pytest.param(
            lambda: eval_stationary_slope(HUGE_SIGMA, REFERENCE_COEFS, 0.01),
            ParameterError,
            "sigma",
            id="slope-sigma-1e62",
        ),
        pytest.param(
            lambda: eval_stationary_curvature(HUGE_SIGMA, REFERENCE_COEFS, 0.01),
            ParameterError,
            "sigma",
            id="curvature-sigma-1e62",
        ),
        pytest.param(
            lambda: eval_stationary(
                ModelParams(3.0, 1e130, 0.1), StationaryCoefficients(1.0), 0.0
            ),
            ParameterError,
            "rho",
            id="eval-rho-1e130",
        ),
        pytest.param(
            lambda: eval_stationary(ModelParams(1e308, 1.0, 0.1), REFERENCE_COEFS, 0.05),
            ParameterError,
            "rho",
            id="eval-alpha-rho-overflow",
        ),
        pytest.param(lambda: slice_at(FLAT_SURFACE, 2.0), ParameterError, "t", id="slice-t"),
        # ModelParams' sign rules, which no other test reaches (CLI cases below too).
        pytest.param(
            lambda: ModelParams(3.0, 1.0, -0.1), ParameterError, "sigma", id="params-sigma-negative"
        ),
        pytest.param(
            lambda: ModelParams(3.0, -1.0, 0.1), ParameterError, "rho", id="params-rho-negative"
        ),
        pytest.param(
            lambda: ModelParams(3.0, 1.0, 0.1, horizon=0.0),
            ParameterError,
            "horizon",
            id="params-horizon-zero",
        ),
        pytest.param(
            lambda: Band(0.1, -0.1, -0.01, 0.01), ParameterError, "f_lo", id="band-f-reversed"
        ),
        pytest.param(
            lambda: Band(-0.1, 0.1, 0.01, -0.01), ParameterError, "e_lo", id="band-e-reversed"
        ),
        pytest.param(
            lambda: BmStationaryCoefficients(0.0, 1.0),
            ParameterError,
            "lam",
            id="bm-coefs-lam",
        ),
        pytest.param(
            lambda: eval_stationary_bm(BM_REFERENCE_COEFS, 100.0), ParameterError, "f", id="bm-f"
        ),
        pytest.param(
            lambda: eval_stationary_bm_slope(BM_REFERENCE_COEFS, -100.0),
            ParameterError,
            "f",
            id="bm-slope-f",
        ),
        pytest.param(
            lambda: PathSpec(0.0, 0.001, 0, 1), ParameterError, "n_steps", id="path-n-steps"
        ),
        pytest.param(
            lambda: PathSpec(0.0, 0.001, 10**8 + 1, 1),
            ParameterError,
            "n_steps",
            id="path-n-steps-huge",
        ),
        # A float count used to end in an untyped TypeError, and a float seed
        # was truncated: seed 1.5 returned the seed-1 estimate.
        pytest.param(lambda: GridSpec(41.0, 30), ParameterError, "nf", id="grid-nf-float"),
        pytest.param(lambda: GridSpec(41, 30.0), ParameterError, "nt", id="grid-nt-float"),
        pytest.param(
            lambda: PathSpec(0.0, 0.001, 10.5, 1), ParameterError, "n_steps", id="path-n-steps-float"
        ),
        pytest.param(
            lambda: PathSpec(0.0, 0.001, 10, 1.5), ParameterError, "seed", id="path-seed-float"
        ),
        pytest.param(
            lambda: feynman_kac_estimate(REFERENCE, WIDE_BAND, 0.0, 1.0, 1000.0, 1e-3, 1),
            ParameterError,
            "paths",
            id="mc-paths-float",
        ),
        pytest.param(
            lambda: feynman_kac_estimate(REFERENCE, WIDE_BAND, 0.0, 1.0, 1000, 1e-3, 1.5),
            ParameterError,
            "seed",
            id="mc-seed-float",
        ),
        pytest.param(
            lambda: feynman_kac_estimate(REFERENCE, WIDE_BAND, 0.0, 1e300, 1000, 1e-3, 1),
            ParameterError,
            "dt",
            id="mc-steps-huge",
        ),
        pytest.param(lambda: kummer_m(1.0, -2.0, 0.5), ParameterError, "b", id="kummer-pole"),
        pytest.param(["calibrate", "--sigma", "1e-170"], None, "sigma", id="cli-sigma-1e-170"),
        pytest.param(["calibrate", "--sigma", "1e62"], None, "sigma", id="cli-sigma-1e62"),
        pytest.param(
            ["calibrate", "--rho", "0", "--alpha", "1e-200", "--sigma", "1e-100"],
            None,
            "alpha",
            id="cli-bm-lambda-inf",
        ),
        pytest.param(["calibrate", "--sigma", "1e-70"], None, "sigma", id="cli-sigma-1e-70"),
        pytest.param(["calibrate", "--sigma", "-0.1"], None, "sigma", id="cli-sigma-negative"),
        pytest.param(["calibrate", "--rho", "-1"], None, "rho", id="cli-rho-negative"),
        pytest.param(["calibrate", "--horizon", "0"], None, "horizon", id="cli-horizon-zero"),
        pytest.param(["solve", "--rho", "0", "--sigma", "1e-170"], None, "sigma", id="cli-bm"),
        pytest.param(
            ["calibrate", "--alpha", "1e-200", "--rho", "1e-200"], None, "rho", id="cli-rho-tiny"
        ),
        pytest.param(
            ["figure", "--which", "4", "--rho-list", "1e-320"], None, "rho", id="cli-rho-list"
        ),
        pytest.param(["simulate", "--f0", "1"], None, "f0", id="cli-f0-outside"),
        # t/dt overflowed round(), or its step count overflowed np.arange.
        pytest.param(["simulate", "--dt", "1e-320"], None, "dt", id="cli-dt-tiny"),
        pytest.param(["simulate", "--t", "1e300"], None, "dt", id="cli-t-huge"),
    ],
)
def test_bad_input_raises_a_typed_error(tmp_path, capsys, case, error, key):
    if callable(case):
        with pytest.raises(error) as excinfo:
            case()
        assert isinstance(excinfo.value, TargetZoneError)
        assert getattr(excinfo.value, "key", None) == key
    else:
        assert main([*case, "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert "Traceback" not in err


# Both were once refused because e^(lambda*f_bar) overflows; the evaluators
# no longer form it, so the root is returned.
@pytest.mark.parametrize(
    ("e_bar", "f_bar_line"),
    [
        pytest.param("1e300", "  f_bar = 1e+300", id="cli-bm-cosh"),
        pytest.param("86.82", "  f_bar = 86.9424744871", id="cli-bm-exp"),
    ],
)
def test_bm_band_edge_beyond_exp_overflow_calibrates(capsys, e_bar, f_bar_line):
    assert main(["calibrate", "--rho", "0", "--e-bar", e_bar]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f_bar_line in lines
    assert "  residual_value = 0" in lines
    assert "  residual_slope = 0" in lines
