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
from targetzone.errors import check_count, check_real

REFERENCE = ModelParams(alpha=3.0, rho=1.0, sigma=0.1)
REFERENCE_COEFS = StationaryCoefficients(0.0093)
BM_REFERENCE_COEFS = calibrate_bm(3.0, 0.1, 0.01)[0]
HUGE_SIGMA = ModelParams(alpha=3.0, rho=1.0, sigma=1e62)
WIDE_BAND = Band(-0.1, 0.1, -0.01, 0.01)
FLAT_SURFACE = Surface(np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 3), np.zeros((3, 3)))


def test_config_error_is_parameter_error():
    assert ConfigError is ParameterError


@pytest.mark.parametrize(
    ("check", "value", "bounds", "message"),
    [
        (check_count, 3, {"lo": 3}, None),
        (check_count, 2, {"lo": 3}, "must be an integer >= 3, got 2"),
        (check_count, 9, {"lo": 0, "hi": 9}, None),
        (check_count, 10, {"lo": 0, "hi": 9}, "must be an integer in [0, 9], got 10"),
        (check_count, 1000.0, {"lo": 100}, "must be an integer >= 100, got 1000.0"),
        (check_count, "5", {"lo": 0}, "must be an integer >= 0, got '5'"),
        (check_count, np.int64(9), {"lo": 0, "hi": 9}, None),
        (check_count, np.uint64(2**64 - 1), {"lo": 0, "hi": 2**64 - 1}, None),
        (check_count, np.float64(5.0), {"lo": 0, "hi": 9}, "must be an integer in [0, 9], got "),
        (check_count, 2**64, {"lo": 0, "hi": 2**64 - 1}, "must be an integer in [0, 1844"),
        (check_real, 0.0, {"lo": 0}, None),
        (check_real, -0.0, {"lo": 0}, None),
        (check_real, 0.0, {"lo": 0, "open_lo": True}, "must be finite and > 0, got 0.0"),
        (check_real, -0.0, {"lo": 0, "open_lo": True}, "must be finite and > 0, got -0.0"),
        (check_real, 5e-324, {"lo": 0, "open_lo": True}, None),
        (check_real, 1.0, {"lo": 0, "hi": 1}, None),
        (check_real, 1.0000000000000002, {"lo": 0, "hi": 1}, "must be finite and in [0, 1], got "),
        (check_real, 1.0, {"lo": 1, "hi": 2, "open_lo": True}, "must be finite and in (1, 2]"),
        (check_real, math.nan, {"lo": 0}, "must be finite and >= 0, got nan"),
        (check_real, math.inf, {"lo": 0}, "must be finite and >= 0, got inf"),
        (check_real, -math.inf, {"lo": -math.inf}, "must be finite, got -inf"),
        (check_real, math.inf, {"lo": -math.inf}, "must be finite, got inf"),
        (check_real, np.float64(0.5), {"lo": 0, "hi": 1}, None),
        (check_real, np.float64(math.nan), {"lo": 0, "hi": 1}, "must be finite and in [0, 1]"),
        (check_real, np.int64(3), {"lo": 0, "open_lo": True}, None),
        (check_real, None, {"lo": 0, "open_lo": True}, "must be finite and > 0, got None"),
    ],
)
def test_numeric_checks_at_their_edges(check, value, bounds, message):
    if message is None:
        check(value, "k", **bounds)
        return
    with pytest.raises(ParameterError) as excinfo:
        check(value, "k", **bounds)
    assert excinfo.value.key == "k"
    assert str(excinfo.value).startswith(f"k: {message}")


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
        # Each of these five once built a value that evaluated to nan, to a wrong
        # slope or to f itself, or (the band) reached a singular PDE solve.
        pytest.param(
            lambda: StationaryCoefficients(math.nan), ParameterError, "c2", id="coefs-c2-nan"
        ),
        pytest.param(
            lambda: BmStationaryCoefficients(8.16, math.nan),
            ParameterError,
            "f_bar",
            id="bm-coefs-f-bar-nan",
        ),
        pytest.param(
            lambda: BmStationaryCoefficients(8.16, -1.0),
            ParameterError,
            "f_bar",
            id="bm-coefs-f-bar-negative",
        ),
        pytest.param(
            lambda: BmStationaryCoefficients(math.inf, 0.08),
            ParameterError,
            "lam",
            id="bm-coefs-lam-inf",
        ),
        pytest.param(
            lambda: Band(-math.inf, math.inf, -0.01, 0.01),
            ParameterError,
            "f_lo",
            id="band-f-lo-inf",
        ),
        pytest.param(
            lambda: Band(-0.1, math.nan, -0.01, 0.01), ParameterError, "f_hi", id="band-f-hi-nan"
        ),
        pytest.param(
            lambda: Band(-0.1, 0.1, -math.inf, 0.01), ParameterError, "e_lo", id="band-e-lo-inf"
        ),
        pytest.param(
            lambda: Band(-0.1, 0.1, -0.01, math.inf), ParameterError, "e_hi", id="band-e-hi-inf"
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
