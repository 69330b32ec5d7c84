import hashlib
import math

import numpy as np
import pytest

from targetzone import (
    CalibrationError,
    ModelParams,
    ParameterError,
    StationaryCoefficients,
    TargetZoneError,
    calibrate_bm,
    calibrate_symmetric,
    eval_stationary,
    eval_stationary_bm,
    eval_stationary_bm_slope,
    eval_stationary_curvature,
    eval_stationary_slope,
    kummer_m,
    stationary_ode_residual,
)

from reference_values import BM_A_COEF, BM_F_BAR, BM_LAMBDA, OU_C2, OU_F_BAR

ZERO = StationaryCoefficients(0.0)


# ---------------------------------------------------------------------------
# closed-form evaluation
# ---------------------------------------------------------------------------

def test_free_float_line(base_params):
    # With both homogeneous terms switched off only the line f/(1+alpha*rho)
    # remains: 0.02/4 = 0.005.
    assert eval_stationary(base_params, ZERO, 0.02) == pytest.approx(0.005, abs=1e-16)


def test_zero_at_long_run_level_when_c1_zero(base_params):
    for c2 in (0.0, 0.3, -1.7):
        coefs = StationaryCoefficients(c2)
        assert eval_stationary(base_params, coefs, 0.0) == 0.0


def test_slope_of_free_float_line(base_params):
    for f in (-0.05, 0.0, 0.013):
        slope = eval_stationary_slope(base_params, ZERO, f)
        assert slope == pytest.approx(0.25, abs=1e-15)


def test_slope_matches_central_difference(base_params):
    rng = np.random.default_rng(7)
    for _ in range(25):
        coefs = StationaryCoefficients(rng.uniform(-1, 1))
        f = rng.uniform(-0.09, 0.09)
        h = 1e-6
        fd = (eval_stationary(base_params, coefs, f + h) -
              eval_stationary(base_params, coefs, f - h)) / (2.0 * h)
        assert abs(eval_stationary_slope(base_params, coefs, f) - fd) < 1e-8


def test_curvature_matches_central_difference(base_params):
    # 1e-5 central difference is the stated fallback cross-check for e''.
    # The second difference amplifies roundoff by eps/h^2 ~ 1e-6 per unit of
    # function value, so the bound scales with the value size.
    rng = np.random.default_rng(11)
    for _ in range(25):
        coefs = StationaryCoefficients(rng.uniform(-1, 1))
        f = rng.uniform(-0.09, 0.09)
        h = 1e-5
        fd = (eval_stationary(base_params, coefs, f + h)
              - 2.0 * eval_stationary(base_params, coefs, f)
              + eval_stationary(base_params, coefs, f - h)) / h**2
        assert abs(eval_stationary_curvature(base_params, coefs, f) - fd) < 1e-4


def test_curvature_of_calibrated_solution_matches_central_difference(base_params, calibrated):
    coefs, band = calibrated
    h = 1e-5
    for f in np.linspace(band.f_lo, band.f_hi, 9):
        fd = (eval_stationary(base_params, coefs, f + h)
              - 2.0 * eval_stationary(base_params, coefs, f)
              + eval_stationary(base_params, coefs, f - h)) / h**2
        assert abs(eval_stationary_curvature(base_params, coefs, f) - fd) < 1e-5


def test_rho_zero_directs_to_bm(base_params):
    params = ModelParams(alpha=3.0, rho=0.0, sigma=0.1)
    with pytest.raises(ParameterError, match="Brownian"):
        eval_stationary(params, ZERO, 0.01)


# (value, slope, curvature) as float.hex at f, recorded before the jet
# skipped the even family for c1 = 0 and moved to Python floats, and kept
# since the even family was deleted.
PINNED_JETS = {
    "c1 = 0": (
        ModelParams(alpha=3.0, rho=1.0, sigma=0.1),
        StationaryCoefficients(0.009381598529684147),
        {
            -0.07: ("-0x1.2eac96e8799bdp-7", "0x1.32b9c418ec9f6p-4", "0x1.8051c83de379bp+1"),
            0.0: ("0x0.0p+0", "0x1.3fdd679a76e26p-3", "0x0.0p+0"),
            0.02: ("0x1.94fef9297c67dp-9", "0x1.3562fc8e6b20fp-3", "-0x1.0bcff28ec7240p-1"),
            0.05: ("0x1.da96f29d44de7p-8", "0x1.ec28a94b0f776p-4", "-0x1.a6249c5821bb8p+0"),
        },
    ),
}


@pytest.mark.parametrize("scalar", [float, np.float64])
@pytest.mark.parametrize("case", sorted(PINNED_JETS))
def test_evaluator_bits_are_pinned(case, scalar):
    params, coefs, expected = PINNED_JETS[case]
    evaluators = (eval_stationary, eval_stationary_slope, eval_stationary_curvature)
    for f, hexes in expected.items():
        got = tuple(float(ev(params, coefs, scalar(f))).hex() for ev in evaluators)
        assert got == hexes, f"f = {f}"


@pytest.mark.parametrize(("c2", "calls"), [(0.0, 3), (-0.0, 3)])
def test_jet_evaluates_only_the_kummer_family_in_use(monkeypatch, c2, calls):
    # Only the odd family M(a2 + k, 3/2 + k, .) is evaluated, and all of it
    # even at c2 = 0, where Newton starts and still needs h2 and h2'.
    import targetzone.stationary as stationary_mod

    seen = []

    def counting_kummer_m(*args, **kwargs):
        seen.append(args)
        return kummer_m(*args, **kwargs)

    monkeypatch.setattr(stationary_mod, "kummer_m", counting_kummer_m)
    params = ModelParams(alpha=2.0, rho=0.8, sigma=0.12)
    eval_stationary_curvature(params, StationaryCoefficients(c2), 0.05)
    assert len(seen) == calls


# ---------------------------------------------------------------------------
# ODE residual
# ---------------------------------------------------------------------------

def test_residual_of_free_float_line_is_exactly_zero(base_params):
    grid = np.linspace(-0.08, 0.08, 17)
    res = stationary_ode_residual(base_params, ZERO, grid)
    assert np.all(res == 0.0)


def test_residual_of_calibrated_solution(base_params, calibrated, band_grid):
    coefs, _ = calibrated
    res = stationary_ode_residual(base_params, coefs, band_grid)
    assert np.max(np.abs(res)) < 1e-8


def test_residual_invariant_under_coefficient_shift(base_params, calibrated, band_grid):
    # Any homogeneous-solution shift still satisfies the stationary equation.
    coefs, _ = calibrated
    shifted = StationaryCoefficients(coefs.c2 + 0.1)
    res = stationary_ode_residual(base_params, shifted, band_grid)
    assert np.max(np.abs(res)) < 1e-12


# ---------------------------------------------------------------------------
# symmetric calibration
# ---------------------------------------------------------------------------

# (alpha, rho, sigma, e_bar) -> c2 and f_bar as float.hex, recorded before the
# jet skipped the even family and moved to Python floats. z at the root runs
# from 2e-5 to 246.
PINNED_CALIBRATIONS = [
    ((0.5, 0.0001, 0.3, 0.03), "0x1.4775dae951054p+4", "0x1.1e09cdef4c2e2p-3"),  # z = 2.17e-05
    ((0.5, 0.05, 0.03, 0.001), "0x1.bf15243820756p-4", "0x1.2d51c2fd8198dp-7"),  # z = 0.0047
    ((20.0, 1.0, 0.3, 0.001), "0x1.6ff7f3a0635a3p-7", "0x1.26b4c16878004p-3"),  # z = 0.23
    ((0.5, 5.0, 0.01, 0.001), "0x1.add7e82df1932p-13", "0x1.645a34ab59be6p-8"),  # z = 1.48
    ((20.0, 1.0, 0.1, 0.03), "0x1.4b58b96eb5711p-67", "0x1.469f1fd95cb00p-1"),  # z = 40.7
    ((0.5, 5.0, 0.1, 0.2), "0x1.b43999bf45318p-364", "0x1.67217e5b2df7fp-1"),  # z = 246
]


@pytest.mark.parametrize(("point", "c2_hex", "f_bar_hex"), PINNED_CALIBRATIONS)
def test_calibration_bits_are_pinned_across_the_cube(point, c2_hex, f_bar_hex):
    alpha, rho, sigma, e_bar = point
    coefs, band = calibrate_symmetric(ModelParams(alpha, rho, sigma), e_bar)
    assert (float(coefs.c2).hex(), float(band.f_hi).hex()) == (c2_hex, f_bar_hex)


# SHA-256 of the calibration records of 64 OU points drawn log-uniformly over
# the benchmark cube (alpha, rho, sigma, e_bar), recorded before the jet lost
# its even Kummer family. A point's record is its error class name, or the
# float.hex of c2, f_bar, the value and slope at f_bar, and the ODE residual
# on 41 nodes across the band.
DESIGN_CUBE_LO = (0.5, 1e-4, 0.01, 0.001)
DESIGN_CUBE_HI = (50.0, 20.0, 0.3, 0.2)
PINNED_DESIGN_SHA256 = "718ef78d7fd02d1ca799c1be0ff24f89e4fc76bb6852ca87e80f788756a4694c"


def _design_records():
    # math.exp on Python floats: numpy's SIMD exp may round differently by CPU.
    logs = [(math.log(lo), math.log(hi)) for lo, hi in zip(DESIGN_CUBE_LO, DESIGN_CUBE_HI)]
    for u in np.random.default_rng(20_261).random((64, 4)).tolist():
        alpha, rho, sigma, e_bar = (math.exp(lo + x * (hi - lo)) for x, (lo, hi) in zip(u, logs))
        params = ModelParams(alpha, rho, sigma)
        try:
            coefs, band = calibrate_symmetric(params, e_bar)
        except TargetZoneError as exc:
            yield type(exc).__name__
            continue
        nodes = np.linspace(band.f_lo, band.f_hi, 41)
        floats = [
            coefs.c2,
            band.f_hi,
            eval_stationary(params, coefs, band.f_hi),
            eval_stationary_slope(params, coefs, band.f_hi),
            *stationary_ode_residual(params, coefs, nodes).tolist(),
        ]
        yield " ".join(float(x).hex() for x in floats)


def test_calibration_bits_are_pinned_over_a_design():
    records = list(_design_records())
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == PINNED_DESIGN_SHA256


def test_calibration_matches_bisection_oracle(calibrated):
    # Frozen oracle: eliminate c2 from the slope equation, bisect the value
    # equation (scripts/gen_reference_values.py).
    coefs, band = calibrated
    assert coefs.c2 == pytest.approx(OU_C2, rel=1e-12)
    assert band.f_hi == pytest.approx(OU_F_BAR, rel=1e-12)
    assert band.f_lo == -band.f_hi
    assert band.e_hi == 0.01 and band.e_lo == -0.01


def test_reference_calibration_is_bit_exact():
    # The benchmark's surface_export check hashes the CSV solved on this band
    # (SHA-256), so these floats must stay the same to the last bit.
    coefs, band = calibrate_symmetric(ModelParams(3.0, 1.0, 0.1), 0.01)
    assert band.f_hi == 0.08865664747468259
    assert coefs.c2 == 0.009381598529684147


def test_calibration_residuals(base_params, calibrated):
    coefs, band = calibrated
    assert abs(eval_stationary(base_params, coefs, band.f_hi) - 0.01) < 1e-10
    assert abs(eval_stationary_slope(base_params, coefs, band.f_hi)) < 1e-10
    assert abs(eval_stationary_slope(base_params, coefs, band.f_lo)) < 1e-10


def test_calibrated_solution_is_odd(base_params, calibrated, band_grid):
    coefs, band = calibrated
    values = np.array([eval_stationary(base_params, coefs, f) for f in band_grid])
    mirrored = np.array([eval_stationary(base_params, coefs, -f) for f in band_grid])
    assert np.max(np.abs(values + mirrored)) < 1e-12
    assert eval_stationary(base_params, coefs, band.f_lo) == pytest.approx(-0.01, abs=1e-10)


def test_honeymoon_slope_below_free_float(base_params, calibrated, band_grid):
    coefs, _ = calibrated
    free_float = 1.0 / (1.0 + base_params.alpha * base_params.rho)
    for f in band_grid[1:-1]:
        assert eval_stationary_slope(base_params, coefs, f) < free_float


def _bisection_calibration(params, e_bar):
    """Independent route: eliminate c2 from the slope condition, bisect in f_bar."""
    a, r, s = params.alpha, params.rho, params.sigma
    a2 = (1 + a * r) / (2 * a * r)
    a3 = (1 + 3 * a * r) / (2 * a * r)

    def c2_of(f_bar):
        z = r * f_bar**2 / s**2
        denom = (math.sqrt(r) / s) * kummer_m(a2, 1.5, z) + (
            2 * math.sqrt(r) * (1 + a * r) * f_bar**2 / (3 * a * s**3)
        ) * kummer_m(a3, 2.5, z)
        return (1 / (1 + a * r)) / denom

    def value_gap(f_bar):
        z = r * f_bar**2 / s**2
        edge = f_bar / (1 + a * r) - c2_of(f_bar) * (math.sqrt(r) * f_bar / s) * kummer_m(
            a2, 1.5, z
        )
        return edge - e_bar

    lo, hi = 1e-8, 1.0
    assert value_gap(lo) < 0 < value_gap(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if value_gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    f_bar = 0.5 * (lo + hi)
    return c2_of(f_bar), f_bar


def test_calibration_matches_bisection_on_second_parameter_set():
    params = ModelParams(alpha=2.0, rho=0.7, sigma=0.15)
    coefs, band = calibrate_symmetric(params, 0.02)
    c2_ref, f_bar_ref = _bisection_calibration(params, 0.02)
    assert coefs.c2 == pytest.approx(c2_ref, rel=1e-9)
    assert band.f_hi == pytest.approx(f_bar_ref, rel=1e-9)


def test_model_params_pin_mu_to_zero():
    with pytest.raises(ParameterError) as excinfo:
        ModelParams(alpha=3.0, rho=1.0, sigma=0.1, mu=0.02)
    assert excinfo.value.key == "mu"
    # perfbench passes mu by position, as 0.0 before the horizon.
    assert ModelParams(3.0, 1.0, 0.1, 0.0, 3.0) == ModelParams(alpha=3.0, rho=1.0, sigma=0.1)


def test_calibration_requires_positive_e_bar(base_params):
    with pytest.raises(ParameterError, match="e_bar"):
        calibrate_symmetric(base_params, -0.01)


def test_calibration_rejects_rho_zero():
    params = ModelParams(alpha=3.0, rho=0.0, sigma=0.1)
    with pytest.raises(ParameterError, match="Brownian"):
        calibrate_symmetric(params, 0.01)


# ---------------------------------------------------------------------------
# Brownian-motion reference
# ---------------------------------------------------------------------------

def test_bm_matches_frozen_oracle():
    coefs, band = calibrate_bm(3.0, 0.1, 0.01)
    assert coefs.lam == pytest.approx(BM_LAMBDA, rel=1e-14)
    assert band.f_hi == pytest.approx(BM_F_BAR, rel=1e-12)
    # e(f) = f + a*(e^{lf} - e^{-lf}) has slope 1 + 2*a*l at 0.
    slope0 = eval_stationary_bm_slope(coefs, 0.0)
    assert slope0 == pytest.approx(1.0 + 2.0 * BM_A_COEF * BM_LAMBDA, rel=1e-12)
    assert abs(band.f_hi - 0.0805) < 1e-3   # rough location of the root


def test_bm_residuals_and_shape():
    coefs, band = calibrate_bm(3.0, 0.1, 0.01)
    assert abs(eval_stationary_bm(coefs, band.f_hi) - 0.01) < 1e-10
    assert abs(eval_stationary_bm_slope(coefs, band.f_hi)) < 1e-10
    assert eval_stationary_bm(coefs, 0.0) == 0.0
    # Smooth pasting forces a < 0 and an interior slope below the free float.
    assert BM_A_COEF < 0.0
    for f in np.linspace(-band.f_hi, band.f_hi, 9).tolist():
        value = f + 2.0 * BM_A_COEF * math.sinh(BM_LAMBDA * f)
        assert eval_stationary_bm(coefs, f) == pytest.approx(value, rel=1e-11, abs=1e-17)
    assert eval_stationary_bm_slope(coefs, 0.0) < 1.0


def test_bm_matches_the_hyperbolic_closed_form():
    # f + a*(e^{lf} - e^{-lf}) = f - sinh(lf)/(l*cosh(l*f_bar)), evaluated as
    # e^{l(|f| - f_bar)} ratios, inside the band and out of it.
    coefs, band = calibrate_bm(3.0, 0.1, 0.01)
    lam, f_bar = coefs.lam, band.f_hi
    assert coefs.f_bar == f_bar
    for f in [*np.linspace(-f_bar, f_bar, 21).tolist(), 0.5, -1.0]:
        value = f - math.sinh(lam * f) / (lam * math.cosh(lam * f_bar))
        slope = 1.0 - math.cosh(lam * f) / math.cosh(lam * f_bar)
        assert eval_stationary_bm(coefs, f) == pytest.approx(value, rel=1e-14, abs=1e-17)
        assert eval_stationary_bm_slope(coefs, f) == pytest.approx(slope, rel=1e-13, abs=1e-15)
        assert eval_stationary_bm(coefs, -f) == -eval_stationary_bm(coefs, f)


def test_bm_requires_positive_arguments():
    with pytest.raises(ParameterError):
        calibrate_bm(-3.0, 0.1, 0.01)
    with pytest.raises(ParameterError):
        calibrate_bm(3.0, 0.1, 0.0)


# ---------------------------------------------------------------------------
# relation between the two specifications
# ---------------------------------------------------------------------------

def test_mean_reverting_band_is_wider(calibrated):
    _, band = calibrated
    assert band.f_hi > BM_F_BAR


def test_small_rho_band_approaches_bm():
    params = ModelParams(alpha=3.0, rho=1e-3, sigma=0.1)
    _, band = calibrate_symmetric(params, 0.01)
    assert abs(band.f_hi - BM_F_BAR) < 1e-3


def _sup_distance_to_bm(rho):
    params = ModelParams(alpha=3.0, rho=rho, sigma=0.1)
    coefs, band = calibrate_symmetric(params, 0.01)
    bm_coefs, bm_band = calibrate_bm(3.0, 0.1, 0.01)
    f_max = min(band.f_hi, bm_band.f_hi)
    grid = np.linspace(-f_max, f_max, 201)
    gaps = [
        abs(eval_stationary(params, coefs, f) - eval_stationary_bm(bm_coefs, f)) for f in grid
    ]
    return max(gaps)


def test_convergence_to_bm_is_monotone_in_rho():
    distances = [_sup_distance_to_bm(rho) for rho in (0.5, 0.1, 0.01, 0.001)]
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 1e-3


# ---------------------------------------------------------------------------
# failure reporting
# ---------------------------------------------------------------------------

def test_calibration_error_carries_residuals(monkeypatch):
    import targetzone.stationary as stationary_mod

    monkeypatch.setattr(stationary_mod, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(CalibrationError) as excinfo:
        calibrate_symmetric(ModelParams(alpha=3.0, rho=1.0, sigma=0.1), 0.01)
    assert excinfo.value.residuals is not None


def test_overflowing_trial_point_is_a_rejected_step(monkeypatch):
    # A float power raises OverflowError where a numpy scalar gave inf. Newton
    # must reject such a trial point, as it rejects a NaN residual, and go on.
    import targetzone.stationary as stationary_mod

    real_jet = stationary_mod._jet
    overflowed = []

    def jet(params, coefs, f):
        if f > 0.09:  # the reference run's second Newton step lands at 0.0915
            overflowed.append(f)
            raise OverflowError("simulated")
        return real_jet(params, coefs, f)

    monkeypatch.setattr(stationary_mod, "_jet", jet)
    coefs, band = calibrate_symmetric(ModelParams(alpha=3.0, rho=1.0, sigma=0.1), 0.01)
    assert overflowed
    assert band.f_hi == pytest.approx(OU_F_BAR, rel=1e-12)
    assert coefs.c2 == pytest.approx(OU_C2, rel=1e-10)


def test_overflow_at_the_initial_guess_is_a_calibration_error():
    # f_bar = 4e110 at the initial guess: f**3 overflows a float.
    with pytest.raises(CalibrationError, match="overflows"):
        calibrate_symmetric(ModelParams(alpha=3.0, rho=1.0, sigma=0.1), 1e110)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["alpha", "rho", "sigma", "mu", "horizon"])
def test_non_finite_model_params_name_the_key(key, value):
    settings = {"alpha": 3.0, "rho": 1.0, "sigma": 0.1, "mu": 0.0, "horizon": 3.0, key: value}
    with pytest.raises(ParameterError) as excinfo:
        ModelParams(**settings)
    assert excinfo.value.key == key


def test_kummer_failure_at_a_trial_point_is_a_rejected_step():
    # Sweep point 7 of the benchmark design: the Kummer series at a Newton
    # trial point needs more than 500 terms; its ConvergenceError used to escape.
    params = ModelParams(44.520313677514466, 0.004508939050233481, 0.22659397028015218)
    e_bar = 0.004867791702035497
    coefs, band = calibrate_symmetric(params, e_bar)
    assert abs(eval_stationary(params, coefs, band.f_hi) - e_bar) < 1e-10
    assert abs(eval_stationary_slope(params, coefs, band.f_hi)) < 1e-10
