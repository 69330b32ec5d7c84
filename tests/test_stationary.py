import hashlib
import math

import numpy as np
import pytest

from targetzone import (
    CalibrationError,
    ConvergenceError,
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


@pytest.mark.parametrize("case", sorted(PINNED_JETS))
def test_evaluators_on_an_array_give_the_float_bits(case):
    params, coefs, expected = PINNED_JETS[case]
    for c in (coefs, StationaryCoefficients(-coefs.c2)):
        f = np.array([*expected, 0.0, -0.0])
        for ev in (eval_stationary, eval_stationary_slope, eval_stationary_curvature):
            lanes = ev(params, c, f)
            assert isinstance(lanes, np.ndarray) and lanes.shape == f.shape
            floats = [ev(params, c, x) for x in f.tolist()]
            assert [x.hex() for x in lanes.tolist()] == [x.hex() for x in floats]


def _count_kummer_calls(monkeypatch):
    """Count the calls the stationary layer makes to kummer_m, through its module-level name."""
    import targetzone.stationary as stationary_mod

    calls = [0]

    def counting_kummer_m(*args):
        calls[0] += 1
        return kummer_m(*args)

    monkeypatch.setattr(stationary_mod, "kummer_m", counting_kummer_m)
    return calls


def _record_kummer_shapes(monkeypatch):
    """Record the broadcast shape of each kummer_m call the stationary layer makes."""
    import targetzone.stationary as stationary_mod

    shapes = []

    def recording_kummer_m(*args):
        shapes.append(np.broadcast_shapes(*(np.shape(x) for x in args)))
        return kummer_m(*args)

    monkeypatch.setattr(stationary_mod, "kummer_m", recording_kummer_m)
    return shapes


@pytest.mark.parametrize(("c2", "calls"), [(0.0, 3), (-0.0, 3)])
def test_jet_evaluates_only_the_kummer_family_in_use(monkeypatch, c2, calls):
    # Only the odd family M(a2 + k, 3/2 + k, .) is evaluated, and all of it
    # even at c2 = 0, where Newton starts and still needs h2 and h2'. Each
    # evaluator stops at the order it returns: the value takes k = 0, the
    # slope k <= 1, the curvature (`calls` float calls) and the residual k <= 2.
    shapes = _record_kummer_shapes(monkeypatch)
    params, coefs = ModelParams(alpha=2.0, rho=0.8, sigma=0.12), StationaryCoefficients(c2)
    f = np.linspace(-0.05, 0.05, 7)
    evaluators = (eval_stationary, eval_stationary_slope, eval_stationary_curvature)
    for k, ev in enumerate(evaluators, start=1):
        shapes.clear()
        ev(params, coefs, 0.05)
        assert shapes == [()] * k
        shapes.clear()
        ev(params, coefs, f)
        assert shapes == [(7, k)]
    assert k == calls
    shapes.clear()
    stationary_ode_residual(params, coefs, f)
    assert shapes == [(7, calls)]


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


def test_residual_raises_the_error_a_loop_over_the_grid_meets_first(base_params, calibrated):
    # Kummer fails at f = 10, 12 and 1e103, where u**3 overflows as well.
    coefs, _ = calibrated
    with pytest.raises(ConvergenceError) as first:
        eval_stationary(base_params, coefs, 10.0)
    with pytest.raises(ConvergenceError) as lanes:
        stationary_ode_residual(base_params, coefs, [0.05, 10.0, 12.0, 1e103])
    assert str(lanes.value) == str(first.value)


def test_cube_overflow_is_keyed_f_at_the_first_point():
    # z = 100 and every Kummer value converges at f = 1e103, but u**3 = -1e309;
    # at -1.5e103 too. A 0-d array cubes like a float.
    params, coefs = ModelParams(1e82, 1e-82, 1e61), StationaryCoefficients(1.0)
    points = (1e103, np.asarray(1e103), np.array([[0.5, 1e103], [-1.5e103, 0.0]]))
    for f in points:
        for evaluate in (eval_stationary_curvature, stationary_ode_residual):
            with pytest.raises(ParameterError, match=r"^f: f\*\*3 overflows at f=1e\+103$"):
                evaluate(params, coefs, f)
    assert eval_stationary(params, coefs, 1e103) == 5e102
    assert eval_stationary_slope(params, coefs, 1e103) == 0.5


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


def _design_points():
    """The design's 64 (params, e_bar)."""
    # math.exp on Python floats: numpy's SIMD exp may round differently by CPU.
    logs = [(math.log(lo), math.log(hi)) for lo, hi in zip(DESIGN_CUBE_LO, DESIGN_CUBE_HI)]
    points = []
    for u in np.random.default_rng(20_261).random((64, 4)).tolist():
        alpha, rho, sigma, e_bar = (math.exp(lo + x * (hi - lo)) for x, (lo, hi) in zip(u, logs))
        points.append((ModelParams(alpha, rho, sigma), e_bar))
    return points


def _design_records():
    for params, e_bar in _design_points():
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


def test_calibration_kummer_calls_are_counted(monkeypatch):
    # A Newton trial evaluates each Kummer value only if its accept/reject
    # decision needs it. At the reference every trial is accepted, so 6 jets
    # of 3 calls each. Over the design, full-jet trials made 18604 calls.
    calls = _count_kummer_calls(monkeypatch)
    calibrate_symmetric(ModelParams(alpha=3.0, rho=1.0, sigma=0.1), 0.01)
    assert calls[0] == 18
    calls[0] = 0
    for params, e_bar in _design_points():
        try:
            calibrate_symmetric(params, e_bar)
        except TargetZoneError:
            pass
    assert calls[0] == 12317


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


# At hi = e_bar + 1/lam, the end of the root's bracket, gap(hi) = (1 - tanh(lam*hi))/lam
# is >= 0 exactly, but once tanh rounds to 1 the computed gap fell below 0 and
# these were refused although hi is the root to rounding. The first seven are
# alpha = 3, sigma = 0.1; the rest are log-uniform draws over alpha in
# [0.5, 50], sigma in [0.01, 0.3] and e_bar in [1e-3, 100].
@pytest.mark.parametrize(
    ("alpha", "sigma", "e_bar"),
    [
        *((3.0, 0.1, e_bar) for e_bar in (15.89, 15.91, 15.93, 15.95, 15.96, 15.98, 16.0)),
        (1.5431888567838876, 0.09994073118641864, 1.9803044514999064),
        (3.4349656983961516, 0.018401686504078345, 0.47731621167022503),
        (1.512330954022331, 0.011077797986797361, 0.19540070983297916),
        (30.79416051609487, 0.2507711313487685, 63.322498515456296),
        (1.9282515947389136, 0.2097776022805353, 58.643456773368975),
    ],
)
def test_bm_calibrates_where_tanh_rounds_to_one(alpha, sigma, e_bar):
    coefs, band = calibrate_bm(alpha, sigma, e_bar)
    assert band.f_hi == e_bar + 1.0 / coefs.lam
    assert abs(eval_stationary_bm(coefs, band.f_hi) - e_bar) <= 2.0 * math.ulp(e_bar)
    assert eval_stationary_bm_slope(coefs, band.f_hi) == 0.0


@pytest.mark.parametrize("evaluate", [eval_stationary_bm, eval_stationary_bm_slope])
def test_bm_evaluators_on_an_array_give_the_float_bits(evaluate):
    coefs, band = calibrate_bm(3.0, 0.1, 0.01)
    f = [0.0, -0.0, *np.linspace(-band.f_hi, band.f_hi, 7).tolist(), 0.5, -1.0, 3.0]
    expected = [float(evaluate(coefs, x)).hex() for x in f]
    assert all(isinstance(evaluate(coefs, x), float) for x in f)
    for points in (np.array(f), np.array(f).reshape(3, 4)):
        values = evaluate(coefs, points)
        assert isinstance(values, np.ndarray) and values.shape == points.shape
        assert [x.hex() for x in values.ravel().tolist()] == expected[: values.size]


# The BM evaluators used to give a 0-d array here, the OU evaluators a float.
@pytest.mark.parametrize(
    "evaluate",
    [
        eval_stationary,
        eval_stationary_slope,
        eval_stationary_curvature,
        eval_stationary_bm,
        eval_stationary_bm_slope,
    ],
    ids=lambda evaluate: evaluate.__name__,
)
def test_evaluators_give_a_float_for_a_0d_array(evaluate, base_params, calibrated):
    if evaluate in (eval_stationary_bm, eval_stationary_bm_slope):
        coefs, band = calibrate_bm(3.0, 0.1, 0.01)
        args = (coefs,)
    else:
        coefs, band = calibrated
        args = (base_params, coefs)
    for f in (0.0, -0.0, 0.5 * band.f_hi, -band.f_hi):
        value = evaluate(*args, np.array(f))
        assert isinstance(value, float)
        assert value.hex() == evaluate(*args, f).hex()


# An array used to end in an untyped TypeError.
@pytest.mark.parametrize("evaluate", [eval_stationary_bm, eval_stationary_bm_slope])
def test_bm_evaluators_on_an_array_raise_at_the_first_overflowing_point(evaluate):
    coefs, _ = calibrate_bm(3.0, 0.1, 0.01)
    with pytest.raises(ParameterError, match=r"at f=100\.0$") as excinfo:
        evaluate(coefs, np.array([0.0, 100.0, -200.0]))
    assert excinfo.value.key == "f"


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
    # must reject such a trial point, at whichever of its three Kummer values
    # it is raised, as it rejects a NaN residual, and go on.
    import targetzone.stationary as stationary_mod

    for stage_b in (1.5, 2.5, 3.5):
        overflowed = []

        def overflowing_kummer_m(a, b, z):
            if b == stage_b and z > 0.81:  # f > 0.09: the reference's second step lands at 0.0915
                overflowed.append(z)
                raise OverflowError("simulated")
            return kummer_m(a, b, z)

        with monkeypatch.context() as patch:
            patch.setattr(stationary_mod, "kummer_m", overflowing_kummer_m)
            coefs, band = calibrate_symmetric(ModelParams(alpha=3.0, rho=1.0, sigma=0.1), 0.01)
        assert overflowed
        assert band.f_hi == pytest.approx(OU_F_BAR, rel=1e-12)
        assert coefs.c2 == pytest.approx(OU_C2, rel=1e-10)


def _full_jet_trial(solution, e_bar, c2, f, norm):
    """A trial decided on the full jet: all three Kummer values and u**3, then the norm."""
    import targetzone.stationary as stationary_mod

    try:
        jet = stationary_mod._jet(solution, c2, f, 2)
    except (OverflowError, ConvergenceError):
        return None
    res = (jet.value - e_bar, jet.slope)
    norm_new = max(abs(res[0]), abs(res[1]))
    return (jet, res, norm_new) if norm_new < norm else None


def _trial_bits(outcome):
    if outcome is None:
        return None
    jet, res, norm = outcome
    return [float(x).hex() for x in (*jet, *res, norm)]


def _staged_trial_case(case):
    """(params, e_bar, c2 values, f values) of a grid of trial points."""
    # Design points 28 and 30 are the design's two 100-iteration failures;
    # the grid spans the (c2, f) box of their Newton trials.
    boxes = {
        "design 28": (28, (0.14, 0.73), (0.0025, 0.7)),
        "design 30": (30, (0.7, 3.6), (0.0022, 0.29)),
    }
    if case in boxes:
        index, c2_box, f_box = boxes[case]
        params, e_bar = _design_points()[index]
        return params, e_bar, np.linspace(*c2_box, 9).tolist(), np.geomspace(*f_box, 13).tolist()
    if case == "reference":
        # Up to f = 1.84825 (z = 341.6028) every Kummer value converges; at
        # 1.848254 M(a2 + 2, 7/2, z) alone needs more than 500 terms.
        f = [*np.geomspace(0.01, 1.84, 13).tolist(), 1.84825, 1.848254]
        return ModelParams(3.0, 1.0, 0.1), 0.01, np.linspace(-0.01, 0.03, 9).tolist(), f
    if case == "u**3 overflows":
        # z = 100 and every Kummer value converges, but u**3 = -1e309.
        return ModelParams(1e82, 1e-82, 1e61), 0.01, [0.0, 1.0], [1e103]
    # r1 is NaN: rho**1.5 underflows to 0 and (a2/1.5)*M(a2 + 1, 5/2, z) to inf.
    return ModelParams(3.0, 1e-300, 0.1), 0.01, [0.0, 1.0], [3.5]


@pytest.mark.parametrize(
    "case", ["reference", "design 28", "design 30", "u**3 overflows", "r1 is nan"]
)
def test_staged_trial_accepts_what_the_full_jet_accepts(monkeypatch, case):
    # Newton's trial stops at the first Kummer value that rejects it. Against
    # the full jet it must accept the same points, with the same bits, for
    # any norm to beat: inf, and the full jets' norm quartiles on the grid.
    import targetzone.stationary as stationary_mod

    params, e_bar, c2s, fs = _staged_trial_case(case)
    solution = stationary_mod._solution(params)
    grid = [(c2, f) for c2 in c2s for f in fs]
    finite = [
        outcome[2]
        for outcome in (_full_jet_trial(solution, e_bar, c2, f, math.inf) for c2, f in grid)
        if outcome is not None
    ]
    norms = [math.inf, *(np.quantile(finite, [0.25, 0.5, 0.75]).tolist() if finite else [])]
    calls = _count_kummer_calls(monkeypatch)
    stages = set()
    for c2, f in grid:
        for norm in norms:
            expected = _trial_bits(_full_jet_trial(solution, e_bar, c2, f, norm))
            calls[0] = 0
            staged = _trial_bits(stationary_mod._trial(solution, e_bar, c2, f, norm))
            assert staged == expected, (c2, f, norm)
            stages.add((calls[0], staged is not None))
    # Kummer calls made, and whether the point was accepted.
    if case == "u**3 overflows":
        assert stages == {(2, False)}  # the curvature stage raises at u**3
    elif case == "r1 is nan":
        assert math.isnan(_full_jet_trial(solution, e_bar, 0.0, 3.5, math.inf)[0].slope)
        assert (3, True) in stages
    else:
        assert {(1, False), (2, False), (3, True)} <= stages
    if case == "reference":
        assert (3, False) in stages  # the Kummer series of the curvature raises


def test_overflow_at_the_initial_guess_is_a_calibration_error():
    # f_bar = 4e110 at the initial guess: f**3 overflows a float.
    with pytest.raises(CalibrationError, match="overflows"):
        calibrate_symmetric(ModelParams(alpha=3.0, rho=1.0, sigma=0.1), 1e110)


def test_kummer_failure_at_the_initial_guess_is_a_calibration_error():
    # z = 6400 at the initial guess f_bar = 0.8: M(a2, 3/2, z) needs more than 500 terms.
    with pytest.raises(CalibrationError) as excinfo:
        calibrate_symmetric(ModelParams(alpha=3.0, rho=1.0, sigma=0.01), 0.2)
    assert str(excinfo.value) == (
        "the stationary solution overflows or its Kummer series fails at the initial guess "
        "f_bar=0.8"
    )
    assert np.isnan(excinfo.value.residuals).all() and excinfo.value.residuals.shape == (2,)


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
