import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from targetzone import (
    GridSpec,
    InstabilityError,
    ModelParams,
    ParameterError,
    boundary_paths,
    calibrate_symmetric,
    convergence_order,
    edge_slopes,
    eval_stationary,
    eval_stationary_curvature,
    eval_stationary_slope,
    slice_at,
    solve_nonstationary,
)
from targetzone.pde import _march_blocks, _nearest_steps, _step_times


def _third_derivative_bound(params, coefs, band, n=401):
    # e''' = (alpha*rho*f e'' + (1+alpha*rho) e' - 1) * 2/(alpha*sigma^2),
    # the differentiated form of the stationary equation; gives the natural
    # scale of the one-sided boundary slope estimate.
    a, r = params.alpha, params.rho
    out = []
    for f in np.linspace(band.f_lo, band.f_hi, n):
        e1 = eval_stationary_slope(params, coefs, f)
        e2 = eval_stationary_curvature(params, coefs, f)
        out.append(abs((a * r * f * e2 + (1 + a * r) * e1 - 1.0) * 2.0 / (a * params.sigma**2)))
    return max(out)


def test_grid_spec_validation():
    with pytest.raises(ParameterError, match="nf"):
        GridSpec(nf=2)
    with pytest.raises(ParameterError, match="nt"):
        GridSpec(nt=0)
    with pytest.raises(ParameterError, match="theta"):
        GridSpec(theta=1.5)
    # The march allocates nf*(nt+1) floats at once, so the spec caps them.
    assert GridSpec(1000, 99_999).nt == 99_999
    for nf, nt in [(1000, 100_000), (401, 10**9), (np.int64(2**32), np.int64(2**32 - 1))]:
        with pytest.raises(ParameterError) as excinfo:
            GridSpec(nf, nt)
        assert excinfo.value.key == "nt"
        assert f"{nf}*({nt}+1)" in str(excinfo.value)


def test_axes_and_shape(default_surface, base_params):
    s = default_surface
    assert s.values.shape == (3001, 401)
    assert s.t_axis[0] == 0.0 and s.t_axis[-1] == base_params.horizon
    spacing = np.diff(s.f_axis)
    assert np.allclose(spacing, spacing[0], rtol=1e-12)


def test_initial_condition_is_exactly_zero(default_surface):
    assert np.max(np.abs(default_surface.values[0])) == 0.0


def test_surface_is_read_only(default_surface):
    with pytest.raises(ValueError):
        default_surface.values[0, 0] = 1.0


def test_horizon_slice_matches_stationary(default_surface, base_params, calibrated):
    # Three years out the solution has essentially reached the no-terminal
    # (stationary) curve.
    coefs, _ = calibrated
    stationary = eval_stationary(base_params, coefs, default_surface.f_axis)
    assert np.max(np.abs(default_surface.values[-1] - stationary)) < 2e-3


def test_odd_symmetry_preserved(default_surface):
    v = default_surface.values
    assert np.max(np.abs(v + v[:, ::-1])) < 1e-10


def test_monotone_approach_to_stationarity(default_surface, base_params, calibrated):
    # d(t) = max_f |e(t, f) - stationary(f)| must be non-increasing past the
    # early ramp-up.
    coefs, _ = calibrated
    stationary = eval_stationary(base_params, coefs, default_surface.f_axis)
    gaps = np.max(np.abs(default_surface.values - stationary), axis=1)
    start = int(np.searchsorted(default_surface.t_axis, 0.5))
    assert np.all(np.diff(gaps[start:]) <= 0)


def test_refinement_at_probe_point(base_params, calibrated, default_surface):
    _, band = calibrated
    fine = solve_nonstationary(base_params, band, GridSpec(801, 6000, 0.5))
    coarse_value = default_surface.values[1500, 300]   # (t=1.5, f=0.5*f_bar)
    fine_value = fine.values[3000, 600]
    assert abs(coarse_value - fine_value) < 1e-5


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def test_slice_at_zero_is_zero(default_surface):
    section = slice_at(default_surface, 0.0)
    assert section.t == 0.0
    assert np.max(np.abs(section.e)) == 0.0


def test_earlier_slices_are_flatter(default_surface):
    early = slice_at(default_surface, 0.15)
    late = slice_at(default_surface, 3.0)
    assert np.max(np.abs(early.e)) < np.max(np.abs(late.e))
    # flatter everywhere, not just at the extremes
    assert np.all(np.abs(early.e) <= np.abs(late.e) + 1e-15)


def test_slice_reports_grid_node(base_params, calibrated):
    _, band = calibrated
    surface = solve_nonstationary(base_params, band, GridSpec(41, 300, 0.5))
    section = slice_at(surface, 1.94)   # dt = 0.01: exact node hit
    assert section.t == surface.t_axis[194]
    assert abs(section.t - 1.94) < 1e-12
    nearest = slice_at(surface, 1.9949)  # off-node: nearest is reported
    assert nearest.t == surface.t_axis[199]


def test_slice_layout(default_surface):
    section = slice_at(default_surface, 1.0)
    assert len(section.f) == len(section.e) == 401
    assert section.f[0] == default_surface.f_axis[0]


def test_slice_range_errors(default_surface):
    with pytest.raises(ParameterError, match="outside"):
        slice_at(default_surface, -0.1)
    with pytest.raises(ParameterError, match="outside"):
        slice_at(default_surface, 3.2)


# ---------------------------------------------------------------------------
# boundary paths
# ---------------------------------------------------------------------------

def test_boundary_paths_start_at_zero(default_surface):
    paths = boundary_paths(default_surface)
    assert paths.e_lower[0] == 0.0 and paths.e_upper[0] == 0.0


def test_upper_margin_strictly_increasing_in_time_remaining(default_surface):
    paths = boundary_paths(default_surface)
    assert np.all(np.diff(paths.e_upper) > 0)
    assert np.all(np.diff(paths.e_lower) < 0)


def test_upper_margin_near_band_at_horizon(default_surface):
    paths = boundary_paths(default_surface)
    assert abs(paths.e_upper[-1] - 0.01) < 2e-3
    assert abs(paths.e_lower[-1] + 0.01) < 2e-3


# ---------------------------------------------------------------------------
# discrete smooth pasting
# ---------------------------------------------------------------------------

def test_edge_slopes_second_order(base_params, calibrated, default_surface):
    coefs, band = calibrated
    lo, hi = edge_slopes(default_surface)
    worst = max(np.max(np.abs(lo)), np.max(np.abs(hi)))
    df = default_surface.f_axis[1] - default_surface.f_axis[0]
    # Magnitude: the one-sided estimator sees ~(df^2/3)|e'''| at the edge.
    bound = 5.0 * df**2 * _third_derivative_bound(base_params, coefs, band)
    assert worst < bound
    # Order: halving df shrinks the worst slope by ~4.
    finer = solve_nonstationary(base_params, band, GridSpec(801, 3000, 0.5))
    lo_f, hi_f = edge_slopes(finer)
    worst_fine = max(np.max(np.abs(lo_f)), np.max(np.abs(hi_f)))
    assert np.log2(worst / worst_fine) >= 1.8


# ---------------------------------------------------------------------------
# self-convergence
# ---------------------------------------------------------------------------

def test_convergence_orders_trapezoidal(base_params, calibrated):
    _, band = calibrated
    order_f, order_t = convergence_order(base_params, band, GridSpec(51, 200, 0.5))
    assert order_f >= 1.8
    assert order_t >= 1.8


def test_convergence_order_backward_euler(base_params, calibrated):
    _, band = calibrated
    _, order_t = convergence_order(base_params, band, GridSpec(101, 50, 1.0))
    assert 0.8 <= order_t <= 1.2


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_explicit_scheme_blowup_names_step(base_params, calibrated):
    _, band = calibrated
    with pytest.raises(InstabilityError, match="step"):
        solve_nonstationary(base_params, band, GridSpec(401, 100, 0.0))


# The march checks finiteness once per 64-step block. These explicit grids
# blow up first inside the first block, on the last and first steps around a
# block boundary, mid-block later on, and in a final partial block (at its
# last step too); each message must name the first step that is not finite.
@pytest.mark.parametrize(
    ("horizon", "nf", "nt", "message"),
    [
        pytest.param(300.0, 401, 150, "step 61 (t = 122)", id="first-block"),
        pytest.param(300.0, 401, 269, "step 64 (t = 71.3755)", id="end-of-block-1"),
        pytest.param(300.0, 401, 322, "step 65 (t = 60.559)", id="start-of-block-2"),
        pytest.param(3.0, 401, 1000, "step 128 (t = 0.384)", id="end-of-block-2"),
        pytest.param(3.0, 201, 800, "step 160 (t = 0.6)", id="mid-block-3"),
        pytest.param(3.0, 401, 100, "step 92 (t = 2.76)", id="partial-tail"),
        pytest.param(3.0, 401, 90, "step 90 (t = 3)", id="last-step"),
    ],
)
def test_explicit_blowup_names_the_first_bad_step(horizon, nf, nt, message):
    params = ModelParams(alpha=3.0, rho=1.0, sigma=0.1, horizon=horizon)
    _, band = calibrate_symmetric(params, 0.01)
    with pytest.raises(InstabilityError) as excinfo:
        solve_nonstationary(params, band, GridSpec(nf, nt, 0.0))
    assert str(excinfo.value) == f"non-finite values at {message}"


# The exact solution obeys |e| <= max(|f_lo|, |f_hi|). These explicit grids
# are unstable but end finite (401 x 80 at about 1.5e276), so only that bound
# tells; the message names the first step past it, early in the first block,
# mid-block in the second, or late.
@pytest.mark.parametrize(
    ("nf", "nt", "message"),
    [
        pytest.param(401, 80, "step 3 (t = 0.1125)", id="first-block"),
        pytest.param(41, 1400, "step 91 (t = 0.195)", id="block-2"),
        pytest.param(41, 1512, "step 945 (t = 1.875)", id="late"),
    ],
)
def test_finite_explicit_blowup_names_the_first_step_past_the_bound(
    base_params, calibrated, nf, nt, message
):
    _, band = calibrated
    with pytest.raises(InstabilityError) as excinfo:
        solve_nonstationary(base_params, band, GridSpec(nf, nt, 0.0))
    assert str(excinfo.value) == f"|e| exceeds max(|f_lo|, |f_hi|) = 0.0886566 from {message}"


# nt is not a multiple of the 64-step block in any of these, so the partial
# tail block is covered.
@pytest.mark.parametrize(
    ("grid", "digest"),
    [
        (
            GridSpec(41, 300, 0.5),
            "b7963e37d9cce20d9a5f3f442404244a276cff6e5741712c717d8da58947f21b",
        ),
        (
            GridSpec(41, 300, 1.0),
            "80090695b51021ee13bd42b22da75edfa72d73e3bf2e46b8c32806c21627f8d7",
        ),
        (
            GridSpec(81, 130, 0.5),
            "b7eb059722f875a95af110fe96bfb9ab7cc6c5b9be05ec148ac974299327e8ee",
        ),
    ],
    ids=["41x300-cn", "41x300-implicit", "81x130-cn"],
)
def test_surface_bits_are_pinned(base_params, calibrated, grid, digest):
    _, band = calibrated
    values = solve_nonstationary(base_params, band, grid).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_steep_drift_on_coarse_grid_warns_with_peclet_number():
    from targetzone import Band, ModelParams

    # Interior nodes -0.5, 0, 0.5 with df = 0.5: rho*|f|*df/sigma^2 = 25.
    params = ModelParams(alpha=3.0, rho=1.0, sigma=0.1, horizon=1.0)
    with pytest.warns(RuntimeWarning, match="Peclet number 25 ") as record:
        solve_nonstationary(params, Band(-1.0, 1.0, -1.0, 1.0), GridSpec(5, 10, 0.5))
    assert len(record) == 1
    assert record[0].filename == __file__


def test_convergence_order_points_its_peclet_warnings_at_the_caller():
    from targetzone import Band

    # 5, 9 and 17 nodes all warn; the base grid warns for each of its three solves.
    params = ModelParams(alpha=3.0, rho=1.0, sigma=0.1, horizon=1.0)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        convergence_order(params, Band(-1.0, 1.0, -1.0, 1.0), GridSpec(5, 10, 0.5))
    assert [str(w.message).split(" > ")[0] for w in record] == [
        "cell Peclet number 25",
        "cell Peclet number 18.7",
        "cell Peclet number 10.9",
        "cell Peclet number 25",
        "cell Peclet number 25",
    ]
    assert {w.filename for w in record} == {__file__}


def test_reference_grid_is_warning_free(base_params, calibrated):
    _, band = calibrated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_nonstationary(base_params, band, GridSpec(401, 10, 0.5))


def test_convergence_order_solves_the_base_grid_once(base_params, calibrated, monkeypatch):
    from targetzone import pde

    grids = []

    def counting_solve(params, band, grid, *, steps=None):
        grids.append((grid.nf, grid.nt))
        return solve_nonstationary(params, band, grid, steps=steps)

    monkeypatch.setattr(pde, "solve_nonstationary", counting_solve)
    _, band = calibrated
    convergence_order(base_params, band, GridSpec(51, 200, 0.5))
    assert grids == [(51, 200), (101, 200), (201, 200), (51, 400), (51, 800)]


def test_non_monotone_refinement_lists_the_three_probe_vectors(base_params, calibrated, monkeypatch):
    from targetzone import pde

    levels = iter([0.0, 1.0, 0.0])

    def flat_solve(params, band, grid, *, steps):
        # Coarse 0, mid 1, fine 0: the mid-fine gap equals the coarse-mid gap.
        return pde.Surface(
            np.linspace(0.0, params.horizon, grid.nt + 1)[steps],
            np.linspace(band.f_lo, band.f_hi, grid.nf),
            np.full((len(steps), grid.nf), next(levels)),
        )

    monkeypatch.setattr(pde, "solve_nonstationary", flat_solve)
    _, band = calibrated
    with pytest.raises(InstabilityError, match="not monotone") as excinfo:
        convergence_order(base_params, band, GridSpec(51, 200, 0.5))
    assert str([[0.0] * 9, [1.0] * 9, [0.0] * 9]) in str(excinfo.value)


# ---------------------------------------------------------------------------
# kept steps
# ---------------------------------------------------------------------------

# nt = 10 fits in one block, 128 fills two exactly, 300 ends in a partial block;
# 64 and 65 sit on either side of the first block boundary.
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize(
    ("nt", "steps"),
    [
        (10, [0, 10, 3]),
        (10, [10, 10, 0, 5, 5]),
        (128, [0, 64, 65, 128]),
        (128, [128, 65, 64, 0, 65]),
        (300, [0, 64, 65, 300, 257, 256, 299]),
        (300, [300, 1, 300, 64, 0, 65, 64]),
    ],
)
def test_kept_steps_are_the_full_surface_rows(base_params, calibrated, nt, steps, theta):
    _, band = calibrated
    grid = GridSpec(41, nt, theta)
    full = solve_nonstationary(base_params, band, grid)
    kept = solve_nonstationary(base_params, band, grid, steps=steps)
    assert kept.values.tobytes() == full.values[steps].tobytes()
    assert kept.t_axis.tobytes() == full.t_axis[steps].tobytes()
    assert kept.f_axis.tobytes() == full.f_axis.tobytes()
    assert not kept.values.flags.writeable


def test_kept_steps_take_integer_arrays_and_slice_at_any_kept_time(base_params, calibrated):
    _, band = calibrated
    grid = GridSpec(21, 70, 0.5)
    full = solve_nonstationary(base_params, band, grid)
    steps = np.array([70, 2, 66], dtype=np.uint8)
    kept = solve_nonstationary(base_params, band, grid, steps=steps)
    assert np.array_equal(kept.values, full.values[steps])
    # The last kept row is not the latest time; the horizon is still in range.
    section = slice_at(kept, base_params.horizon)
    assert section.t == full.t_axis[70]
    assert np.array_equal(section.e, full.values[70])


_NOT_STEPS = "steps: must be a non-empty 1-D list of integers, got "


@pytest.mark.parametrize(
    ("steps", "message"),
    [
        ([0, 1.0], _NOT_STEPS + "float64 of shape (2,)"),
        ([True, False], _NOT_STEPS + "bool of shape (2,)"),
        (3, _NOT_STEPS + "int64 of shape ()"),
        ([[0, 1]], _NOT_STEPS + "int64 of shape (1, 2)"),
        (["0"], _NOT_STEPS + "<U1 of shape (1,)"),
        ([], _NOT_STEPS + "float64 of shape (0,)"),
        (np.array([], dtype=int), _NOT_STEPS + "int64 of shape (0,)"),
        ([0, 31], "steps: step 31 outside [0, 30]"),
        ([5, -1, 40], "steps: step -1 outside [0, 30]"),
    ],
)
def test_bad_steps_raise_keyed_parameter_error(base_params, calibrated, steps, message):
    _, band = calibrated
    with pytest.raises(ParameterError) as excinfo:
        solve_nonstationary(base_params, band, GridSpec(21, 30, 0.5), steps=steps)
    assert excinfo.value.key == "steps"
    assert str(excinfo.value) == message


# Grids of test_explicit_blowup_names_the_first_bad_step and
# test_finite_explicit_blowup_names_the_first_step_past_the_bound: the error
# must name the same global step whichever rows are kept.
@pytest.mark.parametrize(
    ("horizon", "nf", "nt", "steps"),
    [
        pytest.param(3.0, 401, 100, [0, 50], id="partial-tail"),
        pytest.param(3.0, 401, 100, [100], id="partial-tail-last-row"),
        pytest.param(300.0, 401, 322, [65, 0], id="start-of-block-2"),
        pytest.param(300.0, 401, 322, [64, 300, 10], id="start-of-block-2-unsorted"),
        pytest.param(3.0, 41, 1512, [0, 1512], id="past-the-bound-late"),
    ],
)
def test_kept_steps_raise_the_full_surface_error(horizon, nf, nt, steps):
    params = ModelParams(alpha=3.0, rho=1.0, sigma=0.1, horizon=horizon)
    _, band = calibrate_symmetric(params, 0.01)
    grid = GridSpec(nf, nt, 0.0)
    messages = []
    for kwargs in ({}, {"steps": steps}):
        with pytest.raises(InstabilityError) as excinfo:
            solve_nonstationary(params, band, grid, **kwargs)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("nt", [1, 64, 65, 300])
def test_march_blocks_give_every_step_once_in_order(base_params, calibrated, nt):
    _, band = calibrated
    grid = GridSpec(21, nt, 0.5)
    full = solve_nonstationary(base_params, band, grid)
    blocks = [(times, rows.copy()) for times, rows in _march_blocks(base_params, band, grid)]
    assert [len(rows) for _, rows in blocks] == [1, *(min(64, nt + 1 - k) for k in range(1, nt + 1, 64))]
    assert np.concatenate([times for times, _ in blocks]).tobytes() == full.t_axis.tobytes()
    assert np.concatenate([rows for _, rows in blocks]).tobytes() == full.values.tobytes()


# Horizons whose dt is normal, large, subnormal (so step times repeat, and a
# rounded k*dt passes the horizon) and 0 (where linspace scales k/nt instead).
STEP_HORIZONS = [3.0, 1 / 3, 7.3, 1e300, 1e-320, 5e-324]
STEP_COUNTS = [1, 3, 64, 65, 300, 3000]


@pytest.mark.parametrize("nt", STEP_COUNTS)
@pytest.mark.parametrize("horizon", STEP_HORIZONS)
def test_step_times_are_the_linspace_bits(horizon, nt):
    axis = np.linspace(0.0, horizon, nt + 1)
    assert _step_times(horizon, nt, np.arange(nt + 1)).tobytes() == axis.tobytes()
    steps = np.array([nt, 0, nt // 2, nt])
    assert _step_times(horizon, nt, steps).tobytes() == axis[steps].tobytes()


def _argmin_steps(horizon, nt, times):
    axis = np.linspace(0.0, horizon, nt + 1)
    return [int(np.argmin(np.abs(axis - t))) for t in times]


@pytest.mark.parametrize("nt", STEP_COUNTS)
@pytest.mark.parametrize("horizon", STEP_HORIZONS)
def test_nearest_steps_are_the_argmin_over_the_axis(horizon, nt):
    rng = np.random.default_rng(nt)
    axis = np.linspace(0.0, horizon, nt + 1)
    times = [fr * horizon for fr in (0.0, 0.05, 0.2, 0.65, 1.0)]
    times += [*rng.uniform(0.0, horizon, 20), *axis[rng.integers(0, nt + 1, 5)]]
    times += [*(axis[:-1] / 2 + axis[1:] / 2)[rng.integers(0, nt, 5)]]  # midpoints
    assert _nearest_steps(horizon, nt, times) == _argmin_steps(horizon, nt, times)


def test_nearest_steps_break_exact_ties_toward_the_first_step():
    # At nt = 30, 0.05*T is 1.5 steps; on these horizons it is an exact tie
    # in floats too (at T = 3 it is not: step 2 is nearer by an ulp).
    for horizon in (1.625, 3.25, 7.5, 13.0, 15.0):
        t = 0.05 * horizon
        axis = np.linspace(0.0, horizon, 31)
        assert t - axis[1] == axis[2] - t
        assert _nearest_steps(horizon, 30, [t]) == _argmin_steps(horizon, 30, [t]) == [1]


def test_nearest_steps_on_subnormal_horizons():
    # Steps 290-299 lie above T = 1e-320, so the horizon is step 300 itself.
    assert np.linspace(0.0, 1e-320, 301)[290] > 1e-320
    assert _nearest_steps(1e-320, 300, [1e-320]) == [300]
    for horizon in (1e-320, 2e-321, 1e-318, 5e-324, 1e-323):
        for nt in (2, 7, 30, 299, 300):
            axis = np.linspace(0.0, horizon, nt + 1)
            times = [*axis, horizon / 3, horizon / 2]
            assert _nearest_steps(horizon, nt, times) == _argmin_steps(horizon, nt, times)


def test_march_blocks_leave_the_callers_error_state_between_blocks(base_params, calibrated):
    # The march ignores overflow while it solves, but the code that reads a
    # block runs under the caller's own numpy error state.
    _, band = calibrated
    with np.errstate(over="raise", invalid="warn"):
        grid = GridSpec(21, 130, 0.5)
        for _ in _march_blocks(base_params, band, grid):
            assert np.geterr()["over"] == "raise" and np.geterr()["invalid"] == "warn"


def test_march_check_holds_no_block_sized_temporary(base_params, calibrated):
    # The finiteness and bound checks read each block's row max and min; a
    # block-sized |e| temporary would add 64 of the buffer's 65 rows.
    _, band = calibrated
    nf, nt = 2001, 200
    buffer = 8 * nf * 65
    tracemalloc.start()
    try:
        solve_nonstationary(base_params, band, GridSpec(nf, nt, 0.5), steps=[nt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * buffer


def test_full_surface_holds_no_second_surface(base_params, calibrated):
    # The full surface is gathered from the march's buffer like any kept
    # rows; a second surface-sized temporary would double the peak.
    _, band = calibrated
    nf, nt = 401, 3000
    surface = 8 * nf * (nt + 1)
    tracemalloc.start()
    try:
        solve_nonstationary(base_params, band, GridSpec(nf, nt, 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * surface


def test_convergence_order_keeps_only_the_probe_rows(base_params, calibrated):
    _, band = calibrated
    base = GridSpec(41, 1000, 0.5)
    # The largest refined surfaces, 161 x 1001 and 41 x 4001 floats, are about 1.3 MB.
    largest = 8 * max(161 * 1001, 41 * 4001)
    tracemalloc.start()
    try:
        convergence_order(base_params, band, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest / 4


# Explicit grids: 201 x 3000 fails at the base grid, 41 x 3000 is stable and
# its first spatial refinement is not, and 21 x 1000 fails that refinement's
# bound while still finite.
@pytest.mark.parametrize(
    ("base", "message"),
    [
        ((201, 3000), "on 201 x 3000: non-finite values at step 228 (t = 0.228)"),
        ((41, 3000), "on 81 x 3000: non-finite values at step 646 (t = 0.646)"),
        (
            (21, 1000),
            "on 41 x 1000: |e| exceeds max(|f_lo|, |f_hi|) = 0.0886566 from step 20 (t = 0.06)",
        ),
    ],
)
def test_convergence_order_names_the_grid_that_fails(base_params, calibrated, base, message):
    _, band = calibrated
    with pytest.raises(InstabilityError) as excinfo:
        convergence_order(base_params, band, GridSpec(*base, 0.0))
    assert str(excinfo.value) == message


def test_band_validation():
    from targetzone import Band

    with pytest.raises(ParameterError, match="f_lo"):
        Band(0.1, -0.1, -0.01, 0.01)
    with pytest.raises(ParameterError, match="e_lo"):
        Band(-0.1, 0.1, 0.01, -0.01)
