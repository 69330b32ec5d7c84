import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from targetzone import stochastic
from targetzone import (
    Band,
    GridSpec,
    ModelParams,
    ParameterError,
    PathSpec,
    calibrate_bm,
    calibrate_symmetric,
    feynman_kac_estimate,
    simulate_regulated_ou,
    solve_nonstationary,
)

TIGHT_BAND = Band(-0.01, 0.01, -0.005, 0.005)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

# A sigma whose noise lies far below the tolerances of the drift-only tests
# that use it.
QUIET = ModelParams(alpha=3.0, rho=1.0, sigma=1e-12)


def _exact_step(params, dt):
    """Decay and noise scale of the exact OU transition over dt."""
    if params.rho == 0.0:
        return 1.0, params.sigma * math.sqrt(dt)
    scale = params.sigma * math.sqrt(-math.expm1(-2.0 * params.rho * dt) / (2.0 * params.rho))
    return math.exp(-params.rho * dt), scale


def _shocks(params, spec):
    """The noise increments `simulate_regulated_ou` draws for ``spec``, in one draw."""
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(spec.seed)))
    return _exact_step(params, spec.dt)[1] * rng.standard_normal(spec.n_steps)


def test_drift_fixed_point(calibrated):
    # The noise adds up to sigma*sqrt(t) = 7e-13 at t = 0.5; the band is far.
    _, band = calibrated
    spec = PathSpec(f0=0.0, dt=1e-3, n_steps=500, seed=3)
    path = simulate_regulated_ou(QUIET, band, spec)
    assert np.max(np.abs(path.values)) < 1e-11
    assert path.cum_l == 0.0 and path.cum_u == 0.0


def test_noiseless_exponential_decay(calibrated):
    # The exact step tracks f0 e^{-rho t} at every node, up to rounding and
    # the noise, which moves each node by at most a few 1e-12, 1e-9 of the
    # smallest value. Euler's drift was off by rho*dt*rho*t/2, 1e-3 here.
    _, band = calibrated
    dt, n = 1e-3, 2000
    spec = PathSpec(f0=0.02, dt=dt, n_steps=n, seed=0)
    path = simulate_regulated_ou(QUIET, band, spec)
    times = dt * np.arange(n + 1)
    exact = 0.02 * np.exp(-QUIET.rho * times)
    rel = np.abs(path.values - exact) / exact
    assert np.max(rel) < 1e-8


def test_values_stay_in_band(base_params, calibrated):
    _, band = calibrated
    for seed in (1, 17, 923):
        spec = PathSpec(f0=0.5 * band.f_hi, dt=1e-3, n_steps=4000, seed=seed)
        path = simulate_regulated_ou(base_params, band, spec)
        assert np.min(path.values) >= band.f_lo
        assert np.max(path.values) <= band.f_hi
        # with sigma = 0.1 on a +/-0.089 band, regulation must actually fire
        assert path.cum_l > 0.0 or path.cum_u > 0.0


def test_identical_seed_identical_path(base_params, calibrated):
    _, band = calibrated
    spec = PathSpec(f0=0.01, dt=1e-3, n_steps=1000, seed=42)
    a = simulate_regulated_ou(base_params, band, spec)
    b = simulate_regulated_ou(base_params, band, spec)
    assert np.array_equal(a.values, b.values)
    assert a.cum_l == b.cum_l and a.cum_u == b.cum_u


# On the tight band at dt = 1e-2 a shock is half the band's half-width, so
# some steps jump the whole band and take a fold and a clip. The 10,000 steps
# span three noise segments of 4096, which the one-draw replay must match.
REPLAY_SPEC = PathSpec(f0=0.0, dt=1e-2, n_steps=10_000, seed=99)


def test_regulator_bookkeeping_replay(base_params):
    # Replay the noise stream push by push: a landing outside the band is
    # folded back at the edge it crossed, and a landing beyond the far edge is
    # then clipped there. Each push lands in the regulator of its edge.
    spec = REPLAY_SPEC
    path = simulate_regulated_ou(base_params, TIGHT_BAND, spec)
    lo, hi = TIGHT_BAND.f_lo, TIGHT_BAND.f_hi
    decay = math.exp(-base_params.rho * spec.dt)
    cum_l = cum_u = 0.0
    f = spec.f0
    pushes_per_step = []
    for k, shock in enumerate(_shocks(base_params, spec)):
        f = f * decay + shock
        pushes = []
        if f > hi:
            pushes.append((0.0, f - (2.0 * hi - f)))
            f = 2.0 * hi - f
            if f < lo:
                pushes.append((lo - f, 0.0))
                f = lo
        elif f < lo:
            pushes.append(((2.0 * lo - f) - f, 0.0))
            f = 2.0 * lo - f
            if f > hi:
                pushes.append((0.0, f - hi))
                f = hi
        for dl, du in pushes:
            assert dl >= 0.0 and du >= 0.0
            assert dl == 0.0 or du == 0.0   # complementarity, per push
            cum_l += dl
            cum_u += du
        pushes_per_step.append(len(pushes))
        assert path.values[k + 1] == f
    assert pushes_per_step.count(1) > 0 and pushes_per_step.count(2) > 0
    # Whole-band jumps end on both edges alike.
    assert np.count_nonzero(path.values == lo) > 0 and np.count_nonzero(path.values == hi) > 0
    assert path.cum_l == cum_l and path.cum_u == cum_u


# SHA-256 of the values' bytes, and the totals, of the replayed path. They were
# recorded once the replay agreed with them; a change of step must re-pin them.
PINNED_PATH = (
    "d088a7d27cfe95725f9ee4187d597371629bb471638781675ed9f74bfdae3304",
    "25.83247082121891",
    "23.968914805124253",
)


def test_path_bits_are_pinned(base_params):
    path = simulate_regulated_ou(base_params, TIGHT_BAND, REPLAY_SPEC)
    digest = hashlib.sha256(path.values.tobytes()).hexdigest()
    assert type(path.cum_l) is float and type(path.cum_u) is float
    assert (digest, repr(path.cum_l), repr(path.cum_u)) == PINNED_PATH


def test_path_is_one_lane_of_the_estimator_step(base_params, calibrated):
    # Both simulators take one step: the path's values are those of one
    # `_integrate_block` lane fed the path's own noise, to the last bit. On the
    # tight band some steps jump the whole band (fold, fold, clip).
    for band, spec, whole_band_jumps in [
        (calibrated[1], PathSpec(0.0, 1e-3, 5000, 7), False),
        (TIGHT_BAND, PathSpec(0.0, 1e-2, 20_000, 7), True),
    ]:
        path = simulate_regulated_ou(base_params, band, spec)
        shocks = _shocks(base_params, spec)
        f, acc = np.array([spec.f0]), np.zeros(1)
        lane = [spec.f0]
        for k in range(spec.n_steps):
            stochastic._integrate_block(
                base_params, band, f, acc, shocks[k : k + 1, None], spec.dt, np.zeros(1)
            )
            lane.append(f[0])
        assert np.array_equal(path.values, lane)
        raw = path.values[:-1] * _exact_step(base_params, spec.dt)[0] + shocks
        width = band.f_hi - band.f_lo
        for jumps in (raw > band.f_hi + width, raw < band.f_lo - width):
            assert (np.count_nonzero(jumps) > 0) == whole_band_jumps


def test_step_is_odd_on_a_symmetric_band(base_params):
    # Lanes (x, -x) fed shocks (z, -z) end at exact negatives, and so do their
    # integrals. The first step sends lanes beyond hi + width, and beyond
    # hi + 2 width, and their mirrors below lo - width and lo - 2 width.
    band = TIGHT_BAND
    width = band.f_hi - band.f_lo
    rng = np.random.default_rng(5)
    x = np.concatenate([[0.009, 0.009, 0.0], rng.uniform(band.f_lo, band.f_hi, 61)])
    z = rng.normal(0.0, 0.02, (40, len(x)))
    z[0, :3] = [1.2 * width, 2.3 * width, 0.7 * width]
    dt = 1e-2
    raw = x * _exact_step(base_params, dt)[0] + z[0]
    assert np.any(raw > band.f_hi + 2.0 * width) and np.any(raw > band.f_hi + width)
    f, acc = np.concatenate([x, -x]), np.zeros(2 * len(x))
    shocks = np.concatenate([z, -z], axis=1)
    stochastic._integrate_block(base_params, band, f, acc, shocks, dt, np.ones(len(z)))
    assert np.array_equal(f[: len(x)], -f[len(x) :])
    assert np.array_equal(acc[: len(x)], -acc[len(x) :])
    assert np.all((band.f_lo <= f) & (f <= band.f_hi))


def _stationary_regulator_rate(params, f_bar):
    """dU/dt = dL/dt of the reflected process on [-f_bar, f_bar]: (sigma^2/2) p(f_bar)."""
    s = params.sigma
    if params.rho == 0.0:
        return s * s / (4.0 * f_bar)
    root = math.sqrt(params.rho)
    mass = s * math.sqrt(math.pi) / root * math.erf(root * f_bar / s)
    return 0.5 * s * s * math.exp(-((root * f_bar / s) ** 2)) / mass


@pytest.mark.parametrize("rho", [1.0, 0.0])
def test_regulator_totals_match_the_stationary_rate(base_params, calibrated, rho):
    # 20 paths of 1000 years. Projection onto the band under-books the totals
    # by O(sqrt(dt)): at rho = 1, U and L came out 10.4 % and 11.1 % low (9.7
    # and 7.3 SE), at rho = 0 5.0 % and 6.0 % (4.6 and 4.2 SE).
    if rho == 0.0:
        params = ModelParams(alpha=3.0, rho=0.0, sigma=0.1)
        band = calibrate_bm(3.0, 0.1, 0.01)[1]
    else:
        params, band = base_params, calibrated[1]
    rate = _stationary_regulator_rate(params, band.f_hi)
    dt, n = 1e-2, 100_000
    paths = [simulate_regulated_ou(params, band, PathSpec(0.0, dt, n, seed)) for seed in range(20)]
    for totals in ([p.cum_l for p in paths], [p.cum_u for p in paths]):
        rates = np.array(totals) / (n * dt)
        se = rates.std(ddof=1) / math.sqrt(len(rates))
        assert abs(rates.mean() - rate) < 3.0 * se


def test_drift_only_regulation_books_upper():
    # Drift pulls toward 0, above a band that lies below 0: once at the edge
    # the path is folded back below f_hi on every step, and only the upper
    # regulator pushes.
    band = Band(-0.03, -0.01, -0.015, -0.005)
    spec = PathSpec(f0=-0.02, dt=1e-2, n_steps=2000, seed=0)
    path = simulate_regulated_ou(QUIET, band, spec)
    values = path.values
    assert np.all(values <= band.f_hi)
    assert path.cum_l == 0.0 and path.cum_u > 0.0
    # It settles at the fold's fixed point f = 2 f_hi - f e^{-rho dt}, about
    # half a step's drift inside the edge; the gap to it shrinks by e^{-rho dt}
    # a step.
    fixed_point = 2.0 * band.f_hi / (1.0 + math.exp(-QUIET.rho * spec.dt))
    assert np.allclose(values[-500:], fixed_point, rtol=0.0, atol=1e-9)
    # f_n = f_0 - (1 - e^{-rho dt}) sum(f_k) + sum(shocks) - U + L: 2000 steps
    # of rounding at a few 1e-18 each.
    drift = -math.expm1(-QUIET.rho * spec.dt) * np.sum(values[:-1])
    balance = values[0] - drift + np.sum(_shocks(QUIET, spec)) - path.cum_u + path.cum_l
    assert abs(balance - values[-1]) < 1e-14


def test_path_holds_one_float_per_step(base_params, calibrated):
    # The noise is drawn 4096 steps at a time: a path holds its values and one
    # 32 KB segment. Drawing all the shocks at once peaked at twice the values.
    # 2e5 steps keep the traced loop near a second.
    spec = PathSpec(0.0, 1e-3, 200_000, 3)
    tracemalloc.start()
    try:
        path = simulate_regulated_ou(base_params, calibrated[1], spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * path.values.nbytes


def test_f0_outside_band_raises(base_params, calibrated):
    _, band = calibrated
    with pytest.raises(ParameterError, match="f0"):
        simulate_regulated_ou(base_params, band, PathSpec(0.5, 1e-3, 10, 1))


def test_path_spec_validation():
    with pytest.raises(ParameterError, match="dt"):
        PathSpec(0.0, 0.0, 10, 1)
    with pytest.raises(ParameterError, match="n_steps"):
        PathSpec(0.0, 1e-3, 0, 1)
    with pytest.raises(ParameterError, match="seed"):
        PathSpec(0.0, 1e-3, 10, -1)
    assert PathSpec(0.0, 1e-3, 10, 2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize(
    ("dt", "seed", "key"),
    [(0.0, 1, "dt"), (float("nan"), 1, "dt"), (1e-3, 2**64, "seed"), (1e-3, 2**128, "seed")],
)
def test_path_spec_shares_the_monte_carlo_rules(dt, seed, key):
    # A seed beyond the uint64 range used to reach np.random.Philox and
    # escape as an untyped ValueError.
    with pytest.raises(ParameterError) as err:
        PathSpec(0.0, dt, 10, seed)
    assert err.value.key == key


def test_infinite_path_step_raises_with_key(base_params, calibrated):
    # An infinite dt used to pass the dt > 0 check and give an all-NaN path.
    with pytest.raises(ParameterError) as err:
        simulate_regulated_ou(base_params, calibrated[1], PathSpec(0.0, math.inf, 10, 1))
    assert err.value.key == "dt"


# ---------------------------------------------------------------------------
# Feynman-Kac estimates
# ---------------------------------------------------------------------------

# Two full noise blocks and a partial third, off-centre and at the centre, at
# (t, f0 / f_bar, n_paths, seed): the estimates of `_full_block_estimate`,
# which the chunked pipeline must reproduce to the last bit. t = 0.2 spans
# three full noise chunks of 64 steps and a partial fourth.
MULTI_BLOCK = {
    (0.05, 0.5, 2 * 8192 + 300, 11): ("0.0007152655469626772", "1.6091983447993748e-06"),
    (0.05, 0.0, 2 * (8192 + 150), 12): ("1.0890229836601727e-06", "1.6151396579763899e-06"),
    (0.2, 0.5, 2 * 8192 + 300, 13): ("0.002503376415195267", "1.0481518931484516e-05"),
    (0.2, 0.0, 2 * (8192 + 150), 14): ("-5.337689828195188e-06", "1.1639398707626178e-05"),
}


def _multi_block_estimate(params, band, t, fraction, n_paths, seed):
    return feynman_kac_estimate(params, band, fraction * band.f_hi, t, n_paths, 1e-3, seed)


def _full_block_estimate(params, band, t, fraction, n_paths, seed):
    """The estimate with each block's whole (n_steps, 8192) noise drawn at once.

    Block b draws from numpy's b-th spawned child of SeedSequence(seed), with
    no chunks or threads, and steps its lanes by its own loop.
    """
    n = round(t / 1e-3)
    step = t / n
    decay, scale = _exact_step(params, step)
    weights = step * np.exp(-(step * np.arange(n + 1)) / params.alpha) / params.alpha
    weights[[0, -1]] *= 0.5
    lo, hi = band.f_lo, band.f_hi
    children = np.random.SeedSequence(seed).spawn(-(-n_paths // 8192))
    samples = []
    for b, child in enumerate(children):
        rows = min(8192, n_paths - 8192 * b)
        noise = scale * np.random.Generator(np.random.SFC64(child)).standard_normal((n, 8192))
        f = np.full(rows, fraction * hi)
        acc = weights[0] * f
        for k in range(n):
            raw = f * decay + noise[k, :rows]
            f = np.where(raw > hi, 2.0 * hi - raw, np.where(raw < lo, 2.0 * lo - raw, raw))
            f = np.clip(f, lo, hi)
            acc = acc + weights[k + 1] * f
        samples.append(acc)
    samples = np.concatenate(samples)
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / math.sqrt(n_paths))


@pytest.mark.parametrize(("case", "pinned"), MULTI_BLOCK.items())
def test_multi_block_estimates_are_pinned(base_params, calibrated, case, pinned):
    est = _multi_block_estimate(base_params, calibrated[1], *case)
    assert (repr(est.mean), repr(est.std_error)) == pinned


@pytest.mark.parametrize(("case", "pinned"), MULTI_BLOCK.items())
def test_multi_block_pins_are_a_full_block_draw(base_params, calibrated, case, pinned):
    mean, std_error = _full_block_estimate(base_params, calibrated[1], *case)
    assert (repr(mean), repr(std_error)) == pinned


def test_block_streams_of_distinct_seeds_differ():
    # With entropy [seed, block], seed 2**32 + 5's block 0 drew seed 5's block 1.
    a = stochastic._block_rng(2**32 + 5, 0).standard_normal(4)
    b = stochastic._block_rng(5, 1).standard_normal(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("case", list(MULTI_BLOCK))
def test_estimate_does_not_depend_on_the_cpu_count(
    base_params, calibrated, monkeypatch, case, cpus
):
    # One worker runs the three block tasks in turn; with two, one worker runs
    # two of them; with three, each task has its own worker.
    default = _multi_block_estimate(base_params, calibrated[1], *case)
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: cpus)
    est = _multi_block_estimate(base_params, calibrated[1], *case)
    assert (est.mean, est.std_error) == (default.mean, default.std_error)


def test_noise_memory_does_not_grow_with_the_horizon(base_params, calibrated):
    # A full-block draw of 1000 steps held about 130 MB of noise. 16384 paths
    # are two blocks, so at most two workers each hold a 4.2 MB scratch.
    _, band = calibrated
    tracemalloc.start()
    try:
        feynman_kac_estimate(base_params, band, 0.5 * band.f_hi, 1.0, 16384, 1e-3, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_zero_horizon_estimate(base_params, calibrated):
    _, band = calibrated
    est = feynman_kac_estimate(base_params, band, 0.01, 0.0, 1000, 1e-3, seed=5)
    assert est.mean == 0.0
    assert est.std_error == 0.0
    assert est.n_paths == 1000 and est.seed == 5


def test_centre_estimate_is_sampled(base_params, calibrated):
    # Odd integrand in the driving noise: the centre mean sits on zero within
    # its error, and is sampled rather than cancelled to exactly zero.
    _, band = calibrated
    est = feynman_kac_estimate(base_params, band, 0.0, 0.5, 2000, 1e-3, seed=8)
    assert est.std_error > 0.0
    assert abs(est.mean) < 3.0 * est.std_error
    assert est.mean != 0.0


def test_estimate_determinism(base_params, calibrated):
    _, band = calibrated
    args = (base_params, band, 0.02, 0.5, 4000, 1e-3)
    a = feynman_kac_estimate(*args, seed=21)
    b = feynman_kac_estimate(*args, seed=21)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = feynman_kac_estimate(*args, seed=22)
    assert c.mean != a.mean


def test_estimate_positive_start_is_positive(base_params, calibrated):
    _, band = calibrated
    est = feynman_kac_estimate(base_params, band, 0.8 * band.f_hi, 1.0, 2000, 1e-3, seed=13)
    assert est.mean > 0.0
    assert est.std_error < est.mean


def test_weak_convergence_under_dt_halving(base_params, calibrated):
    _, band = calibrated
    f0 = 0.5 * band.f_hi
    coarse = feynman_kac_estimate(base_params, band, f0, 1.0, 50_000, 1e-3, seed=31)
    fine = feynman_kac_estimate(base_params, band, f0, 1.0, 50_000, 5e-4, seed=32)
    gap = abs(coarse.mean - fine.mean)
    assert gap < 3.0 * math.hypot(coarse.std_error, fine.std_error)


def test_long_run_time_average_near_parity(base_params, calibrated):
    # Ergodic check: the time average of one long path sits on 0 within
    # batch-mean error bars.
    _, band = calibrated
    spec = PathSpec(f0=0.0, dt=1e-3, n_steps=200_000, seed=77)
    path = simulate_regulated_ou(base_params, band, spec)
    batches = path.values[1:].reshape(20, 10_000).mean(axis=1)
    avg = batches.mean()
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(avg) < 3.0 * se


def test_estimate_validation(base_params, calibrated):
    _, band = calibrated
    with pytest.raises(ParameterError, match="^paths: "):
        feynman_kac_estimate(base_params, band, 0.0, 1.0, 50, 1e-3, seed=1)
    with pytest.raises(ParameterError, match="f0"):
        feynman_kac_estimate(base_params, band, 1.0, 1.0, 1000, 1e-3, seed=1)
    with pytest.raises(ParameterError, match="t "):
        feynman_kac_estimate(base_params, band, 0.0, -1.0, 1000, 1e-3, seed=1)


def test_path_count_is_capped():
    # A typo like paths = 1e12 used to be accepted, and the run then exhausted
    # memory or escaped as an untyped MemoryError. Checked without a run.
    stochastic.check_mc_settings(1.0, stochastic.MAX_PATHS, 1e-3, 1)
    with pytest.raises(ParameterError) as err:
        stochastic.check_mc_settings(1.0, stochastic.MAX_PATHS + 1, 1e-3, 1)
    assert err.value.key == "paths"


@pytest.mark.parametrize(
    ("t", "dt", "key"),
    [
        (float("nan"), 1e-3, "t"),
        (float("inf"), 1e-3, "t"),
        (1.0, float("inf"), "dt"),
        (1.0, float("nan"), "dt"),
    ],
)
def test_non_finite_horizon_or_step_raises_with_key(base_params, calibrated, t, dt, key):
    # A NaN t used to reach round() as an untyped ValueError, an infinite one
    # an OverflowError.
    with pytest.raises(ParameterError) as err:
        feynman_kac_estimate(base_params, calibrated[1], 0.0, t, 1000, dt, seed=1)
    assert err.value.key == key


@pytest.mark.parametrize("f0", [0.0, 0.01])
def test_odd_path_count_at_and_off_centre(base_params, calibrated, f0):
    # Every path is sampled on its own, at the centre too: an odd path count works.
    _, band = calibrated
    est = feynman_kac_estimate(base_params, band, f0, 0.25, 1001, 1e-3, seed=2)
    assert est.n_paths == 1001


@pytest.fixture(scope="module")
def fast_reversion():
    """rho = 10 at criterion 7's other settings, with its 401 x 3000 PDE value at t = 1."""
    params = ModelParams(alpha=3.0, rho=10.0, sigma=0.1, horizon=3.0)
    band = calibrate_symmetric(params, 0.01)[1]
    surface = solve_nonstationary(params, band, GridSpec(401, 3000, 0.5), steps=[1000])
    return params, band, surface.values[0]


@pytest.mark.parametrize(("fraction", "f_index"), [(0.5, 300), (0.9, 380)])
def test_exact_step_agrees_with_pde_at_fast_reversion(fast_reversion, fraction, f_index):
    # Euler's drift missed the PDE by -3.84 and -7.19 SE here.
    params, band, pde_row = fast_reversion
    est = feynman_kac_estimate(params, band, fraction * band.f_hi, 1.0, 200_000, 1e-3, 20240)
    assert abs(est.mean - pde_row[f_index]) < 3.0 * est.std_error


def test_coarse_step_stays_inside_the_rate_band(fast_reversion):
    # rho*dt = 3.3: Euler's decay 1 - rho*dt = -2.3 flipped the path's sign
    # each step, and the estimate came out at -0.0133, outside [-e_bar, e_bar].
    params, band, _ = fast_reversion
    est = feynman_kac_estimate(params, band, 0.5 * band.f_hi, 1.0, 20_000, 0.3, 1)
    assert -0.01 <= est.mean <= 0.01


def test_estimate_agrees_with_pde_probe(base_params, calibrated):
    # Moderate-size version of the cross-method gate (the full 200k-path run
    # lives in the acceptance suite).
    coefs, band = calibrated
    surface = solve_nonstationary(base_params, band, GridSpec(401, 1000, 0.5))
    f0 = 0.5 * band.f_hi
    est = feynman_kac_estimate(base_params, band, f0, 1.0, 40_000, 1e-3, seed=4)
    k = int(round(1.0 / (base_params.horizon / 1000)))
    pde_value = surface.values[k, 300]
    assert abs(est.mean - pde_value) < 3.0 * est.std_error
