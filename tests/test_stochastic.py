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
    feynman_kac_estimate,
    simulate_regulated_ou,
    solve_nonstationary,
)

TIGHT_BAND = Band(-0.01, 0.01, -0.005, 0.005)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def test_drift_fixed_point(base_params, calibrated):
    _, band = calibrated
    spec = PathSpec(f0=0.0, dt=1e-3, n_steps=500, seed=3)
    path = simulate_regulated_ou(base_params, band, spec, zero_noise=True)
    assert np.all(path.values == 0.0)
    assert path.cum_l == 0.0 and path.cum_u == 0.0


def test_noiseless_exponential_decay(base_params, calibrated):
    # Drift-only Euler tracks mu + (f0-mu) e^{-rho t} to O(dt) at every node.
    _, band = calibrated
    dt, n = 1e-3, 2000
    spec = PathSpec(f0=0.02, dt=dt, n_steps=n, seed=0)
    path = simulate_regulated_ou(base_params, band, spec, zero_noise=True)
    times = dt * np.arange(n + 1)
    exact = 0.02 * np.exp(-base_params.rho * times)
    rel = np.abs(path.values - exact) / exact
    assert np.max(rel) < 2.0 * base_params.rho * dt


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


def test_regulator_bookkeeping_replay(base_params):
    # Replay the exact noise stream and verify, step by step, that the
    # clipped amount lands in the right regulator and never in both.
    spec = PathSpec(f0=0.0, dt=1e-3, n_steps=5000, seed=99)
    path = simulate_regulated_ou(base_params, TIGHT_BAND, spec)

    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    shocks = base_params.sigma * math.sqrt(spec.dt) * rng.standard_normal(spec.n_steps)
    cum_l = cum_u = 0.0
    f = spec.f0
    hits = 0
    for k in range(spec.n_steps):
        raw = f - base_params.rho * spec.dt * (f - base_params.mu) + shocks[k]
        dl = du = 0.0
        if raw < TIGHT_BAND.f_lo:
            dl = TIGHT_BAND.f_lo - raw
            f = TIGHT_BAND.f_lo
        elif raw > TIGHT_BAND.f_hi:
            du = raw - TIGHT_BAND.f_hi
            f = TIGHT_BAND.f_hi
        else:
            f = raw
        assert dl >= 0.0 and du >= 0.0
        assert dl == 0.0 or du == 0.0   # complementarity
        hits += dl > 0 or du > 0
        cum_l += dl
        cum_u += du
        assert path.values[k + 1] == f
    assert hits > 0
    assert path.cum_l == cum_l and path.cum_u == cum_u


def test_drift_only_regulation_books_upper(calibrated):
    # Drift pulls toward mu = 0.05 above the band top: the path must park at
    # f_hi and the upper regulator must absorb exactly the excess drift.
    params = ModelParams(alpha=3.0, rho=1.0, sigma=0.1, mu=0.05)
    spec = PathSpec(f0=0.0, dt=1e-2, n_steps=2000, seed=0)
    path = simulate_regulated_ou(params, TIGHT_BAND, spec, zero_noise=True)
    assert path.values[-1] == TIGHT_BAND.f_hi
    assert path.cum_u > 0.0 and path.cum_l == 0.0

    # exact replay of the drift recursion with clipping
    f, cum_u = spec.f0, 0.0
    for _ in range(spec.n_steps):
        raw = f - params.rho * spec.dt * (f - params.mu)
        if raw > TIGHT_BAND.f_hi:
            cum_u += raw - TIGHT_BAND.f_hi
            f = TIGHT_BAND.f_hi
        else:
            f = raw
    assert path.cum_u == cum_u
    # once parked at the edge every step clips the same excess drift
    per_step = params.rho * spec.dt * (params.mu - TIGHT_BAND.f_hi)
    assert np.all(path.values[-500:] == TIGHT_BAND.f_hi)
    assert path.cum_u > 1900 * per_step


def test_coarse_dt_warns(calibrated):
    params = ModelParams(alpha=3.0, rho=20.0, sigma=0.1)
    _, band = calibrated
    with pytest.warns(UserWarning, match="rho"):
        simulate_regulated_ou(params, band, PathSpec(0.0, 1e-2, 10, 1))


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

# Two full Philox blocks and a partial third, off-centre and at the centre, at
# (t, f0 / f_bar, n_paths, seed): the estimates of the full-block draw that
# the chunked pipeline must reproduce to the last bit. t = 0.2 spans three
# full noise chunks of 64 steps and a partial fourth.
MULTI_BLOCK = {
    (0.05, 0.5, 2 * 8192 + 300, 11): ("0.0007121281818135429", "1.602495129960304e-06"),
    (0.05, 0.0, 2 * (8192 + 150), 12): ("2.1502434907138266e-06", "1.6093598269325517e-06"),
    (0.2, 0.5, 2 * 8192 + 300, 13): ("0.0024794079882772394", "1.0556780321587538e-05"),
    (0.2, 0.0, 2 * (8192 + 150), 14): ("-6.968875124679966e-06", "1.1580166945866122e-05"),
}


def _multi_block_estimate(params, band, t, fraction, n_paths, seed):
    return feynman_kac_estimate(params, band, fraction * band.f_hi, t, n_paths, 1e-3, seed)


@pytest.mark.parametrize(("case", "pinned"), MULTI_BLOCK.items())
def test_multi_block_estimates_are_pinned(base_params, calibrated, case, pinned):
    est = _multi_block_estimate(base_params, calibrated[1], *case)
    assert (repr(est.mean), repr(est.std_error)) == pinned


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


def test_long_run_time_average_near_mu(base_params, calibrated):
    # Ergodic check: the time average of one long path sits on mu = 0 within
    # batch-mean error bars.
    _, band = calibrated
    spec = PathSpec(f0=0.0, dt=1e-3, n_steps=200_000, seed=77)
    path = simulate_regulated_ou(base_params, band, spec)
    batches = path.values[1:].reshape(20, 10_000).mean(axis=1)
    avg = batches.mean()
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(avg - base_params.mu) < 3.0 * se


def test_estimate_validation(base_params, calibrated):
    _, band = calibrated
    with pytest.raises(ParameterError, match="n_paths"):
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
