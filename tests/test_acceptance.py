"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Everything
well below a minute per criterion; the Monte-Carlo cross-check (criterion 7)
dominates the wall time.
"""

import math

import numpy as np

from targetzone import (
    GridSpec,
    ModelParams,
    calibrate_bm,
    calibrate_symmetric,
    convergence_order,
    edge_slopes,
    eval_stationary,
    eval_stationary_bm,
    eval_stationary_curvature,
    eval_stationary_slope,
    feynman_kac_estimate,
    kummer_m,
    kummer_m_dz,
    solve_nonstationary,
    stationary_ode_residual,
)
from targetzone.cli import main

MC_SEED = 20_240
MC_PATHS = 200_000
MC_DT = 1e-3


def _report(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def test_criterion_01_special_function_identities():
    for a, b in [(0.5, 1.5), (1.0, 1.0), (2.0 / 3.0, 1.5), (-1.2, 0.7)]:
        assert kummer_m(a, b, 0.0) == 1.0

    worst = max(abs(kummer_m(1.0, 1.0, z) - math.exp(z)) for z in np.linspace(-5, 5, 101))
    assert worst < 1e-12

    a, b, z = 2.0 / 3.0, 1.5, 0.5
    exact = kummer_m_dz(a, b, z)

    def fd_error(h):
        plus = kummer_m(a, b, z + h)
        minus = kummer_m(a, b, z - h)
        return abs((plus - minus) / (2 * h) - exact)

    order = math.log10(fd_error(1e-3) / fd_error(1e-4))
    assert order >= 1.9
    _report(1, f"M(a,b,0)=1 exact; exp-identity worst {worst:.2e} < 1e-12; FD order {order:.2f}")


def test_criterion_02_stationary_closed_form(base_params, calibrated, band_grid):
    coefs, band = calibrated
    res_value = eval_stationary(base_params, coefs, band.f_hi) - 0.01
    res_slope = eval_stationary_slope(base_params, coefs, band.f_hi)
    assert abs(res_value) < 1e-10 and abs(res_slope) < 1e-10
    ode_worst = float(np.max(np.abs(stationary_ode_residual(base_params, coefs, band_grid))))
    assert ode_worst < 1e-8
    _report(
        2,
        f"calibration residuals ({res_value:.1e}, {res_slope:.1e}) < 1e-10; "
        f"ODE residual {ode_worst:.1e} < 1e-8 on 401 nodes",
    )


def test_criterion_03_smooth_pasting(base_params, calibrated, default_surface):
    coefs, band = calibrated
    for edge in (band.f_lo, band.f_hi):
        assert abs(eval_stationary_slope(base_params, coefs, edge)) < 1e-10

    # Discrete zero-slope boundary to second order at every time step: the
    # one-sided estimate is bounded by its O(df^2 * |e'''|) scale and decays
    # at order >= 1.8 under df-halving.
    lo, hi = edge_slopes(default_surface)
    worst = max(np.max(np.abs(lo)), np.max(np.abs(hi)))
    df = default_surface.f_axis[1] - default_surface.f_axis[0]

    def third_derivative(f):
        a, r = base_params.alpha, base_params.rho
        e1 = eval_stationary_slope(base_params, coefs, f)
        e2 = eval_stationary_curvature(base_params, coefs, f)
        return (a * r * f * e2 + (1 + a * r) * e1 - 1.0) * 2.0 / (a * base_params.sigma**2)

    scale = max(abs(third_derivative(f)) for f in np.linspace(band.f_lo, band.f_hi, 401))
    assert worst < 5.0 * df**2 * scale

    fine = solve_nonstationary(base_params, band, GridSpec(801, 3000, 0.5))
    lo_f, hi_f = edge_slopes(fine)
    worst_fine = max(np.max(np.abs(lo_f)), np.max(np.abs(hi_f)))
    order = math.log2(worst / worst_fine)
    assert order >= 1.8
    _report(
        3,
        f"analytic edge slopes < 1e-10; discrete edge slope {worst:.1e} "
        f"= O(df^2), refinement order {order:.2f}",
    )


def test_criterion_04_terminal_condition(default_surface):
    worst = float(np.max(np.abs(default_surface.values[0])))
    assert worst == 0.0
    _report(4, "e(0, f) = 0 exactly at every node")


def test_criterion_05_stationarity_at_horizon(base_params, calibrated, default_surface):
    coefs, _ = calibrated
    stationary = eval_stationary(base_params, coefs, default_surface.f_axis)
    gap = float(np.max(np.abs(default_surface.values[-1] - stationary)))
    assert gap < 2e-3
    _report(5, f"max gap to the stationary curve at t=3: {gap:.1e} < 2e-3")


def test_criterion_06_band_shrinkage(default_surface):
    upper = default_surface.values[:, -1]
    lower = default_surface.values[:, 0]
    assert upper[0] == 0.0 and lower[0] == 0.0
    assert np.all(np.diff(upper) > 0)
    _report(6, "e(t, f_hi) strictly increasing across all 3001 time nodes; e(0, +/-f_hi) = 0")


def test_criterion_07_cross_method_agreement(base_params, calibrated, default_surface):
    _, band = calibrated
    probes = [(0.5, 0.0, 200), (1.0, 0.5 * band.f_hi, 300), (2.0, 0.9 * band.f_hi, 380)]
    lines = []
    for t, f0, f_idx in probes:
        est = feynman_kac_estimate(base_params, band, f0, t, MC_PATHS, MC_DT, MC_SEED)
        pde_value = default_surface.values[round(t / 0.001), f_idx]
        sigmas = abs(est.mean - pde_value) / est.std_error
        assert sigmas < 3.0, f"probe (t={t}, f0={f0}): {sigmas:.2f} standard errors"
        lines.append(f"(t={t}, f0/f_bar={f0 / band.f_hi:.1f}): {sigmas:.2f} SE")
    _report(7, "MC vs PDE " + "; ".join(lines))


def test_criterion_08_bm_ou_relations(base_params, calibrated):
    _, band = calibrated
    bm_coefs, bm_band = calibrate_bm(3.0, 0.1, 0.01)
    assert band.f_hi > bm_band.f_hi

    distances = []
    for rho in (0.5, 0.1, 0.01, 0.001):
        params = ModelParams(alpha=3.0, rho=rho, sigma=0.1)
        coefs, ou_band = calibrate_symmetric(params, 0.01)
        f_max = min(ou_band.f_hi, bm_band.f_hi)
        grid = np.linspace(-f_max, f_max, 201)
        distances.append(
            max(
                abs(eval_stationary(params, coefs, f) - eval_stationary_bm(bm_coefs, f))
                for f in grid
            )
        )
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 1e-3
    _report(
        8,
        f"f_bar(rho=1)={band.f_hi:.4f} > f_bar_bm={bm_band.f_hi:.4f}; "
        f"sup distances {['%.1e' % d for d in distances]} decreasing, last < 1e-3",
    )


def test_criterion_09_numerical_order(base_params, calibrated):
    _, band = calibrated
    order_f, order_t = convergence_order(base_params, band, GridSpec(51, 200, 0.5))
    assert order_f >= 1.8 and order_t >= 1.8
    _report(9, f"observed orders: spatial {order_f:.2f}, temporal {order_t:.2f} (theta=0.5)")


def test_criterion_10_determinism(tmp_path, capsys):
    argv = ["simulate", "--paths", "2000", "--dt", "0.01", "--t", "0.5", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    fig_argv = ["figure", "--which", "3", "--nf", "81", "--nt", "300"]
    assert main([*fig_argv, "--out", str(csv_a)]) == 0
    assert main([*fig_argv, "--out", str(csv_b)]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
    _report(10, "simulate reports and figure CSVs reproduce byte-for-byte")
