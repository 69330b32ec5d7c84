import hashlib

import numpy as np
import pytest

from targetzone.cli import _fmt, _write_surface, main
from targetzone.pde import Surface

from reference_values import BM_F_BAR, OU_C2, OU_F_BAR

# Small-but-honest grid/path settings so the CLI suite stays fast.
FAST = ["--nf", "81", "--nt", "300"]
FAST_MC = ["--paths", "2000", "--dt", "0.01"]

# SHA-256 of the surface CSV at `--nf 41 --nt 300` and the default parameters.
PINNED_GRID = ["--nf", "41", "--nt", "300"]
PINNED_SURFACE_SHA256 = "4745c9cadde767b7235e82a4b122b9a86aa2d5b3f1b9ab6e34b39231f394b587"


def _read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return comments, header, np.array(rows)


def _field(stdout, name):
    for line in stdout.splitlines():
        key, _, value = line.strip().partition(" = ")
        if key == name:
            return value
    raise AssertionError(f"{name} not found in report:\n{stdout}")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_report(capsys):
    assert main(["calibrate"]) == 0
    out = capsys.readouterr().out
    assert float(_field(out, "c2")) == pytest.approx(OU_C2, rel=1e-11)
    assert float(_field(out, "f_bar")) == pytest.approx(OU_F_BAR, rel=1e-11)
    assert abs(float(_field(out, "residual_value"))) < 1e-10
    assert abs(float(_field(out, "residual_slope"))) < 1e-10


def test_calibrate_rho_zero_routes_to_bm(capsys):
    assert main(["calibrate", "--rho", "0"]) == 0
    out = capsys.readouterr().out
    assert _field(out, "model") == "bm"
    assert float(_field(out, "f_bar")) == pytest.approx(BM_F_BAR, rel=1e-11)


def test_calibrate_with_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# custom run\nrho = 0.5\ne-bar = 0.02\n")
    assert main(["calibrate", "--config", str(config), "--rho", "0.25"]) == 0
    out = capsys.readouterr().out
    assert _field(out, "rho") == "0.25"
    assert _field(out, "e_bar") == "0.02"


def test_mu_flag_is_refused(capsys):
    # The band is symmetric about central parity, so there is no mu to set.
    with pytest.raises(SystemExit) as excinfo:
        main(["calibrate", "--rho", "0", "--mu", "0.1"])
    assert excinfo.value.code == 2
    assert "--mu" in capsys.readouterr().err


def test_missing_config_file_fails(capsys):
    assert main(["calibrate", "--config", "/nonexistent/run.cfg"]) == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "key"),
    [
        (["calibrate", "--rho", "nan"], "rho"),
        (["calibrate", "--alpha", "inf"], "alpha"),
        (["calibrate", "--sigma", "inf"], "sigma"),
        (["calibrate", "--config", "mu.cfg"], "mu"),
        (["calibrate", "--e-bar", "inf"], "e_bar"),
        (["solve", "--horizon", "inf"], "horizon"),
        (["figure", "--which", "4", "--rho-list", "nan"], "rho_list"),
    ],
)
def test_non_finite_model_setting_fails_with_key(tmp_path, monkeypatch, capsys, argv, key):
    # These used to fail later with an error that named no key: Kummer
    # non-convergence, a singular Jacobian, a stalled Newton or a PDE blow-up.
    # mu is no setting, so a config file's mu line is an unknown key.
    (tmp_path / "mu.cfg").write_text("mu = 0\n")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_report_and_csv(tmp_path, capsys):
    out_path = tmp_path / "surface.csv"
    assert main(["solve", *FAST, "--out", str(out_path)]) == 0
    report = capsys.readouterr().out
    assert float(_field(report, "max_gap_to_stationary_at_horizon")) < 2e-3
    comments, header, rows = _read_csv(out_path)
    assert header == ["t", "f", "e"]
    assert rows.shape == (301 * 81, 3)
    # initial condition rows are exactly zero
    first_slice = rows[:81]
    assert np.all(first_slice[:, 0] == 0.0)
    assert np.all(first_slice[:, 2] == 0.0)


def test_solve_surface_bytes_are_pinned(tmp_path):
    # Pins the solver to the last bit, not only run against run: any change
    # of the time stepping that moves one ulp changes this digest.
    out_path = tmp_path / "surface.csv"
    assert main(["solve", *PINNED_GRID, "--out", str(out_path)]) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == PINNED_SURFACE_SHA256


def test_surface_writer_matches_row_formatter_on_awkward_floats(tmp_path):
    awkward = [-0.0, 0.0, 5e-324, 1e22, 0.1 + 0.2, 3.0, -1.5e-7, 999999999999.5, 1e-5, 1 / 3]
    t_axis = np.array([0.0, 0.1 + 0.2, 1e22])
    f_axis = np.array([-1.5e-7, -0.0, 5e-324, 1 / 3])
    values = np.resize(np.array(awkward), (3, 4))
    values[2, 1:] = (np.inf, -np.inf, np.nan)
    surface = Surface(t_axis, f_axis, values)

    out_path = tmp_path / "surface.csv"
    _write_surface(out_path, surface)
    expected = "t,f,e\n" + "".join(
        ",".join(_fmt(x) for x in (t, f, e)) + "\n"
        for t, row in zip(t_axis.tolist(), values.tolist())
        for f, e in zip(f_axis.tolist(), row)
    )
    assert out_path.read_bytes() == expected.encode()


def test_solve_invalid_grid_fails_with_key(capsys):
    # 1e9 steps would need a 2.9 TiB surface: refused before anything is allocated.
    for nt in ("0", "1000000000"):
        assert main(["solve", "--nt", nt]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nt")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_reports_are_byte_identical(capsys):
    argv = ["simulate", *FAST_MC, "--t", "0.5", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert _field(first, "seed") == "11"


def test_simulate_seed_changes_estimate(capsys):
    argv = ["simulate", *FAST_MC, "--t", "0.5"]
    assert main([*argv, "--seed", "1"]) == 0
    mean_one = _field(capsys.readouterr().out, "mean")
    assert main([*argv, "--seed", "2"]) == 0
    mean_two = _field(capsys.readouterr().out, "mean")
    assert mean_one != mean_two


def test_simulate_probe_defaults_and_csv(tmp_path, capsys):
    out_path = tmp_path / "mc.csv"
    assert main(["simulate", *FAST_MC, "--t", "0.25", "--out", str(out_path)]) == 0
    report = capsys.readouterr().out
    f_bar = float(_field(report, "f_bar"))
    assert float(_field(report, "f0")) == pytest.approx(0.5 * f_bar)
    _, header, rows = _read_csv(out_path)
    assert header == ["f0", "t", "n_paths", "dt", "seed", "mean", "std_error"]
    assert rows.shape == (1, 7)
    assert rows[0, 2] == 2000


def test_simulate_too_few_paths_fails_with_key(capsys):
    assert main(["simulate", "--paths", "50"]) == 1
    assert capsys.readouterr().err.startswith("error: paths")


def test_simulate_odd_paths_at_center_succeeds(capsys):
    # Every path has its own noise at the centre too, so any count of at least 100 runs.
    assert main(["simulate", "--f0", "0", "--paths", "101", "--dt", "0.01", "--t", "0.1"]) == 0
    assert _field(capsys.readouterr().out, "paths") == "101"


def test_simulate_seed_beyond_uint64_fails_with_key(capsys):
    argv = ["simulate", "--seed", str(2**64), "--paths", "1000", "--dt", "0.01", "--t", "0.1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("flag", "value", "key"), [("--t", "nan", "t"), ("--t", "inf", "t"), ("--dt", "inf", "dt")]
)
def test_simulate_non_finite_horizon_or_step_fails_with_key(capsys, flag, value, key):
    # --t nan and --t inf used to escape as a ValueError or OverflowError traceback.
    assert main(["simulate", "--paths", "1000", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert "Traceback" not in err


def test_simulate_f0_outside_band_fails(capsys):
    assert main(["simulate", *FAST_MC, "--f0", "0.5"]) == 1
    assert "f0" in capsys.readouterr().err


def test_simulate_rho_zero_uses_bm_band(capsys):
    assert main(["simulate", *FAST_MC, "--rho", "0", "--t", "0.25", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert float(_field(out, "f_bar")) == pytest.approx(BM_F_BAR, rel=1e-11)
    assert float(_field(out, "mean")) > 0.0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def test_figure_requires_valid_which(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["figure", "--which", "5"])
    assert excinfo.value.code == 2


def test_figure1_long_format(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--which", "1", "--nf", "21", "--nt", "30", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["t", "f", "e"]
    assert rows.shape == (31 * 21, 3)


def test_figure1_writes_the_solve_surface_bytes(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--which", "1", *PINNED_GRID, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SURFACE_SHA256


def test_figure2_sections(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "--which", "2", *FAST, "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["t", "f", "e"]
    times = sorted(set(rows[:, 0]))
    assert len(times) == 5
    assert times[0] == 0.0
    assert times == [pytest.approx(x, abs=0.01) for x in (0.0, 0.15, 0.6, 1.95, 3.0)]
    zero_slice = rows[rows[:, 0] == 0.0]
    assert np.all(zero_slice[:, 2] == 0.0)


def test_figure3_boundary_dynamics(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "--which", "3", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["t", "e_lower", "e_upper"]
    assert rows[0, 1] == 0.0 and rows[0, 2] == 0.0
    assert np.all(np.diff(rows[:, 2]) > 0)
    assert abs(rows[-1, 2] - 0.01) < 2e-3


def test_figure3_reruns_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["figure", "--which", "3", *FAST, "--out", str(first)]) == 0
    assert main(["figure", "--which", "3", *FAST, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_figure4_curves_and_convergence(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    assert main(["figure", "--which", "4", "--rho-list", "1,0.1,0.001", "--out", str(out)]) == 0
    report = capsys.readouterr().out

    bm_comments, bm_header, bm_rows = _read_csv(tmp_path / "fig4_bm.csv")
    assert bm_header == ["f", "e"]
    assert any(c.startswith("# f_bar=") for c in bm_comments)
    for rho_tag in ("1", "0.1", "0.001"):
        assert (tmp_path / f"fig4_ou_rho={rho_tag}.csv").exists()
        assert f"fig4_ou_rho={rho_tag}.csv" in report

    _, _, ou_rows = _read_csv(tmp_path / "fig4_ou_rho=0.001.csv")
    # compare on the common domain: interpolate the wider curve onto the bm grid
    ou_on_bm = np.interp(bm_rows[:, 0], ou_rows[:, 0], ou_rows[:, 1])
    assert np.max(np.abs(ou_on_bm - bm_rows[:, 1])) < 1e-3


def test_figure4_calibration_failure_writes_no_files(tmp_path, capsys):
    # The BM curve calibrates at this e_bar and the OU rho = 1 curve does not;
    # its file used to be written before the OU failure.
    out = tmp_path / "x.csv"
    assert main(["figure", "--which", "4", "--e-bar", "86.82", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_figure_output_failure_is_reported(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert main(["figure", "--which", "3", *FAST, "--out", str(missing_dir)]) == 1
    assert capsys.readouterr().err.startswith("error:")
