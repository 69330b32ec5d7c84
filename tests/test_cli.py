import errno
import hashlib
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from targetzone import GridSpec, ModelParams, calibrate_symmetric, solve_nonstationary
from targetzone.cli import _csv_lines, _fmt, _g12_lines, _surface_lines, main, write_csv

from reference_values import BM_F_BAR, OU_C2, OU_F_BAR

# Small-but-honest grid/path settings so the CLI suite stays fast.
FAST = ["--nf", "81", "--nt", "300"]
FAST_MC = ["--paths", "2000", "--dt", "0.01"]

# SHA-256 of the surface CSV at `--nf 41 --nt 300` and the default parameters.
PINNED_GRID = ["--nf", "41", "--nt", "300"]
PINNED_SURFACE_SHA256 = "4745c9cadde767b7235e82a4b122b9a86aa2d5b3f1b9ab6e34b39231f394b587"
# The same at the default 401 x 3000 grid, the reference surface.
REFERENCE_SURFACE_SHA256 = "8391be7ad1db8854c6ef7d8ed486c3f3cce7bd370bfc26bd5c3708422e7225cf"


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


def test_config_file_that_is_not_utf8_fails_with_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xff\xferho = 1\n")
    assert main(["calibrate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert "Traceback" not in err


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


# SHA-256 of the whole `solve` report on PINNED_GRID, without and with
# `--out s.csv`; the report alone takes a different path through the march.
@pytest.mark.parametrize(
    ("out", "digest"),
    [
        ([], "6723b4a8a995d70f02f29aada05341c5cbc35f4842cdf0adfaad2c4785e77e97"),
        (["--out", "s.csv"], "fdab5a19b553b1e138894f0bc3eab2291015e96ca22c2f0be7a6169093ce10e9"),
    ],
    ids=["report-only", "out"],
)
def test_solve_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, out, digest):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", *PINNED_GRID, *out]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_reference_surface_bytes_are_pinned(tmp_path):
    # 1.2M e values at the default grid: every exponent class and near-tie
    # the surface holds goes through the CSV writer.
    out_path = tmp_path / "surface.csv"
    assert main(["solve", "--out", str(out_path)]) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == REFERENCE_SURFACE_SHA256


def test_surface_writer_matches_row_formatter_on_awkward_floats(tmp_path):
    awkward = [-0.0, 0.0, 5e-324, 1e22, 0.1 + 0.2, 3.0, -1.5e-7, 999999999999.5, 1e-5, 1 / 3]
    awkward += [9.9999999999995e-5, 0.00099999999999995, 1e-4]
    t_axis = np.array([0.0, 0.1 + 0.2, 2.5, 1e22])
    f_axis = np.array([-1.5e-7, -0.0, 5e-324, 1 / 3])
    values = np.resize(np.array(awkward), (4, 4))
    values[3, 1:] = (np.inf, -np.inf, np.nan)

    out_path = tmp_path / "surface.csv"
    blocks = [(t_axis[:1], values[:1]), (t_axis[1:], values[1:])]
    write_csv(out_path, ["t", "f", "e"], _surface_lines(f_axis, blocks))
    expected = "t,f,e\n" + "".join(
        ",".join(_fmt(x) for x in (t, f, e)) + "\n"
        for t, row in zip(t_axis.tolist(), values.tolist())
        for f, e in zip(f_axis.tolist(), row)
    )
    assert out_path.read_bytes() == expected.encode()


def _ulps_around(x, n):
    """x and the n doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.concatenate([*below[1:], *above])


def _formatter_design():
    rng = np.random.default_rng(2115)
    mantissas = ("1", "1.5", "3.14159265358979", "9.99999999999949", "9.9999999999995")
    exponents = [float(f"{m}e{k}") for m in mantissas for k in range(-320, 309)]
    # (k + 0.5)*10^m with 12-digit k: ties at the 13th digit in every layout
    ties = np.concatenate([
        (rng.integers(10**11, 10**12, 100) + 0.5) * 10.0 ** (x - 11)
        for x in [-300, -30, *range(-7, 15), 30, 300]
    ])
    near_one = 1.0 - rng.uniform(0, 1e-12, 100)
    # Short mantissas: the point and trailing zeros at every digit, integers
    # whose last digits are zeros, and halves, quarters and eighths.
    short = np.concatenate([
        rng.integers(1, 10**4, 200) * 10.0 ** rng.integers(-8, 16, 200),
        rng.integers(1, 10**6, 200) / 8.0,
        [100.0, 120.0, 1000.0005, 1e11, 123456789012.0, 1e12, 1e15, 2.5e-5],
    ])
    design = np.concatenate([
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan],
        exponents,
        _ulps_around(np.array([float(f"1e{k}") for k in range(-7, 14)]), 3),
        _ulps_around(np.array([9.99999999999995e-5, 9.99999999999995e-2, 999999999999.5]), 3),
        _ulps_around(ties, 3),
        near_one,
        short,
        rng.uniform(0, 1, 2000),
        10.0 ** rng.uniform(-6, 1, 2000),
        10.0 ** rng.uniform(-12, 20, 2000),
        rng.standard_normal(2000) * 10.0 ** rng.uniform(-300, 300, 2000),
    ])
    return np.concatenate([design, -design])


def test_surface_e_formatter_matches_percent_12g_byte_for_byte():
    values = _formatter_design()
    texts = [bytes(row).replace(b"\0", b"") for row in _g12_lines(values).view(np.uint8)]
    assert texts == [("%.12g\n" % v).encode() for v in values.tolist()]


@pytest.mark.parametrize("theta", ["0.5", "1"])
@pytest.mark.parametrize("nt", [1, 15, 16, 17, 63, 64, 65, 300])
def test_streamed_surface_matches_the_row_formatter_at_block_edges(tmp_path, capsys, nt, theta):
    # The march yields 64-step blocks and the writer formats 16 steps at a
    # time; these nt end a block just before, at and after both edges.
    out_path = tmp_path / "surface.csv"
    assert main(["solve", "--nf", "7", "--nt", str(nt), "--theta", theta, "--out", str(out_path)]) == 0
    params = ModelParams(alpha=3.0, rho=1.0, sigma=0.1, horizon=3.0)
    band = calibrate_symmetric(params, 0.01)[1]
    surface = solve_nonstationary(params, band, GridSpec(7, nt, float(theta)))
    rows = (
        (t, f, e)
        for t, row in zip(surface.t_axis.tolist(), surface.values.tolist())
        for f, e in zip(surface.f_axis.tolist(), row)
    )
    assert out_path.read_bytes() == b"t,f,e\n" + b"".join(_csv_lines(rows))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--alpha", "1e-4", "--nf", "41", "--nt", "300"], "|e| exceeds max(|f_lo|, |f_hi|) = 0.0107076 from step 1 "),
        (["--theta", "0", "--nt", "100"], "non-finite values at step 92 "),
    ],
    ids=["past-the-bound", "non-finite"],
)
@pytest.mark.parametrize("existing", [None, b"t,f,e\nkept\n"], ids=["new", "existing"])
def test_failed_solve_writes_nothing(tmp_path, capsys, argv, message, existing):
    # The first march ends finite and fails its end-of-march bound check; the
    # second fails at block 2. Both have streamed rows by then.
    out_path = tmp_path / "x.csv"
    if existing is not None:
        out_path.write_bytes(existing)
    assert main(["solve", *argv, "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""
    assert os.listdir(tmp_path) == ([] if existing is None else ["x.csv"])
    if existing is not None:
        assert out_path.read_bytes() == existing


def test_written_csv_gets_the_mode_open_would_give(tmp_path, capsys):
    fresh, existing, reference = tmp_path / "fresh.csv", tmp_path / "existing.csv", tmp_path / "ref"
    reference.open("wb").close()
    existing.write_bytes(b"old\n")
    existing.chmod(0o600)
    for path in (fresh, existing):
        assert main(["solve", *PINNED_GRID, "--out", str(path)]) == 0
    assert fresh.stat().st_mode == reference.stat().st_mode
    assert oct(existing.stat().st_mode & 0o777) == oct(0o600)
    assert sorted(os.listdir(tmp_path)) == ["existing.csv", "fresh.csv", "ref"]


def test_written_csv_goes_through_a_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"old\n")
    link.symlink_to(target.name)
    assert main(["solve", *PINNED_GRID, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINNED_SURFACE_SHA256
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


@pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "link-to-fifo"])
def test_csv_to_a_fifo_is_written_into_it(tmp_path, capsys, via_link):
    # Like /dev/stdout, a symlink to a pipe: a rename would put a regular
    # file where the pipe was, and the reader would get nothing.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    out = fifo
    if via_link:
        out = tmp_path / "link"
        out.symlink_to(fifo.name)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["solve", *PINNED_GRID, "--out", str(out)]) == 0
    reader.join(timeout=60)
    assert hashlib.sha256(received[0]).hexdigest() == PINNED_SURFACE_SHA256
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == sorted(["pipe", *(["link"] if via_link else [])])


def test_csv_over_a_hard_linked_file_is_written_in_place(tmp_path, capsys):
    # A rename would leave the other name holding the old bytes.
    target, other = tmp_path / "x.csv", tmp_path / "other.csv"
    target.write_bytes(b"old\n")
    os.link(target, other)
    assert main(["solve", *PINNED_GRID, "--out", str(target)]) == 0
    assert hashlib.sha256(other.read_bytes()).hexdigest() == PINNED_SURFACE_SHA256
    assert target.stat().st_ino == other.stat().st_ino
    assert sorted(os.listdir(tmp_path)) == ["other.csv", "x.csv"]


def test_csv_in_a_read_only_directory_is_written_in_place(tmp_path, monkeypatch, capsys):
    # A writable file in a directory that takes no new file is written as
    # open(path, "wb") writes it. Root may create files in any directory, so
    # there os.open refuses new files in it as the kernel would for others.
    locked = tmp_path / "locked"
    locked.mkdir()
    target = locked / "x.csv"
    target.write_bytes(b"old\n")
    real_open = os.open

    def refusing_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT and os.path.dirname(os.fspath(path)) == str(locked):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing_open)
    locked.chmod(0o555)
    try:
        assert main(["solve", *PINNED_GRID, "--out", str(target)]) == 0
    finally:
        locked.chmod(0o755)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINNED_SURFACE_SHA256
    assert os.listdir(locked) == ["x.csv"]


# A narrow, long grid, where anything held per time step dominates: about
# 100 B per step would take 20,001 steps to 2 MB.
NARROW = ["--nf", "3", "--nt", "20000"]


@pytest.mark.parametrize(
    "out, grid, bound",
    [(True, [], 3e6), (False, [], 3e6), (True, NARROW, 1e6)],
    ids=["out", "report-only", "out-narrow"],
)
def test_solve_memory_does_not_grow_with_the_surface(tmp_path, capsys, out, grid, bound):
    # The 401 x 3001 reference surface is 9.6 MB; solve holds the march's
    # 65-row buffer and one 16-step formatting block instead.
    argv = ["solve", *grid, "--out", str(tmp_path / "s.csv")] if out else ["solve", *grid]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


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


# SHA-256 of the figure-2 and figure-3 CSVs at the default parameters and grid.
PINNED_FIGURE_SHA256 = {
    2: "b54152dfa508754a3b3f10bf40e8e656e2d5a48a12b77a1f9e128adeb027760e",
    3: "32e2fb38409cb2850abd118c7e2ec06d7f1073b3684dc6c0cae273681ad716eb",
}


# At nt = 3 the sections at t = 0 and 0.15 are both step 0, so the block
# figure 2 hands the surface writer repeats a step.
REPEATED_SECTIONS = (["--nf", "5", "--nt", "3"], "a412a5181fc336fce9946e0088ccff00157699e4c98c6dadf26e7e777635cafa")


@pytest.mark.parametrize(
    "which, grid, digest",
    [(2, [], PINNED_FIGURE_SHA256[2]), (3, [], PINNED_FIGURE_SHA256[3]), (2, *REPEATED_SECTIONS)],
    ids=["2", "3", "2-repeated-steps"],
)
def test_figure_bytes_are_pinned(tmp_path, capsys, which, grid, digest):
    out = tmp_path / f"fig{which}.csv"
    assert main(["figure", "--which", str(which), *grid, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "which, grid, bound",
    [("1", [], 3e6), ("2", [], 3e6), ("3", [], 3e6), ("1", NARROW, 1e6), ("3", NARROW, 1e6)],
    ids=["1", "2", "3", "1-narrow", "3-narrow"],
)
def test_figure_memory_does_not_grow_with_the_surface(tmp_path, capsys, which, grid, bound):
    tracemalloc.start()
    try:
        assert main(["figure", "--which", which, *grid, "--out", str(tmp_path / "f.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize(
    "argv",
    [["solve", "--out", "s.csv"], ["solve"], *(["figure", "--which", w, "--out", "f.csv"] for w in "123")],
    ids=["solve-out", "solve-report-only", "figure-1", "figure-2", "figure-3"],
)
def test_memory_does_not_grow_with_nt(tmp_path, monkeypatch, capsys, argv):
    # Only the time grid grows from 5,000 to 20,000 steps; 8 B per step would be 120 kB.
    monkeypatch.chdir(tmp_path)
    peaks = []
    for nt in ("5000", "20000"):
        tracemalloc.start()
        try:
            assert main([*argv, "--nf", "3", "--nt", nt]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 30e3


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


# SHA-256 of each figure-4 curve file at `--rho-list 1,0.1,0.001` and the
# default parameters.
PINNED_FIG4_SHA256 = {
    "bm": "cc424cc404942552aa4b73d0915b7e683d141198a6acde5af6f95138a527c426",
    "ou_rho=1": "a313b87e8b6d9de09bc1bb174cbbdd198add688b65a751c64b12b2b9500cc00b",
    "ou_rho=0.1": "a6fb7849eaea5fa92a1c36a4086feb7ae7fcb46ac6ea51053b64e661e2e444b2",
    "ou_rho=0.001": "849bf9cc5e3fd9c1c79f72f0091f088b80b246c3a2fd3ff723c5e1d4212114e1",
}


def test_figure4_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    assert main(["figure", "--which", "4", "--rho-list", "1,0.1,0.001", "--out", str(out)]) == 0
    digests = {
        tag: hashlib.sha256((tmp_path / f"fig4_{tag}.csv").read_bytes()).hexdigest()
        for tag in PINNED_FIG4_SHA256
    }
    assert digests == PINNED_FIG4_SHA256


def test_figure4_calibration_failure_writes_no_files(tmp_path, capsys):
    # The BM curve calibrates at this e_bar and the OU rho = 1 curve does not;
    # its file used to be written before the OU failure.
    out = tmp_path / "x.csv"
    assert main(["figure", "--which", "4", "--e-bar", "86.82", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rho_list", ["1,1", "1,1.0000001"])
def test_figure4_curves_sharing_a_file_write_no_files(tmp_path, capsys, rho_list):
    # Both rho give the tag "ou_rho=1"; the second curve used to overwrite the first.
    out = tmp_path / "fig4.csv"
    assert main(["figure", "--which", "4", "--rho-list", rho_list, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: rho_list: ")
    assert "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [".", "/"])
def test_figure4_out_without_a_file_name_fails_with_key(tmp_path, monkeypatch, capsys, out):
    # The curve files are named after --out's file name, which "." and "/" lack.
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "--which", "4", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: out: {out!r} names no file\n"
    assert "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_figure_output_failure_is_reported(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert main(["figure", "--which", "3", *FAST, "--out", str(missing_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.rstrip().endswith(f"{missing_dir}'")  # not the temporary file
