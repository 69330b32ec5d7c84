import pytest

from targetzone import ConfigError, parse_config


def test_empty_text_gives_paper_defaults():
    cfg = parse_config("")
    assert cfg.params.alpha == 3.0
    assert cfg.params.rho == 1.0
    assert cfg.params.sigma == 0.1
    assert cfg.e_bar == 0.01
    assert cfg.params.horizon == 3.0
    assert cfg.grid.nf == 401 and cfg.grid.nt == 3000 and cfg.grid.theta == 0.5
    assert cfg.mc.n_paths == 200_000 and cfg.mc.dt == 1e-3
    assert cfg.output_path is None


def test_file_values_override_defaults():
    text = """
    # settings for a slower pull
    rho = 0.5
    sigma = 0.2   # trailing comment
    nt = 100

    e-bar = 0.02
    """
    cfg = parse_config(text)
    assert cfg.params.rho == 0.5
    assert cfg.params.sigma == 0.2
    assert cfg.grid.nt == 100
    assert cfg.e_bar == 0.02


def test_flags_beat_file():
    cfg = parse_config("rho = 0.5", [("rho", "0.1")])
    assert cfg.params.rho == 0.1


def test_underscore_and_dash_keys_are_equivalent():
    assert parse_config("e_bar = 0.03").e_bar == 0.03
    assert parse_config("e-bar = 0.03").e_bar == 0.03


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="volatility"):
        parse_config("volatility = 0.1")
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("", [("gamma", "2")])
    # The band is symmetric about central parity, so mu is no setting.
    with pytest.raises(ConfigError, match="^mu: unknown key$"):
        parse_config("mu = 0")


def test_unparsable_number_names_the_key():
    with pytest.raises(ConfigError, match="rho"):
        parse_config("rho = fast")


def test_invariant_violation_names_the_key():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha = -1")
    with pytest.raises(ConfigError, match="nt"):
        parse_config("nt = 0")
    with pytest.raises(ConfigError, match="theta"):
        parse_config("theta = 2")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = -4")
    with pytest.raises(ConfigError, match="paths"):
        parse_config("paths = 50")
    with pytest.raises(ConfigError, match="paths"):
        parse_config("", [("paths", "1000000000000")])


def test_malformed_line_is_an_error():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("rho 0.5")


def test_rho_list_parsing():
    cfg = parse_config("rho-list = 1, 0.25,0.001")
    assert cfg.rho_list == (1.0, 0.25, 0.001)
    with pytest.raises(ConfigError, match="rho_list"):
        parse_config("rho_list = 1, -0.5")


def test_probe_point_keys():
    cfg = parse_config("f0 = 0.02\nt = 1.5")
    assert cfg.f0 == 0.02
    assert cfg.probe_t == 1.5
    with pytest.raises(ConfigError, match="t"):
        parse_config("t = -1")


def test_error_message_carries_key_attribute():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("alpha = -3")
    assert excinfo.value.key == "alpha"
