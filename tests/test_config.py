import pytest

from swemix.config import _KEY_TYPES, load_config, parse_text
from swemix.errors import (
    ConfigParseError,
    InvalidValueError,
    MissingConfigError,
    UnknownKeyError,
)

MINIMAL = """
# minimal run setup
case.name = standing_wave
time.dt = 0.01
time.t_final = 0.1
"""


def test_minimal_config_fills_defaults():
    cfg = parse_text(MINIMAL)
    assert cfg.case.name == "standing_wave"
    assert cfg.disc.tau is None  # resolved to sqrt(phi_bar) by the solver bank
    assert cfg.solver.backend == "direct"
    assert cfg.mesh.nx == 16 and cfg.mesh.ny == 16
    assert cfg.time.scheme == "ars222"
    assert cfg.output.csv_series is True


def test_unknown_key_is_named():
    with pytest.raises(UnknownKeyError) as err:
        parse_text(MINIMAL + "time.dtt = 0.1\n")
    assert "time.dtt" in str(err.value)


def test_zero_dt_rejected():
    with pytest.raises(InvalidValueError):
        parse_text("case.name = lake_at_rest\ntime.dt = 0\ntime.t_final = 1\n")


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigParseError) as err:
        parse_text("case.name = lake_at_rest\nnonsense line\n")
    assert err.value.line_number == 2


def test_duplicate_key_rejected():
    with pytest.raises(ConfigParseError):
        parse_text(MINIMAL + "time.dt = 0.02\n")


def test_missing_required_key():
    with pytest.raises(InvalidValueError) as err:
        parse_text("case.name = lake_at_rest\ntime.dt = 0.1\n")
    assert "t_final" in str(err.value)


def test_missing_file():
    with pytest.raises(MissingConfigError):
        load_config("/nonexistent/path/run.cfg")


def test_names_resolve_at_load_time():
    with pytest.raises(InvalidValueError):
        parse_text("case.name = vortex\ntime.dt = 0.1\ntime.t_final = 1\n")
    with pytest.raises(InvalidValueError):
        parse_text(MINIMAL + "time.scheme = rk9\n")
    with pytest.raises(InvalidValueError):
        parse_text(MINIMAL + "solver.backend = magma\n")


def test_value_parsing():
    cfg = parse_text(MINIMAL + "case.linear_mode = true\nmesh.nx = 8\ndisc.tau = 2.5\n")
    assert cfg.case.linear_mode is True
    assert cfg.mesh.nx == 8
    assert cfg.disc.tau == 2.5
    with pytest.raises(InvalidValueError):
        parse_text(MINIMAL + "mesh.nx = eight\n")
    with pytest.raises(InvalidValueError):
        parse_text(MINIMAL + "case.linear_mode = si\n")


def test_loads_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + "output.dir = " + str(tmp_path / "out") + "\n")
    cfg = load_config(str(path))
    assert cfg.output.dir.endswith("out")


def test_t_final_must_be_whole_steps():
    with pytest.raises(InvalidValueError) as err:
        parse_text("case.name = lake_at_rest\ntime.dt = 0.3\ntime.t_final = 0.5\n")
    assert "0.3" in str(err.value) and "0.5" in str(err.value)
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: still three steps
    assert parse_text("case.name = lake_at_rest\ntime.dt = 0.1\ntime.t_final = 0.3\n").time.t_final == 0.3


def test_step_count_that_overflows_is_rejected():
    # 1e300 / 1e-300 is inf: a config error, not an OverflowError from round
    with pytest.raises(InvalidValueError, match=r"time\.t_final: t_final / dt overflows: 1e\+300 / 1e-300"):
        parse_text("case.name = lake_at_rest\ntime.dt = 1e-300\ntime.t_final = 1e300\n")


def test_cross_field_validation():
    with pytest.raises(InvalidValueError):
        parse_text("case.name = lake_at_rest\ntime.dt = 0.5\ntime.t_final = 0.1\n")
    with pytest.raises(InvalidValueError):
        parse_text(MINIMAL + "disc.order = 9\n")
    with pytest.raises(InvalidValueError):
        parse_text(MINIMAL + "physics.phi_bar = -1\n")


@pytest.mark.parametrize("key", ["nx", "ny"])
def test_nonpositive_element_count_names_its_key(key):
    with pytest.raises(InvalidValueError) as err:
        parse_text(MINIMAL + f"mesh.{key} = 0\n")
    assert err.value.key == f"mesh.{key}"


_FLOAT_KEYS = sorted(key for key, kind in _KEY_TYPES.items() if kind is float)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_float_names_its_key(key, value):
    given = {"case.name": "standing_wave", "time.dt": "0.01", "time.t_final": "0.1", key: value}
    text = "".join(f"{k} = {v}\n" for k, v in given.items())
    with pytest.raises(InvalidValueError) as err:
        parse_text(text)
    assert err.value.key == key
    assert "finite" in str(err.value)
