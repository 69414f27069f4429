import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipdsim import (ConfigError, NoiseSpec, PulseConfig, cli, default_config_path,
                     load_config)
from cipdsim.config import KEY_SECTIONS, CliConfig, parse_config


@pytest.fixture
def raw_default():
    return json.loads(default_config_path().read_text())


def test_bundled_config_parses(raw_default):
    cfg = parse_config(raw_default)
    assert cfg.detector.c_input == pytest.approx(0.054e-12)
    assert cfg.detector.leakage_rate == pytest.approx(500.0 / 3600.0)
    assert cfg.detector.reset_threshold == pytest.approx(30e-3)
    assert cfg.noise.mode == "psd"
    assert cfg.source.rep_rate == 40.0
    assert cfg.n_frames == 700 and cfg.seed == 42


@pytest.mark.parametrize("section", ["detector", "noise", "source"])
def test_unknown_keys_rejected_per_section(raw_default, section):
    raw_default[section]["mystery"] = 1.0
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(raw_default)


def test_unknown_top_level_key_rejected(raw_default):
    raw_default["extras"] = {}
    with pytest.raises(ConfigError, match="extras"):
        parse_config(raw_default)


@pytest.mark.parametrize(
    "section, value",
    [("detector", "x"), ("noise", 5), ("source", []), ("run", [1])],
)
def test_non_object_section_rejected(raw_default, section, value):
    raw_default[section] = value
    with pytest.raises(ConfigError, match=f"^{section} must be a JSON object$"):
        parse_config(raw_default)


@pytest.mark.parametrize("raw", [[1], "x", 5, None])
def test_non_object_config_rejected(raw):
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        parse_config(raw)


def test_missing_required_keys(raw_default):
    del raw_default["detector"]["g_m"]
    with pytest.raises(ConfigError, match="g_m"):
        parse_config(raw_default)


def test_direct_noise_mode(raw_default):
    raw_default["noise"] = {"mode": "direct", "sigma_e": 0.26}
    cfg = parse_config(raw_default)
    assert cfg.noise.mode == "direct"
    assert cfg.noise.sigma_e_direct == 0.26


def test_direct_mode_requires_sigma(raw_default):
    raw_default["noise"] = {"mode": "direct"}
    with pytest.raises(ConfigError, match="sigma_e"):
        parse_config(raw_default)


def test_psd_mode_rejects_sigma_e(raw_default):
    raw_default["noise"]["sigma_e"] = 0.3
    with pytest.raises(ConfigError) as err:
        parse_config(raw_default)
    assert "sigma_e" in str(err.value) and "psd mode" in str(err.value)


@pytest.mark.parametrize(
    "key", ["s_white_v2hz", "a_pink_v2", "f_cutoff_hz", "delta_t_cds_s", "f_min_hz"]
)
def test_direct_mode_rejects_psd_keys(raw_default, key):
    raw_default["noise"] = {"mode": "direct", "sigma_e": 0.26, key: 1e-3}
    with pytest.raises(ConfigError) as err:
        parse_config(raw_default)
    assert key in str(err.value) and "direct mode" in str(err.value)


def test_absent_source_is_dark(raw_default):
    raw_default["source"] = None
    cfg = parse_config(raw_default)
    assert cfg.source is None


def test_absent_run_uses_defaults(raw_default):
    del raw_default["run"]
    cfg = parse_config(raw_default)
    assert cfg.n_frames == 700 and cfg.seed == 0


def test_non_numeric_value_rejected(raw_default):
    raw_default["detector"]["g_m"] = "one"
    with pytest.raises(ConfigError, match="g_m"):
        parse_config(raw_default)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400])
@pytest.mark.parametrize(
    "section, key", [("detector", "leakage_per_hour"), ("noise", "a_pink_v2"),
                     ("source", "mean_photons")]
)
def test_non_finite_value_rejected(raw_default, section, key, value):
    raw_default[section][key] = value
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be a finite number"):
        parse_config(raw_default)


def test_invariant_violation_names_field(raw_default):
    raw_default["detector"]["eta_q"] = 1.5
    with pytest.raises(ConfigError, match="eta_q"):
        parse_config(raw_default)


def test_output_section(raw_default):
    for output in ({"timestamp": False}, {"dir": "results"}):
        raw_default["output"] = output
        with pytest.raises(ConfigError, match="^unknown key\\(s\\) in config: output$"):
            parse_config(raw_default)



def test_units_convert_to_si_exactly(raw_default):
    det = parse_config(raw_default).detector
    assert det.c_input == 0.054 * 1e-12
    assert det.leakage_rate == 500.0 / 3600.0
    assert det.reset_threshold == 30.0 * 1e-3


def test_optional_keys_take_dataclass_defaults(raw_default):
    for key in ("pulse_width_s", "rep_rate_hz"):
        del raw_default["source"][key]
    for key in ("f_cutoff_hz", "delta_t_cds_s", "f_min_hz"):
        del raw_default["noise"][key]
    cfg = parse_config(raw_default)
    assert cfg.source == PulseConfig(mean_photons_at_fiber=1.6731)
    assert cfg.noise == NoiseSpec.psd(
        raw_default["noise"]["s_white_v2hz"], raw_default["noise"]["a_pink_v2"]
    )


def test_numeric_keys_by_section():
    assert KEY_SECTIONS == {
        **dict.fromkeys(
            ["c_input_pf", "g_m", "eta_q", "eta_c", "leakage_per_hour",
             "reset_threshold_mv"],
            "detector",
        ),
        **dict.fromkeys(
            ["sigma_e", "s_white_v2hz", "a_pink_v2", "f_cutoff_hz", "delta_t_cds_s",
             "f_min_hz"],
            "noise",
        ),
        **dict.fromkeys(["mean_photons", "pulse_width_s", "rep_rate_hz"], "source"),
    }


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "none.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p)


#: 0 and finite numbers at the ends of the float range: subnormals and +-1e+-300
_EXTREME_VALUES = [0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e300, -1e300]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(_EXTREME_VALUES)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
_DEFAULT = json.loads(default_config_path().read_text())
_TARGETS = [(section,) for section in _DEFAULT] + [
    (section, key) for section, obj in _DEFAULT.items() for key in obj
]


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(_TARGETS), value=JSON)
def test_arbitrary_json_parses_or_raises_config_error(target, value):
    """One section or key of the bundled config replaced by any JSON value."""
    raw = json.loads(json.dumps(_DEFAULT))
    obj = raw
    for name in target[:-1]:
        obj = obj[name]
    obj[target[-1]] = value
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, CliConfig)


_SECTIONS = [target for target in _TARGETS if len(target) == 1]


@settings(max_examples=100, deadline=None)
@given(section=st.sampled_from(_SECTIONS), value=JSON)
def test_cli_answers_an_arbitrary_json_section(tmp_path_factory, section, value):
    """The CLI's half of the boundary: exit 1 and one JSON line, or a result."""
    raw = json.loads(json.dumps(_DEFAULT))
    raw[section[0]] = value
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["snr", "--config", str(path)])
    try:
        parse_config(raw)
    except ConfigError as exc:
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0]) == {"code": 1, "message": str(exc)}
    else:
        assert code == 0 and err.getvalue() == ""


#: the bundled config and the same with direct noise, so that every numeric
#: key of the schema appears in one of them
_BASES = {"psd": _DEFAULT,
          "direct": {**_DEFAULT, "noise": {"mode": "direct", "sigma_e": 0.26}}}


def _numeric_keys(base):
    return [(section, key) for section, obj in base.items()
            for key, value in obj.items() if isinstance(value, (int, float))]


def assert_cli_answers(tmp_path, base, values):
    """``snr`` answers, or exits 1 or 2 with one JSON line; no exception escapes."""
    raw = json.loads(json.dumps(base))
    for (section, key), value in values.items():
        raw[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["snr", "--config", str(path)])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code in (1, 2) and len(lines) == 1, (code, lines)
        assert json.loads(lines[0])["code"] == code


@pytest.mark.parametrize("mode", sorted(_BASES))
def test_cli_answers_an_extreme_number(tmp_path, mode):
    """Each numeric key set to 0 and to each end of the float range in turn."""
    for target in _numeric_keys(_BASES[mode]):
        for value in _EXTREME_VALUES:
            assert_cli_answers(tmp_path, _BASES[mode], {target: value})


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(sorted(_BASES)), data=st.data())
def test_cli_answers_extreme_numbers(tmp_path_factory, mode, data):
    """Two or three numeric keys set to 0 or to the ends of the float range."""
    values = data.draw(st.dictionaries(st.sampled_from(_numeric_keys(_BASES[mode])),
                                       st.sampled_from(_EXTREME_VALUES),
                                       min_size=2, max_size=3))
    assert_cli_answers(tmp_path_factory.mktemp("cfg"), _BASES[mode], values)
