"""Strict JSON configuration for the CLI.

The config file carries four objects: ``detector``, ``noise``, ``source``
and ``run``. One table, ``_SCHEMA``, lists every numeric key. Unknown keys
are rejected at every level so typos cannot silently fall back to defaults.
Values use bench units (pF, mV, counts per hour); conversion to SI happens
here, at the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .detector import DetectorParams
from .noise import NoiseSpec
from .readout import RunConfig
from .source import PulseConfig


class ConfigError(ValueError):
    """Invalid or malformed configuration."""


@dataclass(frozen=True, kw_only=True)
class CliConfig(RunConfig):
    """The run a config file describes, with the JSON document it was read from."""

    raw: dict


def default_config_path() -> Path:
    """Path of the bundled config reproducing the reference device."""
    return Path(resources.files("cipdsim").joinpath("data/default_config.json"))


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(sorted(missing))}")


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    try:
        value = float(v)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    # json parses the non-standard literals Infinity and NaN
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be a finite number, got {v!r}")
    return value


#: Every numeric key of the config, by section and, for noise, by the mode
#: that uses it: JSON key -> (dataclass field, conversion from bench units to
#: SI, required). ``float`` marks a value already in SI units.
_SCHEMA = {
    ("detector", None): {
        "c_input_pf": ("c_input", lambda pf: pf * 1e-12, True),
        "g_m": ("g_m", float, True),
        "eta_q": ("eta_q", float, True),
        "eta_c": ("eta_c", float, True),
        "leakage_per_hour": ("leakage_rate", lambda per_hour: per_hour / 3600.0, True),
        "reset_threshold_mv": ("reset_threshold", lambda mv: mv * 1e-3, True),
    },
    ("noise", "direct"): {"sigma_e": ("sigma_e_direct", float, True)},
    ("noise", "psd"): {
        "s_white_v2hz": ("s_white", float, True),
        "a_pink_v2": ("a_pink", float, True),
        "f_cutoff_hz": ("f_cutoff", float, False),
        "delta_t_cds_s": ("delta_t_cds", float, False),
        "f_min_hz": ("f_min", float, False),
    },
    ("source", None): {
        "mean_photons": ("mean_photons_at_fiber", float, True),
        "pulse_width_s": ("pulse_width", float, False),
        "rep_rate_hz": ("rep_rate", float, False),
    },
}

#: Section of every numeric config key: the keys ``sweep`` can vary.
KEY_SECTIONS = {key: section for (section, _), keys in _SCHEMA.items() for key in keys}

_NOISE_MODES = tuple(mode for section, mode in _SCHEMA if section == "noise")


def _build(cls, section: str, obj: dict, keys: dict, **fixed):
    """``cls`` from the ``keys`` of ``obj``, each converted to SI units.

    ``fixed`` holds fields already read from ``obj`` (the noise ``mode``).
    """
    required = {key for key, (_, _, needed) in keys.items() if needed}
    _require_keys(obj, {*keys, *fixed}, required, section)
    values = {
        field: to_si(_number(obj, key, section))
        for key, (field, to_si, _) in keys.items()
        if key in obj
    }
    try:
        return cls(**fixed, **values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _parse_noise(obj: dict) -> NoiseSpec:
    known = {"mode"}.union(*(_SCHEMA["noise", m] for m in _NOISE_MODES))
    _require_keys(obj, known, {"mode"}, "noise")
    mode = obj["mode"]
    if mode not in _NOISE_MODES:
        modes = " or ".join(map(repr, _NOISE_MODES))
        raise ConfigError(f"noise.mode must be {modes}, got {mode!r}")
    keys = _SCHEMA["noise", mode]
    # a key the mode ignores would silently leave the noise unchanged
    unused = set(obj) - {"mode"} - set(keys)
    if unused:
        raise ConfigError(
            f"noise key(s) not used in {mode} mode: {', '.join(sorted(unused))}"
        )
    return _build(NoiseSpec, "noise", obj, keys, mode=mode)


def parse_config(raw: dict) -> CliConfig:
    """Validate a loaded JSON document into a CliConfig."""
    _require_keys(
        raw,
        {"detector", "noise", "source", "run"},
        {"detector", "noise"},
        "config",
    )
    detector = _build(
        DetectorParams, "detector", raw["detector"], _SCHEMA["detector", None]
    )
    noise = _parse_noise(raw["noise"])
    source = None
    if raw.get("source") is not None:
        source = _build(PulseConfig, "source", raw["source"], _SCHEMA["source", None])

    run = raw.get("run", {})
    if run is None:
        run = {}
    _require_keys(run, {"n_frames", "seed"}, set(), "run")
    n_frames = run.get("n_frames", 700)
    seed = run.get("seed", 0)
    if isinstance(n_frames, bool) or not isinstance(n_frames, int):
        raise ConfigError(f"run.n_frames must be an integer, got {n_frames!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"run.seed must be an integer, got {seed!r}")
    try:
        return CliConfig(n_frames=n_frames, detector=detector, noise=noise,
                         source=source, seed=seed, raw=raw)
    except ValueError as exc:  # the run's range, as RunConfig checks it
        raise ConfigError(f"run.{exc}") from exc


def load_config(path) -> CliConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)
