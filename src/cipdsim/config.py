"""Strict JSON configuration for the CLI.

The config file carries four objects (``detector``, ``noise``, ``source``,
``run``) plus an optional ``output`` object. Unknown keys are rejected at
every level so typos cannot silently fall back to defaults. Values use
bench units (pF, mV, counts per hour); conversion to SI happens here, at
the boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .detector import DetectorParams
from .noise import NoiseSpec
from .source import PulseConfig


class ConfigError(ValueError):
    """Invalid or malformed configuration."""


@dataclass(frozen=True)
class CliConfig:
    detector: DetectorParams
    noise: NoiseSpec
    source: PulseConfig | None
    n_frames: int
    seed: int
    out_dir: str | None
    timestamp: bool
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
    return float(v)


def _parse_detector(obj: dict) -> DetectorParams:
    keys = {"c_input_pf", "g_m", "eta_q", "eta_c", "leakage_per_hour", "reset_threshold_mv"}
    _require_keys(obj, keys, keys, "detector")
    try:
        return DetectorParams(
            c_input=_number(obj, "c_input_pf", "detector") * 1e-12,
            g_m=_number(obj, "g_m", "detector"),
            eta_q=_number(obj, "eta_q", "detector"),
            eta_c=_number(obj, "eta_c", "detector"),
            leakage_rate=_number(obj, "leakage_per_hour", "detector") / 3600.0,
            reset_threshold=_number(obj, "reset_threshold_mv", "detector") * 1e-3,
        )
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from exc


#: NoiseSpec field behind each noise key, by the mode that uses the key.
_NOISE_FIELDS = {
    "direct": {"sigma_e": "sigma_e_direct"},
    "psd": {
        "s_white_v2hz": "s_white",
        "a_pink_v2": "a_pink",
        "f_cutoff_hz": "f_cutoff",
        "delta_t_cds_s": "delta_t_cds",
        "f_min_hz": "f_min",
    },
}
_NOISE_REQUIRED = {"direct": {"sigma_e"}, "psd": {"s_white_v2hz", "a_pink_v2"}}


def _parse_noise(obj: dict) -> NoiseSpec:
    known = {"mode"}.union(*_NOISE_FIELDS.values())
    _require_keys(obj, known, {"mode"}, "noise")
    mode = obj["mode"]
    if mode not in ("direct", "psd"):
        raise ConfigError(f"noise.mode must be 'direct' or 'psd', got {mode!r}")
    fields = _NOISE_FIELDS[mode]
    # a key the mode ignores would silently leave the noise unchanged
    unused = set(obj) - {"mode"} - set(fields)
    if unused:
        raise ConfigError(
            f"noise key(s) not used in {mode} mode: {', '.join(sorted(unused))}"
        )
    _require_keys(obj, known, _NOISE_REQUIRED[mode], "noise")
    try:
        return NoiseSpec(
            mode=mode,
            **{f: _number(obj, key, "noise") for key, f in fields.items() if key in obj},
        )
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _parse_source(obj: dict) -> PulseConfig:
    allowed = {"mean_photons", "pulse_width_s", "rep_rate_hz"}
    _require_keys(obj, allowed, {"mean_photons"}, "source")
    defaults = PulseConfig.__dataclass_fields__
    try:
        return PulseConfig(
            mean_photons_at_fiber=_number(obj, "mean_photons", "source"),
            pulse_width=_number(obj, "pulse_width_s", "source")
            if "pulse_width_s" in obj else defaults["pulse_width"].default,
            rep_rate=_number(obj, "rep_rate_hz", "source")
            if "rep_rate_hz" in obj else defaults["rep_rate"].default,
        )
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from exc


def parse_config(raw: dict) -> CliConfig:
    """Validate a loaded JSON document into a CliConfig."""
    _require_keys(
        raw,
        {"detector", "noise", "source", "run", "output"},
        {"detector", "noise"},
        "config",
    )
    detector = _parse_detector(raw["detector"])
    noise = _parse_noise(raw["noise"])
    source = None
    if raw.get("source") is not None:
        source = _parse_source(raw["source"])

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
    if n_frames < 1:
        raise ConfigError(f"run.n_frames must be >= 1, got {n_frames}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"run.seed must be a 64-bit unsigned int, got {seed}")

    output = raw.get("output", {})
    if output is None:
        output = {}
    _require_keys(output, {"dir", "timestamp"}, set(), "output")
    out_dir = output.get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"output.dir must be a string, got {out_dir!r}")
    timestamp = output.get("timestamp", True)
    if not isinstance(timestamp, bool):
        raise ConfigError(f"output.timestamp must be a boolean, got {timestamp!r}")

    return CliConfig(
        detector=detector,
        noise=noise,
        source=source,
        n_frames=n_frames,
        seed=seed,
        out_dir=out_dir,
        timestamp=timestamp,
        raw=raw,
    )


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
