"""Charge-integration photon-detector simulator and mixture estimator."""

from .detector import (
    ELEMENTARY_CHARGE,
    DetectorParams,
    carriers_from_voltage,
    snr,
    snr_from_voltage,
    volts_per_carrier,
)
from .noise import NoiseSpec, QuadratureError, cds_sigma, psd_value
from .source import PulseConfig, mean_carriers, sample_photocarriers
from .readout import (
    FrameRun,
    RunConfig,
    extract_events,
    frame_uniforms,
    simulate_run,
)
from .estimation import (
    ConvergenceError,
    Histogram,
    InsufficientDataError,
    MixtureFit,
    build_histogram,
    classify,
    discrimination_error,
    estimate_qe,
    expected_bin_counts,
    fit_mixture,
    goodness_of_fit,
    histogram_peaks,
    log_likelihood,
    log_likelihood_grad,
    map_boundaries,
    mixture_density,
    sigma_from_dark,
)
from .config import CliConfig, ConfigError, default_config_path, load_config

__version__ = "0.1.0"

__all__ = [
    "ELEMENTARY_CHARGE",
    "DetectorParams",
    "carriers_from_voltage",
    "snr",
    "snr_from_voltage",
    "volts_per_carrier",
    "NoiseSpec",
    "QuadratureError",
    "cds_sigma",
    "psd_value",
    "PulseConfig",
    "mean_carriers",
    "sample_photocarriers",
    "FrameRun",
    "RunConfig",
    "extract_events",
    "frame_uniforms",
    "simulate_run",
    "ConvergenceError",
    "Histogram",
    "InsufficientDataError",
    "MixtureFit",
    "build_histogram",
    "classify",
    "discrimination_error",
    "estimate_qe",
    "expected_bin_counts",
    "fit_mixture",
    "goodness_of_fit",
    "histogram_peaks",
    "log_likelihood",
    "log_likelihood_grad",
    "map_boundaries",
    "mixture_density",
    "sigma_from_dark",
    "CliConfig",
    "ConfigError",
    "default_config_path",
    "load_config",
    "__version__",
]
