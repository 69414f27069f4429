"""Frame-loop simulation of the charge-integration readout.

Each frame accumulates photo-carriers and leakage electrons on the gate
node, reports the CDS difference for the frame (carriers added plus
Gaussian read noise, in electrons), and resets the node once the
accumulated output voltage reaches the follower's threshold.

Randomness is counter-based: the draw for frame ``i`` depends only on
``(seed, stream, i)``, where each stream keys an independent Philox
sequence and frame ``i`` consumes exactly the ``i``-th 64-bit word of that
sequence. Workers can therefore produce any frame range independently and
bit-identically to a serial run; only the accumulate/reset pass is a
sequential reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .detector import DetectorParams, volts_per_carrier
from .noise import NoiseSpec, cds_sigma
from .source import PulseConfig, mean_carriers

#: Stream constants mixed into the Philox key alongside the run seed.
STREAM_SIGNAL = 0x51
STREAM_LEAKAGE = 0x1E
STREAM_NOISE = 0xC5

#: Frame rate assumed for dark runs (no source configured).
DARK_FRAME_RATE = 40.0


@dataclass(frozen=True)
class RunConfig:
    """Inputs of one simulated acquisition run."""

    n_frames: int
    detector: DetectorParams
    noise: NoiseSpec
    source: PulseConfig | None = None   # absent = dark run
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n_frames >= 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned int, got {self.seed}")


@dataclass(frozen=True)
class FrameRun:
    """Result of :func:`simulate_run`: per-frame columns plus the config."""

    config: RunConfig
    true_carriers: np.ndarray        # uint64, photo-carriers per frame
    leakage_carriers: np.ndarray     # uint64, leakage draws per frame
    accumulated_carriers: np.ndarray  # int64, gate charge before any reset
    measured_delta_e: np.ndarray     # float, CDS difference in electrons
    reset: np.ndarray                # bool
    sigma_e_used: float

    def __len__(self) -> int:
        return len(self.measured_delta_e)


def frame_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) draws for frames ``start .. start+count-1``.

    The value for frame ``i`` is word ``i`` of the Philox keystream keyed by
    ``(seed, stream)``, mapped to a double the way numpy maps raw words to
    uniforms. Philox advances its 256-bit counter once per 4 output words,
    so any range can be generated without producing the prefix.
    """
    bg = np.random.Philox(key=[np.uint64(seed), np.uint64(stream)])
    if start // 4:
        bg.advance(start // 4)
    skip = start % 4
    raw = bg.random_raw(skip + count)
    return (raw[skip:] >> np.uint64(11)) * 2.0**-53


def _poisson_cdf_table(mu: float) -> np.ndarray:
    """Poisson CDF table covering all but < 1e-15 of the upper tail."""
    if mu <= 0:
        return np.ones(1)
    kmax = int(mu + 12.0 * np.sqrt(mu) + 20.0)
    cdf = special.pdtr(np.arange(kmax + 1), mu)
    while 1.0 - cdf[-1] > 1e-15:
        kmax *= 2
        cdf = special.pdtr(np.arange(kmax + 1), mu)
    return cdf


def _poisson_from_uniforms(mu: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF Poisson draws from per-frame uniforms."""
    if mu <= 0:
        return np.zeros(u.shape, dtype=np.uint64)
    cdf = _poisson_cdf_table(mu)
    k = np.searchsorted(cdf, u, side="left")
    return np.minimum(k, len(cdf) - 1).astype(np.uint64)


def _gaussian_from_uniforms(sigma: float, u: np.ndarray) -> np.ndarray:
    """Zero-mean Gaussian draws from per-frame uniforms via the normal ppf."""
    if sigma == 0:
        return np.zeros(u.shape)
    return sigma * special.ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))


def simulate_run(cfg: RunConfig) -> FrameRun:
    """Simulate ``cfg.n_frames`` frames of accumulate / CDS-read / reset.

    Per frame: photo-carriers (Poisson with the source's mean carriers; zero
    for dark runs) and leakage electrons (Poisson with the leakage rate per
    frame period) land on the gate node; the reported CDS difference is the
    carriers added this frame plus Gaussian read noise of std dev
    ``cds_sigma(noise, detector)``; when the accumulated charge's output
    voltage reaches ``reset_threshold`` the frame is flagged and the node is
    cleared after the measurement. Deterministic for a fixed seed.

    Dark runs (no source) assume the default 40 Hz frame rate for the
    leakage accumulation; configure a source with zero mean photons to run
    dark at another rate.
    """
    det = cfg.detector
    n = cfg.n_frames
    sigma_e = cds_sigma(cfg.noise, det)

    if cfg.source is not None:
        mean_c = mean_carriers(cfg.source, det)
        frame_rate = cfg.source.rep_rate
    else:
        mean_c = 0.0
        frame_rate = DARK_FRAME_RATE
    lam_leak = det.leakage_rate / frame_rate

    true_c = _poisson_from_uniforms(
        mean_c, frame_uniforms(cfg.seed, STREAM_SIGNAL, 0, n)
    )
    leak_c = _poisson_from_uniforms(
        lam_leak, frame_uniforms(cfg.seed, STREAM_LEAKAGE, 0, n)
    )
    noise_e = _gaussian_from_uniforms(
        sigma_e, frame_uniforms(cfg.seed, STREAM_NOISE, 0, n)
    )

    added = (true_c + leak_c).astype(np.int64)
    measured = added + noise_e

    # Sequential reduction: segment the cumulative charge at reset frames.
    # searchsorted locates the candidate cheaply; the +-1 fix-ups apply the
    # authoritative voltage comparison so float rounding in the division
    # cannot contradict the reset invariant.
    cum = np.cumsum(added)
    vpc = volts_per_carrier(det)
    threshold_v = det.reset_threshold
    reset = np.zeros(n, dtype=bool)
    accumulated = np.empty(n, dtype=np.int64)
    seg_start = 0
    offset = 0
    while seg_start < n:
        j = int(np.searchsorted(cum, offset + threshold_v / vpc, side="left"))
        j = max(j, seg_start)
        while j < n and (cum[j] - offset) * vpc < threshold_v:
            j += 1
        while j > seg_start and (cum[j - 1] - offset) * vpc >= threshold_v:
            j -= 1
        if j >= n:
            accumulated[seg_start:] = cum[seg_start:] - offset
            break
        accumulated[seg_start : j + 1] = cum[seg_start : j + 1] - offset
        reset[j] = True
        offset = int(cum[j])
        seg_start = j + 1

    return FrameRun(
        config=cfg,
        true_carriers=true_c,
        leakage_carriers=leak_c,
        accumulated_carriers=accumulated,
        measured_delta_e=measured,
        reset=reset,
        sigma_e_used=sigma_e,
    )


def extract_events(run: FrameRun) -> np.ndarray:
    """Per-pulse carrier values (electrons) of all non-reset frames, in order.

    Reset frames are disturbed by the probe and dropped rather than
    corrected.
    """
    return run.measured_delta_e[~run.reset]


def frames_to_csv(run: FrameRun, path) -> None:
    """Write the per-frame record stream as CSV (LF line endings)."""
    lines = [
        "frame_index,true_carriers,leakage_carriers,"
        "accumulated_carriers,measured_delta_e,reset"
    ]
    for i in range(len(run)):
        lines.append(
            f"{i},{int(run.true_carriers[i])},{int(run.leakage_carriers[i])},"
            f"{int(run.accumulated_carriers[i])},"
            f"{float(run.measured_delta_e[i])!r},{int(run.reset[i])}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
