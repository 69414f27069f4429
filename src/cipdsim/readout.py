"""Frame-loop simulation of the charge-integration readout.

Each frame accumulates photo-carriers and leakage electrons on the gate
node, reports the CDS difference for the frame (carriers added plus
Gaussian read noise, in electrons), and resets the node once the
accumulated output voltage reaches the follower's threshold.

Randomness is counter-based: the draw for frame ``i`` depends only on
``(seed, stream, i)``, where each stream keys an independent Philox
sequence and frame ``i`` consumes exactly the ``i``-th 64-bit word of that
sequence. Workers can therefore produce any frame range independently and
bit-identically to a serial run.

The accumulate/reset pass is the one sequential step. The voltage test
``charge * volts_per_carrier >= reset_threshold`` is turned once into an
exact integer carrier threshold ``k``. Since a reset clears the charge
accumulated so far, the reset after one at frame ``i`` is the first frame
whose cumulative charge reaches ``cum[i] + k``. A single searchsorted
builds that successor for every frame, and the resets are the successor
path from the first one, followed by pointer doubling in whole-array
steps, so the pass costs O(n log n) rather than a search per reset.
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

#: A Poisson sampling table (one float64 per carrier count) must stay below
#: this many bytes.
_MAX_TABLE_BYTES = 1 << 28


@dataclass(frozen=True)
class RunConfig:
    """Inputs of one simulated acquisition run."""

    n_frames: int
    detector: DetectorParams
    noise: NoiseSpec
    source: PulseConfig | None = None   # absent = PulseConfig(0.0), a dark run
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


def _poisson_cdf_table(mu: float, name: str) -> np.ndarray:
    """Poisson CDF table covering all but < 1e-15 of the upper tail.

    Refuses, before allocating, a table of ``_MAX_TABLE_BYTES`` or more, with
    a ``ValueError`` naming ``name``, the parameter that set the mean ``mu``.
    The table is the only array the call holds: it is built in place on a
    float grid (``pdtr`` computes in doubles), and a table too short is
    freed before the next one, twice as long, is built.
    """
    # capped so that a huge or infinite mean still fails the size check
    kmax = int(min(mu + 12.0 * np.sqrt(mu) + 20.0, _MAX_TABLE_BYTES // 8))
    while True:
        if (kmax + 1) * 8 >= _MAX_TABLE_BYTES:
            raise ValueError(
                f"{name} gives a Poisson mean of {mu:.6g} carriers per frame; "
                f"its sampling table would reach the limit of {_MAX_TABLE_BYTES} bytes"
            )
        cdf = np.arange(kmax + 1.0)
        special.pdtr(cdf, mu, out=cdf)
        if 1.0 - cdf[-1] <= 1e-15:
            return cdf
        del cdf
        kmax *= 2


def _poisson_from_uniforms(mu: float, u: np.ndarray, name: str) -> np.ndarray:
    """Inverse-CDF Poisson draws from per-frame uniforms.

    ``name`` is the parameter that sets ``mu``, for the table-size error.
    """
    if mu <= 0:
        return np.zeros(u.shape, dtype=np.uint64)
    cdf = _poisson_cdf_table(mu, name)
    k = np.searchsorted(cdf, u, side="left")
    return np.minimum(k, len(cdf) - 1).astype(np.uint64)


def _gaussian_from_uniforms(sigma: float, u: np.ndarray) -> np.ndarray:
    """Zero-mean Gaussian draws from per-frame uniforms via the normal ppf."""
    if sigma == 0:
        return np.zeros(u.shape)
    return sigma * special.ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))


def _carrier_threshold(vpc: float, threshold_v: float, top: int) -> int:
    """Smallest carrier count ``k >= 1`` with ``k * vpc >= threshold_v``.

    The float comparison is the reset invariant itself, and ``x * vpc`` is
    monotone in ``x``, so the rounded quotient only needs +-1 fix-ups.
    Capped at ``top + 1``: no charge above ``top`` occurs, so the cap
    changes no reset and keeps an ``inf`` threshold finite.
    """
    k = int(min(np.ceil(threshold_v / vpc), top + 1))
    while k > 1 and (k - 1) * vpc >= threshold_v:
        k -= 1
    while k <= top and k * vpc < threshold_v:
        k += 1
    return k


def _reset_reduction(
    cum: np.ndarray, vpc: float, threshold_v: float
) -> tuple[np.ndarray, np.ndarray]:
    """Reset flags and gate charge from the cumulative charge ``cum``.

    Frame ``j`` resets when its charge since the last reset reaches the
    integer threshold ``k``. A reset at ``i`` clears ``cum[i]``, so the next
    one is the first ``j`` with ``cum[j] >= cum[i] + k``: one searchsorted
    over the int64 array gives that successor for every frame at once,
    and the resets are the successor path from the first one.

    The path is followed by pointer doubling rather than one Python step
    per reset: each round appends the next ``len(path)`` resets with one
    gather and squares the jump table, so ``log2(resets)`` rounds of
    whole-array work replace a scalar loop whose cost grows with the
    reset count. Frame ``n`` is a sink past the last frame.
    """
    n = cum.size
    top = int(cum[-1])
    k = _carrier_threshold(vpc, threshold_v, top)
    reset = np.zeros(n, dtype=bool)
    if top < k:
        return reset, cum
    jump = np.empty(n + 1, dtype=np.int64)
    jump[:n] = np.searchsorted(cum, cum + k, side="left")
    jump[n] = n
    # after m rounds: path = the first 2**m resets (n past the last one),
    # jump = successor applied 2**m times
    path = np.searchsorted(cum, [k], side="left")
    while path[-1] < n:
        path = np.concatenate((path, jump[path]))
        jump = jump[jump]
    path = path[: np.searchsorted(path, n)]
    reset[path] = True
    # resets strictly before each frame select the charge cleared so far
    cleared = np.concatenate(([0], cum[path]))
    return reset, cum - cleared[np.cumsum(reset) - reset]


def simulate_run(cfg: RunConfig) -> FrameRun:
    """Simulate ``cfg.n_frames`` frames of accumulate / CDS-read / reset.

    Per frame: photo-carriers (Poisson with the source's mean carriers) and
    leakage electrons (Poisson with the leakage rate per frame period) land
    on the gate node; the reported CDS difference is the carriers added this
    frame plus Gaussian read noise of std dev ``cds_sigma(noise, detector)``;
    when the accumulated charge's output voltage reaches ``reset_threshold``
    the frame is flagged and the node is cleared after the measurement.
    Deterministic for a fixed seed.

    A dark run is a source with zero mean photons, which integrates leakage
    at that source's frame rate; no source means ``PulseConfig(0.0)``, the
    default 40 Hz. A mean whose Poisson sampling table would reach
    ``_MAX_TABLE_BYTES`` raises ``ValueError`` naming
    ``mean_photons_at_fiber`` or ``leakage_rate``.
    """
    det = cfg.detector
    n = cfg.n_frames
    sigma_e = cds_sigma(cfg.noise, det)
    source = cfg.source if cfg.source is not None else PulseConfig(0.0)

    true_c = _poisson_from_uniforms(
        mean_carriers(source, det),
        frame_uniforms(cfg.seed, STREAM_SIGNAL, 0, n),
        "mean_photons_at_fiber",
    )
    leak_c = _poisson_from_uniforms(
        det.leakage_rate / source.rep_rate,
        frame_uniforms(cfg.seed, STREAM_LEAKAGE, 0, n),
        "leakage_rate",
    )
    noise_e = _gaussian_from_uniforms(
        sigma_e, frame_uniforms(cfg.seed, STREAM_NOISE, 0, n)
    )

    added = (true_c + leak_c).astype(np.int64)
    measured = added + noise_e

    # exact integer threshold plus successor table: O(n log n)
    reset, accumulated = _reset_reduction(
        np.cumsum(added), volts_per_carrier(det), det.reset_threshold
    )

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


def write_table(path, header, *columns) -> None:
    """Write ``columns`` under ``header``: the format of every CSV cipdsim writes.

    A float ndarray column holds the shortest decimal that round-trips each
    double (``repr``; Steele & White 1990, Gay 1990), any other column
    decimal integers (``%d``). Cells are joined by ``,``; every line, the
    header too, ends in LF.
    """
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    fmt = ",".join("%r" if f else "%d" for f in floats) + "\n"
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([fmt % row for row in rows]))


def frames_to_csv(run: FrameRun, path) -> None:
    """Write the per-frame record stream as a :func:`write_table` CSV."""
    header = ("frame_index", "true_carriers", "leakage_carriers",
              "accumulated_carriers", "measured_delta_e", "reset")
    write_table(path, header, range(len(run)), run.true_carriers, run.leakage_carriers,
                run.accumulated_carriers, run.measured_delta_e, run.reset)
