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

A run can be generated in chunks of frames (``simulate_chunks``) bit for
bit: the uniforms of any frame range come from the counters alone, and the
only value one chunk hands the next is the gate charge left at its end, the
charge since the last reset (0 after a reset on its last frame). The next
chunk adds that charge to its own cumulative charge, so its first reset is
the first frame whose charge reaches ``k``, exactly as in one pass over the
whole run, and ``k``'s cap by the chunk's largest charge (see
``_carrier_threshold``) changes no reset: a chunk whose charge cannot reach
``k`` has none. ``simulate_run`` is the one-chunk case.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress

import numpy as np
from scipy import special

from ._bounds import refuse_over_limit
from .detector import DetectorParams, volts_per_carrier
from .noise import NoiseSpec, cds_sigma
from .source import PulseConfig, mean_carriers

#: Stream constants mixed into the Philox key alongside the run seed.
STREAM_SIGNAL = 0x51
STREAM_LEAKAGE = 0x1E
STREAM_NOISE = 0xC5

#: Frames that :func:`simulate_chunks` generates at a time by default.
_CHUNK_FRAMES = 4096

#: The headers of the per-frame and the event tables of a run.
FRAMES_HEADER = ("frame_index", "true_carriers", "leakage_carriers",
                 "accumulated_carriers", "measured_delta_e", "reset")
EVENTS_HEADER = ("measured_delta_e",)


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
    """Result of :func:`simulate_run`, or one chunk of :func:`simulate_chunks`.

    Per-frame columns of frames ``first_frame .. first_frame + len - 1`` of
    the run ``config`` describes, plus the noise sigma.
    """

    config: RunConfig
    true_carriers: np.ndarray        # uint64, photo-carriers per frame
    leakage_carriers: np.ndarray     # uint64, leakage draws per frame
    accumulated_carriers: np.ndarray  # int64, gate charge before any reset
    measured_delta_e: np.ndarray     # float, CDS difference in electrons
    reset: np.ndarray                # bool
    sigma_e_used: float
    first_frame: int = 0

    def __len__(self) -> int:
        return len(self.measured_delta_e)


def frame_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) draws for frames ``start .. start+count-1``.

    The value for frame ``i`` is word ``i`` of the Philox keystream keyed by
    ``(seed, stream)``, mapped to a double the way numpy maps raw words to
    uniforms. Philox advances its 256-bit counter once per 4 output words,
    so any range can be generated without producing the prefix.
    """
    return _keyed_uniforms(np.random.Philox(0), seed, stream, start, count)


def _keyed_uniforms(bg, seed, stream, start, count):
    """:func:`frame_uniforms` drawn from the Philox bit generator ``bg``, re-keyed in place.

    Setting the state keys ``bg`` by ``(seed, stream)`` and sets its 256-bit
    counter to ``start // 4`` with an empty buffer: the state of
    ``Philox(key=[seed, stream])`` advanced by ``start // 4``, whose next
    block is the one that holds word ``start``. Re-keying costs a fraction
    of constructing a generator, so a run re-keys one for every stream of
    every chunk.
    """
    block = start // 4
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": [(block >> shift) & 0xFFFF_FFFF_FFFF_FFFF
                              for shift in (0, 64, 128, 192)],
                  "key": [np.uint64(seed), np.uint64(stream)]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    skip = start % 4
    raw = bg.random_raw(skip + count)
    return (raw[skip:] >> np.uint64(11)) * 2.0**-53


def _poisson_cdf_table(mu: float, name: str) -> np.ndarray:
    """Poisson CDF table covering all but < 1e-15 of the upper tail.

    The table runs to ``mu + 12 sqrt(mu) + 20`` carriers, which covers that
    tail for every mean the memory bound (``_bounds``) admits. A table the
    bound refuses, before allocating, and one that falls short of the tail
    raise ``ValueError`` naming ``name``, the parameter that set the mean
    ``mu``. The table is the only array the call holds: it is built in place
    on a float grid (``pdtr`` computes in doubles).
    """
    what = f"{name} gives a Poisson mean of {mu:.6g} carriers per frame; its sampling table"
    entries = np.floor(mu + 12.0 * np.sqrt(mu) + 20.0) + 1.0  # inf for an infinite mean
    refuse_over_limit(entries, what)
    cdf = np.arange(entries)
    special.pdtr(cdf, mu, out=cdf)
    if not 1.0 - cdf[-1] <= 1e-15:
        raise ValueError(f"{what} leaves {1.0 - cdf[-1]:.3g} of the tail uncovered")
    return cdf


def _poisson_sampler(mu: float, name: str):
    """Inverse-CDF Poisson draws from per-frame uniforms, as a function of them.

    The table is built, and refused (``name`` is the parameter that sets
    ``mu``), here, once for every chunk of a run.
    """
    if mu <= 0:
        return lambda u: np.zeros(u.shape, dtype=np.uint64)
    cdf = _poisson_cdf_table(mu, name)
    top = len(cdf) - 1

    def sample(u):
        k = np.searchsorted(cdf, u, side="left")
        return np.minimum(k, top).astype(np.uint64)

    return sample


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

    ``cum`` counts from the charge on the gate before the first frame (0,
    or the charge a previous chunk left). Frame ``j`` resets when its
    charge since the last reset reaches the integer threshold ``k``. A
    reset at ``i`` clears ``cum[i]``, so the next one is the first ``j``
    with ``cum[j] >= cum[i] + k``: one searchsorted over the int64 array
    gives that successor for every frame at once, and the resets are the
    successor path from the first one.

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


def simulate_chunks(cfg: RunConfig, chunk_frames: int = _CHUNK_FRAMES) -> Iterator[FrameRun]:
    """The frames of :func:`simulate_run`, ``chunk_frames`` at a time, bit for bit.

    Yields one :class:`FrameRun` per consecutive range of at most
    ``chunk_frames`` frames, with ``first_frame`` its offset in the run; the
    gate charge is carried across chunk boundaries (see the module notes).
    The noise sigma and the sampling tables are computed, and a refused
    mean raises, at the call, before the first chunk.
    """
    det = cfg.detector
    sigma_e = cds_sigma(cfg.noise, det)
    source = cfg.source if cfg.source is not None else PulseConfig(0.0)
    signal = _poisson_sampler(mean_carriers(source, det), "mean_photons_at_fiber")
    leakage = _poisson_sampler(det.leakage_rate / source.rep_rate, "leakage_rate")
    vpc = volts_per_carrier(det)

    def chunks():
        charge = 0  # on the gate after the previous chunk
        bg = np.random.Philox(0)  # re-keyed for every stream of every chunk
        for start in range(0, cfg.n_frames, chunk_frames):
            count = min(chunk_frames, cfg.n_frames - start)
            true_c = signal(_keyed_uniforms(bg, cfg.seed, STREAM_SIGNAL, start, count))
            leak_c = leakage(_keyed_uniforms(bg, cfg.seed, STREAM_LEAKAGE, start, count))
            noise_e = _gaussian_from_uniforms(
                sigma_e, _keyed_uniforms(bg, cfg.seed, STREAM_NOISE, start, count)
            )
            added = (true_c + leak_c).astype(np.int64)
            measured = added + noise_e
            # exact integer threshold plus successor table: O(n log n)
            cum = np.cumsum(added)
            if charge:
                cum += charge
            reset, accumulated = _reset_reduction(cum, vpc, det.reset_threshold)
            charge = 0 if reset[-1] else int(accumulated[-1])
            yield FrameRun(
                config=cfg,
                true_carriers=true_c,
                leakage_carriers=leak_c,
                accumulated_carriers=accumulated,
                measured_delta_e=measured,
                reset=reset,
                sigma_e_used=sigma_e,
                first_frame=start,
            )

    return chunks()


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
    ``_bounds.MAX_BYTES`` raises ``ValueError`` naming
    ``mean_photons_at_fiber`` or ``leakage_rate``. The whole run is the one
    chunk of :func:`simulate_chunks`.
    """
    return next(simulate_chunks(cfg, cfg.n_frames))


def extract_events(run: FrameRun) -> np.ndarray:
    """Per-pulse carrier values (electrons) of all non-reset frames, in order.

    Reset frames are disturbed by the probe and dropped rather than
    corrected.
    """
    return run.measured_delta_e[~run.reset]


def _float_cells(column: np.ndarray) -> list[str]:
    """Each double as the shortest decimal that round-trips it.

    That is ``repr`` (Steele & White 1990, Gay 1990).
    """
    return list(map(repr, column.tolist()))


@contextmanager
def table_writer(path, header):
    """Open ``path`` as a CSV table under ``header``; yield ``write(*columns)``.

    Each ``write`` appends the rows of its columns, so a table can be written
    chunk by chunk. The format of every CSV cipdsim writes: a float ndarray
    column holds its ``_float_cells``, a list column holds cells already
    formatted, and any other column decimal integers (``%d``). Cells are
    joined by ``,``; every line, the header too, ends in LF.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")

        def write(*columns):
            columns = [_float_cells(c) if isinstance(c, np.ndarray) and c.dtype.kind == "f"
                       else c for c in columns]
            fmt = ",".join("%s" if isinstance(c, list) else "%d" for c in columns) + "\n"
            rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
            fh.write("".join([fmt % row for row in rows]))

        yield write


def write_table(path, header, *columns) -> None:
    """Write ``columns`` under ``header`` as a :func:`table_writer` table."""
    with table_writer(path, header) as write:
        write(*columns)


def _frame_columns(run: FrameRun, measured):
    first = run.first_frame
    return (range(first, first + len(run)), run.true_carriers, run.leakage_carriers,
            run.accumulated_carriers, measured, run.reset)


def frames_to_csv(run: FrameRun, path) -> None:
    """Write the per-frame record stream as a :func:`write_table` CSV."""
    write_table(path, FRAMES_HEADER, *_frame_columns(run, run.measured_delta_e))


def write_frames(frames, events, run: FrameRun) -> np.ndarray:
    """Append ``run``'s rows to a frames and an events table; return its events.

    ``frames`` and ``events`` are the ``write`` of :func:`table_writer`
    tables under ``FRAMES_HEADER`` and ``EVENTS_HEADER``; the events are
    :func:`extract_events` of ``run``. Each measured value is formatted
    once, for both tables.
    """
    cells = _float_cells(run.measured_delta_e)
    frames(*_frame_columns(run, cells))
    events(list(compress(cells, (~run.reset).tolist())))
    return extract_events(run)
