import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from cipdsim import (
    DetectorParams,
    NoiseSpec,
    PulseConfig,
    RunConfig,
    extract_events,
    frame_uniforms,
    simulate_run,
    volts_per_carrier,
)
from cipdsim import _bounds, readout
from cipdsim.cli import _read_events
from cipdsim.readout import (
    EVENTS_HEADER,
    FRAMES_HEADER,
    STREAM_SIGNAL,
    frames_to_csv,
    simulate_chunks,
    table_writer,
    write_frames,
    write_table,
)


def make_detector(leakage_per_hour=500.0, reset_threshold=30e-3):
    return DetectorParams(
        c_input=0.054e-12,
        g_m=1.0,
        eta_q=0.8,
        eta_c=0.8,
        leakage_rate=leakage_per_hour / 3600.0,
        reset_threshold=reset_threshold,
    )


def threshold_for_carriers(det, n_carriers):
    return n_carriers * volts_per_carrier(det)


def test_noiseless_dark_run_is_silent():
    det = make_detector(leakage_per_hour=0.0)
    cfg = RunConfig(n_frames=500, detector=det, noise=NoiseSpec.direct(0.0), seed=1)
    run = simulate_run(cfg)
    assert np.all(run.measured_delta_e == 0.0)
    assert not run.reset.any()
    assert run.sigma_e_used == 0.0


def test_dark_run_reproduces_measured_dark_sigma(device, calibrated_noise):
    cfg = RunConfig(n_frames=10**5, detector=device, noise=calibrated_noise, seed=3)
    run = simulate_run(cfg)
    events = extract_events(run)
    assert abs(np.std(events, ddof=1) - 0.26) < 0.005


def test_no_source_is_a_zero_mean_source_at_40_hz():
    base = dict(n_frames=5000, detector=make_detector(leakage_per_hour=1.8e6),
                noise=NoiseSpec.direct(0.3), seed=21)
    dark = simulate_run(RunConfig(**base))
    lit = simulate_run(RunConfig(source=PulseConfig(0.0), **base))
    assert dark.reset.any()
    for column in ("true_carriers", "leakage_carriers", "accumulated_carriers",
                   "measured_delta_e", "reset"):
        assert np.array_equal(getattr(dark, column), getattr(lit, column)), column


@pytest.mark.parametrize(
    "mean_photons, leakage_per_hour, name",
    [(1e300, 500.0, "mean_photons_at_fiber"), (1.0, 1e30, "leakage_rate")],
)
def test_huge_poisson_mean_refused_before_allocating(mean_photons, leakage_per_hour,
                                                     name):
    cfg = RunConfig(n_frames=10, detector=make_detector(leakage_per_hour),
                    noise=NoiseSpec.direct(0.3), source=PulseConfig(mean_photons))
    with pytest.raises(ValueError, match=f"^{name} gives a Poisson mean"):
        simulate_run(cfg)


def test_poisson_table_bound(monkeypatch):
    # a mean of 64 carriers needs 64 + 12*8 + 20 + 1 = 181 table entries
    cfg = RunConfig(n_frames=10, detector=make_detector(0.0),
                    noise=NoiseSpec.direct(0.3), source=PulseConfig(100.0))
    monkeypatch.setattr(_bounds, "MAX_BYTES", 8 * 182)
    simulate_run(cfg)
    monkeypatch.setattr(_bounds, "MAX_BYTES", 8 * 181)
    with pytest.raises(ValueError,
                       match="^mean_photons_at_fiber .* needs 1448 bytes; the limit is 1448$"):
        simulate_run(cfg)


def test_poisson_table_is_the_only_array_the_call_holds(monkeypatch):
    # a mean of 125000 carriers needs int(125000 + 12*353.6 + 20) + 1 = 129263
    # entries, 1034104 bytes, just below the limit
    limit = 1 << 20
    monkeypatch.setattr(_bounds, "MAX_BYTES", limit)
    tracemalloc.start()
    try:
        cdf = readout._poisson_cdf_table(125000.0, "mean_photons_at_fiber")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cdf.size == 129263
    assert peak < limit


def test_first_table_covers_the_tail():
    # the table runs to floor(mu + 12 sqrt(mu) + 20); its last entry leaves
    # at most 1e-15 of the tail for every admissible mean, up to 3.3484971e7
    # carriers, whose 2**25 - 1 entries are just below 256 MiB
    mus = np.geomspace(1e-9, 3.3484971e7, 4000)
    last = np.floor(mus + 12.0 * np.sqrt(mus) + 20.0)
    assert 8 * (last[-1] + 1) < _bounds.MAX_BYTES
    assert np.all(1.0 - special.pdtr(last, mus) <= 1e-15)
    # and the tables built for the means below 1e4 end at that entry
    for mu, top in zip(mus[mus < 1e4], last):
        cdf = readout._poisson_cdf_table(mu, "mean_photons_at_fiber")
        assert cdf.size == top + 1 and 1.0 - cdf[-1] <= 1e-15


def test_a_table_short_of_the_tail_is_refused(monkeypatch):
    pdtr = special.pdtr

    def short(k, mu, out):
        return np.multiply(pdtr(k, mu, out=out), 1.0 - 1e-14, out=out)

    monkeypatch.setattr(special, "pdtr", short)
    cfg = RunConfig(n_frames=10, detector=make_detector(0.0),
                    noise=NoiseSpec.direct(0.3), source=PulseConfig(4.0))
    with pytest.raises(ValueError, match="^mean_photons_at_fiber gives .* of the tail uncovered$"):
        simulate_run(cfg)


def test_leakage_rate_per_frame():
    det = make_detector(leakage_per_hour=1000.0, reset_threshold=1.0)
    cfg = RunConfig(n_frames=10**6, detector=det, noise=NoiseSpec.direct(0.0), seed=8)
    run = simulate_run(cfg)
    # 1000 / 3600 / 40 = 0.0069444 leakage electrons per frame
    assert abs(np.mean(run.leakage_carriers) - 0.0069444) < 0.0005


def test_noiseless_measurement_equals_true_carriers(device):
    det = make_detector(leakage_per_hour=0.0, reset_threshold=1.0)
    cfg = RunConfig(
        n_frames=5000,
        detector=det,
        noise=NoiseSpec.direct(0.0),
        source=PulseConfig(4.0),
        seed=5,
    )
    run = simulate_run(cfg)
    assert np.array_equal(run.measured_delta_e, run.true_carriers.astype(float))


def test_charge_conservation_per_segment():
    det = make_detector(leakage_per_hour=2000.0,
                        reset_threshold=threshold_for_carriers(make_detector(), 50))
    cfg = RunConfig(
        n_frames=20000,
        detector=det,
        noise=NoiseSpec.direct(0.3),
        source=PulseConfig(4.0),
        seed=17,
    )
    run = simulate_run(cfg)
    added = (run.true_carriers + run.leakage_carriers).astype(np.int64)
    start = 0
    for j in np.flatnonzero(run.reset):
        seg = slice(start, j + 1)
        assert np.array_equal(run.accumulated_carriers[seg], np.cumsum(added[seg]))
        start = j + 1
    tail = slice(start, len(run))
    assert np.array_equal(run.accumulated_carriers[tail], np.cumsum(added[tail]))


def test_reset_flag_consistent_with_threshold():
    det = make_detector(reset_threshold=threshold_for_carriers(make_detector(), 50))
    cfg = RunConfig(
        n_frames=20000,
        detector=det,
        noise=NoiseSpec.direct(0.33),
        source=PulseConfig(15.90625),  # 10.18 carriers per frame
        seed=23,
    )
    run = simulate_run(cfg)
    over = run.accumulated_carriers * volts_per_carrier(det) >= det.reset_threshold
    assert not np.any(over & ~run.reset)
    assert np.array_equal(over, run.reset)


def test_event_mean_tracks_carriers_plus_leakage():
    det = make_detector(leakage_per_hour=1000.0, reset_threshold=1.0)
    cfg = RunConfig(
        n_frames=10**6,
        detector=det,
        noise=NoiseSpec.direct(0.26),
        source=PulseConfig(1.6731),
        seed=31,
    )
    run = simulate_run(cfg)
    events = extract_events(run)
    want = 1.6731 * 0.64 + 1000.0 / 3600.0 / 40.0
    se = np.sqrt((0.26**2 + want) / events.size)
    assert abs(np.mean(events) - want) < 4 * se


class TestExtractEvents:
    def test_no_resets_keeps_all_frames(self, device, calibrated_noise):
        cfg = RunConfig(
            n_frames=700,
            detector=device,
            noise=calibrated_noise,
            source=PulseConfig(1.6731),
            seed=42,
        )
        run = simulate_run(cfg)
        assert not run.reset.any()
        assert extract_events(run).size == 700

    def test_every_frame_resetting_yields_no_events(self):
        det = make_detector(reset_threshold=threshold_for_carriers(make_detector(), 1))
        cfg = RunConfig(
            n_frames=200,
            detector=det,
            noise=NoiseSpec.direct(0.1),
            source=PulseConfig(78.125),  # 50 carriers/frame: P(0) ~ 2e-22
            seed=2,
        )
        run = simulate_run(cfg)
        assert run.reset.all()
        assert extract_events(run).size == 0

    def test_event_fraction_matches_renewal_oracle(self):
        # threshold 50 carriers at 10.18/frame: resets roughly every 5
        # frames, so ~0.8 of the frames survive as events
        det = make_detector(
            leakage_per_hour=0.0,
            reset_threshold=threshold_for_carriers(make_detector(), 50),
        )
        n = 10**5
        cfg = RunConfig(
            n_frames=n,
            detector=det,
            noise=NoiseSpec.direct(0.33),
            source=PulseConfig(15.90625),
            seed=77,
        )
        frac = extract_events(simulate_run(cfg)).size / n
        # independent renewal simulation as the oracle
        rng = np.random.default_rng(123456)
        acc = 0
        resets = 0
        for k in rng.poisson(10.18, n):
            acc += k
            if acc >= 50:
                resets += 1
                acc = 0
        frac_oracle = 1.0 - resets / n
        assert abs(frac - frac_oracle) < 0.01
        assert abs(frac - 0.8) < 0.02 * 1.0 + 0.016  # coarse band around 0.8


def reference_reduction(added, vpc, threshold):
    """Literal frame loop: accumulate, test the voltage, clear after a reset."""
    reset = np.zeros(len(added), dtype=bool)
    accumulated = np.empty(len(added), dtype=np.int64)
    acc = 0
    for i, a in enumerate(added.tolist()):
        acc += a
        accumulated[i] = acc
        if acc * vpc >= threshold:
            reset[i] = True
            acc = 0
    return reset, accumulated


def assert_reduction_matches_reference(cfg):
    run = simulate_run(cfg)
    added = run.true_carriers.astype(np.int64) + run.leakage_carriers.astype(np.int64)
    det = cfg.detector
    reset, accumulated = reference_reduction(
        added, volts_per_carrier(det), det.reset_threshold
    )
    assert np.array_equal(run.reset, reset)
    assert run.accumulated_carriers.dtype == np.int64
    assert np.array_equal(run.accumulated_carriers, accumulated)
    return run


def reduction_config(threshold, mean_photons=15.90625, n_frames=3000, seed=7,
                     leakage_per_hour=500.0):
    return RunConfig(
        n_frames=n_frames,
        detector=make_detector(leakage_per_hour=leakage_per_hour,
                               reset_threshold=threshold),
        noise=NoiseSpec.direct(0.0),
        source=None if mean_photons is None else PulseConfig(mean_photons),
        seed=seed,
    )


class TestResetReduction:
    """``simulate_run``'s reset pass against the literal frame loop."""

    # with this vpc, 5 carriers nudged up needs the +1 fix-up of the rounded
    # quotient and 50 carriers exactly needs the -1 fix-up
    @pytest.mark.parametrize("carriers", [2, 5, 50, 333])
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_threshold_at_integer_carrier_count(self, carriers, nudge):
        v = threshold_for_carriers(make_detector(), carriers)
        v = float(np.nextafter(v, v + nudge)) if nudge else v
        run = assert_reduction_matches_reference(reduction_config(v))
        assert run.reset.any()

    def test_one_carrier_threshold_skips_empty_frames(self):
        cfg = reduction_config(threshold_for_carriers(make_detector(), 1),
                               mean_photons=0.8)
        run = assert_reduction_matches_reference(cfg)
        added = run.true_carriers + run.leakage_carriers
        assert (added == 0).any()
        assert np.array_equal(run.reset, added > 0)

    def test_threshold_never_reached(self):
        run = assert_reduction_matches_reference(reduction_config(1.0))
        assert not run.reset.any()

    @pytest.mark.parametrize("threshold", [np.inf, 1e300])
    def test_unreachable_huge_threshold(self, threshold):
        run = assert_reduction_matches_reference(reduction_config(threshold))
        assert not run.reset.any()

    def test_dark_run_with_leakage_only(self):
        cfg = reduction_config(threshold_for_carriers(make_detector(), 3),
                               mean_photons=None, leakage_per_hour=36000.0)
        run = assert_reduction_matches_reference(cfg)
        assert run.reset.any() and not run.true_carriers.any()

    def test_reset_on_last_frame(self):
        cfg = reduction_config(threshold_for_carriers(make_detector(), 50))
        last = int(np.flatnonzero(simulate_run(cfg).reset)[-1])
        cfg = reduction_config(cfg.detector.reset_threshold, n_frames=last + 1)
        run = assert_reduction_matches_reference(cfg)
        assert run.reset[-1]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        mean_photons=st.floats(0.0, 40.0),
        carriers=st.floats(0.01, 60.0),
        n_frames=st.integers(1, 2000),
    )
    def test_matches_reference_loop(self, seed, mean_photons, carriers, n_frames):
        cfg = reduction_config(threshold_for_carriers(make_detector(), carriers),
                               mean_photons=mean_photons, n_frames=n_frames, seed=seed)
        assert_reduction_matches_reference(cfg)


FRAME_COLUMNS = ("true_carriers", "leakage_carriers", "accumulated_carriers",
                 "measured_delta_e", "reset")


def chunk_case(case, n_frames):
    """A run of ``n_frames`` in one reset regime, with read noise."""
    det = make_detector()
    thresholds = {
        "boundary": threshold_for_carriers(det, 8),  # most frames reset, some carry over
        "frequent": threshold_for_carriers(det, 1),  # every frame with a carrier
        "dark": threshold_for_carriers(det, 3),
        "never": 1e3,
        "inf": np.inf,
    }
    if case == "late":
        # one reset, past the middle: charge carried over several chunks
        cfg = reduction_config(1e3, n_frames=n_frames, seed=11)
        total = int(simulate_run(cfg).accumulated_carriers[-1])
        threshold = threshold_for_carriers(det, 0.6 * total)
    else:
        threshold = thresholds[case]
    cfg = reduction_config(threshold, n_frames=n_frames, seed=11,
                           mean_photons=None if case == "dark" else 15.90625,
                           leakage_per_hour=36000.0 if case == "dark" else 500.0)
    return dataclasses.replace(cfg, noise=NoiseSpec.direct(0.3))


class TestSimulateChunks:
    """``simulate_chunks`` against the one-shot ``simulate_run``, bit for bit."""

    @pytest.mark.parametrize("chunk_frames", [1, 7, 4096, 65536])
    @pytest.mark.parametrize("case", ["boundary", "frequent", "dark", "never", "inf", "late"])
    def test_chunks_join_to_the_whole_run(self, chunk_frames, case):
        # at least two chunk boundaries at every chunk size
        n_frames = max(1500, 2 * chunk_frames + 5)
        cfg = chunk_case(case, n_frames)
        whole = simulate_run(cfg)
        chunks = list(simulate_chunks(cfg, chunk_frames))
        assert [c.first_frame for c in chunks] == list(range(0, n_frames, chunk_frames))
        assert all(c.sigma_e_used == whole.sigma_e_used for c in chunks)
        for column in FRAME_COLUMNS:
            joined = np.concatenate([getattr(c, column) for c in chunks])
            assert joined.dtype == getattr(whole, column).dtype, column
            assert joined.tobytes() == getattr(whole, column).tobytes(), column
        resets = np.count_nonzero(whole.reset)
        if case in ("never", "inf"):
            assert resets == 0
        elif case == "late":
            assert resets == 1 and np.flatnonzero(whole.reset)[0] > chunk_frames
        else:
            assert resets > n_frames // {"frequent": 2, "boundary": 4, "dark": 20}[case]
        if case == "boundary":
            # a reset on the last frame of a chunk and on the first of the next
            starts = np.arange(chunk_frames, n_frames, chunk_frames)
            assert (whole.reset[starts - 1] & whole.reset[starts]).any()

    def test_refused_mean_raises_at_the_call(self):
        cfg = RunConfig(n_frames=10, detector=make_detector(),
                        noise=NoiseSpec.direct(0.3), source=PulseConfig(1e300))
        with pytest.raises(ValueError, match="^mean_photons_at_fiber"):
            simulate_chunks(cfg)

    def test_chunked_tables_equal_the_one_shot_writers(self, tmp_path):
        cfg = chunk_case("boundary", 100)
        run = simulate_run(cfg)
        frames_to_csv(run, tmp_path / "frames.csv")
        write_table(tmp_path / "events.csv", EVENTS_HEADER, extract_events(run))
        with table_writer(tmp_path / "f.csv", FRAMES_HEADER) as frames, \
                table_writer(tmp_path / "e.csv", EVENTS_HEADER) as events:
            kept = [write_frames(frames, events, c) for c in simulate_chunks(cfg, 7)]
        assert np.concatenate(kept).tobytes() == extract_events(run).tobytes()
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "frames.csv").read_bytes()
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "events.csv").read_bytes()


def test_seed_determinism_bitwise(device, calibrated_noise):
    cfg = RunConfig(
        n_frames=3000,
        detector=device,
        noise=calibrated_noise,
        source=PulseConfig(1.6731),
        seed=99,
    )
    a = simulate_run(cfg)
    b = simulate_run(cfg)
    assert np.array_equal(a.true_carriers, b.true_carriers)
    assert np.array_equal(a.leakage_carriers, b.leakage_carriers)
    assert np.array_equal(a.accumulated_carriers, b.accumulated_carriers)
    assert np.array_equal(a.measured_delta_e, b.measured_delta_e)
    assert np.array_equal(a.reset, b.reset)


def test_different_seeds_differ(device, calibrated_noise):
    base = dict(n_frames=1000, detector=device, noise=calibrated_noise,
                source=PulseConfig(1.6731))
    a = simulate_run(RunConfig(seed=1, **base))
    b = simulate_run(RunConfig(seed=2, **base))
    assert not np.array_equal(a.measured_delta_e, b.measured_delta_e)


def test_frame_uniforms_are_counter_indexed():
    """A worker producing frames [a, b) must reproduce the serial stream."""
    full = frame_uniforms(98765, STREAM_SIGNAL, 0, 200)
    for start, count in [(0, 10), (1, 7), (3, 4), (4, 9), (57, 100), (199, 1)]:
        part = frame_uniforms(98765, STREAM_SIGNAL, start, count)
        assert np.array_equal(part, full[start : start + count])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
       start=st.one_of(st.integers(0, 5000), st.integers(0, 2**70)), count=st.integers(0, 40))
@example(seed=2**64 - 1, stream=STREAM_SIGNAL, start=4 * 2**64 + 3, count=9)
def test_frame_uniforms_equal_a_fresh_philox_keystream(seed, stream, start, count):
    # frame_uniforms re-keys one generator; the reference constructs its own,
    # and below 5000 frames draws the whole prefix
    fresh = np.random.Philox(key=[np.uint64(seed), np.uint64(stream)])
    if start < 5000:
        want = np.random.Generator(fresh).random(start + count)[start:]
    else:
        fresh.advance(start // 4)
        want = np.random.Generator(fresh).random(start % 4 + count)[start % 4:]
    assert frame_uniforms(seed, stream, start, count).tobytes() == want.tobytes()


def test_run_config_validation(device, calibrated_noise):
    with pytest.raises(ValueError, match="n_frames"):
        RunConfig(n_frames=0, detector=device, noise=calibrated_noise)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(n_frames=1, detector=device, noise=calibrated_noise, seed=-1)


def test_frames_csv_round_trip(tmp_path, device, calibrated_noise):
    cfg = RunConfig(n_frames=20, detector=device, noise=calibrated_noise,
                    source=PulseConfig(1.6731), seed=12)
    run = simulate_run(cfg)
    path = tmp_path / "frames.csv"
    frames_to_csv(run, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == [
        "frame_index", "true_carriers", "leakage_carriers",
        "accumulated_carriers", "measured_delta_e", "reset",
    ]
    assert len(lines) == 21
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[4]) == float(run.measured_delta_e[0])
    column = _read_events(str(path), "measured_delta_e")
    assert column.tobytes() == run.measured_delta_e.tobytes()


_EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
             -1e-310, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(2**63), 2**63 - 1),
        ),
        min_size=1,
        max_size=40,
    )
)
@example(rows=[(x, k) for x, k in zip(_EXTREMES, [0, -1, 1, 2**63 - 1, -(2**63), 7, 2**53 + 1, 3])])
def test_write_table_round_trips_through_the_fit_reader(tmp_path_factory, rows):
    """Floats come back bit for bit, with and without --column; ints exactly."""
    xs = np.array([x for x, _ in rows])
    ks = np.array([k for _, k in rows], dtype=np.int64)
    d = tmp_path_factory.mktemp("table")
    write_table(d / "t.csv", ("x", "k"), xs, ks)
    assert _read_events(str(d / "t.csv"), "x").tobytes() == xs.tobytes()
    lines = (d / "t.csv").read_text().split("\n")
    assert lines[0] == "x,k" and lines[-1] == ""
    assert [int(line.split(",")[1]) for line in lines[1:-1]] == ks.tolist()
    # the body of a one-column table is a plain-number file
    write_table(d / "x.csv", ("x",), xs)
    (d / "x.txt").write_text((d / "x.csv").read_text().split("\n", 1)[1])
    assert _read_events(str(d / "x.txt"), None).tobytes() == xs.tobytes()


def test_write_table_with_no_rows_writes_the_header(tmp_path):
    write_table(tmp_path / "t.csv", ("a", "b"), np.empty(0), [])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"
