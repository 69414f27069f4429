import csv
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special

from cipdsim import _bounds, cli, default_config_path, estimation, noise, readout
from cipdsim.config import parse_config


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cipdsim.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_config(path, **updates):
    raw = json.loads(default_config_path().read_text())
    for section, obj in updates.items():
        if obj is None:
            raw[section] = None
        else:
            raw.setdefault(section, {})
            if isinstance(obj, dict):
                raw[section].update(obj)
            else:
                raw[section] = obj
    path.write_text(json.dumps(raw))
    return path


def single_json_error(res):
    """The one-line JSON error of a failed command, checked for shape."""
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1, res.stderr
    return json.loads(lines[0])


def write_direct_config(path, sigma_e=0.3):
    raw = json.loads(default_config_path().read_text())
    raw["noise"] = {"mode": "direct", "sigma_e": sigma_e}
    path.write_text(json.dumps(raw))
    return path


def write_events(path, n=60):
    path.write_text("".join(f"{v}\n" for v in np.linspace(0.0, 3.0, n)))
    return path


def main_error(capsys, *argv):
    """Run ``cli.main`` in-process; return its exit code and one-line JSON error."""
    code = cli.main([str(a) for a in argv])
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["code"] == code
    return code, err["message"]


class TestSimulate:
    def test_default_run_writes_all_outputs(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli("simulate", "--out", out, "--seed", "42", "--no-timestamp")
        assert res.returncode == 0, res.stderr
        for name in ("frames.csv", "events.csv", "histogram.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_frames"] == 700
        assert summary["n_events"] <= 700
        assert summary["n_events"] + summary["n_resets"] == 700
        assert "timestamp" not in summary
        events = (out / "events.csv").read_text().splitlines()
        assert events[0] == "measured_delta_e"
        assert len(events) - 1 == summary["n_events"]

    def test_histogram_peaks_near_integers(self, tmp_path):
        out = tmp_path / "out"
        run_cli("simulate", "--out", out, "--seed", "42", "--frames", "5000",
                "--no-timestamp")
        rows = [
            line.split(",")
            for line in (out / "histogram.csv").read_text().splitlines()[1:]
        ]
        fine = [(float(c), int(k)) for w, c, k in rows if float(w) == 0.1]
        centers = np.array([c for c, _ in fine])
        counts = np.array([k for _, k in fine])
        # modal fine bin lands on an integer for the bundled intensity
        mode = centers[np.argmax(counts)]
        assert min(abs(mode - 0.0), abs(mode - 1.0)) <= 0.1 + 1e-9
        widths = {float(w) for w, _, _ in rows}
        assert widths == {0.1, 1.0}

    def test_invalid_frames_is_exit_1_with_json_error(self, tmp_path):
        res = run_cli("simulate", "--frames", "0", "--out", tmp_path / "x")
        assert res.returncode == 1
        err_lines = res.stderr.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["code"] == 1
        assert "n_frames" in err["message"]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", detector={"typo_key": 1.0})
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert res.returncode == 1
        assert "typo_key" in json.loads(res.stderr.strip())["message"]

    def test_output_dir_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output={"dir": "results"})
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert res.returncode == 1
        assert single_json_error(res)["message"] == "unknown key(s) in config: output"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("literal, shown", [("Infinity", "inf"), ("NaN", "nan")])
    def test_non_finite_config_value_exit_1(self, tmp_path, literal, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(default_config_path().read_text().replace(
            '"mean_photons": 1.6731', f'"mean_photons": {literal}'))
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert res.returncode == 1
        message = single_json_error(res)["message"]
        assert message == f"source.mean_photons must be a finite number, got {shown}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, key, value, name",
        [("source", "mean_photons", 1e300, "mean_photons_at_fiber"),
         ("detector", "leakage_per_hour", 1e30, "leakage_rate")],
    )
    def test_huge_poisson_mean_exit_1(self, tmp_path, section, key, value, name):
        cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o",
                      "--frames", "100")
        assert res.returncode == 1
        assert single_json_error(res)["message"].startswith(f"{name} gives a Poisson mean")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "dark"])
    def test_frames_bound_refused_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                    command):
        # three arrays of 8 bytes a frame: 999 frames fit below 24000 bytes, 1000 do not
        monkeypatch.setattr(_bounds, "MAX_BYTES", 24 * 1000)
        out = tmp_path / "o"
        assert cli.main([command, "--frames", "999", "--out", str(out / "a"),
                         "--no-timestamp"]) == 0
        code, message = main_error(capsys, command, "--frames", 1000, "--out", out / "b")
        assert code == 1
        assert message == "--frames 1000 needs 24000 bytes; the limit is 24000"
        assert not (out / "b").exists()

    def test_frames_bound_at_the_real_limit(self, tmp_path, capsys, monkeypatch):
        def reached(cfg):
            raise ValueError("accepted")

        monkeypatch.setattr(cli, "simulate_chunks", reached)
        # 24 bytes a frame below 256 MiB: 11184810 frames, so 1e7 is accepted
        for frames, accepted in [(10**7, True), (11184810, True), (11184811, False),
                                 (3 * 10**9, False)]:
            code, message = main_error(capsys, "simulate", "--frames", frames,
                                       "--out", tmp_path / "o")
            assert code == 1
            assert (message == "accepted") == accepted, message
            assert accepted or message.startswith(f"--frames {frames} needs ")
        assert not (tmp_path / "o").exists()

    def test_streamed_run_holds_the_event_column_not_the_frames(self, tmp_path):
        # the frames are written in chunks: what a run holds at its peak is
        # the event column and build_histogram's two arrays, 24 bytes a frame
        cli.main(["simulate", "--frames", "100", "--out", str(tmp_path / "warm"),
                  "--no-timestamp"])  # imports and the noise quadrature, untraced
        frames = 200_000
        tracemalloc.start()
        try:
            code = cli.main(["simulate", "--frames", str(frames), "--seed", "5",
                             "--out", str(tmp_path / "o"), "--no-timestamp"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 40 * frames

    def test_timestamp_written_without_flag(self, tmp_path):
        res = run_cli("simulate", "--out", tmp_path / "o", "--frames", "100")
        assert res.returncode == 0, res.stderr
        assert "timestamp" in json.loads((tmp_path / "o" / "summary.json").read_text())

    def test_out_dir_collision_is_io_error(self, tmp_path):
        stomp = tmp_path / "file.txt"
        stomp.write_text("x")
        res = run_cli("simulate", "--out", stomp / "sub")
        assert res.returncode == 3


class TestDark:
    def test_dark_summary_reports_dark_sigma(self, tmp_path):
        out = tmp_path / "dark"
        res = run_cli("dark", "--out", out, "--frames", "30000", "--seed", "3",
                      "--no-timestamp")
        assert res.returncode == 0, res.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "dark"
        assert summary["config"]["source"] is None
        assert abs(summary["event_std"] - 0.26) < 0.005
        assert abs(summary["sigma_e_used"] - 0.26) < 0.01

    def test_dark_integrates_leakage_at_the_source_frame_rate(self, tmp_path):
        # 1000 leakage electrons per second at 200 Hz: 5 e per frame, not the
        # 25 e of a 40 Hz frame
        raw = json.loads(default_config_path().read_text())
        raw["detector"]["leakage_per_hour"] = 3.6e6
        raw["noise"] = {"mode": "direct", "sigma_e": 0.0}
        raw["source"]["rep_rate_hz"] = 200.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "dark"
        res = run_cli("dark", "--config", cfg, "--out", out, "--frames", "4000",
                      "--seed", "5", "--no-timestamp")
        assert res.returncode == 0, res.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["source"] is None
        assert summary["n_resets"] > 0
        assert abs(summary["event_mean"] - 5.0) < 0.2


class TestFit:
    def test_fit_recovers_bright_intensity(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            source={"mean_photons": 4.453125},  # 2.85 carriers
        )
        out = tmp_path / "sim"
        res = run_cli("simulate", "--config", cfg, "--out", out, "--frames", "5000",
                      "--seed", "11", "--no-timestamp")
        assert res.returncode == 0, res.stderr
        fit_out = tmp_path / "fit"
        res = run_cli("fit", out / "events.csv", "--column", "measured_delta_e",
                      "--out", fit_out)
        assert res.returncode == 0, res.stderr
        fit = json.loads((fit_out / "fit.json").read_text())
        assert fit["converged"]
        assert abs(fit["n_hat"] - 2.85) <= 3 * fit["stderr_n"] + 0.01
        assert (fit_out / "fitted_curve.csv").exists()
        hist_rows = (fit_out / "histogram.csv").read_text().splitlines()
        assert hist_rows[0] == "bin_center,count,expected_count"
        curve_rows = (fit_out / "fitted_curve.csv").read_text().splitlines()
        assert curve_rows[0] == "x,density,scaled_count"

    def test_plain_number_file(self, tmp_path):
        rng = np.random.default_rng(0)
        events = rng.poisson(1.07, 400) + rng.normal(0, 0.3, 400)
        path = tmp_path / "ev.txt"
        path.write_text("".join(f"{e}\n" for e in events))
        res = run_cli("fit", path, "--out", tmp_path / "f")
        assert res.returncode == 0, res.stderr

    def test_too_few_events_exit_1(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("".join(f"{v}\n" for v in np.linspace(0, 1, 10)))
        res = run_cli("fit", path, "--out", tmp_path / "f")
        assert res.returncode == 1
        assert ">= 50" in json.loads(res.stderr.strip())["message"]

    def test_unparseable_line_exit_1(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("1.0\nnot-a-number\n")
        res = run_cli("fit", path, "--out", tmp_path / "f")
        assert res.returncode == 1

    def test_missing_column_exit_1(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("a,b\n1,2\n")
        res = run_cli("fit", path, "--column", "events", "--out", tmp_path / "f")
        assert res.returncode == 1

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    @pytest.mark.parametrize("column", [None, "measured_delta_e"])
    def test_non_finite_event_exit_1(self, tmp_path, bad, column):
        values = [f"{v}" for v in np.linspace(0.0, 3.0, 60)]
        values[7] = bad
        header = [] if column is None else [column]
        path = tmp_path / "ev.csv"
        path.write_text("\n".join(header + values) + "\n")
        args = [] if column is None else ["--column", column]
        res = run_cli("fit", path, *args, "--out", tmp_path / "f")
        assert res.returncode == 1
        line = 8 + len(header)
        assert f"{path}:{line}" in single_json_error(res)["message"]

    @pytest.mark.parametrize("l_max", [None, "30"])
    def test_overflowing_mean_exit_1(self, tmp_path, l_max):
        path = tmp_path / "ev.txt"
        path.write_text("1e308\n" * 62)
        args = [] if l_max is None else ["--l-max", l_max]
        res = run_cli("fit", path, *args, "--out", tmp_path / "f")
        assert res.returncode == 1
        assert str(path) in single_json_error(res)["message"]
        assert not (tmp_path / "f").exists()

    def test_degenerate_fit_exit_2(self, tmp_path, capsys):
        # events far below zero: n_hat sits at its floor and stderr_n is NaN;
        # the wide second set has enough populated bins for a chi-square,
        # and a fit with no standard error reports none
        for seed, sigma in ((0, 0.3), (1, 50.0)):
            events = np.random.default_rng(seed).normal(-50.0, sigma, 500)
            path = tmp_path / f"ev{seed}.txt"
            path.write_text("".join(f"{e!r}\n" for e in events.tolist()))
            out = tmp_path / f"f{seed}"
            code, message = main_error(capsys, "fit", path, "--out", out)
            assert code == 2
            assert "stderr_n" in message
            fit = json.loads((out / "fit.json").read_text())
            assert fit["converged"] is True
            assert fit["stderr_n"] is None
            assert fit["chi2"] is None and fit["dof"] is None
            assert (out / "fitted_curve.csv").exists()
            assert (out / "histogram.csv").exists()

    def test_fit_json_names_a_degenerate_fit(self, tmp_path, capsys):
        # the wide set converges, and fit.json says why its fit is degenerate;
        # a fit of the model's own events says null
        events = np.random.default_rng(1).normal(-50.0, 50.0, 500)
        path = tmp_path / "wide.txt"
        path.write_text("".join(f"{e!r}\n" for e in events.tolist()))
        code, _ = main_error(capsys, "fit", path, "--out", tmp_path / "wide")
        fit = json.loads((tmp_path / "wide" / "fit.json").read_text())
        assert code == 2 and fit["converged"] is True
        assert fit["degenerate"] == "the observed information is not positive definite"
        path = write_events(tmp_path / "ev.txt")
        assert cli.main(["fit", str(path), "--out", str(tmp_path / "ok")]) == 0
        fit = json.loads((tmp_path / "ok" / "fit.json").read_text())
        assert fit["degenerate"] is None and fit["chi2"] is not None

    def test_dark_fit_at_the_floor_exits_0(self, tmp_path):
        # degenerate, but converged with a finite stderr_n: exit 0, the reason in fit.json
        events = np.random.default_rng(0).normal(0.0, 0.3, 2000)
        path = tmp_path / "dark.txt"
        path.write_text("".join(f"{e!r}\n" for e in events.tolist()))
        assert cli.main(["fit", str(path), "--out", str(tmp_path / "f")]) == 0
        fit = json.loads((tmp_path / "f" / "fit.json").read_text())
        assert fit["converged"] is True and fit["n_hat"] == estimation._N_FLOOR
        assert math.isfinite(fit["stderr_n"])
        assert fit["degenerate"] == f"n_hat is at its floor {estimation._N_FLOOR}"
        assert fit["chi2"] is None

    def test_unclosed_quote_past_the_field_limit_exit_1(self, tmp_path, capsys):
        path = tmp_path / "ev.csv"
        path.write_text('x\n"' + "1" * 200_000 + "\n")
        code, message = main_error(capsys, "fit", path, "--column", "x", "--out", tmp_path / "f")
        assert code == 1
        assert "field limit" in message
        assert not (tmp_path / "f").exists()

    def test_missing_file_exit_3(self, tmp_path):
        res = run_cli("fit", tmp_path / "nope.csv", "--out", tmp_path / "f")
        assert res.returncode == 3

    def test_bright_run_one_electron_bins(self, tmp_path):
        # 10.18 carriers per frame, 1 e binning: Poisson-like histogram
        cfg = write_config(
            tmp_path / "cfg.json",
            source={"mean_photons": 15.90625},
            noise={"mode": "direct", "sigma_e": 0.33},
        )
        raw = json.loads(cfg.read_text())
        for key in ("s_white_v2hz", "a_pink_v2", "f_cutoff_hz", "delta_t_cds_s", "f_min_hz"):
            raw["noise"].pop(key, None)
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "sim"
        run_cli("simulate", "--config", cfg, "--out", out, "--frames", "12000",
                "--seed", "5", "--no-timestamp")
        fit_out = tmp_path / "fit"
        res = run_cli("fit", out / "events.csv", "--column", "measured_delta_e",
                      "--out", fit_out, "--bin-width", "1.0")
        assert res.returncode == 0, res.stderr
        fit = json.loads((fit_out / "fit.json").read_text())
        assert fit["converged"]
        assert fit["chi2"] / fit["dof"] < 2


def _splitlines_read_events(path, column):
    """The reader ``cli._read_events`` replaced, kept to test against.

    It held the file as one string, its lines and its cells, parsed them with
    numpy and parsed every line again with ``float()`` when numpy refused.
    """
    lines = Path(path).read_text().splitlines()
    if column is not None:
        header = next(csv.reader(lines), None)
        if header is None or column not in header:
            raise ValueError(f"column {column!r} not found in {path}")
        i = len(header) - 1 - header[::-1].index(column)  # the last of duplicates

        def numbered():  # (line, cell) of each non-blank row; a short row gives None
            rows = csv.reader(lines)
            next(rows)
            return ((rows.line_num, r[i] if i < len(r) else None) for r in rows if r)

        expected = f"a number in column {column!r}"
    else:

        def numbered():
            return ((ln, s) for ln, line in enumerate(lines, start=1) if (s := line.strip()))

        expected = "one number per line (use --column for CSV input)"
    try:  # one numpy call parses every cell as float() does
        values = np.array([cell for _, cell in numbered()], dtype=float)
        if np.isfinite(values).all():
            return values
    except (TypeError, ValueError):
        pass  # the loop names the line, or keeps what float() accepts
    values = []
    for ln, cell in numbered():
        try:
            value = float(cell)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{ln}: expected {expected}, got {cell!r}") from exc
        if not math.isfinite(value):
            raise ValueError(f"{path}:{ln}: events must be finite, got {cell!r}")
        values.append(value)
    return np.asarray(values, dtype=float)


def _read_outcome(reader, path, column):
    """The bytes ``reader`` returns for ``path``, or the message it raises."""
    try:
        return reader(str(path), column).tobytes()
    except ValueError as exc:
        return str(exc)


#: Cells at the edge of what float() takes; none holds a quote, a comma or a
#: line end, so each file reads into the same cells both ways.
_ODD_CELLS = ["1_000", "0x10", "nan", "-inf", "infinity", "1e999", "-1e999", " 2.5 ",
              "\t3", "+.5", "1e", "", " ", "abc", "\u0661", "1.0.0", "_1"]
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(_ODD_CELLS),
    st.text("0123456789.eE+-_xnaif ", max_size=6),
)


@st.composite
def _events_text(draw):
    """A header or none, then blank lines, short and long rows and quoted
    cells, each line ended by LF, CR or CRLF."""
    header = draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=4))
    cell = _CELL | _CELL.map(lambda c: f'"{c}"')
    row = st.one_of(st.sampled_from(["", "  ", "\t "]), cell,
                    st.lists(cell, min_size=2, max_size=5).map(",".join))
    lines = [",".join(header)] * bool(header) + draw(st.lists(row, min_size=1, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    last_end = draw(st.booleans())
    return "".join(l + e for l, e in zip(lines, ends))[: None if last_end else -len(ends[-1])]


class TestReadEvents:
    """``cli._read_events``: one ``float()`` pass over the lines of the file,
    and the per-line loop that names the first bad line."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_events_text(), column=st.sampled_from([None, "x", "y", "w"]))
    def test_same_values_or_message_as_the_splitlines_reader(self, tmp_path, text, column):
        path = tmp_path / "ev.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert (_read_outcome(cli._read_events, path, column)
                == _read_outcome(_splitlines_read_events, path, column))

    @pytest.mark.parametrize("column", [None, "x"])
    def test_only_lf_cr_and_crlf_end_a_line(self, tmp_path, column):
        # str.splitlines also splits on \f, so the old reader took this cell as two events
        cell = "1.0\f2.0"
        path = tmp_path / "ev.csv"
        with open(path, "w", newline="") as fh:
            fh.write(("" if column is None else "x\r\n") + cell + "\r3.0\n")
        line = 1 if column is None else 2
        with pytest.raises(ValueError, match=f"ev.csv:{line}: expected .*, got {re.escape(repr(cell))}$"):
            cli._read_events(str(path), column)
        assert _splitlines_read_events(str(path), column).tolist() == [1.0, 2.0, 3.0]

    def test_a_quoted_line_end_stays_in_its_cell(self, tmp_path):
        # RFC 4180: the line end belongs to the quoted cell, which float() refuses
        cell = "1\n2"
        path = tmp_path / "ev.csv"
        path.write_text(f'x\n"{cell}"\n')
        with pytest.raises(ValueError, match=f"ev.csv:3: expected .*, got {re.escape(repr(cell))}$"):
            cli._read_events(str(path), "x")
        assert _splitlines_read_events(str(path), "x").tolist() == [12.0]

    @pytest.mark.parametrize("header", [readout.FRAMES_HEADER, readout.EVENTS_HEADER],
                             ids=["frames", "one-column"])
    def test_peak_memory_is_near_the_result(self, tmp_path, header):
        rows = 200_000
        columns = np.random.default_rng(4).normal(size=(len(header), rows))
        path = tmp_path / "ev.csv"
        readout.write_table(path, header, *columns)
        column = "measured_delta_e" if len(header) > 1 else None
        if column is None:  # one value a line, read without --column
            path.write_text(path.read_text().split("\n", 1)[1])
        tracemalloc.start()
        try:
            events = cli._read_events(str(path), column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert events.tobytes() == columns[header.index("measured_delta_e")].tobytes()
        assert peak < 3 * events.nbytes, peak / events.nbytes

    @pytest.mark.parametrize("bad", ["not-a-number", "nan"])
    @pytest.mark.parametrize("column", [None, "x"])
    def test_bad_cell_names_its_line(self, tmp_path, bad, column):
        lines = [repr(v) for v in np.linspace(0.0, 3.0, 10_000).tolist()]
        if column is not None:
            lines[0] = column
        lines[7776] = bad
        path = tmp_path / "ev.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            cli._read_events(str(path), column)
        assert str(info.value).startswith(f"{path}:7777: ")
        assert str(info.value).endswith(f"got {bad!r}")

    def test_short_row_gives_none(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ev.csv:3: expected a number in column 'b', got None$"):
            cli._read_events(str(path), "b")

    def test_duplicate_header_takes_the_last(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("x,y,x\n1,2,3\n\n4,5,6\n")
        assert cli._read_events(str(path), "x").tolist() == [3.0, 6.0]

    @pytest.mark.parametrize("cell", [" 1.0", "+.5", "1_000", "infinity", "0x10", "\u0661"])
    @pytest.mark.parametrize("column", [None, "x"])
    def test_cells_parse_as_float_does(self, tmp_path, cell, column):
        path = tmp_path / "ev.csv"
        path.write_text(("" if column is None else "x\n") + f"2.5\n{cell}\n")
        line = 2 if column is None else 3
        try:
            value = float(cell)
        except ValueError:
            with pytest.raises(ValueError, match=f":{line}: expected "):
                cli._read_events(str(path), column)
            return
        if not np.isfinite(value):
            with pytest.raises(ValueError, match=f":{line}: events must be finite"):
                cli._read_events(str(path), column)
            return
        events = cli._read_events(str(path), column)
        assert events.tobytes() == np.array([2.5, value]).tobytes()


class TestSnr:
    def test_measured_dark_noise_gives_near_4(self):
        res = run_cli("snr", "--sigma-e", "0.26")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["snr"] == pytest.approx(3.846, abs=1e-3)
        assert out["volts_per_carrier"] == pytest.approx(2.967e-6, rel=1e-3)

    def test_zero_carriers(self):
        res = run_cli("snr", "--n", "0")
        assert json.loads(res.stdout)["snr"] == 0.0

    def test_sigma_from_psd(self):
        res = run_cli("snr", "--sigma-from-psd")
        out = json.loads(res.stdout)
        assert abs(out["sigma_e"] - 0.26) < 0.01
        assert 3.7 < out["snr"] < 4.1

    def test_bad_flag_exit(self):
        res = run_cli("snr", "--n", "abc")
        assert res.returncode == 1

    @pytest.mark.parametrize("flag, value, shown", [
        ("--n", "nan", "--n must be finite"),
        ("--n", "inf", "--n must be finite"),
        ("--sigma-e", "inf", "--sigma-e must be finite"),
        ("--sigma-e", "1e-320", "(from --sigma-e) is inf, not finite"),
    ], ids=["n-nan", "n-inf", "sigma-e-inf", "snr-inf"])
    def test_non_finite_value_or_snr_exit_1(self, flag, value, shown):
        res = run_cli("snr", flag, value)
        assert res.returncode == 1
        assert res.stdout == ""
        assert shown in single_json_error(res)["message"]

    def test_sigma_from_psd_with_direct_noise_exit_1(self, tmp_path):
        cfg = write_direct_config(tmp_path / "cfg.json")
        res = run_cli("snr", "--config", cfg, "--sigma-from-psd")
        assert res.returncode == 1
        assert res.stdout == ""
        message = single_json_error(res)["message"]
        assert "--sigma-from-psd" in message and "direct" in message

    def test_f_min_next_to_zero_exit_2(self, tmp_path):
        # a quadrature node next to f_min = 1e-200 rounds to f = 0
        raw = json.loads(default_config_path().read_text())
        raw["noise"].update(f_min_hz=1e-200, a_pink_v2=0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        res = run_cli("snr", "--sigma-from-psd", "--config", cfg)
        assert res.returncode == 2
        assert res.stdout == ""
        message = single_json_error(res)["message"]
        assert "f_min_hz" in message and "1e-200" in message

    def test_direct_noise_without_flag_uses_configured_sigma(self, tmp_path):
        res = run_cli("snr", "--config", write_direct_config(tmp_path / "cfg.json"))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["sigma_e"] == 0.3

    def test_sigma_e_and_sigma_from_psd_exclusive(self):
        res = run_cli("snr", "--sigma-e", "0.3", "--sigma-from-psd")
        assert res.returncode == 1
        assert res.stdout == ""
        message = single_json_error(res)["message"]
        assert "--sigma-e" in message and "--sigma-from-psd" in message

    @pytest.mark.parametrize(
        "section, value",
        [("noise", 5), ("run", [1]), ("detector", "x"), ("source", [])],
    )
    def test_non_object_section_exit_1(self, tmp_path, section, value):
        cfg = write_config(tmp_path / "cfg.json", **{section: value})
        res = run_cli("snr", "--config", cfg)
        assert res.returncode == 1
        assert single_json_error(res)["message"] == f"{section} must be a JSON object"

    def test_non_object_config_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        res = run_cli("snr", "--config", cfg)
        assert res.returncode == 1
        assert single_json_error(res)["message"] == "config must be a JSON object"


class TestSweep:
    def test_discrimination_error_monotone_in_sigma(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", noise={"mode": "direct", "sigma_e": 0.3}
        )
        raw = json.loads(cfg.read_text())
        for key in ("s_white_v2hz", "a_pink_v2", "f_cutoff_hz", "delta_t_cds_s", "f_min_hz"):
            raw["noise"].pop(key, None)
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "sw"
        res = run_cli("sweep", "--config", cfg, "--out", out,
                      "--param", "sigma_e=0.1:0.6:0.05")
        assert res.returncode == 0, res.stderr
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sigma_e,snr_n1,discrimination_error"
        errs = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(errs) == 11
        assert all(b >= a for a, b in zip(errs, errs[1:]))

    def test_capacitance_sweep_scales_conversion_gain(self, tmp_path):
        out = tmp_path / "sw"
        res = run_cli("sweep", "--out", out, "--param", "c_input_pf=0.054:0.067:0.013")
        assert res.returncode == 0, res.stderr
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        # PSD noise in volts: charge-referred sigma scales with capacitance,
        # i.e. inversely with the 2.97 -> 2.39 uV conversion-gain drop
        ratio = rows[1][1] / rows[0][1]
        assert ratio == pytest.approx(0.067 / 0.054, rel=1e-6)
        assert ratio == pytest.approx(2.967 / 2.393, rel=1e-3)

    def test_rep_rate_sweep_reports_columns(self, tmp_path):
        out = tmp_path / "sw"
        res = run_cli("sweep", "--out", out, "--param", "rep_rate_hz=1.0:40.0:39.0")
        assert res.returncode == 0, res.stderr
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        assert all(r[1] > 0 and np.isfinite(r[1]) for r in rows)

    def test_bright_means_are_not_truncated(self, tmp_path):
        # bright means: nearly every component errs two-sided, 2 Phi(-0.5/sigma_e)
        out = tmp_path / "sw"
        res = run_cli("sweep", "--out", out, "--param", "mean_photons=10:70:20")
        assert res.returncode == 0, res.stderr
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mean_photons,sigma_e,snr_n1,discrimination_error"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert [r[0] for r in rows] == [10.0, 30.0, 50.0, 70.0]
        for _, sigma_e, _, derr in rows:
            assert abs(derr - 2.0 * special.ndtr(-0.5 / sigma_e)) < 1e-3

    def test_dark_point_is_finite_and_silent(self, tmp_path):
        # at mean_photons = 0 only the l = 0 component is left; it errs upward
        out = tmp_path / "sw"
        res = run_cli("sweep", "--out", out, "--param", "mean_photons=0:1:0.5")
        assert res.returncode == 0
        assert res.stderr == ""
        text = (out / "sweep.csv").read_text()
        assert "nan" not in text
        mean, sigma_e, _, derr = map(float, text.splitlines()[1].split(","))
        assert mean == 0.0
        assert derr == special.ndtr(-0.5 / sigma_e)

    @pytest.mark.parametrize("spec, rate", [("rep_rate_hz=0:1:0.5", "0.0"),
                                            ("rep_rate_hz=-1:1:0.5", "-1.0")])
    def test_rate_of_zero_or_below_names_the_rate(self, tmp_path, spec, rate):
        # no CDS separation is derived from such a rate: the source refuses
        # the rate itself, with no warning before the one-line error
        res = run_cli("sweep", "--out", tmp_path / "sw", "--param", spec)
        assert res.returncode == 1
        assert single_json_error(res)["message"] == f"source: rep_rate must be > 0, got {rate}"
        assert not (tmp_path / "sw").exists()

    def test_repeated_key_exit_1(self, tmp_path):
        # one key twice would tabulate its first value under both columns
        res = run_cli("sweep", "--out", tmp_path / "sw", "--param", "rep_rate_hz=20:40:20",
                      "--param", "rep_rate_hz=20:40:20")
        assert res.returncode == 1
        assert single_json_error(res)["message"] == "sweep key 'rep_rate_hz' is given twice"
        assert not (tmp_path / "sw").exists()

    def test_two_parameter_grid(self, tmp_path):
        out = tmp_path / "sw"
        res = run_cli(
            "sweep", "--out", out,
            "--param", "c_input_pf=0.054:0.067:0.013",
            "--param", "mean_photons=1.0:2.0:1.0",
        )
        assert res.returncode == 0, res.stderr
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("c_input_pf,mean_photons,")
        assert len(lines) == 5

    @pytest.fixture
    def noise_calls(self, monkeypatch):
        """The arguments of every ``cli.cds_sigma`` call."""
        calls = []

        def counting(spec, params):
            calls.append((spec, params))
            return noise.cds_sigma(spec, params)

        monkeypatch.setattr(cli, "cds_sigma", counting)
        return calls

    def test_one_noise_for_a_swept_mean(self, tmp_path, noise_calls):
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--out", str(out), "--param", "mean_photons=1:1000:1"]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 1001
        assert len(noise_calls) == 1

    def test_one_noise_per_detector(self, tmp_path, noise_calls):
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--out", str(out), "--param", "mean_photons=1:3:1",
                         "--param", "c_input_pf=0.05:0.06:0.005"]) == 0
        assert len(noise_calls) == 3
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("mean_photons,c_input_pf,sigma_e,")
        raw = json.loads(default_config_path().read_text())
        for line in lines[1:]:
            _, c_input_pf, sigma_e = map(float, line.split(",")[:3])
            raw["detector"]["c_input_pf"] = c_input_pf
            cfg = parse_config(raw)
            assert sigma_e == noise.cds_sigma(cfg.noise, cfg.detector)

    def test_unknown_key_exit_1(self, tmp_path):
        res = run_cli("sweep", "--out", tmp_path, "--param", "bogus=1:2:1")
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "spec",
        ["rep_rate_hz=1:inf:1", "rep_rate_hz=nan:1:1", "rep_rate_hz=1:2:nan",
         "rep_rate_hz=20:21:inf"],
    )
    def test_non_finite_range_exit_1(self, tmp_path, capsys, spec):
        code, message = main_error(capsys, "sweep", "--out", tmp_path, "--param", spec)
        assert code == 1
        assert repr(spec) in message

    @pytest.mark.parametrize("spec", ["rep_rate_hz=1:2:1e-300", "rep_rate_hz=1:1e300:1e-300"])
    def test_too_many_points_exit_1(self, tmp_path, capsys, spec):
        code, message = main_error(capsys, "sweep", "--out", tmp_path / "sw", "--param", spec)
        assert code == 1
        assert repr(spec) in message and str(cli._MAX_TABLE_ROWS) in message
        assert not (tmp_path / "sw").exists()

    def test_grid_of_too_many_points_exit_1(self, tmp_path, capsys):
        # 300 x 300 points: each --param alone is below the limit
        specs = ["mean_photons=1:300:1", "rep_rate_hz=1:300:1"]
        code, message = main_error(capsys, "sweep", "--out", tmp_path / "sw",
                                   "--param", specs[0], "--param", specs[1])
        assert code == 1
        assert all(repr(spec) in message for spec in specs)
        assert "90000" in message and str(cli._MAX_TABLE_ROWS) in message
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize(
        "spec",
        [
            "c_input_pf=0.05:0.06:0.01",
            "g_m=0.5:1.0:0.5",
            "eta_q=0.4:0.8:0.4",
            "eta_c=0.4:0.8:0.4",
            "leakage_per_hour=100:500:400",
            "reset_threshold_mv=10:30:20",
            "s_white_v2hz=5e-17:1e-16:5e-17",
            "a_pink_v2=1e-14:3e-14:2e-14",
            "f_cutoff_hz=500:1000:500",
            "delta_t_cds_s=0.005:0.0125:0.0075",
            "f_min_hz=0.01:0.02:0.01",
            "mean_photons=1:2:1",
            "pulse_width_s=0.001:0.002:0.001",
            "rep_rate_hz=20:40:20",
        ],
    )
    def test_every_numeric_key_of_the_psd_config_sweeps(self, tmp_path, capsys, spec):
        key = spec.split("=")[0]
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--out", str(out), "--param", spec]) == 0
        assert capsys.readouterr().err == ""
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith(f"{key},")
        assert len(lines) == 3

    @pytest.mark.parametrize("key", ["seed", "n_frames"])
    def test_run_keys_are_not_swept(self, tmp_path, capsys, key):
        code, message = main_error(capsys, "sweep", "--out", tmp_path / "sw",
                                   "--param", f"{key}=1:2:1")
        assert code == 1
        assert message == f"unknown sweep key {key!r}"
        assert not (tmp_path / "sw").exists()

    def test_key_unused_by_psd_mode_exit_1(self, tmp_path):
        res = run_cli("sweep", "--out", tmp_path / "sw", "--param", "sigma_e=0.1:0.5:0.1")
        assert res.returncode == 1
        message = single_json_error(res)["message"]
        assert "sigma_e" in message and "psd mode" in message
        assert not (tmp_path / "sw" / "sweep.csv").exists()

    def test_key_unused_by_direct_mode_exit_1(self, tmp_path):
        raw = json.loads(default_config_path().read_text())
        raw["noise"] = {"mode": "direct", "sigma_e": 0.3}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        res = run_cli("sweep", "--config", cfg, "--out", tmp_path / "sw",
                      "--param", "a_pink_v2=1e-14:3e-14:1e-14")
        assert res.returncode == 1
        message = single_json_error(res)["message"]
        assert "a_pink_v2" in message and "direct mode" in message


class TestFitInputBounds:
    """Oversized fit requests are refused before any buffer is allocated."""

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rejected request reached the fit")

        monkeypatch.setattr(cli, "fit_mixture", refuse)
        monkeypatch.setattr(cli, "build_histogram", refuse)

    @pytest.mark.parametrize("l_max", ["0", "-3", str(10**9)])
    def test_l_max_out_of_bounds_exit_1(self, tmp_path, capsys, l_max):
        events = write_events(tmp_path / "ev.txt")
        code, message = main_error(capsys, "fit", events, "--out", tmp_path / "f",
                                   "--l-max", l_max)
        assert code == 1
        assert "l_max" in message
        assert not (tmp_path / "f").exists()

    def test_l_max_bound_counts_one_event_chunk(self, tmp_path, capsys):
        # the buffer holds min(N, chunk) events, so a cutoff that a full
        # chunk cannot afford passes the check for a few events
        l_max = _bounds.MAX_BYTES // (8 * estimation._EVENT_CHUNK)
        few = write_events(tmp_path / "few.txt")
        assert cli.main(["fit", str(few), "--out", str(tmp_path / "ok"),
                         "--l-max", str(l_max)]) == 0
        assert (tmp_path / "ok" / "fit.json").exists()
        full = write_events(tmp_path / "full.txt", n=estimation._EVENT_CHUNK)
        code, message = main_error(capsys, "fit", full, "--out", tmp_path / "f",
                                   "--l-max", l_max)
        assert code == 1 and "l_max" in message
        assert not (tmp_path / "f").exists()

    @pytest.mark.usefixtures("no_fit")
    @pytest.mark.parametrize("width", ["0", "-0.1", "nan", "inf", "1e-12", "1e-320"])
    def test_bin_width_out_of_bounds_exit_1(self, tmp_path, capsys, width):
        events = write_events(tmp_path / "ev.txt")
        code, message = main_error(capsys, "fit", events, "--out", tmp_path / "f",
                                   "--bin-width", width)
        assert code == 1
        assert "--bin-width" in message
        assert not (tmp_path / "f").exists()


    @pytest.mark.parametrize("n_bins", [cli._MAX_TABLE_ROWS - 1, cli._MAX_TABLE_ROWS])
    def test_bin_limit_counts_build_histogram_bins(self, tmp_path, capsys, monkeypatch,
                                                   n_bins):
        events = np.linspace(0.0, n_bins - 1.0, 60)
        assert len(estimation.build_histogram(events, 1.0).counts) == n_bins
        path = tmp_path / "ev.txt"
        path.write_text("".join(f"{v!r}\n" for v in events.tolist()))

        def reached(*args, **kwargs):
            raise ValueError("reached the fit")

        monkeypatch.setattr(cli, "fit_mixture", reached)
        code, message = main_error(capsys, "fit", path, "--out", tmp_path / "f",
                                   "--bin-width", "1")
        assert code == 1
        if n_bins < cli._MAX_TABLE_ROWS:
            assert message == "reached the fit"
        else:
            assert "--bin-width" in message and str(cli._MAX_TABLE_ROWS) in message


class TestErrorContract:
    """Exceptions that escape a command map to an exit code and a JSON line."""

    @pytest.mark.parametrize(
        "exc, code",
        [(OverflowError("math range error"), 1), (MemoryError(), 1)],
    )
    def test_fit_exception_maps_to_exit_code(self, tmp_path, capsys, monkeypatch, exc, code):
        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "fit_mixture", boom)
        events = write_events(tmp_path / "ev.txt")
        got, message = main_error(capsys, "fit", events, "--out", tmp_path / "f")
        assert got == code
        assert message

    def test_em_likelihood_decrease_exit_2(self, tmp_path, capsys, monkeypatch):
        lls = iter([-10.0, -20.0])

        def broken_pass(events, n, sigma, l_max, ws=None):
            # an information that is not positive definite sends the fit to EM
            return next(lls), n * events.size, sigma**2 * events.size, (0.0, 0.0, 0.0)

        monkeypatch.setattr(estimation, "_em_pass", broken_pass)
        events = write_events(tmp_path / "ev.txt")
        code, message = main_error(capsys, "fit", events, "--out", tmp_path / "f")
        assert code == 2
        assert "log-likelihood decreased" in message


def test_import_leaves_scipy_stats_and_signal_unloaded():
    code = (
        "import sys, cipdsim; print([m for m in "
        "('scipy.stats', 'scipy.signal', 'scipy.integrate') if m in sys.modules])"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestDeterminism:
    def test_simulate_outputs_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = run_cli("simulate", "--out", out, "--seed", "123",
                          "--frames", "500", "--no-timestamp")
            assert res.returncode == 0
            outs.append(out)
        for fname in ("frames.csv", "events.csv", "histogram.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_fit_outputs_byte_identical(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--out", sim, "--seed", "9", "--frames", "2000",
                "--no-timestamp")
        outs = []
        for name in ("fa", "fb"):
            out = tmp_path / name
            res = run_cli("fit", sim / "events.csv", "--column", "measured_delta_e",
                          "--out", out)
            assert res.returncode == 0
            outs.append(out)
        for fname in ("fit.json", "fitted_curve.csv", "histogram.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_snr_and_sweep_reproducible(self, tmp_path):
        a = run_cli("snr", "--sigma-from-psd").stdout
        b = run_cli("snr", "--sigma-from-psd").stdout
        assert a == b
        for name in ("sa", "sb"):
            run_cli("sweep", "--out", tmp_path / name,
                    "--param", "c_input_pf=0.05:0.07:0.01")
        assert (tmp_path / "sa/sweep.csv").read_bytes() == (
            tmp_path / "sb/sweep.csv"
        ).read_bytes()
