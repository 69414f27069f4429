"""Command-line interface: simulate runs, fit histograms, report S/N, sweep.

Subcommands
-----------
simulate   run the frame loop, write frames/events/histogram CSVs + summary
dark       simulate with the light source removed
fit        fit the photon-number mixture to an events file
snr        one-line JSON with the conversion gain, noise and S/N
sweep      grid-sweep one or two config keys, tabulating noise and error

Exit codes: 0 success, 1 invalid input, 2 a fit that did not converge or
whose ``stderr_n`` is not finite, 3 I/O failure. A converged fit flagged
degenerate with a finite ``stderr_n`` (a dark source whose ``n_hat`` sits
at its floor) exits 0, and fit.json's ``"degenerate"`` names the reason.
Errors print a single-line JSON object
``{"code", "message"}`` to stderr. All outputs are byte-reproducible for a
fixed seed, whatever the BLAS thread count; the only timestamp lives in
summary.json and is suppressed by ``--no-timestamp``.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._bounds import refuse_over_limit
from .config import (
    KEY_SECTIONS,
    CliConfig,
    ConfigError,
    default_config_path,
    load_config,
    parse_config,
)
from .detector import snr, volts_per_carrier
from .estimation import (
    ConvergenceError,
    InsufficientDataError,
    _grid,
    build_histogram,
    discrimination_error,
    expected_bin_counts,
    fit_mixture,
    goodness_of_fit,
    mixture_density,
)
from .noise import QuadratureError, cds_sigma
from .readout import (
    EVENTS_HEADER,
    FRAMES_HEADER,
    simulate_chunks,
    table_writer,
    write_frames,
    write_table,
)
from .source import mean_carriers

#: The row limit of the tables: a fit's histogram has fewer bins (its fitted
#: curve has five points a bin), a sweep grid at most this many points.
_MAX_TABLE_ROWS = 1 << 16

#: Arrays of one double a frame that ``simulate`` holds at its peak: the
#: event column and the two of ``build_histogram``.
_EVENT_ARRAYS = 3


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fail(code: int, message: str) -> int:
    print(json.dumps({"code": code, "message": message}), file=sys.stderr)
    return code


def _json_safe(x):
    if isinstance(x, float) and not np.isfinite(x):
        return None
    return x


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _load_cli_config(args) -> CliConfig:
    path = args.config if args.config else default_config_path()
    return load_config(path)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cipdsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="JSON config file (default: bundled device)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--frames", type=int, help="override run.n_frames")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp field from summary.json",
        )

    p_sim = sub.add_parser("simulate", help="simulate an acquisition run")
    add_common(p_sim)
    p_sim.set_defaults(func=lambda a: _cmd_simulate(a, dark=False))

    p_dark = sub.add_parser("dark", help="simulate with no light source")
    add_common(p_dark)
    p_dark.set_defaults(func=lambda a: _cmd_simulate(a, dark=True))

    p_fit = sub.add_parser("fit", help="fit the photon-number mixture to events")
    p_fit.add_argument("events_file", help="one value per line, or CSV with --column")
    p_fit.add_argument("--column", help="CSV column holding the events")
    p_fit.add_argument("--out", default="out", help="output directory")
    p_fit.add_argument("--bin-width", type=float, default=0.1, help="histogram bin width (e)")
    p_fit.add_argument(
        "--l-max",
        type=int,
        help="Poisson cutoff (default: max(20, ceil(2 * event mean) + 2))",
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_snr = sub.add_parser("snr", help="print conversion gain, noise and S/N")
    p_snr.add_argument("--config", help="JSON config file (default: bundled device)")
    p_snr.add_argument("--n", type=float, default=1.0, help="number of carriers")
    sigma_src = p_snr.add_mutually_exclusive_group()
    sigma_src.add_argument("--sigma-e", type=float, help="override the noise (electrons rms)")
    sigma_src.add_argument(
        "--sigma-from-psd",
        action="store_true",
        help="derive the noise from the PSD model in the config",
    )
    p_snr.set_defaults(func=_cmd_snr)

    p_sweep = sub.add_parser("sweep", help="sweep one or two config keys")
    p_sweep.add_argument("--config", help="JSON config file (default: bundled device)")
    p_sweep.add_argument("--out", default="out", help="output directory")
    p_sweep.add_argument(
        "--param",
        action="append",
        required=True,
        metavar="KEY=START:STOP:STEP",
        help="config key and range (repeat once for a 2-D grid)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def _cmd_simulate(args, dark: bool) -> int:
    cfg = _load_cli_config(args)
    n_frames = args.frames if args.frames is not None else cfg.n_frames
    seed = args.seed if args.seed is not None else cfg.seed
    source = cfg.source
    if dark and source is not None:  # keeps the configured frame rate
        source = dataclasses.replace(source, mean_photons_at_fiber=0.0)
    run_cfg = dataclasses.replace(cfg, n_frames=n_frames, seed=seed, source=source)
    flag = "--frames" if args.frames is not None else "run.n_frames"
    refuse_over_limit(_EVENT_ARRAYS * n_frames, f"{flag} {n_frames}")
    chunks = simulate_chunks(run_cfg)  # a refused input raises here, before any output

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    events = np.empty(n_frames)
    n_events = 0
    with table_writer(out_dir / "frames.csv", FRAMES_HEADER) as frames, \
            table_writer(out_dir / "events.csv", EVENTS_HEADER) as event_rows:
        for run in chunks:
            kept = write_frames(frames, event_rows, run)
            events[n_events : n_events + kept.size] = kept
            n_events += kept.size
    events = events[:n_events]
    # the 0.1 e and 1.0 e binnings stacked; no events: no columns, only the header
    hists = [build_histogram(events, w) for w in (0.1, 1.0)] if events.size else []
    parts = [(np.full(h.counts.size, h.bin_width), h.bin_centers, h.counts) for h in hists]
    write_table(out_dir / "histogram.csv", ("bin_width", "bin_center", "count"),
                *map(np.concatenate, zip(*parts)))

    echo = {
        "detector": copy.deepcopy(cfg.raw["detector"]),
        "noise": copy.deepcopy(cfg.raw["noise"]),
        "source": None if dark else copy.deepcopy(cfg.raw.get("source")),
        "run": {"n_frames": n_frames, "seed": seed},
    }
    summary = {
        "command": "dark" if dark else "simulate",
        "config": echo,
        "sigma_e_used": run.sigma_e_used,
        "n_frames": n_frames,
        "n_events": int(events.size),
        "n_resets": n_frames - n_events,
        "event_mean": float(np.mean(events)) if events.size else None,
        "event_std": float(np.std(events, ddof=1)) if events.size >= 2 else None,
    }
    if not args.no_timestamp:
        summary["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_json(out_dir / "summary.json", summary)
    return 0


def _read_events(path: str, column: str | None) -> np.ndarray:
    """The events of ``path``, read a line at a time and parsed by ``float()``.

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n``, as in ``open()`` and RFC 4180.
    """
    with open(path, newline="") as fh:
        if column is not None:
            header = next(csv.reader(fh), None)
            if header is None or column not in header:
                raise ValueError(f"column {column!r} not found in {path}")
            i = len(header) - 1 - header[::-1].index(column)  # the last of duplicates

            def records():  # the rows after the header
                fh.seek(0)
                rows = csv.reader(fh)
                next(rows)
                return rows

            def cells(rows):  # a non-blank row's cell; a short row gives None
                return (r[i] if i < len(r) else None for r in rows if r)

            def numbered(rows):
                return ((rows.line_num, r) for r in rows)

            expected = f"a number in column {column!r}"
        else:

            def records():
                fh.seek(0)
                return fh

            def cells(lines):  # each non-blank line, stripped
                return (s for line in lines if (s := line.strip()))

            def numbered(lines):
                return enumerate(lines, start=1)

            expected = "one number per line (use --column for CSV input)"
        try:  # the one value path: float() on every cell
            values = np.fromiter(map(float, cells(records())), float)
            if np.isfinite(values).all():
                return values
        except (TypeError, ValueError):
            pass
        for ln, record in numbered(records()):  # only names the first bad line
            for cell in cells((record,)):
                try:
                    value = float(cell)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{ln}: expected {expected}, got {cell!r}") from exc
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{ln}: events must be finite, got {cell!r}")
    raise ValueError(f"{path} changed while it was read")


def _cmd_fit(args) -> int:
    width = args.bin_width
    if not (math.isfinite(width) and width > 0):
        raise _UsageError(f"--bin-width must be finite and > 0, got {width!r}")
    events = _read_events(args.events_file, args.column)
    if events.size == 0:
        raise InsufficientDataError(f"no events found in {args.events_file}")
    with np.errstate(over="ignore"):
        mean = float(np.mean(events))
    if not math.isfinite(mean):
        raise ValueError(f"the mean of the events in {args.events_file} overflows")
    lo, hi = float(np.min(events)), float(np.max(events))
    _, _, n_bins = _grid(np.array([lo, hi]), width)
    if not n_bins < _MAX_TABLE_ROWS:
        raise _UsageError(
            f"--bin-width {width!r} gives {n_bins:.3g} histogram bins over "
            f"[{lo!r}, {hi!r}]; the limit is {_MAX_TABLE_ROWS}"
        )
    hist = build_histogram(events, width)
    fit = fit_mixture(events, l_max=args.l_max)

    no_stderr = not math.isfinite(fit.stderr_n)
    chi2 = dof = None
    if fit.converged and fit.degenerate is None and not no_stderr:
        try:
            chi2, dof = goodness_of_fit(hist, fit)
        except ValueError:
            pass  # too few populated bins for a chi-square; report nulls
    # every output is computed before the first file is written
    xs = hist.origin + np.arange(5 * len(hist.counts) + 1) * (hist.bin_width / 5.0)
    dens = mixture_density(xs, fit.n_hat, fit.sigma_hat, fit.l_max)
    expected = expected_bin_counts(hist, fit.n_hat, fit.sigma_hat, fit.l_max)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "fit.json",
        {
            "n_hat": fit.n_hat,
            "sigma_hat": fit.sigma_hat,
            "stderr_n": _json_safe(fit.stderr_n),
            "log_likelihood": _json_safe(fit.log_likelihood),
            "iterations": fit.n_iterations,
            "converged": fit.converged,
            "degenerate": fit.degenerate,
            "chi2": chi2,
            "dof": dof,
            "snr_implied": fit.n_hat / fit.sigma_hat,
        },
    )

    write_table(out_dir / "fitted_curve.csv", ("x", "density", "scaled_count"),
                xs, dens, hist.total * hist.bin_width * dens)
    write_table(out_dir / "histogram.csv", ("bin_center", "count", "expected_count"),
                hist.bin_centers, hist.counts, expected)
    if no_stderr:
        return _fail(2, f"degenerate fit: stderr_n is {fit.stderr_n} at n_hat "
                        f"{fit.n_hat!r}, sigma_hat {fit.sigma_hat!r}")
    return 0 if fit.converged else 2


def _cmd_snr(args) -> int:
    cfg = _load_cli_config(args)
    det = cfg.detector
    if args.sigma_from_psd and cfg.noise.mode != "psd":
        raise ConfigError(
            f"--sigma-from-psd needs a psd-mode noise config, got {cfg.noise.mode!r}"
        )
    for flag, value in (("--n", args.n), ("--sigma-e", args.sigma_e)):
        if value is not None and not math.isfinite(value):
            raise _UsageError(f"{flag} must be finite, got {value!r}")
    sigma_e = args.sigma_e if args.sigma_e is not None else cds_sigma(cfg.noise, det)
    ratio = snr(det, args.n, sigma_e)
    if not math.isfinite(ratio):
        source = "--sigma-e" if args.sigma_e is not None else "the configured noise"
        raise _UsageError(f"the S/N of --n {args.n!r} over a sigma_e of {sigma_e!r} "
                          f"(from {source}) is {ratio!r}, not finite")
    result = {
        "volts_per_carrier": volts_per_carrier(det),
        "sigma_e": sigma_e,
        "n": args.n,
        "snr": ratio,
    }
    print(json.dumps(result))
    return 0


def _parse_sweep_param(spec: str) -> tuple[str, tuple[float, float, float]]:
    """The key of a ``--param`` and the ``np.arange`` arguments of its grid."""
    try:
        key, rng = spec.split("=", 1)
        start, stop, step = (float(v) for v in rng.split(":"))
    except ValueError as exc:
        raise _UsageError(
            f"sweep parameter must look like KEY=START:STOP:STEP, got {spec!r}"
        ) from exc
    if key not in KEY_SECTIONS:
        raise ConfigError(f"unknown sweep key {key!r}")
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and stop >= start):
        raise _UsageError(f"bad range in {spec!r}")
    return key, (start, stop + 0.5 * step, step)


def _cmd_sweep(args) -> int:
    cfg = _load_cli_config(args)
    if len(args.param) > 2:
        raise _UsageError("at most two --param options are supported")
    if cfg.source is None:
        raise ConfigError("sweep requires a source section in the config")
    keys, spans = zip(*map(_parse_sweep_param, args.param))
    if len(set(keys)) < len(keys):
        raise _UsageError(f"sweep key {keys[0]!r} is given twice")
    # np.arange makes ceil((end - start) / step) points; in Python floats a
    # product too large is inf, with no numpy warning
    points = math.prod(float(np.ceil((end - start) / step)) for start, end, step in spans)
    if not points <= _MAX_TABLE_ROWS:
        raise _UsageError(f"the grid of {' x '.join(map(repr, args.param))} has {points:g} "
                          f"points; the limit is {_MAX_TABLE_ROWS}")
    grids = [np.arange(*span).tolist() for span in spans]

    # the swept sigma_e passes through cds_sigma unchanged, so drop the
    # derived column rather than emit a duplicate header
    emit_sigma = "sigma_e" not in keys
    # one noise quadrature per distinct (noise, detector) pair
    noise_sigma = functools.cache(cds_sigma)
    rows = []
    for point in itertools.product(*grids):
        raw = copy.deepcopy(cfg.raw)
        for key, value in zip(keys, point):
            raw[KEY_SECTIONS[key]][key] = value
            # the CDS separation is defined as half the frame period, so it
            # tracks a swept repetition rate unless swept itself; a rate of 0
            # or below is left for the source to refuse
            if (
                key == "rep_rate_hz"
                and value > 0
                and raw["noise"].get("mode") == "psd"
                and "delta_t_cds_s" not in keys
            ):
                raw["noise"]["delta_t_cds_s"] = 0.5 / value
        point_cfg = parse_config(raw)
        det = point_cfg.detector
        sigma_e = noise_sigma(point_cfg.noise, det)
        n_mean = mean_carriers(point_cfg.source, det)
        derr = discrimination_error(n_mean, sigma_e)
        extra = (sigma_e,) if emit_sigma else ()
        rows.append((*point, *extra, snr(det, 1.0, sigma_e), derr))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    derived = (["sigma_e"] if emit_sigma else []) + ["snr_n1", "discrimination_error"]
    write_table(out_dir / "sweep.csv", (*keys, *derived), *np.array(rows, dtype=float).T)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help()
            return 1
        return args.func(args)
    except (QuadratureError, ConvergenceError) as exc:
        return _fail(2, str(exc))
    # ConfigError, InsufficientDataError and _UsageError are ValueErrors; a
    # MemoryError usually has no message; csv.Error comes from an events file
    # whose unclosed quote outgrows the csv field limit
    except (ValueError, OverflowError, MemoryError, csv.Error) as exc:
        return _fail(1, str(exc) or "out of memory")
    except OSError as exc:
        return _fail(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())
