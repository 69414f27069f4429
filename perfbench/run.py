#!/usr/bin/env python3
"""cipdsim benchmark: one workload per run, closed loop, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload qe_scan --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run, whose passes alternate with untraced ones (at least three of
each) so that the tracing overhead is measured in the same process. Earlier
lines print every metric with its unit and the environment fingerprint. The
full result, and the spans of a traced run, are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYERS, Tracer, instrument, nesting_errors, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "events_per_s": "1/s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.s": "s",
    "config.load_s": "s",
    "noise.cds_sigma_first_s": "s",
    "noise.cds_sigma_s": "s",
    "noise.cds_sigma_calls": "count",
    "noise.self_s": "s",
    "readout.uniforms_s": "s",
    "readout.simulate_s": "s",
    "readout.simulate_ns_per_frame": "ns",
    "readout.resets": "count",
    "readout.extract_s": "s",
    "readout.frames_csv_s": "s",
    "readout.frames_csv_bytes": "bytes",
    "readout.self_s": "s",
    "estimation.fit_s": "s",
    "estimation.em_iterations": "count",
    "estimation.fit_s_per_iter": "s",
    "estimation.loglik_s": "s",
    "estimation.grad_s": "s",
    "estimation.grad_calls": "count",
    "estimation.loglik_ns_per_cell": "ns",
    "estimation.loglik_bytes_computed": "bytes",
    "estimation.hist_s": "s",
    "estimation.gof_s": "s",
    "estimation.density_s": "s",
    "estimation.classify_s": "s",
    "estimation.self_s": "s",
    "cli.snr_s": "s",
    "cli.simulate_s": "s",
    "cli.dark_s": "s",
    "cli.fit_s": "s",
    "cli.sweep_s": "s",
    "cli.out_bytes": "bytes",
    "config.fail": "count",
    "noise.fail": "count",
    "readout.fail": "count",
    "estimation.fail": "count",
    "cli.fail": "count",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

#: Inclusive seconds per pass of every span with this name.
SPAN_TOTALS = {
    "noise.cds_sigma_s": "noise.cds_sigma",
    "readout.uniforms_s": "readout.frame_uniforms",
    "readout.simulate_s": "readout.simulate_run",
    "readout.extract_s": "readout.extract_events",
    "readout.frames_csv_s": "readout.frames_to_csv",
    "estimation.fit_s": "estimation.fit_mixture",
    "estimation.loglik_s": "estimation.log_likelihood",
    "estimation.hist_s": "estimation.build_histogram",
    "estimation.gof_s": "estimation.goodness_of_fit",
    "estimation.density_s": "estimation.mixture_density",
    "estimation.classify_s": "estimation.classify",
    "cli.snr_s": "cli.snr",
    "cli.simulate_s": "cli.simulate",
    "cli.dark_s": "cli.dark",
    "cli.fit_s": "cli.fit",
    "cli.sweep_s": "cli.sweep",
}

#: A fresh interpreter up to the first timed operation.
SETUP_PROBE = """
import json, time
t0 = time.monotonic()
import cipdsim
t1 = time.monotonic()
cfg = cipdsim.load_config(cipdsim.default_config_path())
t2 = time.monotonic()
cipdsim.cds_sigma(cfg.noise, cfg.detector)
t3 = time.monotonic()
print(json.dumps([t0, t1, t2, t3]))
"""


def limit_threads() -> None:
    """Cap BLAS and OpenMP pools at the usable CPUs; children inherit this."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)


def measure_setup(n_probes: int) -> dict:
    """Median time from spawning an interpreter to its first cds_sigma."""
    compileall.compile_dir(SRC / "cipdsim", quiet=1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rows = []
    for _ in range(n_probes):
        t_spawn = time.monotonic()
        res = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()[-500:]}")
        t0, t1, t2, t3 = json.loads(res.stdout.splitlines()[-1])
        rows.append((t3 - t_spawn, t1 - t0, t2 - t1, t3 - t2))
    med = [statistics.median(col) for col in zip(*rows)]
    return {
        "setup_s": med[0],
        "import.s": med[1],
        "config.load_s": med[2],
        "noise.cds_sigma_first_s": med[3],
        "samples": [list(r) for r in rows],
    }


def tail_percentile(n_ref: int) -> float:
    """Highest percentile with at least ten of ``n_ref`` samples above it.

    ``n_ref`` is fixed per workload (ops per pass times the passes every run
    makes), so parent and change are compared at the same percentile however
    many passes fit into ``--seconds``. Below 20 samples no percentile above
    the median has ten beyond it, and the median is used.
    """
    return 100.0 * (n_ref - 10) / n_ref if n_ref >= 20 else 50.0


def percentile(xs: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``xs``; the median at 50."""
    xs = sorted(xs)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def run_pass(wl, tracer, checks, failures):
    """One timed pass; returns its wall time, op latencies and outputs."""
    ops = wl.ops()
    outs, lat = [], []
    first = len(tracer.spans) if tracer else 0
    traced = instrument(tracer) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with traced, (tracer.span("bench.pass") if tracer else contextlib.nullcontext()):
        for label, fn in ops:
            ts = time.perf_counter()
            try:
                with tracer.span(wl.op_span(label)) if tracer else contextlib.nullcontext():
                    outs.append(fn())
            except Exception:
                failures.append(f"{wl.name} {label}: {traceback.format_exc(limit=3)}")
            lat.append(time.perf_counter() - ts)
    wall = time.perf_counter() - t0
    for out in outs:
        wl.check_op(out, checks)
    try:
        wl.check_pass(outs, checks)
    except Exception:
        checks.expect(False, f"{wl.name}: pass check raised {traceback.format_exc(limit=3)}")
    probe = {}
    if tracer:
        with instrument(tracer), tracer.span("bench.probe"):
            try:
                probe = wl.probe(outs, tracer)
            except Exception:
                failures.append(f"{wl.name} probe: {traceback.format_exc(limit=3)}")
    return {
        "wall": wall,
        "lat": lat,
        "n_ops": len(ops) + (1 if tracer else 0),
        "tally": wl.tally(outs),
        "probe": probe,
        "spans": (first, len(tracer.spans) if tracer else 0),
    }


def layer_metrics(spans: list[dict], counts: dict) -> dict:
    """Per-layer metrics of one traced pass and its probes."""
    selfs = self_times(spans)
    durations = {}
    for s in spans:
        durations.setdefault(s["name"], []).append((s["end_ns"] - s["start_ns"]) * 1e-9)
    m = {k: sum(durations.get(name, [])) for k, name in SPAN_TOTALS.items()}
    for layer in ("noise", "readout", "estimation"):
        m[f"{layer}.self_s"] = sum(selfs[s["id"]] for s in spans if s["name"].startswith(layer + "."))
    # an exception is counted once, at the innermost span it passed through
    errored_parents = {s["parent"] for s in spans if s["error"]}
    for layer in LAYERS:
        m[f"{layer}.fail"] = sum(
            1 for s in spans
            if s["error"] and s["id"] not in errored_parents and s["name"].startswith(layer + ".")
        )
    m["noise.cds_sigma_calls"] = len(durations.get("noise.cds_sigma", []))
    grads = durations.get("estimation.log_likelihood_grad", [])
    m["estimation.grad_s"] = statistics.median(grads) if grads else 0.0
    m["estimation.grad_calls"] = len(grads)
    frames = counts.get("frames", 0)
    m["readout.simulate_ns_per_frame"] = 1e9 * m["readout.simulate_s"] / frames if frames else 0.0
    m["readout.resets"] = counts.get("resets", 0)
    m["readout.frames_csv_bytes"] = counts.get("frames_csv_bytes", 0)
    iters = counts.get("em_iterations", 0)
    m["estimation.em_iterations"] = iters
    m["estimation.fit_s_per_iter"] = m["estimation.fit_s"] / iters if iters else 0.0
    cells = counts.get("loglik_cells", 0)
    m["estimation.loglik_ns_per_cell"] = 1e9 * m["estimation.loglik_s"] / cells if cells else 0.0
    m["estimation.loglik_bytes_computed"] = 8 * cells
    m["cli.out_bytes"] = counts.get("out_bytes", 0)
    m["trace.spans"] = len(spans)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload and return the full result."""
    import envinfo
    import workloads

    pins = json.loads((BENCH / "pins.json").read_text())
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup(3 if scale == 1.0 else 1)
        wl = workloads.WORKLOADS[workload](seed, scale, workdir, pins)
        checks = workloads.Checks()
        failures: list[str] = []
        tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}") if trace else None
        wl.warm_up()
        passes = []
        t_end = time.monotonic() + seconds
        # untraced passes every run makes, and, when tracing, traced ones
        min_plain = max(wl.min_passes, 3 if trace else 1)
        min_traced = 3 if trace else 0
        while True:
            traced = trace and len(passes) % 2 == 1
            rec = run_pass(wl, tracer if traced else None, checks, failures)
            rec["traced"] = traced
            passes.append(rec)
            n_traced = sum(p["traced"] for p in passes)
            if (time.monotonic() >= t_end and n_traced >= min_traced
                    and len(passes) - n_traced >= min_plain):
                break
        peak_rss_mb = wl.peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    lat = [x for p in plain for x in p["lat"]]
    wall = statistics.median(p["wall"] for p in plain)
    tail_pct = tail_percentile(len(plain[0]["lat"]) * wl.min_passes)
    tally = plain[0]["tally"]
    e2e = {
        "setup_s": setup["setup_s"],
        "wall_s": wall,
        "op_s_p50": statistics.median(lat),
        "op_s_tail": percentile(lat, tail_pct),
        "events_per_s": tally["events"] / wall,
        "frames_per_s": tally["frames"] / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(p["n_ops"] for p in passes) + checks.attempted
    failed = len(failures) + checks.failed
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures[:10] + checks.messages,
        "end_to_end": e2e,
        "passes": len(plain),
        "op_samples": len(lat),
        "op_s_tail_percentile": tail_pct,
        "setup_samples": setup["samples"],
        "output_digests": wl.output_digests(),
        "fingerprint": envinfo.fingerprint(ROOT),
    }
    if trace:
        per_pass = []
        for p in passes:
            if p["traced"]:
                lo, hi = p["spans"]
                counts = {**p["tally"], **p["probe"]}
                per_pass.append(layer_metrics(tracer.spans[lo:hi], counts))
        layer = {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]}
        layer.update({k: setup[k] for k in ("import.s", "config.load_s", "noise.cds_sigma_first_s")})
        # within the run-to-run spread of wall_s this is unresolved, not a cost
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        layer["trace.overhead_frac"] = traced_wall / wall - 1.0
        result["per_layer"] = layer
        result["span_errors"] = nesting_errors(tracer.spans)
        result["spans"] = tracer.spans
    return result


def last_line(result: dict, trace: bool) -> dict:
    """The JSON object printed last: end-to-end or per-layer metrics."""
    table, values = (PER_LAYER, result["per_layer"]) if trace else (END_TO_END, result["end_to_end"])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in table.items()},
    }


def report(result: dict, out_dir: Path) -> dict:
    """Print every metric with its unit, write the result and spans, return the last line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    saved = {k: v for k, v in result.items() if k != "spans"}
    (out_dir / f"{stem}.json").write_text(json.dumps(saved, indent=2))
    if result["trace"]:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(result["spans"]))

    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}")
    for key, value in result["fingerprint"].items():
        print(f"  env {key}: {value}")
    print(f"  passes {result['passes']}, op samples {result['op_samples']}, "
          f"op_s_tail is the {result['op_s_tail_percentile']:.1f}th percentile")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {result['end_to_end'][name]:.6g} {unit}")
    print(f"  fail_frac = {result['fail_frac']:.6g} ({result['failed']}/{result['attempted']})")
    if result["trace"]:
        for name, unit in PER_LAYER.items():
            print(f"  {name} = {result['per_layer'][name]:.6g} {unit}")
    for msg in result["failures"]:
        print(f"  FAILED: {msg}", file=sys.stderr)
    return last_line(result, result["trace"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["qe_scan", "coverage_small", "reset_storm", "cli_session"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cipdsim" / "__init__.py").is_file():
        print(f"cipdsim sources not found under {SRC}", file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(result, BENCH / "out")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
