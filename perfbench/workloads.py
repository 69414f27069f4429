"""The four benchmark workloads, their correctness checks and layer probes.

Every workload is a closed loop: one operation starts when the previous one
has finished. A pass is one complete workload; all passes of a run use the
same inputs, which come only from the run seed. Calls go through module
attributes (``readout.simulate_run``) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special

# cli is imported here so that a traced run also wraps the names it imports
from cipdsim import cli, config, estimation, noise, readout, source
from cipdsim.detector import volts_per_carrier

QE_MEANS = (1.58, 1.84, 2.22, 3.07, 4.01, 10.18)
COVERAGE_MEANS = (1.07, 2.55, 2.85)
DIRECT_SIGMA_E = 0.33

#: Per-fit chi-square tail probability below which a fit is rejected. The
#: scan's chi2/dof < 2 criterion is applied to the pooled scan, because a
#: correct single fit exceeds chi2/dof = 2 in a few percent of seeds.
CHI2_MIN_P = 1e-6

#: The CLI session's sweep grid: 41 repetition rates x 7 cutoffs, both
#: honoured by the bundled psd-mode config.
SWEEP = (("rep_rate_hz", 20.0, 60.0, 1.0), ("f_cutoff_hz", 400.0, 1600.0, 200.0))

#: CLI outputs that do not depend on the seed, pinned at every seed.
SEED_FREE_PINS = ("snr.stdout", "sweep/sweep.csv")


def derive_seed(seed: int, k: int) -> int:
    """k-th program seed of a benchmark run seed."""
    return (seed * 1000 + k) % 2**64


class Checks:
    """Counts correctness checks and keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def forward_digest(runs) -> str:
    """sha256 of the per-frame columns of simulated runs, dtype-normalised."""
    h = hashlib.sha256()
    for r in runs:
        for col, dtype in (
            (r.true_carriers, np.int64),
            (r.leakage_carriers, np.int64),
            (r.accumulated_carriers, np.int64),
            (r.measured_delta_e, np.float64),
            (r.reset, np.uint8),
        ):
            h.update(np.ascontiguousarray(col, dtype=dtype).tobytes())
    return h.hexdigest()


def check_reduction(run, checks: Checks, where: str) -> None:
    """Reset invariant and ``accumulated == cumsum - offset`` for one run."""
    det = run.config.detector
    added = run.true_carriers.astype(np.int64) + run.leakage_carriers.astype(np.int64)
    cum = np.cumsum(added)
    resets = np.flatnonzero(run.reset)
    # offset of frame j: the charge cleared by the last reset before j
    cleared = np.concatenate(([0], cum[resets]))
    offset = cleared[np.searchsorted(resets, np.arange(cum.size), side="left")]
    checks.expect(
        np.array_equal(run.accumulated_carriers, cum - offset),
        f"{where}: accumulated != cumsum - offset",
    )
    checks.expect(
        np.array_equal(
            run.reset,
            run.accumulated_carriers * volts_per_carrier(det) >= det.reset_threshold,
        ),
        f"{where}: reset flags contradict the threshold",
    )


def _fit_probes(events, fit) -> dict:
    """One likelihood (a proxy for one E-step) and one MAP classification at a fit."""
    estimation.log_likelihood(events, fit.n_hat, fit.sigma_hat, fit.l_max)
    estimation.classify(events, fit.n_hat, fit.sigma_hat, "map", fit.l_max)
    return {"loglik_cells": events.size * (fit.l_max + 1)}


class Workload:
    """One pass = ``ops()``; checks and probes run outside the timed region."""

    name = ""
    #: Untraced passes every run makes; fixes the op_s_tail percentile.
    min_passes = 1

    def __init__(self, seed: int, scale: float, workdir: Path, pins: dict):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        mine = pins.get(self.name, {})
        if scale != 1.0:
            self.pins = {}
        elif seed == pins.get("default_seed"):
            self.pins = mine
        else:
            self.pins = {k: v for k, v in mine.items() if k in SEED_FREE_PINS}
        self.digest: str | None = None
        self.ref = config.load_config(config.default_config_path())

    def ops(self):
        raise NotImplementedError

    def op_span(self, label: str) -> str:
        return "bench.op"

    def warm_up(self) -> None:
        """Run the first operation untimed, so lazy set-up is not measured."""
        self.ops()[0][1]()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check_op(self, out, checks: Checks) -> None:
        pass

    def check_pass(self, outs, checks: Checks) -> None:
        pass

    def tally(self, outs) -> dict:
        """Frames simulated, events analysed and other counts of one pass."""
        keys = ("frames", "events", "resets", "em_iterations")
        return {k: sum(o.get(k, 0) for o in outs) for k in keys}

    def probe(self, outs, tracer) -> dict:
        """Extra layer calls of a traced run; must not change the pass."""
        return {}

    def output_digests(self) -> dict:
        """sha256 of the outputs of the first pass, as pinned in pins.json."""
        return {"forward": self.digest}

    def _check_forward(self, outs, checks: Checks) -> None:
        digest = forward_digest(o["run"] for o in outs)
        if self.digest is None:
            self.digest = digest
            if "forward" in self.pins:
                checks.expect(
                    digest == self.pins["forward"],
                    f"{self.name}: forward outputs differ from the sha256 pin",
                )
        else:
            checks.expect(digest == self.digest, f"{self.name}: passes differ")


class _FitWorkload(Workload):
    """Probes of a workload whose ops simulate and fit: at the last op."""

    def probe(self, outs, tracer):
        last = outs[-1]
        events, fit = last["events_arr"], last["fit"]
        out = _fit_probes(events, fit)
        # the fit command's curve grid: five points per 0.1 e histogram bin
        xs = np.arange(events.min() - 0.05, events.max() + 0.07, 0.02)
        estimation.mixture_density(xs, fit.n_hat, fit.sigma_hat, fit.l_max)
        out["frames_csv_bytes"] = _write_frames(last["run"], self.workdir)
        return out


class QeScan(_FitWorkload):
    """Brightness scan of acceptance criteria 4 and 5; one op per intensity."""

    name = "qe_scan"

    def __init__(self, *args):
        super().__init__(*args)
        self.n_events = max(200, round(20_000 * self.scale))
        self.noise = noise.NoiseSpec.direct(DIRECT_SIGMA_E)

    def ops(self):
        return [(f"mean {m}", functools.partial(self._op, i, m)) for i, m in enumerate(QE_MEANS)]

    def _op(self, i, m):
        det = self.ref.detector
        photons = m / (det.eta_c * det.eta_q)
        cfg = readout.RunConfig(
            n_frames=self.n_events + self.n_events // 20 + 100,
            detector=det,
            noise=self.noise,
            source=source.PulseConfig(photons),
            seed=derive_seed(self.seed, i),
        )
        run = readout.simulate_run(cfg)
        events = readout.extract_events(run)[: self.n_events]
        l_max = 20 if float(np.mean(events)) <= 10 else 30
        fit = estimation.fit_mixture(events, l_max=l_max)
        chi2, dof = estimation.goodness_of_fit(estimation.build_histogram(events, 1.0), fit)
        qe = estimation.estimate_qe(fit.n_hat, photons, det.eta_c)
        return {
            "run": run, "events_arr": events, "fit": fit, "chi2": chi2, "dof": dof,
            "qe": qe, "mean": m, "frames": cfg.n_frames, "events": events.size,
            "resets": int(np.count_nonzero(run.reset)), "em_iterations": fit.n_iterations,
        }

    def check_op(self, out, checks):
        m = out["mean"]
        checks.expect(out["events_arr"].size == self.n_events, f"qe_scan {m}: too few events")
        checks.expect(out["fit"].converged, f"qe_scan {m}: fit did not converge")
        checks.expect(0.75 <= out["qe"] <= 0.85, f"qe_scan {m}: QE {out['qe']:.4f} outside [0.75, 0.85]")
        p = float(special.chdtrc(out["dof"], out["chi2"]))
        checks.expect(p >= CHI2_MIN_P, f"qe_scan {m}: chi2 {out['chi2']:.1f} on {out['dof']} dof, p={p:.1e}")

    def check_pass(self, outs, checks):
        ratio = sum(o["chi2"] for o in outs) / sum(o["dof"] for o in outs)
        checks.expect(ratio < 2.0, f"qe_scan: pooled chi2/dof {ratio:.2f} >= 2")
        self._check_forward(outs, checks)


class CoverageSmall(_FitWorkload):
    """Coverage study of acceptance criterion 3; one op per simulate-and-fit."""

    name = "coverage_small"
    n_frames = 700
    # 3 passes x 300 ops: op_s_tail is the 98.9th percentile
    min_passes = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.n_seeds = max(4, round(100 * self.scale))
        self.detector = dataclasses.replace(
            self.ref.detector, leakage_rate=0.0, reset_threshold=1.0
        )
        self.noise = noise.NoiseSpec.direct(DIRECT_SIGMA_E)

    def ops(self):
        return [
            (f"mean {m}", functools.partial(self._op, j * 100 + s, m))
            for j, m in enumerate(COVERAGE_MEANS)
            for s in range(self.n_seeds)
        ]

    def _op(self, k, m):
        det = self.detector
        cfg = readout.RunConfig(
            n_frames=self.n_frames,
            detector=det,
            noise=self.noise,
            source=source.PulseConfig(m / (det.eta_c * det.eta_q)),
            seed=derive_seed(self.seed, k),
        )
        run = readout.simulate_run(cfg)
        events = readout.extract_events(run)
        fit = estimation.fit_mixture(events)
        return {
            "run": run, "events_arr": events, "fit": fit, "mean": m,
            "frames": self.n_frames, "events": events.size,
            "resets": int(np.count_nonzero(run.reset)), "em_iterations": fit.n_iterations,
        }

    def check_op(self, out, checks):
        checks.expect(out["events_arr"].size == self.n_frames, "coverage_small: a reset happened")
        checks.expect(out["fit"].converged, f"coverage_small {out['mean']}: fit did not converge")

    def check_pass(self, outs, checks):
        need = math.ceil(0.95 * self.n_seeds)
        for m in COVERAGE_MEANS:
            hits = sum(
                abs(o["fit"].n_hat - m) <= 3 * o["fit"].stderr_n
                for o in outs
                if o["mean"] == m and o["fit"].converged
            )
            checks.expect(hits >= need, f"coverage_small {m}: 3*stderr coverage {hits}/{self.n_seeds}")
        self._check_forward(outs, checks)


class ResetStorm(Workload):
    """Forward model in the frequent-reset regime; no fit."""

    name = "reset_storm"

    def __init__(self, *args):
        super().__init__(*args)
        self.cfg = readout.RunConfig(
            n_frames=max(1000, round(100_000 * self.scale)),
            detector=dataclasses.replace(self.ref.detector, reset_threshold=30e-6),
            noise=self.ref.noise,
            source=source.PulseConfig(16.0),
            seed=derive_seed(self.seed, 0),
        )

    def ops(self):
        return [("simulate", self._op)]

    def warm_up(self):
        readout.simulate_run(dataclasses.replace(self.cfg, n_frames=1000))

    def _op(self):
        run = readout.simulate_run(self.cfg)
        events = readout.extract_events(run)
        hist = estimation.build_histogram(events, 0.1)
        return {
            "run": run, "events_arr": events, "hist": hist, "frames": self.cfg.n_frames,
            "events": events.size, "resets": int(np.count_nonzero(run.reset)),
        }

    def check_op(self, out, checks):
        run = out["run"]
        check_reduction(run, checks, "reset_storm")
        checks.expect(
            np.array_equal(out["events_arr"], run.measured_delta_e[~run.reset]),
            "reset_storm: events are not the non-reset frames",
        )
        checks.expect(out["hist"].total == out["events_arr"].size, "reset_storm: histogram total")

    def check_pass(self, outs, checks):
        self._check_forward(outs, checks)

    def probe(self, outs, tracer):
        return {"frames_csv_bytes": _write_frames(outs[-1]["run"], self.workdir)}


def _write_frames(run, workdir: Path) -> int:
    path = workdir / "probe_frames.csv"
    readout.frames_to_csv(run, path)
    size = path.stat().st_size
    path.unlink()
    return size


class CliSession(Workload):
    """One user session of CLI subprocesses on the bundled config."""

    name = "cli_session"

    def __init__(self, *args):
        super().__init__(*args)
        self.n_frames = max(1000, round(100_000 * self.scale))
        self.sim_seed = derive_seed(self.seed, 0)
        self.dark_seed = derive_seed(self.seed, 1)
        self.src = Path(config.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.n_pass = 0
        self.digests: dict | None = None
        self.child_rss_kb = 0

    def commands(self, d: Path):
        """The session's commands, writing under directory ``d``."""
        n = str(self.n_frames)
        sweep_args = []
        for key, a, b, step in SWEEP:
            sweep_args += ["--param", f"{key}={a:g}:{b:g}:{step:g}"]
        return [
            ("snr", ["snr", "--sigma-from-psd"]),
            ("simulate", ["simulate", "--frames", n, "--seed", str(self.sim_seed),
                          "--out", str(d / "sim"), "--no-timestamp"]),
            ("dark", ["dark", "--frames", n, "--seed", str(self.dark_seed),
                      "--out", str(d / "dark"), "--no-timestamp"]),
            ("fit", ["fit", str(d / "sim" / "events.csv"), "--column", "measured_delta_e",
                     "--out", str(d / "fit")]),
            ("sweep", ["sweep", *sweep_args, "--out", str(d / "sweep")]),
        ]

    def op_span(self, label):
        return f"cli.{label}"

    def warm_up(self):
        pass

    def peak_rss_mb(self):
        """Largest CLI child, not the benchmark process."""
        return self.child_rss_kb / 1024

    def ops(self):
        self.n_pass += 1
        self.passdir = self.workdir / f"pass{self.n_pass}"
        shutil.rmtree(self.workdir / f"pass{self.n_pass - 1}", ignore_errors=True)
        self.passdir.mkdir(parents=True)
        return [
            (cmd, functools.partial(self._op, cmd, args))
            for cmd, args in self.commands(self.passdir)
        ]

    def _op(self, cmd, args):
        """Run one CLI command in the pass directory; raise if it fails."""
        out_path = self.passdir / f"{cmd}.stdout"
        err_path = self.passdir / f"{cmd}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cipdsim.cli", *args],
                cwd=self.passdir, env=self.env, stdout=out, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"cipdsim {cmd} exited {proc.returncode}: {err_path.read_text()[:300]}")
        return {"cmd": cmd}

    def output_digests(self):
        return dict(self.digests or {})

    def _files(self):
        d = self.passdir
        files = {"snr.stdout": d / "snr.stdout"}
        for sub in ("sim", "dark", "fit", "sweep"):
            if (d / sub).is_dir():
                for f in sorted((d / sub).iterdir()):
                    files[f"{sub}/{f.name}"] = f
        return files

    def tally(self, outs):
        events = self.passdir / "sim" / "events.csv"
        n_events = events.read_bytes().count(b"\n") - 1 if events.exists() else 0
        out_bytes = sum(f.stat().st_size for f in self._files().values() if f.exists())
        return {"frames": 2 * self.n_frames, "events": n_events, "out_bytes": out_bytes}

    def check_pass(self, outs, checks):
        digests = {k: hashlib.sha256(f.read_bytes()).hexdigest() for k, f in self._files().items()}
        if self.digests is not None:
            checks.expect(digests == self.digests, "cli_session: outputs differ between passes")
            return
        self.digests = digests
        for key, want in self.pins.items():
            checks.expect(digests.get(key) == want, f"cli_session: {key} differs from the sha256 pin")
        self._check_outputs(checks)

    def _check_outputs(self, checks):
        d = self.passdir
        ref = self.ref
        snr_out = json.loads((d / "snr.stdout").read_text())
        checks.expect(abs(snr_out["sigma_e"] - 0.26) < 0.01, f"cli snr: sigma_e {snr_out['sigma_e']}")

        run = readout.simulate_run(readout.RunConfig(
            n_frames=self.n_frames, detector=ref.detector, noise=ref.noise,
            source=ref.source, seed=self.sim_seed,
        ))
        check_reduction(run, checks, "cli simulate")
        events = np.array((d / "sim" / "events.csv").read_text().split()[1:], dtype=float)
        checks.expect(
            np.array_equal(events, readout.extract_events(run)),
            "cli simulate: events.csv differs from the in-process simulation",
        )
        summary = json.loads((d / "sim" / "summary.json").read_text())
        checks.expect(
            summary["n_resets"] == int(np.count_nonzero(run.reset))
            and summary["n_events"] == events.size,
            "cli simulate: summary counts",
        )
        dark = json.loads((d / "dark" / "summary.json").read_text())
        checks.expect(abs(dark["event_std"] - 0.26) < 0.005, f"cli dark: event_std {dark['event_std']}")

        fit = json.loads((d / "fit" / "fit.json").read_text())
        checks.expect(fit["converged"], "cli fit: not converged")
        checks.expect(
            fit["chi2"] is not None and fit["chi2"] / fit["dof"] < 2.0,
            f"cli fit: chi2 {fit['chi2']} on {fit['dof']} dof",
        )
        qe = estimation.estimate_qe(fit["n_hat"], ref.source.mean_photons_at_fiber, ref.detector.eta_c)
        checks.expect(0.75 <= qe <= 0.85, f"cli fit: QE {qe:.4f} outside [0.75, 0.85]")

        rows = (d / "sweep" / "sweep.csv").read_text().splitlines()
        checks.expect(len(rows) == 1 + 41 * 7, f"cli sweep: {len(rows) - 1} rows")

    def probe(self, outs, tracer):
        """Run the session's commands in-process, so the layer spans are the CLI's own."""
        d = self.passdir / "inproc"
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd, args in self.commands(d):
                with tracer.span(f"bench.inproc.{cmd}"):
                    code = cli.main(args)
                if code != 0:
                    raise RuntimeError(f"in-process cipdsim {cmd} returned {code}")
        runs = [json.loads((d / sub / "summary.json").read_text()) for sub in ("sim", "dark")]
        fit = tracer.last_return["estimation.fit_mixture"]
        events = np.array((d / "sim" / "events.csv").read_text().split()[1:], dtype=float)
        return {
            "frames": sum(r["n_frames"] for r in runs),
            "resets": sum(r["n_resets"] for r in runs),
            "em_iterations": fit.n_iterations,
            "frames_csv_bytes": sum((d / sub / "frames.csv").stat().st_size for sub in ("sim", "dark")),
            **_fit_probes(events, fit),
        }


WORKLOADS = {w.name: w for w in (QeScan, CoverageSmall, ResetStorm, CliSession)}
