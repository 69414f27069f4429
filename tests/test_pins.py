"""Reference pins: exact output bytes and fit values at fixed seeds.

The digests and fit values were recorded from the reference implementation.
Any refactor of the simulator, the CLI writers or the estimator must keep
the simulation bytes identical and the fit within the stated tolerances.

The fit pins were re-recorded when the plain EM loop became SQUAREM, and
again when the sums over the components became fixed-order numpy reductions
and a SQUAREM cycle learned to stop at its first EM image, and again when
the E-step came to sum each event over a band of components, and again
when it came to lay the band out component-major and add over the
components in order, and again when the fit came to take Newton steps on
the observed information and to read the standard error from it, and again
when the E-step came to build its statistics from each event's moments
instead of normalised responsibilities. The
plain-EM optimum each one held before is kept in ``PLAIN_EM`` and checked
too: the pinned fit reaches at least its log-likelihood, moves n and sigma
by less than a thousandth of the standard error and keeps the standard
error. ``test_small_fit_values_pinned`` pins one fit of the coverage
study's size (700 events) exactly, its standard error included.
``test_fit_trajectories_pinned`` pins every point the fit runs a pass at,
on inputs that reach each kind of step, and
``test_run_range_messages_pinned`` the config's messages for a run out of
range.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from cipdsim import (
    ConfigError,
    DetectorParams,
    NoiseSpec,
    PulseConfig,
    RunConfig,
    default_config_path,
    estimation,
    extract_events,
    fit_mixture,
    simulate_run,
)
from cipdsim.config import parse_config

SIMULATE_PINS = {
    "events.csv": "a098f689aecec87326f4de952a0226b17d3c9a757917a6e29366c48e0b187f8f",
    "frames.csv": "05091bcd052a6d3437a57eb247dd33e36c97bcd9855ec878fc8e0d1ebe284d18",
    "histogram.csv": "bf415807aeb255022839da624cea48d18d351a69fa5db189c270ddb059bfba1f",
    "summary.json": "1f21c66e5093166cc889bdf4a2030634ca8130bedc6bd5b5f6f7b8821b1baf49",
}

DARK_PINS = {
    "events.csv": "208b3dfe35ed007f7ef2463068ed33b9d230a155f2e4d421b1b4b2d7d1b2dca3",
    "frames.csv": "b047c27c74b97e8be165bd604cf784d623933408907ecb315d61acb4ab39d862",
    "histogram.csv": "cc3f3815678593076ded7b15b591a19d87194c678814cf529eec5aeea0889575",
    "summary.json": "895e97e5757593b77f1cda6a088fea6063a655545f275c890427095d3e30a88e",
}

SWEEP_PIN = "acd6ba320cf3a248d4113f931343e194a0d23afcb9c9c2bb8dd8842b1008448e"

FIT_PINS = {
    "fitted_curve.csv": "f47d5c52b382849ed422ec00c2fb9eb8a0ae14e2e984fc8048a6c8ceafe1167b",
    "histogram.csv": "006e0aa4793ac08bba3cd3bc88c191dfac55a121c184c71623cce25aec439faa",
}

#: (n_hat, sigma_hat, log_likelihood, stderr_n) of the plain-EM fits
PLAIN_EM = {
    "fit command": (1.078962572819087, 0.25325014848557176,
                    -25814.531473540716, 0.007444198696625594),
    "fit values": (2.5690625304150094, 0.32563206024108954,
                   -37032.25994279288, 0.011526468491260246),
}


def assert_agrees_with_plain_em(name, n_hat, sigma_hat, log_likelihood, stderr_n):
    old_n, old_sigma, old_ll, old_stderr = PLAIN_EM[name]
    assert log_likelihood >= old_ll
    assert abs(n_hat - old_n) < 1e-3 * stderr_n
    assert abs(sigma_hat - old_sigma) < 1e-3 * stderr_n
    assert stderr_n == pytest.approx(old_stderr, rel=1e-6, abs=0)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cipdsim.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


@pytest.mark.parametrize("command, pins", [("simulate", SIMULATE_PINS), ("dark", DARK_PINS)])
def test_simulation_bytes_pinned(tmp_path, command, pins):
    res = run_cli(command, "--seed", 1, "--frames", 20000, "--no-timestamp",
                  "--out", tmp_path / "o")
    assert res.returncode == 0, res.stderr
    assert digests(tmp_path / "o") == pins


def test_two_dimensional_sweep_bytes_pinned(tmp_path):
    res = run_cli("sweep", "--param", "rep_rate_hz=20:60:10",
                  "--param", "f_cutoff_hz=400:1600:400",
                  "--out", tmp_path / "o")
    assert res.returncode == 0, res.stderr
    assert digests(tmp_path / "o") == {"sweep.csv": SWEEP_PIN}


def test_fit_command_output_pinned(tmp_path):
    res = run_cli("simulate", "--seed", 1, "--frames", 20000, "--no-timestamp",
                  "--out", tmp_path / "sim")
    assert res.returncode == 0, res.stderr
    res = run_cli("fit", tmp_path / "sim" / "events.csv", "--column", "measured_delta_e",
                  "--out", tmp_path / "fit")
    assert res.returncode == 0, res.stderr
    got = digests(tmp_path / "fit")
    assert {name: got[name] for name in FIT_PINS} == FIT_PINS
    fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert fit["converged"] is True
    assert fit["iterations"] == 7
    assert fit["n_hat"] == 1.0789625801020952
    assert fit["sigma_hat"] == 0.25325011435534217
    assert fit["log_likelihood"] == -25814.53147354046
    assert fit["stderr_n"] == pytest.approx(0.007444198702896222, rel=1e-9, abs=0)
    assert fit["dof"] == 62
    assert_agrees_with_plain_em("fit command", fit["n_hat"], fit["sigma_hat"],
                                fit["log_likelihood"], fit["stderr_n"])


def test_fit_values_pinned():
    det = DetectorParams(c_input=0.054e-12, g_m=1.0, eta_q=0.8, eta_c=0.8,
                         leakage_rate=500.0 / 3600.0, reset_threshold=30e-3)
    run = simulate_run(RunConfig(n_frames=20100, detector=det, noise=NoiseSpec.direct(0.33),
                                 source=PulseConfig(4.0), seed=2024))
    events = extract_events(run)[:20000]
    assert events.size == 20000
    fit = fit_mixture(events)
    assert fit.converged
    assert fit.n_iterations == 5
    assert fit.n_hat == 2.5690625188428022
    assert fit.sigma_hat == 0.3256323386510964
    assert fit.log_likelihood == -37032.259942788194
    assert fit.stderr_n == pytest.approx(0.011526468844864893, rel=1e-9, abs=0)
    assert_agrees_with_plain_em("fit values", fit.n_hat, fit.sigma_hat,
                                fit.log_likelihood, fit.stderr_n)


def test_small_fit_values_pinned():
    # one fit of the coverage study's size: 700 frames, no leakage, no reset
    det = DetectorParams(c_input=0.054e-12, g_m=1.0, eta_q=0.8, eta_c=0.8,
                         leakage_rate=0.0, reset_threshold=1.0)
    run = simulate_run(RunConfig(n_frames=700, detector=det, noise=NoiseSpec.direct(0.33),
                                 source=PulseConfig(2.55 / (det.eta_c * det.eta_q)), seed=7))
    events = extract_events(run)
    assert events.size == 700
    fit = fit_mixture(events)
    assert fit.converged and fit.degenerate is None
    assert fit.n_iterations == 5
    assert fit.n_hat == 2.644761084040707
    assert fit.sigma_hat == 0.3517785912071486
    assert fit.log_likelihood == -1303.3890547979363
    assert fit.stderr_n == 0.06272421173890964


def mixture_events(n, sigma, size, seed):
    rng = np.random.default_rng(seed)
    return rng.poisson(n, size) + rng.normal(0.0, sigma, size)


#: sha256 of the repr of ``(points, fit)``: the ``(n, sigma)`` of every pass
#: ``fit_mixture`` runs, in order, and the ``MixtureFit`` it returns
TRAJECTORY_PINS = {
    # Newton steps only
    "newton": (lambda: mixture_events(2.22, 0.33, 20000, 5),
               "7d6703cea2258bd87c2d9d9b1cab5b80a81616960c050a35282fa061373ef3a6"),
    # the Newton site's EM image, a SQUAREM cycle and 3 backtracks
    "em-image": (lambda: mixture_events(1.07, 0.02, 700, 0),
                 "dbb669e340fe705a31cb206fa9dfb05d3c249b7f5e368baa7651e1fa33d20d33"),
    # backtracking, the plain EM step, and n_hat at its floor
    "floor": (lambda: np.random.default_rng(0).normal(0.0, 0.3, 2000),
              "575eb214d710064d5486bb752e23b03083c2440a5f2b8156337cc53c1973e3cc"),
    # every step kind, and a degenerate fit
    "degenerate": (lambda: np.random.default_rng(1).normal(-50.0, 50.0, 500),
                   "4b5bd15f05118b67da748329e0cd6092e4d0a464aaaf900248881c092b23be93"),
    # Newton and SQUAREM proposals refused inside the bounds, some by less
    # than 1 in log-likelihood
    "refused": (lambda: mixture_events(12.0, 0.8, 500, 0),
                "fa7611d89770fc41d493a9dfe71b5691e946ac0c127c51e8910bfbf67a8cf9ec"),
}


@pytest.mark.parametrize("name", TRAJECTORY_PINS)
def test_fit_trajectories_pinned(monkeypatch, name):
    draw, pin = TRAJECTORY_PINS[name]
    points = []
    em_pass = estimation._em_pass

    def recording_pass(events, n, sigma, *args, **kwargs):
        points.append((n, sigma))
        return em_pass(events, n, sigma, *args, **kwargs)

    monkeypatch.setattr(estimation, "_em_pass", recording_pass)
    fit = fit_mixture(draw())
    assert hashlib.sha256(repr((points, fit)).encode()).hexdigest() == pin


@pytest.mark.parametrize("run, message", [
    ({"n_frames": 0}, "run.n_frames must be >= 1, got 0"),
    ({"seed": -1}, "run.seed must be a 64-bit unsigned int, got -1"),
    ({"seed": 2**64}, "run.seed must be a 64-bit unsigned int, got 18446744073709551616"),
], ids=["n_frames-0", "seed-negative", "seed-2**64"])
def test_run_range_messages_pinned(run, message):
    raw = json.loads(default_config_path().read_text())
    raw["run"] = run
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value) == message
