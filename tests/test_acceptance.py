"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
report. Every tolerance is fixed here; nothing is calibrated at test time.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, stats

from cipdsim import (
    DetectorParams,
    NoiseSpec,
    PulseConfig,
    RunConfig,
    build_histogram,
    cds_sigma,
    classify,
    discrimination_error,
    estimate_qe,
    extract_events,
    fit_mixture,
    goodness_of_fit,
    histogram_peaks,
    log_likelihood,
    log_likelihood_grad,
    mixture_density,
    sample_photocarriers,
    sigma_from_dark,
    simulate_run,
    snr,
    volts_per_carrier,
)
from cipdsim.estimation import _em_pass


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def device():
    return DetectorParams(
        c_input=0.054e-12,
        g_m=1.0,
        eta_q=0.8,
        eta_c=0.8,
        leakage_rate=500.0 / 3600.0,
        reset_threshold=30e-3,
    )


@pytest.fixture(scope="module")
def calibrated_noise():
    from cipdsim import default_config_path

    raw = json.loads(default_config_path().read_text())["noise"]
    return NoiseSpec.psd(
        s_white=raw["s_white_v2hz"],
        a_pink=raw["a_pink_v2"],
        f_cutoff=raw["f_cutoff_hz"],
        delta_t_cds=raw["delta_t_cds_s"],
        f_min=raw["f_min_hz"],
    )


FIG3_MEANS = [1.58, 1.84, 2.22, 3.07, 4.01, 10.18]


@pytest.fixture(scope="module")
def bright_scan_fits(device):
    """Six simulated intensities at 1e4 events each, fitted once."""
    results = {}
    for i, m in enumerate(FIG3_MEANS):
        cfg = RunConfig(
            n_frames=10500,
            detector=device,
            noise=NoiseSpec.direct(0.33),
            source=PulseConfig(m / 0.64),
            seed=200 + i,
        )
        events = extract_events(simulate_run(cfg))[:10**4]
        l_max = 20 if np.mean(events) <= 10 else 30
        results[m] = (events, fit_mixture(events, l_max=l_max))
    return results


def test_criterion_1_charge_to_voltage(device):
    vpc = volts_per_carrier(device)
    ok = abs(vpc - 3e-6) / 3e-6 < 0.02 and vpc == pytest.approx(2.967e-6, rel=1e-3)
    report(1, ok, f"volts_per_carrier = {vpc:.4e} V (2.967 uV, within 2% of 3 uV)")


def test_criterion_2_dark_noise(device, calibrated_noise):
    t0 = time.time()
    sigma_psd = cds_sigma(calibrated_noise, device)
    run = simulate_run(
        RunConfig(n_frames=10**5, detector=device, noise=calibrated_noise, seed=77)
    )
    sigma_dark = sigma_from_dark(extract_events(run))
    snr01 = snr(device, 1, sigma_dark)
    elapsed = time.time() - t0
    ok = (
        abs(sigma_psd - 0.26) < 0.01
        and abs(sigma_dark - 0.26) < 0.005
        and abs(snr01 - 3.85) < 0.08
        and elapsed < 5.0
    )
    report(
        2,
        ok,
        f"cds_sigma = {sigma_psd:.4f} e (0.26 +- 0.01), dark sample sigma = "
        f"{sigma_dark:.4f} e (0.26 +- 0.005), implied 0/1 S/N = {snr01:.3f} "
        f"(3.85, ~4), elapsed {elapsed:.1f} s",
    )


def test_criterion_3_low_intensity_histograms(device):
    t0 = time.time()
    means = [1.07, 2.55, 2.85]
    coverage = {}
    for m in means:
        hits = 0
        for seed in range(100):
            cfg = RunConfig(
                n_frames=700,
                detector=DetectorParams(
                    c_input=device.c_input,
                    g_m=device.g_m,
                    eta_q=device.eta_q,
                    eta_c=device.eta_c,
                    leakage_rate=0.0,
                    reset_threshold=1.0,
                ),
                noise=NoiseSpec.direct(0.33),
                source=PulseConfig(m / 0.64),
                seed=3000 + seed,
            )
            events = extract_events(simulate_run(cfg))
            assert events.size == 700
            fit = fit_mixture(events)
            if fit.converged and abs(fit.n_hat - m) <= 3 * fit.stderr_n:
                hits += 1
        coverage[m] = hits

    rng = np.random.default_rng(33)
    big = rng.poisson(2.85, 10**5) + rng.normal(0.0, 0.33, 10**5)
    peaks = histogram_peaks(build_histogram(big, 0.1))
    peak_ok = all(np.min(np.abs(peaks - k)) <= 0.15 for k in range(5))

    elapsed = time.time() - t0
    ok = all(v >= 95 for v in coverage.values()) and peak_ok and elapsed < 30.0
    report(
        3,
        ok,
        f"3*stderr coverage per mean {coverage} (each >= 95/100); multipeak "
        f"maxima near 0..4 at 1e5 events: {peak_ok}; elapsed {elapsed:.1f} s",
    )


def test_criterion_4_bright_scan_goodness_of_fit(bright_scan_fits):
    t0 = time.time()
    ratios = {}
    for m, (events, fit) in bright_scan_fits.items():
        chi2, dof = goodness_of_fit(build_histogram(events, 1.0), fit)
        ratios[m] = chi2 / dof
    elapsed = time.time() - t0
    ok = all(r < 2.0 for r in ratios.values()) and elapsed < 30.0
    detail = ", ".join(f"{m}: {r:.2f}" for m, r in ratios.items())
    report(4, ok, f"chi2/dof on 1 e histograms {{{detail}}} (< 2); elapsed {elapsed:.1f} s")


def test_criterion_5_quantum_efficiency_back_calculation(bright_scan_fits):
    t0 = time.time()
    qes = {}
    for m, (_, fit) in bright_scan_fits.items():
        qes[m] = estimate_qe(fit.n_hat, m / 0.64, 0.8)
    elapsed = time.time() - t0
    ok = all(0.75 <= q <= 0.85 for q in qes.values()) and elapsed < 30.0
    detail = ", ".join(f"{m}: {q:.3f}" for m, q in qes.items())
    report(5, ok, f"back-calculated QE {{{detail}}} (all in [0.75, 0.85]); elapsed {elapsed:.1f} s")


class TestCriterion6Properties:
    def test_thinning_equivalence(self, device):
        cfgs = [PulseConfig(m / 0.64) for m in (0.5, 1.07, 2.85)]
        worst_p = 1.0
        for i, cfg in enumerate(cfgs):
            a = sample_photocarriers(cfg, device, np.random.default_rng(61 + i), "direct", size=10**5)
            b = sample_photocarriers(cfg, device, np.random.default_rng(71 + i), "two_stage", size=10**5)
            ha = np.bincount(np.minimum(a, 16), minlength=17)
            hb = np.bincount(np.minimum(b, 16), minlength=17)
            keep = (ha + hb) > 0
            chi2 = float(np.sum((ha[keep] - hb[keep]) ** 2 / (ha[keep] + hb[keep])))
            p = stats.chi2.sf(chi2, int(keep.sum()) - 1)
            worst_p = min(worst_p, p)
        report("6/thinning", worst_p > 0.001, f"two-sample chi-square min p = {worst_p:.4f} (> 0.001)")

    def test_em_monotonicity_trace(self):
        worst = 0.0
        for seed, (n_true, s_true) in enumerate([(1.07, 0.3), (2.55, 0.33), (10.18, 0.33)]):
            rng = np.random.default_rng(4000 + seed)
            events = rng.poisson(n_true, 5000) + rng.normal(0, s_true, 5000)
            n, sig = max(float(np.mean(events)), 0.05), 0.3
            l_max = 30 if n > 10 else 20
            prev = -np.inf
            for _ in range(200):
                ll, s_rl, s_rsq = _em_pass(events, n, sig, l_max)[:3]
                drop = prev - ll
                worst = max(worst, drop)
                if abs(ll - prev) < 1e-8:
                    break
                prev = ll
                n = max(s_rl / events.size, 1e-9)
                sig = max(math.sqrt(s_rsq / events.size), 0.01)
        report("6/em-monotone", worst <= 1e-7, f"max log-likelihood drop across traces = {worst:.2e}")

    def test_density_normalization(self):
        worst = 0.0
        for n, s in [(1.07, 0.3), (2.85, 0.33), (10.18, 0.33)]:
            val, _ = integrate.quad(
                lambda x: mixture_density(x, n, s, 20), -8.0, 28.0, limit=500
            )
            worst = max(worst, abs(val - stats.poisson.cdf(20, n)))
        report("6/normalization", worst < 1e-8, f"max |integral - Poisson mass below cutoff| = {worst:.1e}")

    def test_likelihood_gradient(self):
        rng = np.random.default_rng(4321)
        events = rng.poisson(2.55, 1000) + rng.normal(0, 0.33, 1000)
        g_n, g_s = log_likelihood_grad(events, 2.55, 0.33)
        h = 1e-6
        fd_n = (log_likelihood(events, 2.55 + h, 0.33) - log_likelihood(events, 2.55 - h, 0.33)) / (2 * h)
        fd_s = (log_likelihood(events, 2.55, 0.33 + h) - log_likelihood(events, 2.55, 0.33 - h)) / (2 * h)
        rel = max(abs(g_n - fd_n) / abs(fd_n), abs(g_s - fd_s) / abs(fd_s))
        report("6/gradient", rel < 1e-4, f"max relative gradient error vs finite differences = {rel:.1e}")

    def test_cds_quadrature_vs_closed_form(self, device):
        worst = 0.0
        for s_white, fc, dt in [
            (1e-14, 1e3, 1e-2),
            (2.5e-13, 1e3, 5e-2),
            (1e-15, 1e4, 1e-2),
            (5e-14, 4e4, 1e-2),
            (1e-16, 2e4, 5e-2),
        ]:
            got = cds_sigma(NoiseSpec.psd(s_white, 0.0, f_cutoff=fc, delta_t_cds=dt), device)
            want = math.sqrt(math.pi * s_white * fc) / volts_per_carrier(device)
            worst = max(worst, abs(got - want) / want)
        report("6/cds-closed-form", worst < 0.005, f"max deviation from sqrt(pi*S0*fc) = {worst:.3%} (< 0.5%)")

    def test_discrimination_error_monotone(self):
        grid = np.arange(0.05, 0.601, 0.05)
        ok = True
        for mode in ("nearest", "map"):
            vals = [discrimination_error(1.07, s, mode) for s in grid]
            ok = ok and all(b >= a for a, b in zip(vals, vals[1:]))
        report("6/error-monotone", ok, "discrimination error non-decreasing on sigma grid 0.05..0.6")

    def test_cli_byte_determinism(self, tmp_path):
        def cli(*args):
            res = subprocess.run(
                [sys.executable, "-m", "cipdsim.cli", *map(str, args)],
                capture_output=True,
                text=True,
            )
            assert res.returncode == 0, res.stderr
            return res.stdout

        pairs = []
        for tag in ("a", "b"):
            sim = tmp_path / f"sim_{tag}"
            cli("simulate", "--out", sim, "--seed", "5", "--frames", "400", "--no-timestamp")
            dark = tmp_path / f"dark_{tag}"
            cli("dark", "--out", dark, "--seed", "6", "--frames", "400", "--no-timestamp")
            fit = tmp_path / f"fit_{tag}"
            cli("fit", sim / "events.csv", "--column", "measured_delta_e", "--out", fit)
            sweep = tmp_path / f"sweep_{tag}"
            cli("sweep", "--out", sweep, "--param", "c_input_pf=0.05:0.07:0.01")
            stdout = cli("snr", "--sigma-from-psd")
            pairs.append((sim, dark, fit, sweep, stdout))

        same = pairs[0][4] == pairs[1][4]
        for d0, d1 in zip(pairs[0][:4], pairs[1][:4]):
            for f0 in sorted(d0.iterdir()):
                same = same and f0.read_bytes() == (d1 / f0.name).read_bytes()
        report("6/cli-determinism", same, "all CLI outputs byte-identical across reruns")


def test_criterion_7_derived_values():
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if classify(mid, 1.07, 0.3, "map") == 0:
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)
    asym = discrimination_error(30.0, 0.33, "nearest", l_max=80)
    ok = abs(boundary - 0.4939) <= 1e-3 and abs(asym - 0.1297) <= 1e-3
    report(
        7,
        ok,
        f"0/1 map boundary at n=1.07, sigma=0.3: x* = {boundary:.4f} (0.4939 +- 1e-3); "
        f"interior-dominated nearest error at sigma=0.33: {asym:.4f} (0.1297 +- 1e-3)",
    )
