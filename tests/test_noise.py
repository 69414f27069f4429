import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from cipdsim import (
    NoiseSpec,
    QuadratureError,
    RunConfig,
    cds_sigma,
    cds_variance,
    psd_value,
    simulate_run,
    volts_per_carrier,
)


class TestPsdValue:
    def test_500nv_per_rthz_at_1hz(self):
        # any split summing to (500 nV)^2 at 1 Hz
        spec = NoiseSpec.psd(s_white=1e-14, a_pink=2.4e-13)
        assert psd_value(spec, 1.0) == pytest.approx(2.5e-13, rel=1e-12)
        assert math.sqrt(psd_value(spec, 1.0)) == pytest.approx(500e-9, rel=1e-12)

    def test_white_only_is_flat(self):
        spec = NoiseSpec.psd(s_white=3e-15, a_pink=0.0)
        for f in (0.1, 1.0, 42.0, 9999.0):
            assert psd_value(spec, f) == 3e-15

    def test_mixed_at_10hz(self):
        spec = NoiseSpec.psd(s_white=1e-14, a_pink=2.4e-13)
        assert psd_value(spec, 10.0) == pytest.approx(3.4e-14, rel=1e-12)

    def test_strictly_decreasing_with_pink(self):
        spec = NoiseSpec.psd(s_white=1e-15, a_pink=1e-14)
        fs = np.logspace(-1, 4, 30)
        vals = psd_value(spec, fs)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_bad_frequency_and_mode(self):
        spec = NoiseSpec.psd(s_white=1e-15, a_pink=1e-14)
        with pytest.raises(ValueError):
            psd_value(spec, 0.0)
        with pytest.raises(ValueError):
            psd_value(spec, -1.0)
        with pytest.raises(ValueError):
            psd_value(NoiseSpec.direct(0.26), 1.0)


class TestNoiseSpecValidation:
    def test_direct_needs_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(mode="direct")

    def test_psd_needs_some_noise(self):
        with pytest.raises(ValueError):
            NoiseSpec.psd(0.0, 0.0)

    def test_f_min_below_cutoff(self):
        with pytest.raises(ValueError, match="f_min"):
            NoiseSpec.psd(1e-15, 0.0, f_cutoff=10.0, f_min=10.0)

    def test_zero_sigma_direct_allowed_for_noiseless_runs(self):
        assert NoiseSpec.direct(0.0).sigma_e_direct == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [("s_white", 1e-15), ("a_pink", 1e-14), ("f_cutoff", 500.0),
         ("delta_t_cds", 1e-3), ("f_min", 0.1)],
    )
    def test_direct_rejects_psd_fields(self, field, value):
        with pytest.raises(ValueError, match=f"direct mode ignores {field}"):
            NoiseSpec(mode="direct", sigma_e_direct=0.3, **{field: value})

    def test_psd_rejects_sigma_e_direct(self):
        with pytest.raises(ValueError, match="psd mode ignores sigma_e_direct"):
            NoiseSpec(mode="psd", sigma_e_direct=0.3, s_white=1e-15)


class TestCdsSigma:
    def test_direct_mode_passthrough(self, device):
        assert cds_sigma(NoiseSpec.direct(0.26), device) == 0.26

    # widely separated samples through a one-pole low-pass act as two
    # uncorrelated reads: variance -> pi * s_white * f_cutoff
    @pytest.mark.parametrize(
        "s_white,f_cutoff,dt",
        [
            (1e-14, 1.0e3, 1.0e-2),   # dt*fc = 10
            (2.5e-13, 1.0e3, 5.0e-2),  # 50
            (1e-15, 1.0e4, 1.0e-2),   # 100
            (5e-14, 4.0e4, 1.0e-2),   # 400
            (1e-16, 2.0e4, 5.0e-2),   # 1000
        ],
    )
    def test_white_noise_closed_form(self, device, s_white, f_cutoff, dt):
        spec = NoiseSpec.psd(s_white, 0.0, f_cutoff=f_cutoff, delta_t_cds=dt)
        got = cds_sigma(spec, device)
        want = math.sqrt(math.pi * s_white * f_cutoff) / volts_per_carrier(device)
        assert abs(got - want) / want < 0.005

    def test_vanishing_separation_cancels_white_noise(self, device):
        # identical samples cancel: variance collapses as delta_t -> 0
        wide = cds_sigma(NoiseSpec.psd(1e-14, 0.0, delta_t_cds=1.0), device)
        sigmas = [
            cds_sigma(NoiseSpec.psd(1e-14, 0.0, delta_t_cds=dt), device)
            for dt in (1e-5, 1e-7, 1e-9)
        ]
        assert sigmas[0] > sigmas[1] > sigmas[2]
        assert (sigmas[2] / wide) ** 2 < 1e-8

    def test_monotone_in_psd_levels(self, device):
        rng = np.random.default_rng(123)
        for _ in range(10):
            s = 10 ** rng.uniform(-17, -13)
            a = 10 ** rng.uniform(-16, -13)
            base = cds_sigma(NoiseSpec.psd(s, a), device)
            assert cds_sigma(NoiseSpec.psd(s * 1.5, a), device) >= base
            assert cds_sigma(NoiseSpec.psd(s, a * 1.5), device) >= base

    def test_calibrated_spec_gives_dark_resolution(self, device, calibrated_noise):
        # read-noise part of the 0.26 e total dark sigma (leakage shot
        # noise contributes the rest)
        sigma = cds_sigma(calibrated_noise, device)
        assert abs(sigma - 0.26) < 0.01
        lam = device.leakage_rate / 40.0
        assert math.sqrt(sigma**2 + lam) == pytest.approx(0.26, abs=1e-6)


class TestCdsVariance:
    def test_sigma_is_its_root_in_electrons(self, device, calibrated_noise):
        variance, err = cds_variance(calibrated_noise)
        sigma = math.sqrt(variance) / volts_per_carrier(device)
        assert cds_sigma(calibrated_noise, device) == sigma
        assert 0.0 <= err <= 1e-6 * variance

    def test_linear_in_the_psd_levels(self, calibrated_noise):
        # the noise script solves the PSD levels from these unit-level integrals
        unit = dataclasses.replace
        i_white, _ = cds_variance(unit(calibrated_noise, s_white=1.0, a_pink=0.0))
        i_pink, _ = cds_variance(unit(calibrated_noise, s_white=0.0, a_pink=1.0))
        variance, _ = cds_variance(calibrated_noise)
        s, a = calibrated_noise.s_white, calibrated_noise.a_pink
        assert variance == pytest.approx(s * i_white + a * i_pink, rel=1e-9)

    def test_direct_mode_has_no_psd(self):
        with pytest.raises(ValueError, match="psd mode"):
            cds_variance(NoiseSpec.direct(0.26))

    def test_unconverged_quadrature_raises(self, device):
        # at a 1000 s CDS separation the cosine weight turns 1e8 times over the band
        spec = NoiseSpec.psd(0.0, 1e-14, delta_t_cds=1000.0)
        with pytest.raises(QuadratureError):
            cds_variance(spec)
        with pytest.raises(QuadratureError):
            cds_sigma(spec, device)


def read_noise_draws(device, sigma_e, seed, n):
    """The simulator's read-noise draws: a leakage-free dark run measures noise only."""
    det = dataclasses.replace(device, leakage_rate=0.0)
    cfg = RunConfig(n_frames=n, detector=det, noise=NoiseSpec.direct(sigma_e), seed=seed)
    return simulate_run(cfg).measured_delta_e


class TestSampleReadNoise:
    def test_sample_std_matches(self, device):
        draws = read_noise_draws(device, 0.26, 2024, 10**6)
        assert abs(np.std(draws, ddof=1) - 0.26) < 0.001

    def test_half_electron_exceedance(self, device):
        # 2 * Phi(-0.5 / 0.26) = 0.05447
        draws = read_noise_draws(device, 0.26, 99, 10**6)
        frac = np.mean(np.abs(draws) > 0.5)
        want = 2 * stats.norm.cdf(-0.5 / 0.26)
        assert want == pytest.approx(0.0545, abs=3e-4)
        assert abs(frac - want) < 0.002

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec.direct(-0.1)
