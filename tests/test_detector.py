import numpy as np
import pytest

from cipdsim import (
    DetectorParams,
    carriers_from_voltage,
    snr,
    snr_from_voltage,
    volts_per_carrier,
)


def make_params(**overrides):
    kw = dict(
        c_input=0.054e-12,
        g_m=1.0,
        eta_q=0.8,
        eta_c=0.8,
        leakage_rate=500.0 / 3600.0,
        reset_threshold=30e-3,
    )
    kw.update(overrides)
    return DetectorParams(**kw)


class TestVoltsPerCarrier:
    def test_reference_device_is_about_3_microvolts(self, device):
        # 0.054 pF at unity gain: one carrier steps the output by 2.967 uV
        v = volts_per_carrier(device)
        assert v == pytest.approx(2.967e-6, rel=1e-3)
        assert abs(v - 3e-6) / 3e-6 < 0.02

    def test_previous_generation_device(self):
        # 0.041 + 0.026 pF and 0.85 gain give the older 2.03 uV step
        p = make_params(c_input=0.067e-12, g_m=0.85)
        assert volts_per_carrier(p) == pytest.approx(2.0326e-6, rel=1e-3)

    @pytest.mark.parametrize("c_pf", [0.02, 0.054, 0.2, 1.0])
    def test_doubling_capacitance_halves_step(self, c_pf):
        v1 = volts_per_carrier(make_params(c_input=c_pf * 1e-12))
        v2 = volts_per_carrier(make_params(c_input=2 * c_pf * 1e-12))
        assert v2 == pytest.approx(v1 / 2, rel=1e-12)


class TestSnr:
    def test_single_carrier_at_dark_noise(self, device):
        assert snr(device, 1, 0.26) == pytest.approx(3.846, abs=1e-3)

    def test_zero_signal(self, device):
        assert snr(device, 0, 0.3) == 0.0

    def test_three_carriers(self, device):
        assert snr(device, 3, 0.33) == pytest.approx(9.0909, abs=1e-3)

    def test_rejects_nonpositive_sigma(self, device):
        with pytest.raises(ValueError, match="sigma_e"):
            snr(device, 1, 0.0)
        with pytest.raises(ValueError, match="sigma_e"):
            snr(device, 1, -0.1)

    @pytest.mark.parametrize("n", [1, 3, 17, 1024])
    def test_linear_in_carriers_exactly(self, device, n):
        assert snr(device, 2 * n, 0.26) == 2 * snr(device, n, 0.26)

    @pytest.mark.parametrize("sigma_e", [0.1, 0.26, 0.33, 2.5])
    def test_voltage_referred_overload_agrees(self, device, sigma_e):
        v_noise = sigma_e * volts_per_carrier(device)
        a = snr(device, 5, sigma_e)
        b = snr_from_voltage(device, 5, v_noise)
        assert b == pytest.approx(a, rel=1e-12)

    def test_voltage_overload_rejects_nonpositive(self, device):
        with pytest.raises(ValueError, match="v_noise"):
            snr_from_voltage(device, 1, 0.0)


class TestCarriersFromVoltage:
    def test_one_step_is_one_carrier(self, device):
        assert carriers_from_voltage(volts_per_carrier(device), device) == pytest.approx(1.0)
        assert carriers_from_voltage(2.967e-6, device) == pytest.approx(1.0, rel=1e-3)

    def test_zero(self, device):
        assert carriers_from_voltage(0.0, device) == 0.0

    def test_three_steps(self, device):
        assert carriers_from_voltage(3 * volts_per_carrier(device), device) == pytest.approx(3.0)
        assert carriers_from_voltage(8.90e-6, device) == pytest.approx(3.0, rel=1e-3)

    def test_round_trip(self, device):
        rng = np.random.default_rng(7)
        ns = np.concatenate(([0, 1, 2], rng.integers(3, 10**6, 20)))
        for n in ns:
            back = carriers_from_voltage(n * volts_per_carrier(device), device)
            assert back == pytest.approx(float(n), rel=1e-12, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("c_input", 0.0),
            ("c_input", -1e-13),
            ("g_m", 0.0),
            ("g_m", 1.5),
            ("eta_q", -0.1),
            ("eta_q", 1.1),
            ("eta_c", 2.0),
            ("leakage_rate", -1.0),
            ("reset_threshold", 0.0),
        ],
    )
    def test_invariants_enforced_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: value})

    def test_volt_step_must_not_underflow(self):
        # g_m * q_e underflows to 0, and every conversion divides by the step
        with pytest.raises(ValueError, match="g_m 5e-324"):
            make_params(g_m=5e-324)

    def test_elementary_charge_is_fixed(self):
        assert DetectorParams.q_e == 1.602176634e-19
        with pytest.raises(TypeError):
            make_params(q_e=1e-19)
