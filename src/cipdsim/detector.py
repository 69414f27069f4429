"""Device constants and the charge-to-voltage relations of the integration
front end.

A photo-carrier deposited on the gate node of capacitance ``c_input`` shifts
the source-follower output by ``g_m * q_e / c_input`` volts; the
signal-to-noise ratio for ``N`` carriers is that step times ``N`` divided by
the rms readout noise after correlated double sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

#: Elementary charge (C), CODATA. Fixed on purpose: making it configurable
#: invites silent unit errors.
ELEMENTARY_CHARGE = 1.602176634e-19


@dataclass(frozen=True)
class DetectorParams:
    """Static device constants of the charge-integration front end.

    Attributes
    ----------
    c_input : float
        Total input capacitance at the integration node (F), > 0.
    g_m : float
        Source-follower voltage gain, 0 < g_m <= 1.
    eta_q : float
        Detector quantum efficiency, in [0, 1].
    eta_c : float
        Fiber-to-detector coupling efficiency, in [0, 1].
    leakage_rate : float
        Parasitic charge accumulation on the gate node (electrons/s), >= 0.
    reset_threshold : float
        Output voltage (V), > 0, above which the gate node is reset.
    """

    c_input: float
    g_m: float
    eta_q: float
    eta_c: float
    leakage_rate: float
    reset_threshold: float

    q_e: ClassVar[float] = ELEMENTARY_CHARGE

    def __post_init__(self) -> None:
        if not self.c_input > 0:
            raise ValueError(f"c_input must be > 0, got {self.c_input}")
        if not 0 < self.g_m <= 1:
            raise ValueError(f"g_m must be in (0, 1], got {self.g_m}")
        if not 0 <= self.eta_q <= 1:
            raise ValueError(f"eta_q must be in [0, 1], got {self.eta_q}")
        if not 0 <= self.eta_c <= 1:
            raise ValueError(f"eta_c must be in [0, 1], got {self.eta_c}")
        if not self.leakage_rate >= 0:
            raise ValueError(
                f"leakage_rate must be >= 0, got {self.leakage_rate}"
            )
        if not self.reset_threshold > 0:
            raise ValueError(
                f"reset_threshold must be > 0, got {self.reset_threshold}"
            )
        # every conversion to electrons divides by this step, which a tiny
        # g_m can underflow to 0
        if not volts_per_carrier(self) > 0:
            raise ValueError(
                f"g_m * q_e / c_input must be > 0, got 0 "
                f"(g_m {self.g_m}, c_input {self.c_input})"
            )


def volts_per_carrier(params: DetectorParams) -> float:
    """Output voltage step produced by one photo-carrier (V)."""
    return params.g_m * params.q_e / params.c_input


def snr(params: DetectorParams, n_carriers: float, sigma_e: float) -> float:
    """Signal-to-noise ratio for ``n_carriers`` with charge-referred noise.

    ``sigma_e`` is the rms readout noise in electrons; the gain, charge and
    capacitance factors cancel, leaving ``n_carriers / sigma_e``.
    """
    if not sigma_e > 0:
        raise ValueError(f"sigma_e must be > 0, got {sigma_e}")
    return n_carriers / sigma_e


def snr_from_voltage(
    params: DetectorParams, n_carriers: float, v_noise_cds: float
) -> float:
    """Signal-to-noise ratio with the CDS noise given in volts rms."""
    if not v_noise_cds > 0:
        raise ValueError(f"v_noise_cds must be > 0, got {v_noise_cds}")
    return n_carriers * volts_per_carrier(params) / v_noise_cds


def carriers_from_voltage(v: float, params: DetectorParams) -> float:
    """Convert an output voltage to (fractional) electrons.

    Exact inverse of the forward conversion; used to calibrate measured
    voltage histograms onto an electron axis.
    """
    return v / volts_per_carrier(params)
