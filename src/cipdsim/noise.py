"""Readout-noise chain: parametric voltage PSD and CDS variance.

The voltage noise at the follower output is modeled as a white floor plus a
1/f term,

    S(f) = s_white + a_pink / f      [V^2/Hz],

low-pass filtered by a one-pole amplifier response and read out by
correlated double sampling (CDS), i.e. the difference of two samples taken
``delta_t_cds`` apart. The CDS transfer function is 4 sin^2(pi f dt), so the
charge-referred readout noise is

    sigma_e = sqrt( int S(f) * 4 sin^2(pi f dt) / (1 + (f/f_c)^2) df )
              / volts_per_carrier.

The integral runs from ``f_min`` (the 1/f divergence must be truncated; the
default 0.01 Hz is roughly the inverse observation time of a multi-minute
run) to ``100 * f_cutoff``, beyond which the low-pass has removed the band.

Known model limit: in psd mode the simulator draws each frame's read noise
independently from this PSD-integrated sigma. The per-frame variance is
right, but the noise has no frame-to-frame correlation, so the slow drift
that the 1/f term produces across frames is not reproduced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .detector import DetectorParams, volts_per_carrier

#: Relative tolerance demanded of the CDS variance quadrature.
CDS_QUAD_RTOL = 1e-6


class QuadratureError(RuntimeError):
    """The CDS variance integral failed to converge to tolerance."""


@dataclass(frozen=True)
class NoiseSpec:
    """Readout-noise description.

    Either a direct charge-referred sigma (``mode="direct"``) or a
    parametric PSD with CDS timing (``mode="psd"``). Noise is carried
    internally in electrons rms; voltage-referred quantities are converted
    at the boundary.
    """

    mode: str
    sigma_e_direct: float | None = None
    s_white: float = 0.0          # white PSD level, V^2/Hz
    a_pink: float = 0.0           # 1/f coefficient, V^2 (term a_pink / f)
    f_cutoff: float = 1.0e3       # amplifier low-pass cutoff, Hz
    delta_t_cds: float = 12.5e-3  # CDS sample separation, s
    f_min: float = 0.01           # lower integration bound, Hz

    def __post_init__(self) -> None:
        if self.mode not in ("direct", "psd"):
            raise ValueError(f"mode must be 'direct' or 'psd', got {self.mode!r}")
        if self.mode == "direct":
            # sigma 0 is allowed so noiseless simulation runs are expressible
            if self.sigma_e_direct is None or not self.sigma_e_direct >= 0:
                raise ValueError(
                    "direct mode requires sigma_e_direct >= 0, "
                    f"got {self.sigma_e_direct}"
                )
            # a PSD field here would be silently ignored by cds_sigma
            ignored = [
                f.name
                for f in fields(self)
                if f.name not in ("mode", "sigma_e_direct")
                and getattr(self, f.name) != f.default
            ]
            if ignored:
                raise ValueError(f"direct mode ignores {', '.join(ignored)}")
        else:
            if self.sigma_e_direct is not None:
                raise ValueError("psd mode ignores sigma_e_direct")
            if self.s_white < 0 or self.a_pink < 0:
                raise ValueError("s_white and a_pink must be >= 0")
            if self.s_white == 0 and self.a_pink == 0:
                raise ValueError("psd mode requires s_white or a_pink nonzero")
        if not self.f_cutoff > 0:
            raise ValueError(f"f_cutoff must be > 0, got {self.f_cutoff}")
        if not self.delta_t_cds > 0:
            raise ValueError(f"delta_t_cds must be > 0, got {self.delta_t_cds}")
        if not self.f_min > 0:
            raise ValueError(f"f_min must be > 0, got {self.f_min}")
        if not self.f_min < self.f_cutoff:
            raise ValueError(
                f"f_min ({self.f_min}) must be below f_cutoff ({self.f_cutoff})"
            )

    @classmethod
    def direct(cls, sigma_e: float) -> "NoiseSpec":
        """Charge-referred noise given directly in electrons rms."""
        return cls(mode="direct", sigma_e_direct=sigma_e)

    @classmethod
    def psd(cls, s_white: float, a_pink: float, **timing: float) -> "NoiseSpec":
        """White + 1/f PSD; ``timing`` sets ``f_cutoff``, ``delta_t_cds`` or ``f_min``."""
        return cls(mode="psd", s_white=s_white, a_pink=a_pink, **timing)


def psd_value(spec: NoiseSpec, f):
    """One-sided voltage noise PSD at frequency ``f`` (V^2/Hz).

    ``f`` may be a scalar or array; every entry must be positive. Only
    meaningful for ``mode="psd"``.
    """
    if spec.mode != "psd":
        raise ValueError("psd_value requires a NoiseSpec in psd mode")
    f_arr = np.asarray(f, dtype=float)
    if np.any(f_arr <= 0):
        raise ValueError("frequency must be > 0")
    out = spec.s_white + spec.a_pink / f_arr
    return float(out) if np.isscalar(f) else out


def cds_variance(spec: NoiseSpec) -> tuple[float, float]:
    """Voltage variance after CDS and its quadrature error bound (both V^2).

    The PSD times the CDS and low-pass transfer functions is integrated over
    ``[f_min, 100 * f_cutoff]``. Uses 4 sin^2(pi f dt) = 2 (1 - cos(2 pi f dt)):
    the smooth part is an ordinary adaptive quadrature, the oscillatory part
    goes through the cosine-weighted rule.

    Raises
    ------
    ValueError
        For a ``direct`` mode spec, which has no PSD.
    QuadratureError
        If the quadrature cannot deliver the variance to a relative 1e-6
        (relative to the pre-CDS band power when CDS cancellation makes the
        variance itself vanish, as for delta_t_cds -> 0), or if ``f_min`` is
        so close to 0 that a quadrature node rounds to f = 0.
    """
    if spec.mode != "psd":
        raise ValueError("cds_variance requires a NoiseSpec in psd mode")
    # imported here so that importing the package does not load scipy.integrate
    from scipy.integrate import IntegrationWarning, quad

    f_lo, f_hi = spec.f_min, 100.0 * spec.f_cutoff
    fc = spec.f_cutoff

    def band_psd(f):
        return (spec.s_white + spec.a_pink / f) / (1.0 + (f / fc) ** 2)

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            i_smooth, err_smooth = quad(
                band_psd, f_lo, f_hi, epsabs=0.0, epsrel=1e-9, limit=400
            )
            i_cos, err_cos = quad(
                band_psd,
                f_lo,
                f_hi,
                weight="cos",
                wvar=2.0 * math.pi * spec.delta_t_cds,
                epsabs=max(1e-10 * abs(i_smooth), 1e-300),
                epsrel=1e-9,
                limit=400,
            )
        except IntegrationWarning as exc:
            raise QuadratureError(f"CDS variance quadrature failed: {exc}") from exc
        except ZeroDivisionError as exc:
            # a node next to a tiny f_min can round to f = 0
            raise QuadratureError(
                f"CDS variance quadrature evaluated the PSD at f = 0: f_min_hz "
                f"{spec.f_min} is too close to 0 for its nodes"
            ) from exc
    variance = 2.0 * (i_smooth - i_cos)
    err_total = 2.0 * (err_smooth + err_cos)
    scale = max(abs(variance), 1e-2 * 2.0 * abs(i_smooth))
    if err_total > CDS_QUAD_RTOL * scale:
        raise QuadratureError(
            f"CDS variance quadrature error {err_total:.3e} exceeds "
            f"tolerance {CDS_QUAD_RTOL:.0e} * {scale:.3e}"
        )
    return variance, err_total


def cds_sigma(spec: NoiseSpec, params: DetectorParams) -> float:
    """Charge-referred readout noise after CDS (electrons rms).

    In ``direct`` mode this is the configured sigma unchanged. In ``psd``
    mode it is the square root of :func:`cds_variance` converted to
    electrons, and raises :class:`QuadratureError` as that function does.
    """
    if spec.mode == "direct":
        assert spec.sigma_e_direct is not None
        return spec.sigma_e_direct
    variance, _ = cds_variance(spec)
    return math.sqrt(max(variance, 0.0)) / volts_per_carrier(params)
