#!/usr/bin/env python3
"""Solve the default PSD levels from the measured dark-noise endpoints.

The bench measurements pin two endpoints, not the PSD decomposition: the
total dark-frame standard deviation (0.26 e at the 40 Hz frame rate, which
includes the Poisson leakage shot noise) and an upper bound of
500 nV/sqrt(Hz) on the spectrum at 1 Hz. The CDS variance is linear in both
PSD coefficients, so given a chosen pink fraction ``rho`` of the read-noise
variance budget this solves

    s_white * I_white = (1 - rho) * sigma_read^2 * vpc^2
    a_pink  * I_pink  =      rho  * sigma_read^2 * vpc^2

where sigma_read^2 = sigma_dark^2 - leakage_per_frame and I_white / I_pink
are the unit-coefficient CDS band integrals. The solved values are checked
against the 1 Hz bound and shipped in data/default_config.json.

The device, the frame rate (``source.rep_rate_hz``) and the CDS timing come
from ``--config``, the bundled config by default.

Note: putting ALL of the 1 Hz bound into the pink term (a_pink = 2.5e-13)
would alone produce ~0.5 e at the default CDS timing, so the two endpoints
cannot be met with equality simultaneously; the default keeps the spectrum
well below the bound instead.
"""

import argparse
import dataclasses
import json
import math

from cipdsim import (ConfigError, DetectorParams, NoiseSpec, PulseConfig, cds_sigma,
                     cds_variance, default_config_path, load_config, volts_per_carrier)


def solve(det: DetectorParams, base: NoiseSpec, target_dark_sigma: float,
          frame_rate: float, pink_fraction: float):
    lam = det.leakage_rate / frame_rate
    var_read_e2 = target_dark_sigma**2 - lam
    if var_read_e2 <= 0:
        raise SystemExit("leakage shot noise alone exceeds the dark-sigma target")
    target_v2 = var_read_e2 * volts_per_carrier(det) ** 2

    i_white, _ = cds_variance(dataclasses.replace(base, s_white=1.0, a_pink=0.0))
    i_pink, _ = cds_variance(dataclasses.replace(base, s_white=0.0, a_pink=1.0))

    s_white = (1.0 - pink_fraction) * target_v2 / i_white
    a_pink = pink_fraction * target_v2 / i_pink
    return s_white, a_pink, var_read_e2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=default_config_path(),
                    help="JSON config with the device, frame rate and CDS timing "
                         "(default: the bundled config)")
    ap.add_argument("--dark-sigma", type=float, default=0.26,
                    help="total dark-frame std dev target, electrons")
    ap.add_argument("--pink-fraction", type=float, default=0.5,
                    help="fraction of the read-noise variance from the 1/f term")
    args = ap.parse_args()
    if not 0.0 <= args.pink_fraction <= 1.0:
        ap.error(f"--pink-fraction must be in [0, 1], got {args.pink_fraction}")

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        raise SystemExit(f"invalid config: {exc}") from None
    if cfg.noise.mode != "psd":
        raise SystemExit(
            f"noise.mode must be 'psd' to solve PSD levels, got {cfg.noise.mode!r}"
        )
    det, base = cfg.detector, cfg.noise
    # no source section means a dark run at the default frame rate
    frame_rate = (cfg.source or PulseConfig(0.0)).rep_rate
    s_white, a_pink, var_read = solve(
        det, base, args.dark_sigma, frame_rate, args.pink_fraction
    )

    sigma_read = cds_sigma(dataclasses.replace(base, s_white=s_white, a_pink=a_pink), det)
    asd_1hz = math.sqrt(s_white + a_pink)
    print(json.dumps({
        "s_white_v2hz": s_white,
        "a_pink_v2": a_pink,
        "f_cutoff_hz": base.f_cutoff,
        "delta_t_cds_s": base.delta_t_cds,
        "f_min_hz": base.f_min,
        "check_cds_sigma_e": sigma_read,
        "check_sigma_read_target_e": math.sqrt(var_read),
        "check_dark_sigma_e": math.sqrt(
            sigma_read**2 + det.leakage_rate / frame_rate
        ),
        "check_asd_1hz_nv": asd_1hz * 1e9,
        "check_asd_below_500nv": asd_1hz < 500e-9,
    }, indent=2))


if __name__ == "__main__":
    main()
