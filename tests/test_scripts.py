"""The maintenance scripts under ``scripts/`` still run and agree with the package."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cipdsim import default_config_path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_solve_noise_defaults_reproduces_the_bundled_psd_levels():
    res = subprocess.run(
        [sys.executable, SCRIPTS / "solve_noise_defaults.py",
         "--dark-sigma", "0.26", "--pink-fraction", "0.5"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    solved = json.loads(res.stdout)
    noise = json.loads(default_config_path().read_text())["noise"]
    for key in ("s_white_v2hz", "a_pink_v2", "f_cutoff_hz", "delta_t_cds_s", "f_min_hz"):
        assert solved[key] == noise[key], key
    assert solved["check_dark_sigma_e"] == pytest.approx(0.26, rel=1e-12)
    assert solved["check_asd_below_500nv"] is True
