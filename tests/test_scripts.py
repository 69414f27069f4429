"""The maintenance scripts under ``scripts/`` still run and agree with the package."""

import importlib.util
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


def run_solver(*args):
    return subprocess.run(
        [sys.executable, SCRIPTS / "solve_noise_defaults.py", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_solve_noise_defaults_reads_the_device_from_the_config(tmp_path):
    raw = json.loads(default_config_path().read_text())
    raw["detector"]["c_input_pf"] = 0.06
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    res = run_solver("--config", cfg)
    assert res.returncode == 0, res.stderr
    solved = json.loads(res.stdout)
    noise = json.loads(default_config_path().read_text())["noise"]
    for key in ("s_white_v2hz", "a_pink_v2"):
        assert solved[key] != noise[key], key
    assert solved["check_dark_sigma_e"] == pytest.approx(0.26, rel=1e-12)


def test_solve_noise_defaults_refuses_direct_noise(tmp_path):
    raw = json.loads(default_config_path().read_text())
    raw["noise"] = {"mode": "direct", "sigma_e": 0.3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    res = run_solver("--config", cfg)
    assert res.returncode != 0
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1
    assert "noise.mode" in res.stderr


@pytest.mark.parametrize("fraction", ["-0.1", "1.5"])
def test_solve_noise_defaults_refuses_a_pink_fraction_outside_0_1(fraction):
    res = run_solver("--pink-fraction", fraction)
    assert res.returncode != 0
    assert "Traceback" not in res.stderr and "--pink-fraction" in res.stderr


def test_every_mutant_finds_its_text_once():
    # the mutation job itself runs outside this suite; a refactor that moves
    # mutated code fails here first
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    src = SCRIPTS.parent / "src"
    for m in mutants.MUTANTS:
        assert (src / m.file).read_text().count(m.old) == 1, m.name
        assert m.tests and m.old != m.new, m.name
