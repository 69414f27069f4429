"""Smoke test of the benchmark at a tiny scale (about 75 s).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from cipdsim import estimation, readout  # noqa: E402

SCALE = 0.02


def tiny(workload, trace=True):
    return run.run(workload, seed=3, seconds=0.01, trace=trace, scale=SCALE)


@pytest.fixture(scope="module")
def traced():
    return {name: tiny(name) for name in workloads.WORKLOADS}


def test_every_metric_with_its_unit(traced, tmp_path):
    for name, result in traced.items():
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            metrics = run.last_line(result, trace)["metrics"]
            assert list(metrics) == list(table), name
            for key, unit in table.items():
                assert metrics[key]["unit"] == unit
                assert np.isfinite(metrics[key]["value"]), (name, key)
        line = run.report(result, tmp_path)
        assert line["attempted"] >= 1 and line["failed"] == 0, result["failures"]


def test_spans_nest_and_self_times_are_not_negative(traced):
    names = set()
    for result in traced.values():
        spans = result["spans"]
        assert result["span_errors"] == []
        assert {s["run_id"] for s in spans} == {spans[0]["run_id"]}
        assert min(tracing.self_times(spans).values()) >= 0.0
        names |= {s["name"] for s in spans}
    wrapped = {f"{layer}.{fn}" for layer, fns in tracing.LAYER_FUNCTIONS.items() for fn in fns}
    cli = {f"cli.{cmd}" for cmd in ("snr", "simulate", "dark", "fit", "sweep")}
    assert wrapped - {"estimation.estimate_qe"} | cli <= names


def test_corrupted_reset_flags_are_caught(monkeypatch):
    assert tiny("reset_storm", trace=False)["fail_frac"] == 0.0
    simulate = readout.simulate_run

    def flip_one_reset(cfg):
        good = simulate(cfg)
        reset = good.reset.copy()
        reset[len(reset) // 2] ^= True
        return dataclasses.replace(good, reset=reset)

    monkeypatch.setattr(readout, "simulate_run", flip_one_reset)
    assert tiny("reset_storm", trace=False)["fail_frac"] > 0.0


def test_corrupted_qe_is_caught(monkeypatch):
    estimate = estimation.estimate_qe
    monkeypatch.setattr(estimation, "estimate_qe", lambda *a: 1.1 * estimate(*a))
    result = tiny("qe_scan", trace=False)
    assert result["fail_frac"] > 0.0
    assert any("QE" in msg for msg in result["failures"])
