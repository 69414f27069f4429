#!/usr/bin/env python3
"""Mutation checks: every mutant in the table must make its named tests fail.

Each entry of ``MUTANTS`` names a file under ``src/``, a text that occurs in
it exactly once, the text to put in its place and the pytest node ids that
must fail once it is there. For each entry the script copies ``src/`` to a
temporary directory, applies the mutant to the copy and runs the named tests
against it, one pytest process at a time, with the copy first on
``PYTHONPATH``. It exits 1 if a mutant survives (its tests pass), if an old
text is not found exactly once, or if the tests did not import the copy; so
a refactor that rewrites mutated code must update the table.

``EQUIVALENT`` lists mutants that no test can tell apart, each with the
reason. They are documented here and neither run nor counted.

Usage, from the repository root:

    python scripts/mutants.py            # every mutant
    python scripts/mutants.py --list     # the table
    python scripts/mutants.py NAME ...   # the named mutants only
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


EST = "cipdsim/estimation.py"
READOUT = "cipdsim/readout.py"
CONFIG = "cipdsim/config.py"
CLI = "cipdsim/cli.py"
BOUNDS = "cipdsim/_bounds.py"
KERNEL = "tests/test_estimation.py::TestExactKernel"
TRAJECTORY = "tests/test_pins.py::test_fit_trajectories_pinned"
RUN_MESSAGES = "tests/test_pins.py::test_run_range_messages_pinned"

MUTANTS = (
    # the moment E-step
    Mutant("moments about the band's middle row for every n", EST,
           "    h = min(k // 2, round(n))\n", "    h = k // 2\n",
           (f"{KERNEL}::test_chunk_boundary_and_underflow_warning",)),
    Mutant("the residual's centre one row off", EST,
           "np.subtract(np.subtract(shifted, h, out=sq), c1, out=sq)",
           "np.subtract(np.subtract(shifted, h + 1, out=sq), c1, out=sq)",
           (f"{KERNEL}::test_band_is_narrower_than_the_cutoff[2.55-0.33-20]",)),
    Mutant("the s == 0 mask dropped", EST,
           "        s[dead] = 1.0  # every e of such an event is 0, and so is every moment\n",
           "",
           (f"{KERNEL}::test_non_finite_events_match_the_full_sum[1e+200]",)),
    Mutant("E[(x - l)^2] without Var(l)", EST,
           "np.add(np.square(sq, out=sq), var, out=sq)",
           "np.square(sq, out=sq)",
           (f"{KERNEL}::test_band_is_narrower_than_the_cutoff[2.55-0.33-20]",)),
    Mutant("the lo term dropped from sum(r l)", EST,
           "    sum_rl = float(centres) + float(c1.sum())\n",
           "    sum_rl = float(h * live) + float(c1.sum())\n",
           (f"{KERNEL}::test_band_is_narrower_than_the_cutoff[10.18-0.33-30]",)),
    Mutant("a pair's sum takes its upper row twice", EST,
           "np.add(e[up], e[down], out=pair_sum)",
           "np.add(e[up], e[up], out=pair_sum)",
           (f"{KERNEL}::test_band_is_narrower_than_the_cutoff[2.55-0.33-20]",)),
    Mutant("a pair's difference with the rows swapped", EST,
           "np.subtract(e[up], e[down], out=pair_diff)",
           "np.subtract(e[down], e[up], out=pair_diff)",
           (f"{KERNEL}::test_band_is_narrower_than_the_cutoff[2.55-0.33-20]",)),
    Mutant("the row sums never taken", EST,
           "    if sum_rl < centres / 4.0 or c2.max() > _EXPANSION_LIMIT / size * sum_rsq:\n",
           "    if False:\n",
           (f"{KERNEL}::test_subnormal_and_zero_cells",)),
    Mutant("the row sums always taken", EST,
           "    if sum_rl < centres / 4.0 or c2.max() > _EXPANSION_LIMIT / size * sum_rsq:\n",
           "    if True:\n",
           (f"{KERNEL}::test_events_of_the_model[2.55-0.33-20]",)),
    Mutant("the information at a point of -inf not NaN", EST,
           "    if ll == -math.inf:  # an event with no density here: no information either\n",
           "    if False:\n",
           (f"{KERNEL}::test_non_finite_events_match_the_full_sum[1e+200]",)),
    Mutant("c3 scaled like c2", EST,
           "np.add(c3, np.multiply(odd, delta2, out=odd), out=c3)",
           "np.add(c3, np.multiply(odd, delta, out=odd), out=c3)",
           ("tests/test_estimation.py::TestObservedInformation::"
            "test_matches_the_central_moments[2.85-0.33-1e-08]",)),
    # the band and the log-sum-exp
    Mutant("a band rule with g = 0", EST,
           "    g = max(abs(math.log(n)), abs(math.log(n) - math.log(l_max)))\n",
           "    g = 0.0\n",
           (f"{KERNEL}::test_steep_weights[0.6]",)),
    Mutant("a row maximum that skips the last component", EST,
           "    np.maximum.reduce(a, axis=0, out=m)\n",
           "    np.maximum.reduce(a[:-1], axis=0, out=m)\n",
           (f"{KERNEL}::test_band_is_narrower_than_the_cutoff[2.55-0.33-20]",)),
    Mutant("the component sum as one add.reduce", EST,
           "    np.copyto(out, rows[0])\n    for row in rows[1:]:\n        np.add(out, row, out=out)\n",
           "    np.add.reduce(rows, axis=0, out=out)\n",
           (f"{KERNEL}::test_softmax_sums_the_rows_in_order",)),
    Mutant("a stale log-factorial cache", EST,
           "        self.log_fact = _log_factorials(l_max)\n",
           "        self.log_fact = special.gammaln(self.rows + 2.0)\n",
           (f"{KERNEL}::test_band_is_narrower_than_the_cutoff[2.55-0.33-20]",)),
    # the fit's accept rule and its proposals
    Mutant("a refused proposal accepted within 1 of the ll to beat", EST,
           "state[0] >= ll_from else None",
           "state[0] >= ll_from - 1.0 else None",
           (f"{TRAJECTORY}[refused]",)),
    Mutant("the monotonicity check dropped", EST,
           "        if em_step and state[0] < ll_from - 1e-8 * (1.0 + abs(ll_from)):\n",
           "        if False:\n",
           ("tests/test_estimation.py::TestSquarem::"
            "test_an_em_step_that_lowers_the_likelihood_raises",)),
    Mutant("no bounds on a proposal that is not an EM step", EST,
           "        if not (em_step or (_N_FLOOR <= proposal[0] < math.inf\n",
           "        if not (em_step or (-math.inf < proposal[0] < math.inf\n",
           (f"{TRAJECTORY}[floor]",)),
    Mutant("backtracking by alpha / 2", EST,
           "            alpha = (alpha - 1.0) / 2.0\n",
           "            alpha = alpha / 2.0\n",
           (f"{TRAJECTORY}[em-image]",)),
    Mutant("the EM image preferred at the decrement, not twice it", EST,
           "        if em_gain > 2.0 * decrement:\n",
           "        if em_gain > decrement:\n",
           (f"{TRAJECTORY}[newton]",)),
    # the run's range, checked by RunConfig alone
    Mutant("a seed bound of 2**64 inclusive", READOUT,
           "        if not 0 <= self.seed < 2**64:\n",
           "        if not 0 <= self.seed <= 2**64:\n",
           (f"{RUN_MESSAGES}[seed-2**64]",)),
    Mutant("a run range message without its section", CONFIG,
           '        raise ConfigError(f"run.{exc}") from exc\n',
           "        raise ConfigError(str(exc)) from exc\n",
           (f"{RUN_MESSAGES}[n_frames-0]",)),
    Mutant("simulate ignores --frames", CLI,
           "dataclasses.replace(cfg, n_frames=n_frames, seed=seed, source=source)",
           "dataclasses.replace(cfg, seed=seed, source=source)",
           ("tests/test_pins.py::test_simulation_bytes_pinned",)),
    Mutant("a CDS separation derived from a rate of 0", CLI,
           "                and value > 0\n",
           "",
           ("tests/test_cli.py::TestSweep::test_rate_of_zero_or_below_names_the_rate",)),
    Mutant("the sweep memo keyed on the noise alone", CLI,
           "    noise_sigma = functools.cache(cds_sigma)\n",
           "    memo = {}\n\n"
           "    def noise_sigma(spec, params):\n"
           "        if spec not in memo:\n"
           "            memo[spec] = cds_sigma(spec, params)\n"
           "        return memo[spec]\n",
           ("tests/test_cli.py::TestSweep::test_one_noise_per_detector",)),
    Mutant("the repeated-key refusal dropped", CLI,
           "    if len(set(keys)) < len(keys):\n",
           "    if False:\n",
           ("tests/test_cli.py::TestSweep::test_repeated_key_exit_1",)),
    # the memory bound, the Poisson table and the default cutoff
    Mutant("no byte bound", BOUNDS,
           "    if not 8 * doubles < MAX_BYTES:\n",
           "    if False:\n",
           ("tests/test_estimation.py::TestWorkspaceBound::"
            "test_refused_just_above_the_limit[log_likelihood]",)),
    Mutant("the CLI event-array bound dropped", CLI,
           '    refuse_over_limit(_EVENT_ARRAYS * n_frames, f"{flag} {n_frames}")\n',
           "",
           ("tests/test_cli.py::TestSimulate::test_frames_bound_refused_before_any_output",)),
    Mutant("a table bound one entry short", READOUT,
           "    refuse_over_limit(entries, what)\n",
           "    refuse_over_limit(entries - 1.0, what)\n",
           ("tests/test_readout.py::test_poisson_table_bound",)),
    Mutant("the tail check dropped", READOUT,
           "    if not 1.0 - cdf[-1] <= 1e-15:\n",
           "    if False:\n",
           ("tests/test_readout.py::test_a_table_short_of_the_tail_is_refused",)),
    Mutant("a default cutoff of ceil(2 mean) + 3", EST,
           "        l_max = max(20, math.ceil(2.0 * float(n)) + 2)\n",
           "        l_max = max(20, math.ceil(2.0 * float(n)) + 3)\n",
           ("tests/test_estimation.py::TestDefaultCutoff::test_bright_mean_is_not_truncated",)),
    # one check of a point (n, sigma), one positive-definite test
    Mutant("the sigma check dropped from _cutoff", EST,
           "    if not 0.0 < sigma < math.inf:\n"
           "        raise ValueError(f\"sigma must be finite and > 0, got {sigma}\")\n",
           "",
           ("tests/test_estimation.py::test_model_entry_points_refuse_bad_parameters"
            "[map_boundaries-sigma-1.0--0.3]",)),
    Mutant("the likelihood's n > 0 dropped", EST,
           "    if not 0.0 < n < math.inf:\n"
           "        raise ValueError(f\"n must be finite and > 0, got {n}\")\n",
           "",
           ("tests/test_estimation.py::test_point_entry_points_refuse_bad_parameters"
            "[log_likelihood-0.0-0.3]",)),
    Mutant("_positive_definite without det < inf", EST,
           "    return i_nn > 0.0 and 0.0 < det < math.inf and math.isfinite(i_ss)\n",
           "    return i_nn > 0.0 and 0.0 < det and math.isfinite(i_ss)\n",
           ("tests/test_estimation.py::test_newton_takes_no_step_at_an_infinite_determinant",)),
    # the reset reduction and the chunked run
    Mutant("the successor table with side='right'", READOUT,
           '    jump[:n] = np.searchsorted(cum, cum + k, side="left")\n',
           '    jump[:n] = np.searchsorted(cum, cum + k, side="right")\n',
           ("tests/test_readout.py::TestResetReduction::test_one_carrier_threshold_skips_empty_frames",)),
    Mutant("a carrier threshold without its cap", READOUT,
           "    k = int(min(np.ceil(threshold_v / vpc), top + 1))\n",
           "    k = int(np.ceil(threshold_v / vpc))\n",
           ("tests/test_readout.py::TestResetReduction",)),
    Mutant("an off-by-one offset into the cleared charge", READOUT,
           "    return reset, cum - cleared[np.cumsum(reset) - reset]\n",
           "    return reset, cum - cleared[np.cumsum(reset) - reset - 1]\n",
           ("tests/test_readout.py::TestResetReduction",)),
    Mutant("a doubling sink at n - 1", READOUT,
           "    jump[n] = n\n",
           "    jump[n] = n - 1\n",
           ("tests/test_readout.py::TestResetReduction",)),
    Mutant("a cubed jump table", READOUT,
           "        jump = jump[jump]\n",
           "        jump = jump[jump[jump]]\n",
           ("tests/test_readout.py::TestResetReduction",)),
    Mutant("a stop after 64 resets", READOUT,
           "    while path[-1] < n:\n",
           "    while path[-1] < n and path.size < 64:\n",
           ("tests/test_readout.py::TestResetReduction",)),
    Mutant("top taken relative to the chunk's first charge", READOUT,
           "    top = int(cum[-1])\n",
           "    top = int(cum[-1] - cum[0])\n",
           ("tests/test_readout.py::TestSimulateChunks::test_chunks_join_to_the_whole_run",)),
    Mutant("events taken from the reset frames", READOUT,
           "    return run.measured_delta_e[~run.reset]\n",
           "    return run.measured_delta_e[run.reset]\n",
           ("tests/test_readout.py::TestExtractEvents",)),
    Mutant("the threshold without its downward fix-up", READOUT,
           "    while k > 1 and (k - 1) * vpc >= threshold_v:\n        k -= 1\n",
           "",
           ("tests/test_readout.py::TestResetReduction",)),
    Mutant("a dropped carry", READOUT,
           "            if charge:\n                cum += charge\n",
           "",
           ("tests/test_readout.py::TestSimulateChunks::test_chunks_join_to_the_whole_run",)),
    Mutant("a carry that ignores a reset on a chunk's last frame", READOUT,
           "            charge = 0 if reset[-1] else int(accumulated[-1])\n",
           "            charge = int(accumulated[-1])\n",
           ("tests/test_readout.py::TestSimulateChunks::test_chunks_join_to_the_whole_run",)),
    Mutant("a Philox re-key that drops start // 4", READOUT,
           "    block = start // 4\n",
           "    block = 0\n",
           ("tests/test_readout.py::test_frame_uniforms_equal_a_fresh_philox_keystream",)),
    Mutant("first_frame 0 for every chunk", READOUT,
           "                first_frame=start,\n",
           "                first_frame=0,\n",
           ("tests/test_readout.py::TestSimulateChunks::test_chunks_join_to_the_whole_run",)),
)

#: (name, change, why no test can fail on it)
EQUIVALENT = (
    ("another expansion limit", "_EXPANSION_LIMIT = 256.0 -> 128.0 or 1024.0",
     "it moves which chunks take the row sums; both ways keep sum(r d^2) within "
     "the tests' 1e-12 of the full sum, and the literal reference reads the same limit"),
    ("a Poisson draw without its clamp to the table",
     "np.minimum(k, top).astype(np.uint64) -> k.astype(np.uint64) in _poisson_sampler",
     "a uniform passes the table's last entry with a chance below 1e-15 a draw"),
)


def apply(mutant: Mutant, src: Path) -> None:
    path = src / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"{mutant.file}: the old text of {mutant.name!r} occurs {count} "
                          f"times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[bool, str]:
    """``(killed, detail)`` of one mutant, from a fresh copy of ``src/``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]),
            PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import cipdsim; print(cipdsim.__file__)"],
                               env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(src)):
            raise RuntimeError(f"the tests would import {where.stdout.strip() or where.stderr}, "
                               f"not the mutated copy under {src}")
        res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              "-p", "no:randomly", *mutant.tests],
                             cwd=ROOT, env=env, capture_output=True, text=True)
    tail = (res.stdout.strip().splitlines() or [""])[-1]
    # exit 1: tests failed; 0: all passed; anything else (no tests collected,
    # an internal error) is not a kill
    return res.returncode == 1, tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only the mutants with these names")
    parser.add_argument("--list", action="store_true", help="print the table and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.file}  ->  {', '.join(m.tests)}")
        for name, change, why in EQUIVALENT:
            print(f"equivalent, not run: {name} ({change}): {why}")
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    failures = 0
    start = time.perf_counter()
    for m in chosen:
        try:
            killed, detail = run(m)
        except (LookupError, RuntimeError) as exc:
            killed, detail = False, str(exc)
        failures += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name}: {detail}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed, "
          f"{len(EQUIVALENT)} equivalent listed apart, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
