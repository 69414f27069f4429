"""In-memory spans around calls into the cipdsim modules.

A span records name, start, end, parent span and run id. Spans are kept in
a list and written out once, when the benchmark ends. ``instrument`` swaps
the public functions of the layer modules for span-recording wrappers in
every cipdsim module that holds a reference to them, so calls that one
module makes into another (``readout`` into ``noise``, ``fit_mixture`` into
``log_likelihood_grad``) nest under the caller. Nothing in the package is
edited; the originals are restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: Public functions wrapped in traced runs, by layer module.
LAYER_FUNCTIONS = {
    "config": ["load_config"],
    "noise": ["cds_sigma"],
    "readout": ["simulate_run", "frame_uniforms", "extract_events", "frames_to_csv"],
    "estimation": [
        "fit_mixture",
        "log_likelihood",
        "log_likelihood_grad",
        "build_histogram",
        "goodness_of_fit",
        "expected_bin_counts",
        "mixture_density",
        "classify",
        "estimate_qe",
        "discrimination_error",
    ],
}

#: Layers whose exceptions are counted: the wrapped modules and the CLI commands.
LAYERS = ("config", "noise", "readout", "estimation", "cli")


class Tracer:
    """Collects spans of one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        #: The value each wrapped function last returned, for probes.
        self.last_return: dict[str, object] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "run_id": self.run_id,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        tracer.last_return[name] = out
        return out

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every cipdsim reference to a layer function through a span."""
    originals = {}
    for layer, names in LAYER_FUNCTIONS.items():
        home = importlib.import_module(f"cipdsim.{layer}")
        for name in names:
            fn = getattr(home, name)
            originals[id(fn)] = _wrap(tracer, f"{layer}.{name}", fn)
    swapped = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cipdsim"]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in originals:
                swapped.append((mod, attr, value))
                setattr(mod, attr, originals[id(value)])
    try:
        yield
    finally:
        for mod, attr, value in swapped:
            setattr(mod, attr, value)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by its child spans.

    Spans of one tracer are strictly nested (one thread), so the children of
    a span never overlap and their durations can be summed.
    """
    child_ns = {s["id"]: 0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    return {s["id"]: (s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) * 1e-9 for s in spans}


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that end before they start or stick out of their parent."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end_ns"] is None or s["end_ns"] < s["start_ns"]:
            errors.append(f"span {s['id']} {s['name']} is not closed in order")
            continue
        p = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and p is None:
            errors.append(f"span {s['id']} has unknown parent {s['parent']}")
        elif p is not None and not (p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"]):
            errors.append(f"span {s['id']} {s['name']} lies outside parent {p['name']}")
    return errors
