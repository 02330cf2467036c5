"""Spans around the library's public functions, recorded from outside.

The tracer replaces function attributes of the library's modules with
timing wrappers while one operation runs, and puts the originals back
afterwards. Each call site is wrapped under the name the calling module
sees, because a module that did ``from .tensor import tprod`` keeps its
own reference and is not affected by patching ``tensor.tprod``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module that makes the call, attribute it calls through)
CALL_SITES = (
    ("pursuit", "run"),  # called by the benchmark itself
    ("pursuit", "leading_atoms"),
    ("pursuit", "apply"),
    ("pursuit", "pinv_apply"),
    ("pursuit", "whiten"),
    ("pursuit", "solve_weights_full"),
    ("pursuit", "solve_weights_economic"),
    ("pursuit", "update_residual"),
    ("tsvd", "truncated_tsvd"),
    ("tsvd", "tprod"),
    ("trip", "tprod"),
    ("trip", "apply"),
    ("trip", "sample_rank_r_unit"),
    ("trip", "empirical_delta"),  # called by the benchmark itself
    ("measure", "apply"),  # called by the benchmark itself
    ("measure", "gaussian_ensemble"),  # called by the benchmark itself
)

# layers reported as <layer>.calls and <layer>.self_s, named by the
# module that defines the function
LAYERS = (
    "tsvd.truncated_tsvd",
    "tsvd.leading_atoms",
    "tensor.tprod",
    "measure.pinv_apply",
    "measure.apply",
    "measure.whiten",
    "measure.gaussian_ensemble",
    "pursuit.solve_weights_full",
    "pursuit.solve_weights_economic",
    "pursuit.update_residual",
    "pursuit.run",
    "trip.sample_rank_r_unit",
    "trip.empirical_delta",
)

OP_SPAN = "op"


def _layer_name(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    return f"{module.removeprefix('tpursuit.')}.{getattr(fn, '__name__', '?')}"


def _leading_atoms_counts(args, kwargs, atoms):
    requested = kwargs["s"] if "s" in kwargs else args[1]
    return {"atoms_requested": int(requested), "atoms_returned": len(atoms)}


def _run_counts(args, kwargs, result):
    return {"iterations": int(result.iterations)}


# counts taken at a layer boundary from the call's arguments and result
COUNTERS = {
    "tsvd.leading_atoms": _leading_atoms_counts,
    "pursuit.run": _run_counts,
}


class Tracer:
    """Records spans (id, parent, op id, name, start, end) in memory.

    A call site whose attribute no longer exists is listed in ``missing``
    instead of failing the run.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.ops = 0
        self.missing = []
        self._stack = []
        self._op_id = -1
        self._patches = []
        for module_name, attr in CALL_SITES:
            module = importlib.import_module(f"tpursuit.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original, self._wrap(original)))

    def _wrap(self, fn):
        name = _layer_name(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._span(name, fn, args, kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    self.counts[key] += value
            return out

        return traced

    def _span(self, name, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self._op_id, name, start, end)

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under an ``op`` root span with every call site
        wrapped, and return its result."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._op_id = op_id
        self.ops += 1
        try:
            return self._span(OP_SPAN, fn, args, {})
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def _layer_totals(self):
        """Calls and self time per span name; self time is a span's length
        minus the time covered by its direct children."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[span_id]
        return calls, self_s

    def layer_metrics(self):
        """Per-op means of every layer's calls and self time, the atom
        yield and the pursuit iterations; layers that no call site reached
        because the function is gone are omitted and returned by name."""
        calls, self_s = self._layer_totals()
        present = {_layer_name(original) for _, _, original, _ in self._patches}
        ops = max(self.ops, 1)
        metrics, missing = {}, []
        for layer in LAYERS:
            if layer not in present:
                missing.append(layer)
                continue
            metrics[f"{layer}.calls"] = (calls[layer] / ops, "calls/op")
            metrics[f"{layer}.self_s"] = (self_s[layer] / ops, "s/op")
        requested = self.counts["atoms_requested"]
        metrics["tsvd.atom_yield"] = (
            self.counts["atoms_returned"] / requested if requested else 0.0, "ratio")
        metrics["pursuit.iterations"] = (self.counts["iterations"] / ops, "iters/op")
        return metrics, missing

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON list per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
