"""The benchmark's per-layer contract: every function the tracer wraps by
name still exists in the library, so a traced run reports every per-layer
metric that BENCHMARK.json declares.

A deleted or renamed call site does not fail a traced benchmark run; the
tracer lists it as missing and the run's last line lacks its metrics. This
test reads perfbench/ and BENCHMARK.json as they are and edits neither.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import tpursuit
from tpursuit import measure, pursuit
from tpursuit.trip import sample_rank_r_unit

ROOT = Path(__file__).resolve().parent.parent

# computed by perfbench/run.py from two runs, not by the tracer
RUN_LEVEL_METRICS = {"tracing_overhead"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_declared_layer():
    assert Path(tpursuit.__file__).resolve().is_relative_to(ROOT / "src")
    metrics, missing = _load_tracer().Tracer().layer_metrics()
    assert missing == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    absent = [d["name"] for d in declared
              if d["name"] not in RUN_LEVEL_METRICS and d["name"] not in metrics]
    assert absent == []


def _traced_calls(fn):
    tracer = _load_tracer().Tracer()
    tracer.run_op(0, fn)
    metrics, _ = tracer.layer_metrics()
    return {name.removesuffix(".calls"): value for name, (value, _) in metrics.items()
            if name.endswith(".calls")}


def test_a_traced_run_reaches_every_pursuit_layer():
    # a speedup must not move a layer's work behind a helper the tracer
    # cannot see: each layer of run records calls, on both kinds of map
    dims = (10, 9, 4)
    y = sample_rank_r_unit(dims, 3, np.random.default_rng(7))
    layers = ("tsvd.truncated_tsvd", "tsvd.leading_atoms", "measure.apply",
              "measure.pinv_apply", "pursuit.update_residual")
    for phi, variant, solver in (
        (measure.sampling_map(measure.random_mask(dims, 0.5, seed=7)), "standard",
         "pursuit.solve_weights_full"),
        (measure.gaussian_ensemble(200, dims, seed=7), "economic",
         "pursuit.solve_weights_economic"),
    ):
        b = measure.apply(phi, y)
        cfg = pursuit.PursuitConfig(r=3, s=1, variant=variant)
        calls = _traced_calls(lambda: pursuit.run(b, phi, cfg))
        assert calls["pursuit.run"] == 1
        assert [layer for layer in layers + (solver,) if not calls[layer] > 0] == []
