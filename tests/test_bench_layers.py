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

import tpursuit

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
