"""Benchmark for tpursuit: three seeded closed-loop workloads, one client.

    python3 perfbench/run.py --workload complete-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run builds its inputs from ``--seed``, sets up (imports, input pool
and a warm-up op, repeated), then runs operations back to back for
``--seconds`` and checks every output. It prints each metric by name with
its unit and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones. With ``--trace 1`` every input runs twice, once
with the library's public functions wrapped in spans and once without;
the run reports per-layer calls and self time per op, the tracing
overhead, fails if tracing changed any result, and writes the spans to
``perfbench/out/trace-<workload>.jsonl``. ``--workload all`` runs each
workload in its own process. The exit code is 0 when every check passed,
1 when an output check failed and 2 when the run could not start.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: on a 2-core machine two OpenBLAS threads made
# complete-large about 12% slower, an m = N = 2048 sensing op about 10%
# faster, and changed the low bits of its error; one thread is also steadier
# next to other load. Fixed here, before numpy is imported.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median import time of the library over this many fresh
# interpreters plus the median of this many set-ups in the run's process
SETUP_REPEATS = 5

IMPORT_TIMER = ("import time; t = time.perf_counter(); "
                "import tpursuit.measure, tpursuit.pursuit, tpursuit.trip; "
                "print(time.perf_counter() - t)")

WORKLOAD_NAMES = ("complete-large", "sense-dense", "trip-probes")

EXIT_CHECK_FAILED = 1
EXIT_CANNOT_START = 2


def _pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _load_workloads():
    """Import the workloads against this checkout's ``src``; None when the
    library source is not there."""
    if not (SRC / "tpursuit" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.pursuit.__file__).resolve().is_relative_to(SRC.resolve()):
        print("perfbench: tpursuit was not imported from this checkout", file=sys.stderr)
        return None
    return workloads


def _openblas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_set": threads,
        "blas_threads_in_effect": _openblas_threads(),
        "machine": platform.machine(),
    }


def _attempt(wl, state, j, tracer):
    """Run and check input j; returns (seconds, Outcome) and never raises
    an ordinary exception, so one bad op counts as failed and the run goes on."""
    from workloads import Outcome

    elapsed = None
    t0 = time.perf_counter()
    try:
        out = tracer.run_op(j, wl.op, state, j) if tracer is not None else wl.op(state, j)
        elapsed = time.perf_counter() - t0
        return elapsed, wl.check(state, j, out)
    except Exception as exc:
        if elapsed is None:
            elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return elapsed, Outcome(rel_err=float("nan"), fingerprint=("raised", repr(exc)),
                                problems=[f"raised {type(exc).__name__}: {exc}"])


def _p90(times):
    return statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]


def _import_seconds() -> float:
    """Median time to import the library, numpy and scipy included, in a
    fresh interpreter started in this checkout's ``src``."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=SRC, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads: int) -> int:
    workloads = _load_workloads()
    if workloads is None:
        return EXIT_CANNOT_START
    import_s = _import_seconds()
    wl = workloads.WORKLOADS[name]
    env = environment(threads)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          f"closed loop, 1 client")
    print("env " + json.dumps(env))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        wl.op(state, 0)  # warm-up
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()

    times, traced_times, outcomes, changed = [], [], [], []
    started = time.perf_counter()
    j = 0
    while j == 0 or time.perf_counter() - started < seconds:
        if tracer is None:
            elapsed, outcome = _attempt(wl, state, j, None)
            times.append(elapsed)
            outcomes.append(outcome)
        else:
            # alternate which of the pair runs first, so warm caches favour neither
            pair = {}
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                elapsed, outcome = _attempt(wl, state, j, tracer if traced else None)
                (traced_times if traced else times).append(elapsed)
                outcomes.append(outcome)
                pair[traced] = outcome
            if not pair[True].problems and pair[True].fingerprint != pair[False].fingerprint:
                changed.append(j)
        j += 1
    wall = time.perf_counter() - started

    bad = [o for o in outcomes if o.problems]
    failed = len(bad)
    problems = ["; ".join(o.problems) for o in bad[:5]]
    if changed:
        problems.append(f"tracing changed the result of {len(changed)} inputs, first {changed[0]}")
    good = [o for o in outcomes if not o.problems]
    if hasattr(wl, "check_run") and good:
        problems.extend(wl.check_run(good))
    correct = failed == 0 and not problems

    if tracer is None:
        rel_errs = [o.rel_err for o in good]
        metrics = {
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_p90": (_p90(times), "s"),
            "ops_per_s": (len(good) / wall, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "rel_err_p50": (statistics.median(rel_errs) if rel_errs else None, "ratio"),
        }
        beyond = sum(t > metrics["op_s_p90"][0] for t in times)
        notes = {"op_s_p90": f"(n={len(times)} ops, {beyond} beyond it)",
                 "rel_err_p50": f"(n={len(rel_errs)} ops)"}
    else:
        metrics, missing = tracer.layer_metrics()
        metrics["tracing_overhead"] = (statistics.median(traced_times) / statistics.median(times),
                                       "ratio")
        notes = {"tracing_overhead": f"(traced op_s_p50 over untraced, n={len(times)} pairs)"}
        if tracer.missing:
            print(f"call sites gone from the library: {', '.join(tracer.missing)}")
        if missing:
            print(f"missing per-layer metrics: {', '.join(missing)}")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}.jsonl"
        tracer.write(trace_path, {"workload": name, "seed": seed, "ops": tracer.ops, "env": env,
                                  "span": ["id", "parent", "op", "name", "start_s", "end_s"]})
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(BENCH_DIR.parent)}")

    for key, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<36} {shown:>12} {unit:<8} {notes.get(key, '')}".rstrip())
    print(f"  {'failed_ratio':<36} {failed / len(outcomes):>12.6g} {'ratio':<8} "
          f"({failed}/{len(outcomes)} ops)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else EXIT_CHECK_FAILED


def run_all(args) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=args.seconds + 300)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out", file=sys.stderr)
            return EXIT_CHECK_FAILED
        sys.stdout.write(proc.stdout)
        if proc.returncode == EXIT_CANNOT_START:
            return EXIT_CANNOT_START
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result line", file=sys.stderr)
            return EXIT_CHECK_FAILED
        code = max(code, proc.returncode)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    threads = _pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
