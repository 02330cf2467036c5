"""Command line interface.

Subcommands: synth, complete, sense, trip, ingest, export. Every run with
a fixed seed writes byte-identical files, except for the wall-clock column
of the metrics CSV. Completion and sensing runs print a single JSON record
on stdout. Exit codes: 2 usage, 3 I/O, 4 shape, 5 numerical.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import sys
import time

import numpy as np

from . import frames
from .errors import (DivergenceDetected, EmptyMask, FileFormatError,
                     NonNegligibleImaginaryPart, NumericalFailure,
                     RankDeficientMap, RankOutOfRange, ShapeMismatch)
from .measure import (apply, gaussian_ensemble, rademacher_ensemble,
                      random_mask, read_msk, sampling_map)
from .pursuit import PursuitConfig, run as run_pursuit, write_metrics_csv
from .tensor import Tensor3, read_t3b, write_t3b
from .trip import TripStudyConfig, scaling_study, write_study_csv

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SHAPE = 4
EXIT_NUMERICAL = 5


def rmse(x: Tensor3, y: Tensor3) -> float:
    """Root mean squared entrywise error between two equal-shape tensors."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"rmse needs equal shapes, got {x.shape} and {y.shape}")
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.sqrt((diff**2).sum() / diff.size))


def _parse_dims(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"dims must look like N1xN2xN3, got {text!r}")
    dims = tuple(int(p) for p in parts)
    if any(d < 1 for d in dims):
        raise ValueError(f"dims must be positive, got {text!r}")
    return dims


def _parse_grid(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"m-grid must be comma-separated integers, got {text!r}")


def _noise_sigma(text: str) -> float:
    try:
        sigma = float(text)
    except ValueError:
        sigma = math.nan
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return sigma


def _add_noise(y: Tensor3, sigma: float, seed: int) -> Tensor3:
    """Additive Gaussian noise with sigma given on [0, 1]-normalized intensities."""
    if sigma <= 0:
        return y
    scale = float(np.max(np.abs(y)))
    rng = np.random.default_rng([int(seed), 1])
    return y + sigma * scale * rng.standard_normal(y.shape)


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def cmd_synth(args) -> int:
    dims = _parse_dims(args.dims)
    if not 1 <= args.rank <= min(dims[0], dims[1]):
        raise RankOutOfRange(f"rank {args.rank} outside [1, {min(dims[0], dims[1])}]")
    from .trip import sample_rank_r_unit

    rng = np.random.default_rng(int(args.seed))
    y = sample_rank_r_unit(dims, args.rank, rng)
    y = y * rng.uniform(1.0, 10.0)
    write_t3b(args.out, y)
    _emit({"command": "synth", "dims": list(dims), "rank": args.rank,
           "seed": args.seed, "out": args.out})
    return 0


def _postrun_record(args, command, extra, y, result, wall_s):
    record = {
        "command": command,
        "in": args.infile,
        "out": args.out,
        "metrics": args.metrics,
        "dims": list(y.shape),
        "rank": args.rank,
        "batch": args.batch,
        "variant": args.variant,
        "seed": args.seed,
        "noise_sigma": args.noise_sigma,
    }
    record.update(extra)
    record.update({
        "rmse": rmse(result.yhat, y),
        "iterations": result.iterations,
        "converged": result.converged,
        "wall_time_s": wall_s,
    })
    return record


def _finish_run(args, command, extra, y, result, wall_s) -> int:
    write_t3b(args.out, result.yhat)
    if args.metrics:
        write_metrics_csv(args.metrics, result)
    _emit(_postrun_record(args, command, extra, y, result, wall_s))
    return 0


def cmd_complete(args) -> int:
    y = read_t3b(args.infile)
    observed = _add_noise(y, args.noise_sigma, args.seed)
    if args.mask:
        mask = read_msk(args.mask)
        if mask.dims != y.shape:
            raise ShapeMismatch(f"mask dims {mask.dims} do not match tensor {y.shape}")
    else:
        mask = random_mask(y.shape, args.missing, int(args.seed))
    phi = sampling_map(mask)
    b = apply(phi, observed)
    cfg = PursuitConfig(r=args.rank, s=args.batch, variant=args.variant, seed=int(args.seed))
    t0 = time.perf_counter()
    result = run_pursuit(b, phi, cfg)
    wall = time.perf_counter() - t0
    extra = {"mask": args.mask, "missing": None if args.mask else args.missing,
             "observed": mask.p}
    return _finish_run(args, "complete", extra, y, result, wall)


def cmd_sense(args) -> int:
    y = read_t3b(args.infile)
    observed = _add_noise(y, args.noise_sigma, args.seed)
    make = gaussian_ensemble if args.ensemble == "gaussian" else rademacher_ensemble
    phi = make(args.m, y.shape, seed=int(args.seed))
    b = apply(phi, observed)
    cfg = PursuitConfig(r=args.rank, s=args.batch, variant=args.variant, seed=int(args.seed))
    t0 = time.perf_counter()
    result = run_pursuit(b, phi, cfg)
    wall = time.perf_counter() - t0
    extra = {"ensemble": args.ensemble, "m": args.m}
    return _finish_run(args, "sense", extra, y, result, wall)


def cmd_trip(args) -> int:
    dims = _parse_dims(args.dims)
    cfg = TripStudyConfig(dims=dims, r=args.rank, m_grid=_parse_grid(args.m_grid),
                          n_samples=args.samples, trials=args.trials,
                          seed=int(args.seed), ensemble=args.ensemble)
    rows = scaling_study(cfg)
    write_study_csv(args.out, rows)
    _emit({"command": "trip", "dims": list(dims), "rank": args.rank,
           "m_grid": list(cfg.m_grid), "samples": args.samples,
           "trials": args.trials, "ensemble": args.ensemble,
           "seed": args.seed, "out": args.out})
    return 0


def cmd_ingest(args) -> int:
    paths = sorted(glob.glob(args.infile))
    if not paths:
        raise FileNotFoundError(f"no files match {args.infile!r}")
    tensor = frames.ingest_paths(paths)
    write_t3b(args.out, tensor)
    _emit({"command": "ingest", "frames": len(paths), "dims": list(tensor.shape),
           "out": args.out})
    return 0


def cmd_export(args) -> int:
    tensor = read_t3b(args.infile)
    written = frames.export_frames(tensor, args.out, fmt=args.format)
    _emit({"command": "export", "frames": len(written), "dims": list(tensor.shape),
           "out": args.out, "format": args.format})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpursuit",
        description="Greedy low-tubal-rank tensor completion and sensing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pursuit_flags(p):
        p.add_argument("--rank", type=int, required=True, help="target tubal rank r")
        p.add_argument("--batch", type=int, default=1, help="atoms added per iteration")
        p.add_argument("--variant", choices=("standard", "economic"), default="standard")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--noise-sigma", dest="noise_sigma", type=_noise_sigma, default=0.0,
                       help="additive Gaussian noise level on [0, 1]-normalized intensities")
        p.add_argument("--in", dest="infile", required=True, help="input .t3b tensor")
        p.add_argument("--out", required=True, help="output .t3b reconstruction")
        p.add_argument("--metrics", default=None, help="per-iteration CSV path")

    p = sub.add_parser("synth", help="draw a random low-tubal-rank tensor")
    p.add_argument("--dims", required=True, help="N1xN2xN3")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("complete", help="recover a masked tensor from observed entries")
    add_pursuit_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mask", default=None, help="mask file (.msk)")
    group.add_argument("--missing", type=float, default=None,
                       help="missing ratio for a seeded random mask")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("sense", help="recover a tensor from dense random measurements")
    add_pursuit_flags(p)
    p.add_argument("--ensemble", choices=("gaussian", "rademacher"), default="gaussian")
    p.add_argument("--m", type=int, required=True, help="number of measurements")
    p.set_defaults(func=cmd_sense)

    p = sub.add_parser("trip", help="empirical restricted isometry scaling study")
    p.add_argument("--dims", required=True, help="N1xN2xN3")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--m-grid", dest="m_grid", required=True, help="comma-separated counts")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--ensemble", choices=("gaussian", "rademacher"), default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="study CSV path")
    p.set_defaults(func=cmd_trip)

    p = sub.add_parser("ingest", help="stack PGM frames (or one PPM) into a tensor")
    p.add_argument("--in", dest="infile", required=True, help="glob of .pgm or one .ppm")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("export", help="write tensor slices back to 8-bit frames")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("pgm", "ppm"), default="pgm")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"tpursuit: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RankOutOfRange, EmptyMask) as exc:
        print(f"tpursuit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShapeMismatch as exc:
        print(f"tpursuit: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (NumericalFailure, RankDeficientMap, DivergenceDetected,
            NonNegligibleImaginaryPart) as exc:
        print(f"tpursuit: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"tpursuit: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"tpursuit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
