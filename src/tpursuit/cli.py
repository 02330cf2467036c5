"""Command line interface.

Subcommands: synth, complete, sense, trip, ingest, export. Every run with
a fixed seed writes byte-identical files, except for the wall-clock column
of the metrics CSV. Every command prints a single JSON record on stdout.
Exit codes: 2 usage, 3 I/O, 4 shape, 5 numerical. Each refusal is one
``tpursuit: <message>`` stderr line, written by ``_Parser.error`` (exit 2,
for the flags and what their type= converters refuse) or by ``main``.

``complete`` and ``sense`` share one recovery path, ``_recover``; the
metrics and study CSVs share one writer, which writes floats as %.17g.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import sys
import time

import numpy as np

from . import frames
from .errors import (DivergenceDetected, FileFormatError, NumericalFailure,
                     RankDeficientMap, ShapeMismatch)
from .measure import ENSEMBLES, apply, random_mask, read_msk, sampling_map
from .pursuit import PursuitConfig, PursuitResult, run as run_pursuit
from .tensor import Tensor3, frobenius_norm, read_t3b, rmse, tensor_dims, write_t3b
from .trip import TripStudyConfig, sample_rank_r_unit, scaling_study

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SHAPE = 4
EXIT_NUMERICAL = 5

METRICS_HEADER = ("iter", "residual_norm", "rate_bound", "elapsed_ms")
STUDY_HEADER = ("m", "delta_median", "delta_q1", "delta_q3", "trials", "samples")

# the library's names for the counts whose bounds depend on other input,
# which main replaces by the flags that give them
LIBRARY_NAMES = (("target rank r", "--rank"), ("probe rank r", "--rank"),
                 ("batch size s", "--batch"))


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line in one line, exit 2; its subparsers too."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"tpursuit: {message}\n")


def _int_or_text(token: str):
    # a token that is no int is left for the library's rule to refuse by name
    try:
        return int(token)
    except ValueError:
        return token


def _parse_dims(text: str) -> tuple:
    try:
        return tensor_dims(map(_int_or_text, text.lower().split("x")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low, kind, below=math.inf):
    """A type= converter: the text as a kind (int or float) in [low, below)."""
    noun = "an integer" if kind is int else "a finite number"
    rule = f">= {low}" if below == math.inf else f"in [{low}, {below:g})"

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low <= value < below:
            raise argparse.ArgumentTypeError(f"must be {noun} {rule}, got {text!r}")
        return value
    return convert


def _parse_grid(text: str) -> tuple:
    return tuple(map(_at_least(1, int), text.split(",")))


def _add_noise(y: Tensor3, sigma: float, seed: int) -> Tensor3:
    """Additive Gaussian noise with sigma given on [0, 1]-normalized intensities.

    Raises ValueError when the noisy tensor's Frobenius norm overflows."""
    if sigma <= 0:
        return y
    scale = float(np.max(np.abs(y)))
    rng = np.random.default_rng([seed, 1])
    with np.errstate(over="ignore"):
        noisy = y + sigma * scale * rng.standard_normal(y.shape)
        if not math.isfinite(frobenius_norm(noisy)):
            raise ValueError(f"--noise-sigma {sigma:g} overflows the noisy tensor")
    return noisy


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(path, result: PursuitResult) -> None:
    """One row per iteration: iter, residual_norm, rate_bound, elapsed_ms."""
    _write_csv(path, METRICS_HEADER, (
        [rec.k, f"{rec.residual_norm:.17g}", f"{rec.rate_bound:.17g}",
         f"{rec.elapsed_s * 1000.0:.17g}"]
        for rec in result.history))


def write_study_csv(path, rows) -> None:
    """One row per measurement count of a scaling study, as STUDY_HEADER names."""
    _write_csv(path, STUDY_HEADER, (
        [row.m, f"{row.delta_median:.17g}", f"{row.delta_q1:.17g}",
         f"{row.delta_q3:.17g}", row.trials, row.samples]
        for row in rows))


def cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    y = sample_rank_r_unit(args.dims, args.rank, rng)
    y = y * rng.uniform(1.0, 10.0)
    write_t3b(args.out, y)
    _emit({"command": "synth", "dims": list(args.dims), "rank": args.rank,
           "seed": args.seed, "out": args.out})
    return 0


def _recover(args, command, y, phi, extra) -> int:
    """Add the noise, measure y through phi and run the pursuit; write the
    reconstruction and, if asked, the metrics CSV; print the run record."""
    b = apply(phi, _add_noise(y, args.noise_sigma, args.seed))
    cfg = PursuitConfig(r=args.rank, s=args.batch, variant=args.variant)
    t0 = time.perf_counter()
    result = run_pursuit(b, phi, cfg)
    wall = time.perf_counter() - t0
    write_t3b(args.out, result.yhat)
    if args.metrics:
        write_metrics_csv(args.metrics, result)
    _emit({"command": command, "in": args.infile, "out": args.out,
           "metrics": args.metrics, "dims": list(y.shape), "rank": args.rank,
           "batch": args.batch, "variant": args.variant, "seed": args.seed,
           "noise_sigma": args.noise_sigma, **extra,
           "rmse": rmse(result.yhat, y), "iterations": result.iterations,
           "converged": result.converged, "wall_time_s": wall})
    return 0


def cmd_complete(args) -> int:
    y = read_t3b(args.infile)
    if args.mask:
        mask = read_msk(args.mask)
        if mask.dims != y.shape:
            raise ShapeMismatch(f"mask dims {mask.dims} do not match tensor {y.shape}")
    else:
        mask = random_mask(y.shape, args.missing, args.seed)
    extra = {"mask": args.mask, "missing": None if args.mask else args.missing,
             "observed": mask.p}
    return _recover(args, "complete", y, sampling_map(mask), extra)


def cmd_sense(args) -> int:
    y = read_t3b(args.infile)
    if not 1 <= args.m <= y.size:
        raise ValueError(f"--m {args.m} outside [1, N] for N = n1*n2*n3 = {y.size}")
    phi = ENSEMBLES[args.ensemble](args.m, y.shape, seed=args.seed)
    return _recover(args, "sense", y, phi, {"ensemble": args.ensemble, "m": args.m})


def cmd_trip(args) -> int:
    cfg = TripStudyConfig(dims=args.dims, r=args.rank, m_grid=args.m_grid,
                          n_samples=args.samples, trials=args.trials,
                          seed=args.seed, ensemble=args.ensemble)
    rows = scaling_study(cfg)
    write_study_csv(args.out, rows)
    _emit({"command": "trip", "dims": list(args.dims), "rank": args.rank,
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
    parser = _Parser(
        prog="tpursuit",
        description="Greedy low-tubal-rank tensor completion and sensing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pursuit_flags(p):
        p.add_argument("--rank", type=_at_least(1, int), required=True, help="target tubal rank r")
        p.add_argument("--batch", type=_at_least(1, int), default=1, help="atoms added per iteration")
        p.add_argument("--variant", choices=("standard", "economic"), default="standard")
        p.add_argument("--seed", type=_at_least(0, int), default=0)
        p.add_argument("--noise-sigma", dest="noise_sigma", type=_at_least(0, float), default=0.0,
                       help="additive Gaussian noise level on [0, 1]-normalized intensities")
        p.add_argument("--in", dest="infile", required=True, help="input .t3b tensor")
        p.add_argument("--out", required=True, help="output .t3b reconstruction")
        p.add_argument("--metrics", default=None, help="per-iteration CSV path")

    p = sub.add_parser("synth", help="draw a random low-tubal-rank tensor")
    p.add_argument("--dims", type=_parse_dims, required=True, help="N1xN2xN3")
    p.add_argument("--rank", type=_at_least(1, int), required=True)
    p.add_argument("--seed", type=_at_least(0, int), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("complete", help="recover a masked tensor from observed entries")
    add_pursuit_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mask", default=None, help="mask file (.msk)")
    group.add_argument("--missing", type=_at_least(0, float, below=1.0), default=None,
                       help="missing ratio for a seeded random mask")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("sense", help="recover a tensor from dense random measurements")
    add_pursuit_flags(p)
    p.add_argument("--ensemble", choices=tuple(ENSEMBLES), default="gaussian")
    p.add_argument("--m", type=int, required=True, help="number of measurements")
    p.set_defaults(func=cmd_sense)

    p = sub.add_parser("trip", help="empirical restricted isometry scaling study")
    p.add_argument("--dims", type=_parse_dims, required=True, help="N1xN2xN3")
    p.add_argument("--rank", type=_at_least(1, int), required=True)
    p.add_argument("--m-grid", dest="m_grid", type=_parse_grid, required=True, help="comma-separated counts")
    p.add_argument("--samples", type=_at_least(1, int), default=200)
    p.add_argument("--trials", type=_at_least(1, int), default=20)
    p.add_argument("--ensemble", choices=tuple(ENSEMBLES), default="gaussian")
    p.add_argument("--seed", type=_at_least(0, int), default=0)
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ShapeMismatch as exc:
        error, code = exc, EXIT_SHAPE
    except (FileFormatError, OSError) as exc:
        error, code = exc, EXIT_IO
    except ValueError as exc:
        error, code = exc, EXIT_USAGE
    except (NumericalFailure, RankDeficientMap, DivergenceDetected) as exc:
        error, code = exc, EXIT_NUMERICAL
    message = str(error)
    for name, flag in LIBRARY_NAMES:
        if message.startswith(f"{name} "):
            message = flag + message[len(name):]
    print(f"tpursuit: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
