"""The benchmark's workloads.

Every workload draws its inputs from the run seed and hands the library
only those generated inputs. ``setup`` builds what the timed loop reuses,
``op`` performs one operation on input ``j`` and ``check`` judges its
output. Library functions are always looked up as module attributes at
call time (``pursuit.run``, ``measure.gaussian_ensemble``) so that the
tracer can wrap them; the library source is never modified.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field

import numpy as np

measure = importlib.import_module("tpursuit.measure")
pursuit = importlib.import_module("tpursuit.pursuit")
trip = importlib.import_module("tpursuit.trip")

# Errors are floored so that round-off on an exact recovery neither reads
# as a change from run to run nor reports 0. No workload here recovers
# exactly; their errors sit far above the floor.
REL_ERR_FLOOR = 1e-12

# residual norms may grow by at most this share of ||R_1|| per iteration
DECREASE_SLACK = 1e-8


@dataclass
class Outcome:
    """What one operation produced.

    ``rel_err`` is the operation's error, ``fingerprint`` holds the values
    tracing must leave bit-identical (a TRIP trial's distortions), and
    ``problems`` names every failed output check.
    """

    rel_err: float
    fingerprint: tuple
    problems: list = field(default_factory=list)


def _rel_err(yhat: np.ndarray, y: np.ndarray) -> float:
    return max(float(np.linalg.norm(yhat - y) / np.linalg.norm(y)), REL_ERR_FLOOR)


def _check_recovery(result, y, phi, b, ceiling: float) -> Outcome:
    problems = []
    if not np.all(np.isfinite(result.yhat)):
        problems.append("non-finite yhat")
    norms = np.asarray(result.residual_norms)
    if np.any(np.diff(norms) > DECREASE_SLACK * norms[0]):
        problems.append("residual norm increased")
    if not pursuit.check_rate(result, float(np.linalg.norm(measure.pinv_apply(phi, b)))):
        problems.append("decay envelope violated")
    err = _rel_err(result.yhat, y)
    if not err <= ceiling:
        problems.append(f"rel_err {err:.3e} above ceiling {ceiling:g}")
    fingerprint = (err, int(result.iterations), tuple(float(v) for v in norms))
    return Outcome(rel_err=err, fingerprint=fingerprint, problems=problems)


@dataclass(frozen=True)
class Completion:
    """Completion from a seeded random half of the entries.

    Ops cycle a pool of ``pool`` instances built in set-up; one op is one
    ``pursuit.run`` call.
    """

    dims: tuple
    rank: int
    s: int
    variant: str
    pool: int
    ceiling: float
    missing: float = 0.5

    def setup(self, seed: int):
        cfg = pursuit.PursuitConfig(r=self.rank, s=self.s, variant=self.variant)
        instances = []
        for k in range(self.pool):
            y = trip.sample_rank_r_unit(self.dims, self.rank, np.random.default_rng([seed, k, 0]))
            phi = measure.sampling_map(measure.random_mask(self.dims, self.missing, seed=[seed, k, 1]))
            instances.append((y, phi, measure.apply(phi, y)))
        return cfg, instances

    def op(self, state, j: int):
        cfg, instances = state
        _, phi, b = instances[j % len(instances)]
        return pursuit.run(b, phi, cfg)

    def check(self, state, j: int, result) -> Outcome:
        _, instances = state
        y, phi, b = instances[j % len(instances)]
        return _check_recovery(result, y, phi, b, self.ceiling)


@dataclass(frozen=True)
class Sensing:
    """What one ``tpursuit sense`` invocation computes.

    One op draws a fresh Gaussian ensemble (seeded from the run seed and
    the input index), measures a pool tensor with it and runs the pursuit,
    so every op pays for the Gram matrix and its Cholesky factor.
    """

    dims: tuple
    rank: int
    m: int
    s: int
    variant: str
    pool: int
    ceiling: float

    def setup(self, seed: int):
        cfg = pursuit.PursuitConfig(r=self.rank, s=self.s, variant=self.variant)
        ys = [trip.sample_rank_r_unit(self.dims, self.rank, np.random.default_rng([seed, k, 0]))
              for k in range(self.pool)]
        return seed, cfg, ys

    def op(self, state, j: int):
        seed, cfg, ys = state
        phi = measure.gaussian_ensemble(self.m, self.dims, seed=[seed, j, 2])
        b = measure.apply(phi, ys[j % len(ys)])
        return phi, b, pursuit.run(b, phi, cfg)

    def check(self, state, j: int, output) -> Outcome:
        _, _, ys = state
        phi, b, result = output
        return _check_recovery(result, ys[j % len(ys)], phi, b, self.ceiling)


@dataclass(frozen=True)
class TripTrial:
    """One trial of the TRIP scaling study: one ensemble and one probe
    stream per grid point, seeded the way ``trip.scaling_study`` seeds them.

    The op's error is the distortion at the largest m, the worst relative
    energy error | ||phi(x)||^2 - 1 | over the probes of the best map.
    """

    dims: tuple
    rank: int
    m_grid: tuple
    samples: int
    ceiling: float
    slope_range: tuple = (-0.7, -0.3)

    # scaling_study gives trial t of grid point i the seed
    # cfg.seed + i*trials + t; an open-ended run uses a fixed trial stride
    TRIAL_STRIDE = 10**6

    def setup(self, seed: int):
        return seed

    def op(self, seed, j: int):
        deltas = []
        for i, m in enumerate(self.m_grid):
            trial_seed = (seed * len(self.m_grid) + i) * self.TRIAL_STRIDE + j
            phi = measure.gaussian_ensemble(m, self.dims, seed=trial_seed)
            probe_rng = np.random.default_rng([trial_seed, 1])
            deltas.append(trip.empirical_delta(phi, self.dims, self.rank, self.samples, probe_rng))
        return tuple(deltas)

    def check(self, seed, j: int, deltas) -> Outcome:
        problems = []
        if not all(math.isfinite(d) and d >= 0.0 for d in deltas):
            problems.append("distortion not finite and nonnegative")
        err = max(deltas[-1], REL_ERR_FLOOR)
        if not err <= self.ceiling:
            problems.append(f"distortion {err:.3e} at m={self.m_grid[-1]} above ceiling {self.ceiling:g}")
        return Outcome(rel_err=err, fingerprint=tuple(deltas), problems=problems)

    def check_run(self, outcomes) -> list:
        """The study's own acceptance: median distortion falls like m^(-1/2).

        Fails unless the log-log slope of the per-m medians lies in
        ``slope_range`` with at most one median inversion.
        """
        trials = np.array([o.fingerprint for o in outcomes])
        medians = np.median(trials, axis=0)
        slope = float(np.polyfit(np.log(self.m_grid), np.log(medians), 1)[0])
        inversions = int(np.sum(np.diff(medians) > 0))
        lo, hi = self.slope_range
        if lo <= slope <= hi and inversions <= 1:
            return []
        return [f"TRIP slope {slope:.3f} (want [{lo}, {hi}]) with {inversions} median inversions"]


WORKLOADS = {
    "complete-large": Completion(dims=(128, 128, 16), rank=8, s=2, variant="standard",
                                 pool=4, ceiling=0.35),
    # Half as many measurements as entries, so the map is well conditioned
    # (a square m = N Gaussian map is not: the Gram-based rank test of
    # measure.pinv_apply rejects a few draws in ten thousand as rank
    # deficient). Two atoms then leave an error of 0.33-0.49 over 1000
    # seeded ops; the backprojection alone leaves sqrt(1 - m/N) = 0.71,
    # which the ceiling rejects.
    "sense-dense": Sensing(dims=(16, 16, 8), rank=2, m=1024, s=1, variant="economic",
                           pool=8, ceiling=0.6),
    "trip-probes": TripTrial(dims=(8, 8, 4), rank=2, m_grid=(200, 400, 800, 1600, 3200),
                             samples=200, ceiling=0.25),
}
