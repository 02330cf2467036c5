"""Empirical restricted isometry constants for low-tubal-rank tensors.

``empirical_delta`` probes a measurement map with random unit-norm
tubal-rank-r tensors and reports the worst observed distortion
max |  ||phi(x)||^2 - 1 |, a lower bound on the true constant.
``scaling_study`` repeats that over a grid of measurement counts; for
subgaussian ensembles the median distortion should fall like m^(-1/2).

Probes are drawn, orthonormalized, assembled and measured a block at a
time: one Gaussian draw per block, one batched QR over every half-spectrum
slice of every probe, one inverse FFT, and one matrix product through the
map. A block holds at most PROBE_BLOCK_ENTRIES // max(N, m) probes, so
memory does not grow with the number of probes. Each probe consumes the
same Gaussian numbers, in the same order, as a probe drawn on its own by
``sample_rank_r_unit``, so the block size never changes a result beyond
rounding and the seeding of ``scaling_study`` is independent of it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, RankOutOfRange
from .measure import MeasurementMap, apply, gaussian_ensemble, rademacher_ensemble
from .tensor import Tensor3

STUDY_HEADER = ("m", "delta_median", "delta_q1", "delta_q3", "trials", "samples")

_ENSEMBLES = {"gaussian": gaussian_ensemble, "rademacher": rademacher_ensemble}

# a block of probes holds count * max(N, m) <= PROBE_BLOCK_ENTRIES entries
# in its probe stack and in its measurements (at least one probe)
PROBE_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class TripStudyConfig:
    dims: tuple
    r: int
    m_grid: tuple
    n_samples: int = 200
    trials: int = 20
    seed: int = 0
    ensemble: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        if self.r < 1 or self.r > min(self.dims[0], self.dims[1]):
            raise RankOutOfRange(f"probe rank {self.r} outside [1, {min(self.dims[:2])}]")
        if not self.m_grid or any(m < 1 for m in self.m_grid):
            raise ValueError("m_grid must hold positive measurement counts")
        if self.n_samples < 1 or self.trials < 1:
            raise ValueError("n_samples and trials must be positive")
        if self.ensemble not in _ENSEMBLES:
            raise ValueError(f"ensemble must be one of {sorted(_ENSEMBLES)}")


@dataclass(frozen=True)
class StudyRow:
    m: int
    delta_median: float
    delta_q1: float
    delta_q3: float
    trials: int
    samples: int


def _orthonormal_spectrum(g: np.ndarray) -> np.ndarray:
    # g is (count, n, width, n3); QR-orthonormalize every leading DFT slice
    # of every probe at once, returning slices shaped (count, h, n, width),
    # the spectrum of a tensor with orthonormal lateral slices
    gh = np.fft.rfft(g, axis=3).transpose(0, 3, 1, 2)
    q, _ = np.linalg.qr(gh)
    return q


def _sample_probes(dims, r: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` random unit-norm tubal-rank-r tensors.

    Returns shape (count, n1, n2, n3). Probe i uses the i-th row of one
    standard normal draw, split into the Gaussian blocks for U (n1 x r x n3)
    and V (n2 x r x n3) and the r singular tubes, in that order. Each probe
    is U * S * V^T, built slice-wise in the DFT domain and normalized.
    """
    n1, n2, n3 = (int(d) for d in dims)
    if not 1 <= r <= min(n1, n2):
        raise RankOutOfRange(f"probe rank {r} outside [1, {min(n1, n2)}]")
    nu, nv = n1 * r * n3, n2 * r * n3
    draws = rng.standard_normal((count, nu + nv + r * n3))
    uh = _orthonormal_spectrum(draws[:, :nu].reshape(count, n1, r, n3))
    vh = _orthonormal_spectrum(draws[:, nu:nu + nv].reshape(count, n2, r, n3))
    sh = np.fft.rfft(draws[:, nu + nv:].reshape(count, r, n3), axis=2).transpose(0, 2, 1)
    # slice k of each probe, transposed: conj(V_k) diag(s_k) U_k^T, so the
    # inverse FFT lands in the storage order (count, n3, n2, n1)
    xh_t = (vh.conj() * sh[:, :, None, :]) @ uh.transpose(0, 1, 3, 2)
    flat = np.fft.irfft(xh_t, n=n3, axis=1).reshape(count, -1)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    if np.any(norms == 0.0):
        raise NumericalFailure("degenerate zero draw for a rank-r probe")
    flat /= norms[:, None]
    return flat.reshape(count, n3, n2, n1).transpose(0, 3, 2, 1)


def sample_rank_r_unit(dims, r: int, rng) -> Tensor3:
    """Random tensor of tubal rank r with unit Frobenius norm.

    Factors come from per-slice QR of Gaussian blocks, the singular tubes
    from Gaussian draws, and the product is normalized. One call draws what
    one probe of ``empirical_delta`` draws.
    """
    return np.ascontiguousarray(_sample_probes(dims, r, 1, rng)[0])


def empirical_delta(phi: MeasurementMap, dims, r: int, n_samples: int, rng) -> float:
    """Worst distortion of n_samples unit rank-r probes under phi.

    A sampled lower bound on the restricted isometry constant: the true
    constant takes a supremum over the whole rank-r set. Probes are drawn
    and measured in blocks of at most PROBE_BLOCK_ENTRIES // max(N, m).
    """
    n_samples = int(n_samples)
    block = max(1, PROBE_BLOCK_ENTRIES // max(phi.n, phi.m))
    worst = 0.0
    for start in range(0, n_samples, block):
        probes = _sample_probes(dims, r, min(block, n_samples - start), rng)
        bx = apply(phi, probes)
        energy = np.einsum("ij,ij->i", bx, bx)
        worst = max(worst, float(np.max(np.abs(energy - 1.0))))
    return worst


def scaling_study(cfg: TripStudyConfig) -> list[StudyRow]:
    """Median and quartiles of the empirical constant per measurement count.

    Trial t of grid point i uses the derived seed cfg.seed + i*trials + t
    for both the ensemble draw and the probe stream, so results do not
    depend on evaluation order. For a doubling grid the medians must be
    nonincreasing up to one Monte Carlo inversion; more raises
    NumericalFailure.
    """
    make = _ENSEMBLES[cfg.ensemble]
    rows = []
    for i, m in enumerate(cfg.m_grid):
        deltas = np.empty(cfg.trials)
        for t in range(cfg.trials):
            trial_seed = cfg.seed + i * cfg.trials + t
            phi = make(m, cfg.dims, seed=trial_seed)
            probe_rng = np.random.default_rng([trial_seed, 1])
            deltas[t] = empirical_delta(phi, cfg.dims, cfg.r, cfg.n_samples, probe_rng)
        q1, med, q3 = np.percentile(deltas, [25.0, 50.0, 75.0])
        rows.append(StudyRow(m=m, delta_median=float(med), delta_q1=float(q1),
                             delta_q3=float(q3), trials=cfg.trials, samples=cfg.n_samples))
    doubling = all(b >= 2 * a for a, b in zip(cfg.m_grid, cfg.m_grid[1:]))
    if doubling and len(rows) > 1:
        inversions = sum(rows[i + 1].delta_median > rows[i].delta_median
                         for i in range(len(rows) - 1))
        if inversions > 1:
            raise NumericalFailure(
                f"median distortion rose {inversions} times along a doubling grid"
            )
    return rows


def write_study_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_HEADER)
        for row in rows:
            writer.writerow([
                row.m,
                f"{row.delta_median:.17g}",
                f"{row.delta_q1:.17g}",
                f"{row.delta_q3:.17g}",
                row.trials,
                row.samples,
            ])
