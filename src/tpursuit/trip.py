"""Empirical restricted isometry constants for low-tubal-rank tensors.

``empirical_delta`` probes a measurement map with random unit-norm
tubal-rank-r tensors and reports the worst observed distortion
max |  ||phi(x)||^2 - 1 |, a lower bound on the true constant.
``scaling_study`` repeats that over a grid of measurement counts and
returns the rows as measured, for ``tpursuit.cli.write_study_csv``; for
subgaussian ensembles the median distortion should fall like m^(-1/2).

Probes are drawn, orthonormalized, assembled and measured a block at a
time: one Gaussian draw per block, one batched QR over every half-spectrum
slice of every probe, one inverse FFT, and one matrix product. A probe's
energy ||phi(x)||^2 is also x'Gx for the N x N normal matrix G = phi'phi.
A dense map forms G once, by one ``matrix.T @ matrix``, when that is the
cheaper association: when N <= m, so G is no larger than phi, and when
N (m/2 + n_samples) <= n_samples m, the multiply-adds of forming G and of
x G against those of phi x. Its blocks then hold at most
PROBE_BLOCK_ENTRIES // N probes. Every other map, and every sampling map,
measures its probes with ``apply`` in blocks of at most
PROBE_BLOCK_ENTRIES // max(N, m). Either way memory does not grow with
the number of probes. Each probe consumes the same Gaussian numbers, in
the same order, as a probe drawn on its own by ``sample_rank_r_unit``, so
neither the block size nor the association changes a result beyond
rounding, and the seeding of ``scaling_study`` is independent of both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, RankOutOfRange, ShapeMismatch
from .measure import ENSEMBLES, DenseMap, MeasurementMap, apply, dense_shape
from .tensor import Tensor3, from_spectrum, positive_int, spectrum, tensor_dims

# a block of probes holds count * max(N, m) <= PROBE_BLOCK_ENTRIES entries
# in its probe stack and in its measurements, or count * N in its probe
# stack and in x G when measured through G = phi'phi (at least one probe);
# G itself holds N^2 <= N m entries, no more than the map
PROBE_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class TripStudyConfig:
    """A scaling study's parameters.

    r must be an integer in [1, min(n1, n2)] (RankOutOfRange otherwise);
    m_grid must hold at least one count, and its entries, n_samples and
    trials must be integers >= 1 (ValueError otherwise, never a
    truncation); each entry's dense map must be within DENSE_ENTRY_LIMIT,
    so an oversized grid is refused before any trial runs.
    """

    dims: tuple
    r: int
    m_grid: tuple
    n_samples: int = 200
    trials: int = 20
    seed: int = 0
    ensemble: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "dims", tensor_dims(self.dims))
        object.__setattr__(self, "m_grid", tuple(dense_shape(m, self.dims, "an m_grid entry")[0]
                                                 for m in self.m_grid))
        if not self.m_grid:
            raise ValueError("m_grid must hold at least one measurement count")
        positive_int(self.r, "probe rank r", high=min(self.dims[:2]), error=RankOutOfRange)
        positive_int(self.n_samples, "n_samples")
        positive_int(self.trials, "trials")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"ensemble must be one of {sorted(ENSEMBLES)}")


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
    return np.linalg.qr(spectrum(g).swapaxes(-1, -2))[0]


def _sample_probes(dims, r: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` random unit-norm tubal-rank-r tensors.

    Returns shape (count, n1, n2, n3), each probe Fortran ordered. Probe i
    uses the i-th row of one standard normal draw, split into the Gaussian
    blocks for U (n1 x r x n3) and V (n2 x r x n3) and the r singular tubes,
    in that order. Each probe is U * S * V^T, built slice-wise in the DFT
    domain and normalized. Raises RankOutOfRange unless r is an integer in
    [1, min(n1, n2)].
    """
    n1, n2, n3 = tensor_dims(dims)
    r = positive_int(r, "probe rank r", high=min(n1, n2), error=RankOutOfRange)
    nu, nv = n1 * r * n3, n2 * r * n3
    draws = rng.standard_normal((count, nu + nv + r * n3))
    uh = _orthonormal_spectrum(draws[:, :nu].reshape(count, n1, r, n3))
    vh = _orthonormal_spectrum(draws[:, nu:nu + nv].reshape(count, n2, r, n3))
    sh = np.fft.rfft(draws[:, nu + nv:].reshape(count, r, n3), axis=2).transpose(0, 2, 1)
    # slice k of each probe, transposed: conj(V_k) diag(s_k) U_k^T
    x = from_spectrum((vh.conj() * sh[:, :, None, :]) @ uh.transpose(0, 1, 3, 2), n3)
    norms = np.sqrt(np.einsum("ijkl,ijkl->i", x, x))
    if np.any(norms == 0.0):
        raise NumericalFailure("degenerate zero draw for a rank-r probe")
    x /= norms[:, None, None, None]
    return x


def sample_rank_r_unit(dims, r: int, rng) -> Tensor3:
    """Random tensor of tubal rank r with unit Frobenius norm.

    Factors come from per-slice QR of Gaussian blocks, the singular tubes
    from Gaussian draws, and the product is normalized. One call draws what
    one probe of ``empirical_delta`` draws. The probe is Fortran ordered.
    """
    return _sample_probes(dims, r, 1, rng)[0]


def _normal_matrix(phi: MeasurementMap, n_samples: int) -> np.ndarray | None:
    # G = phi'phi for a dense map on which x'Gx costs less than ||phi x||^2:
    # G no larger than phi, and forming it (syrk, N^2 m / 2 multiply-adds)
    # plus x G (n_samples N^2) below phi x (n_samples N m); None otherwise
    if not isinstance(phi, DenseMap):
        return None
    n, m = phi.n, phi.m
    if n > m or n * (m + 2 * n_samples) > 2 * n_samples * m:
        return None
    return phi.matrix.T @ phi.matrix


def empirical_delta(phi: MeasurementMap, dims, r: int, n_samples: int, rng) -> float:
    """Worst distortion of n_samples unit rank-r probes under phi.

    A sampled lower bound on the restricted isometry constant: the true
    constant takes a supremum over the whole rank-r set. Probes are drawn
    and measured in blocks of at most PROBE_BLOCK_ENTRIES // max(N, m),
    or of PROBE_BLOCK_ENTRIES // N on a dense map whose normal matrix
    phi'phi measures them more cheaply (see the module docstring).
    Raises ValueError unless n_samples is an integer >= 1, RankOutOfRange
    unless r is an integer in [1, min(n1, n2)], and ShapeMismatch unless
    dims are the map's.
    """
    n_samples = positive_int(n_samples, "n_samples")
    if tensor_dims(dims) != phi.dims:
        raise ShapeMismatch(f"probe dims {tuple(dims)} do not match map dims {phi.dims}")
    gram = _normal_matrix(phi, n_samples)
    block = max(1, PROBE_BLOCK_ENTRIES // (phi.n if gram is not None else max(phi.n, phi.m)))
    worst = 0.0
    for start in range(0, n_samples, block):
        probes = _sample_probes(dims, r, min(block, n_samples - start), rng)
        if gram is None:
            bx = apply(phi, probes)
            energy = np.einsum("ij,ij->i", bx, bx)
        else:
            # each probe's storage-order row, a free view of the Fortran-ordered stack
            x = probes.transpose(0, 3, 2, 1).reshape(len(probes), phi.n)
            energy = np.einsum("ij,ij->i", x @ gram, x)
        worst = max(worst, float(np.max(np.abs(energy - 1.0))))
    return worst


def scaling_study(cfg: TripStudyConfig) -> list[StudyRow]:
    """Median and quartiles of the empirical constant per measurement count.

    Trial t of grid point i uses the derived seed cfg.seed + i*trials + t
    for both the ensemble draw and the probe stream, so results do not
    depend on evaluation order. The rows are returned as measured: Monte
    Carlo noise can make a median rise along the grid, and judging the
    trend is left to the caller.
    """
    make = ENSEMBLES[cfg.ensemble]
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
    return rows

