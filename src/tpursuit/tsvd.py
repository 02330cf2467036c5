"""Tensor singular value decomposition and its rank-one building blocks.

The decomposition factors only the leading ``n3 // 2 + 1`` DFT slices; the
remaining slices are conjugate mirrors, so the inverse transform returns
real factors. To keep k triplets of a slice it takes the k leading
eigenvectors of the slice's Gram matrix on its smaller side and runs a thin
SVD of the slice times those vectors. At k = min(n1, n2) the eigenvectors
form a unitary basis, so the same path gives the full decomposition. The
slices are split across the CPUs the process may run on. Each left
singular vector is rotated so that its largest-magnitude entry is real and
nonnegative, which pins the per-slice phase and makes the factors
deterministic.

Rank-one atoms are built from the inverse-transformed factors without
another Fourier pass: the t-product with a single tube is a circular
convolution along the third mode, so each atom is one real matrix product
over a lag table of its right factor.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, RankOutOfRange
# perfbench's tracer finds the tensor.tprod layer through this module's tprod
from .tensor import Tensor3, tprod

RANK_REL_TOL = 1e-10


@dataclass(frozen=True)
class TSVDFactors:
    """Orthogonal u (n1 x rho x n3), f-diagonal s (rho x rho x n3), orthogonal v (n2 x rho x n3)."""

    u: Tensor3
    s: Tensor3
    v: Tensor3

    @property
    def rho(self) -> int:
        return self.u.shape[1]

    def tube_norms(self) -> np.ndarray:
        """Frobenius norm of each singular tube s(i, i, :), nonincreasing in i."""
        rho = self.rho
        diag = self.s[np.arange(rho), np.arange(rho), :]
        return np.linalg.norm(diag, axis=1)


@dataclass(frozen=True)
class RankOneAtom:
    """Unit Frobenius norm tubal-rank-one tensor u * (s / ||s||) * v'.

    ``tube_norm`` is the Frobenius norm of the singular tube the atom was
    peeled from, which equals the inner product of the atom with its source
    tensor.
    """

    tube_norm: float
    atom: Tensor3


def _fix_phase(u, vh):
    # rotate each (u column, vh row) pair so the largest-|.| entry of u,
    # first on ties, lands on the nonnegative real axis
    lead_idx = np.argmax(np.abs(u), axis=1)
    lead = np.take_along_axis(u, lead_idx[:, None, :], axis=1)[:, 0, :]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return u * phase.conj()[:, None, :], vh * phase[:, :, None]


# The slices are split into contiguous chunks, one per CPU in the process's
# affinity mask. The calling thread factors the first chunk and a pool that
# lives for the one call the others; numpy's LAPACK and BLAS calls release
# the interpreter lock. Every slice gets the same LAPACK calls however the
# stack is split, so the factors do not depend on the worker count.
def _worker_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _over_slices(fn, stack: np.ndarray, *args):
    """fn(chunk, *args) on contiguous chunks of the stack, run concurrently;
    the arrays fn returns are joined back along the slice axis."""
    chunks = np.array_split(stack, min(_worker_count(), len(stack)))
    if len(chunks) == 1:
        return fn(stack, *args)
    # each chunk runs in a copy of the caller's context, so numpy's error
    # state (np.errstate) applies in the workers too; leaving the block
    # joins every worker, also when the first chunk raises
    with ThreadPoolExecutor(max_workers=len(chunks) - 1,
                            thread_name_prefix="tpursuit-tsvd") as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, chunk, *args)
                   for chunk in chunks[1:]]
        parts = [fn(chunks[0], *args)]
    parts += [f.result() for f in futures]
    return tuple(np.concatenate(outs) for outs in zip(*parts))


def _leading_triplets(stack: np.ndarray, k: int):
    """k leading singular triplets of each slice of a stack with at least as
    many rows as columns, as (u, sigma, vh) of widths k."""
    # an exact power-of-two scale per slice, undone on sigma, keeps the Gram
    # from overflowing or underflowing where the slice itself does not
    _, exp = np.frexp(np.abs(stack).max(axis=(1, 2)))
    a = np.ldexp(stack.view(np.float64), -exp[:, None, None]).view(np.complex128)
    gram = np.matmul(a.conj().transpose(0, 2, 1), a)
    v = np.linalg.eigh(gram)[1][:, :, ::-1][:, :, :k]
    # u comes from the thin SVD of a v, never from a v / sigma, so it stays
    # orthonormal on a zero slice and when k exceeds the slice's rank
    u, sig, zh = np.linalg.svd(a @ v, full_matrices=False)
    return u, np.ldexp(sig, exp[:, None]), zh @ v.conj().transpose(0, 2, 1)


def _assemble(u, sig, vh, n3: int) -> TSVDFactors:
    """Inverse-transform half-spectrum factors."""
    k = sig.shape[1]
    u_t = np.fft.irfft(u.transpose(1, 2, 0), n=n3, axis=2)
    v_t = np.fft.irfft(vh.conj().transpose(2, 1, 0), n=n3, axis=2)
    s_t = np.zeros((k, k, n3))
    s_t[np.arange(k), np.arange(k), :] = np.fft.irfft(sig.T, n=n3, axis=1)
    return TSVDFactors(u=u_t, s=s_t, v=v_t)


def tsvd(a: Tensor3) -> TSVDFactors:
    """Full decomposition a = u * s * v' with rho = min(n1, n2) singular tubes.

    u and v have orthonormal lateral slices, s is f-diagonal with the
    diagonal of every DFT slice real, nonnegative and sorted descending.
    """
    return truncated_tsvd(a, min(a.shape[0], a.shape[1]))


def truncated_tsvd(a: Tensor3, k: int) -> TSVDFactors:
    """Leading k singular tubes of the decomposition; the best tubal-rank-k fit.

    Each DFT slice's k leading right singular vectors come from the
    eigendecomposition of its Gram matrix on the smaller side; a thin SVD of
    the slice times them gives orthonormal left vectors and the singular
    values. The slices are factored on every CPU in the process's affinity
    mask, and the result does not depend on how many there are. Raises
    NumericalFailure when a slice cannot be factored, such as for an input
    holding NaN or an infinity.
    """
    return _assemble(*slice_factors(a, k), a.shape[2])


def slice_factors(a: Tensor3, k: int):
    """truncated_tsvd's factors of the half-spectrum DFT slices, (u, sigma, vh)
    of shapes (h, n1, k), (h, k) and (h, k, n2) for h = n3 // 2 + 1."""
    n1, n2, n3 = a.shape
    if not 1 <= k <= min(n1, n2):
        raise RankOutOfRange(f"truncation width {k} outside [1, {min(n1, n2)}]")
    stack = np.fft.rfft(np.asarray(a, dtype=np.float64), axis=2).transpose(2, 0, 1)
    wide = n1 < n2
    if wide:
        # factor the conjugate transpose so the Gram is on the smaller side
        stack = stack.conj().transpose(0, 2, 1)
    try:
        u, sig, vh = _over_slices(_leading_triplets, np.ascontiguousarray(stack), k)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("slice factorization did not converge") from exc
    if wide:
        u, vh = vh.conj().transpose(0, 2, 1), u.conj().transpose(0, 2, 1)
    u, vh = _fix_phase(u, vh)
    return u, sig, vh


def tubal_rank(a: Tensor3, rel_tol: float = RANK_REL_TOL) -> int:
    """Number of singular tubes with norm above rel_tol times the leading one."""
    tubes = tsvd(a).tube_norms()
    if tubes[0] <= 0.0:
        return 0
    return int((tubes > rel_tol * tubes[0]).sum())


def leading_atoms(a: Tensor3, s: int, rel_tol: float = RANK_REL_TOL) -> list[RankOneAtom]:
    """Peel the s leading rank-one atoms off a tensor.

    Atom i is u(:, i, :) * (s(i, i, :) / theta_i) * v(:, i, :)' with
    theta_i the tube norm. Atoms whose tube norm falls below rel_tol times
    the leading tube norm are dropped, so a zero tensor yields an empty
    list and the result may be shorter than s. Atoms are assembled from the
    time-domain factors; each is a Fortran-ordered view, so its memory is
    its storage-order vectorization.
    """
    n1, n2, n3 = a.shape
    if not 1 <= s <= min(n1, n2):
        raise RankOutOfRange(f"atom count {s} outside [1, {min(n1, n2)}]")
    factors = truncated_tsvd(a, s)
    tubes = factors.tube_norms()
    if tubes[0] <= 0.0:
        return []
    # tube norms are nonincreasing, so the kept atoms are a prefix
    theta = tubes[tubes >= rel_tol * tubes[0]]
    count = theta.size
    diag = np.arange(count)
    idx = np.arange(n3)
    lag = (idx[None, :] - idx[:, None]) % n3    # [c, t] -> t - c
    # atom i is w_i * v_i' with w_i = u_i * (s_i / theta_i): as n1 x n3
    # matrices, w_i is u_i times the tube's circulant tube[lag]. Frontal
    # slice t of the atom, transposed, is the sum over c of
    # v_i[:, c - t] w_i[:, c]', one real product of inner width n3 per
    # atom, landing in the storage order (count, n3, n2, n1)
    tube = factors.s[diag, diag, :] / theta[:, None]
    w = factors.u[:, :count, :].transpose(1, 0, 2) @ tube[:, lag]
    v = factors.v[:, :count, :].transpose(1, 0, 2)[:, :, lag].transpose(0, 2, 1, 3)
    stack = (v.reshape(count, n3 * n2, n3) @ w.transpose(0, 2, 1)).reshape(count, n3, n2, n1)
    return [RankOneAtom(tube_norm=float(t), atom=stack[i].T) for i, t in enumerate(theta)]
