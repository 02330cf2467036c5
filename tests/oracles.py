"""Reference forms of the tensor product and the t-SVD, for tests only.

The block-circulant and block-diagonal matrices of Kilmer & Martin,
"Factorization strategies for third-order tensors" (Linear Algebra Appl.,
2011), materialize what ``tpursuit.tensor.tprod`` computes slice-wise in
the DFT domain. They cost O((n1*n3) x (n2*n3)) memory, so they are kept
test sized and out of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpursuit.errors import ShapeMismatch
from tpursuit.tensor import Tensor3, conj_transpose, frobenius_norm, tprod

# bcirc/bdiag materialize (n1*n3) x (n2*n3) matrices; keep them test sized
ORACLE_DIM_LIMIT = 64


@dataclass(frozen=True)
class FourierTensor:
    """Per-tube DFT of a tensor.

    ``slices[:, :, k]`` is the k-th DFT coefficient of every tube, i.e. the
    k-th diagonal block of the block-diagonalized circulant form.
    """

    slices: np.ndarray


def fft3(a: Tensor3) -> FourierTensor:
    """Unnormalized DFT along every tube: fft3 of tube (1, 2) is (3, -1)."""
    return FourierTensor(np.fft.fft(np.asarray(a, dtype=np.float64), axis=2))


def unfold(a: Tensor3) -> np.ndarray:
    """Stack the frontal slices vertically into an (n1*n3) x n2 matrix."""
    n1, n2, n3 = a.shape
    return a.transpose(2, 0, 1).reshape(n3 * n1, n2)


def fold(mat: np.ndarray, n3: int) -> Tensor3:
    """Inverse of :func:`unfold`; the row count must be divisible by n3."""
    rows, n2 = mat.shape
    if n3 < 1 or rows % n3:
        raise ShapeMismatch(f"cannot fold {rows} rows into {n3} slices")
    n1 = rows // n3
    return np.ascontiguousarray(mat.reshape(n3, n1, n2).transpose(1, 2, 0))


def bcirc(a: Tensor3) -> np.ndarray:
    """Block-circulant matrix of the frontal slices.

    Block row i, block column j holds slice (i - j) mod n3, so the first
    block column reads slice 1..n3 top to bottom. Materialization is
    limited to n1*n3 <= 64 and n2*n3 <= 64.
    """
    n1, n2, n3 = a.shape
    if n1 * n3 > ORACLE_DIM_LIMIT or n2 * n3 > ORACLE_DIM_LIMIT:
        raise ValueError(
            f"bcirc materialization is limited to {ORACLE_DIM_LIMIT} rows/cols per side"
        )
    out = np.zeros((n1 * n3, n2 * n3))
    for bi in range(n3):
        for bj in range(n3):
            out[bi * n1:(bi + 1) * n1, bj * n2:(bj + 1) * n2] = a[:, :, (bi - bj) % n3]
    return out


def bdiag(ah: FourierTensor) -> np.ndarray:
    """Block-diagonal matrix of the DFT slices."""
    n1, n2, n3 = ah.slices.shape
    if n1 * n3 > ORACLE_DIM_LIMIT or n2 * n3 > ORACLE_DIM_LIMIT:
        raise ValueError(
            f"bdiag materialization is limited to {ORACLE_DIM_LIMIT} rows/cols per side"
        )
    out = np.zeros((n1 * n3, n2 * n3), dtype=np.complex128)
    for k in range(n3):
        out[k * n1:(k + 1) * n1, k * n2:(k + 1) * n2] = ah.slices[:, :, k]
    return out


def identity_tensor(n: int, n3: int) -> Tensor3:
    """Multiplicative identity: eye(n) in slice 1, zeros elsewhere."""
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


def inner(a: Tensor3, b: Tensor3) -> float:
    """Entrywise inner product <a, b>."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"inner product needs equal shapes, got {a.shape} and {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def slice_svd_tsvd(a: Tensor3, k: int):
    """Leading k tubes of the t-SVD, as (u, s, v), from a full SVD of every
    DFT slice.

    Slices past n3 // 2 are the conjugates of their mirrors, so the factors
    transform back to real tensors. Each left singular vector is rotated so
    that its largest-magnitude entry, the first on ties, is real and
    nonnegative, the phase convention of ``tpursuit.tsvd``.
    """
    n1, n2, n3 = a.shape
    ah = np.fft.fft(np.asarray(a, dtype=np.float64), axis=2)
    uh = np.zeros((n1, k, n3), dtype=np.complex128)
    sh = np.zeros((k, k, n3), dtype=np.complex128)
    vh = np.zeros((n2, k, n3), dtype=np.complex128)
    for t in range(n3 // 2 + 1):
        u, sig, wh = np.linalg.svd(ah[:, :, t], full_matrices=False)
        for j in range(k):
            lead = u[np.argmax(np.abs(u[:, j])), j]
            phase = lead / abs(lead) if abs(lead) > 0 else 1.0
            u[:, j] *= np.conj(phase)
            wh[j, :] *= phase
        uh[:, :, t] = u[:, :k]
        sh[:, :, t] = np.diag(sig[:k])
        vh[:, :, t] = wh[:k, :].conj().T
    for t in range(n3 // 2 + 1, n3):
        for fh in (uh, sh, vh):
            fh[:, :, t] = fh[:, :, n3 - t].conj()
    return tuple(np.fft.ifft(fh, axis=2).real for fh in (uh, sh, vh))


def is_orthogonal(q: Tensor3, tol: float = 1e-8) -> bool:
    """True when the lateral slices of q are orthonormal under tprod.

    Checks ||q' * q - I|| <= tol, and the two-sided version when q is
    square per slice.
    """
    n, p, n3 = q.shape
    qt = conj_transpose(q)
    if frobenius_norm(tprod(qt, q) - identity_tensor(p, n3)) > tol:
        return False
    if n == p and frobenius_norm(tprod(q, qt) - identity_tensor(n, n3)) > tol:
        return False
    return True
