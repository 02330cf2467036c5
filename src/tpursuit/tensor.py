"""Dense third-order tensor algebra built on circular tube convolution.

A tensor here is a plain real numpy array of shape ``(n1, n2, n3)``:
``n1 x n2`` frontal slices stacked along the last axis, with length-``n3``
tubes running through them. The tensor product convolves tubes circularly,
so every product reduces to independent complex matrix products across the
DFT slices. Real input has conjugate-symmetric DFT slices, hence only the
first ``n3 // 2 + 1`` slices are ever computed and the rest are mirrored.

The block-circulant view (:func:`bcirc`, :func:`unfold`, :func:`fold`) is
kept as a reference oracle for tests and stays off the hot paths.

Entry ``(i, j, k)`` of a tensor lives at linear offset
``k*n1*n2 + j*n1 + i`` (zero-based), which is Fortran order for shape
``(n1, n2, n3)``; serialization and masks rely on that layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, NonNegligibleImaginaryPart, ShapeMismatch

Tensor3 = np.ndarray
"""Alias for a real float64 array of shape ``(n1, n2, n3)``."""

T3B_MAGIC = b"T3B1"

# bcirc/bdiag materialize (n1*n3) x (n2*n3) matrices; keep them test sized
ORACLE_DIM_LIMIT = 64

IFFT_IMAG_REL_TOL = 1e-10


def as_tensor3(data) -> Tensor3:
    """Coerce array-like data to a valid float64 tensor of order three.

    Raises ShapeMismatch for anything that is not three dimensional and
    ValueError when entries are not finite.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a third-order tensor, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    return arr


@dataclass(frozen=True)
class FourierTensor:
    """Per-tube DFT of a tensor.

    ``slices[:, :, k]`` is the k-th DFT coefficient of every tube, i.e. the
    k-th diagonal block of the block-diagonalized circulant form.
    ``real_origin`` records that the source was real, in which case slice k
    and slice (n3 - k) mod n3 are entrywise complex conjugates.
    """

    slices: np.ndarray
    real_origin: bool = True

    @property
    def n1(self) -> int:
        return self.slices.shape[0]

    @property
    def n2(self) -> int:
        return self.slices.shape[1]

    @property
    def n3(self) -> int:
        return self.slices.shape[2]


def fft3(a: Tensor3) -> FourierTensor:
    """Unnormalized DFT along every tube: fft3 of tube (1, 2) is (3, -1)."""
    a = np.asarray(a, dtype=np.float64)
    return FourierTensor(np.fft.fft(a, axis=2), real_origin=True)


def ifft3(ah: FourierTensor, rel_tol: float = IFFT_IMAG_REL_TOL) -> Tensor3:
    """Inverse of :func:`fft3`, returning a real tensor.

    The imaginary residue of the inverse transform must stay below
    ``rel_tol`` times the Frobenius norm of the real part; anything larger
    means the input was not conjugate symmetric and raises
    NonNegligibleImaginaryPart.
    """
    x = np.fft.ifft(ah.slices, axis=2)
    real = np.ascontiguousarray(x.real)
    imag_norm = float(np.linalg.norm(x.imag))
    if imag_norm > rel_tol * float(np.linalg.norm(real)):
        raise NonNegligibleImaginaryPart(
            f"imaginary residue {imag_norm:.3e} exceeds {rel_tol:g} of the result norm"
        )
    return real


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
    """Block-circulant matrix of the frontal slices (test oracle only).

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
    """Block-diagonal matrix of the DFT slices (test oracle only)."""
    n1, n2, n3 = ah.slices.shape
    if n1 * n3 > ORACLE_DIM_LIMIT or n2 * n3 > ORACLE_DIM_LIMIT:
        raise ValueError(
            f"bdiag materialization is limited to {ORACLE_DIM_LIMIT} rows/cols per side"
        )
    out = np.zeros((n1 * n3, n2 * n3), dtype=np.complex128)
    for k in range(n3):
        out[k * n1:(k + 1) * n1, k * n2:(k + 1) * n2] = ah.slices[:, :, k]
    return out


def tprod(a: Tensor3, b: Tensor3) -> Tensor3:
    """Tensor product of a (n1 x n2 x n3) with b (n2 x l x n3).

    Equals fold(bcirc(a) @ unfold(b)) but is computed slice-wise in the DFT
    domain at FFT cost. Only the leading half spectrum is multiplied; the
    mirrored slices follow from conjugate symmetry.
    """
    if a.ndim != 3 or b.ndim != 3 or a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ShapeMismatch(f"cannot multiply tensors of shapes {a.shape} and {b.shape}")
    n3 = a.shape[2]
    ah = np.fft.rfft(a, axis=2).transpose(2, 0, 1)
    bh = np.fft.rfft(b, axis=2).transpose(2, 0, 1)
    ch = ah @ bh
    return np.fft.irfft(ch.transpose(1, 2, 0), n=n3, axis=2)


def conj_transpose(a: Tensor3) -> Tensor3:
    """Transpose each frontal slice and reverse the order of slices 2..n3.

    For real tensors this is the adjoint of :func:`tprod`:
    conj_transpose(tprod(a, b)) == tprod(conj_transpose(b), conj_transpose(a)).
    """
    if a.ndim != 3:
        raise ShapeMismatch(f"expected a third-order tensor, got ndim={a.ndim}")
    n1, n2, n3 = a.shape
    out = np.empty((n2, n1, n3), dtype=np.float64)
    out[:, :, 0] = a[:, :, 0].T
    if n3 > 1:
        out[:, :, 1:] = a[:, :, :0:-1].transpose(1, 0, 2)
    return out


def identity_tensor(n: int, n3: int) -> Tensor3:
    """Multiplicative identity: eye(n) in slice 1, zeros elsewhere."""
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def rmse(x: Tensor3, y: Tensor3) -> float:
    """Root mean squared entrywise error between two equal-shape tensors."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"rmse needs equal shapes, got {x.shape} and {y.shape}")
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.sqrt((diff**2).sum() / diff.size))


def inner(a: Tensor3, b: Tensor3) -> float:
    """Entrywise inner product <a, b>."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"inner product needs equal shapes, got {a.shape} and {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def max_tube_norm(a: Tensor3) -> float:
    """Largest column norm across the DFT slices, max over (j, k) of ||ahat(:, j, k)||."""
    ah = np.fft.fft(np.asarray(a, dtype=np.float64), axis=2)
    col_norms = np.sqrt((np.abs(ah) ** 2).sum(axis=0))
    return float(col_norms.max()) if col_norms.size else 0.0


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


def write_t3b(path, a: Tensor3) -> None:
    """Write a tensor as magic T3B1, three u32 LE dims, float64 LE entries.

    Entries are laid out with offset k*n1*n2 + j*n1 + i, i.e. column-major
    within each frontal slice, slices consecutive.
    """
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    with open(path, "wb") as fh:
        fh.write(T3B_MAGIC)
        fh.write(struct.pack("<3I", n1, n2, n3))
        fh.write(a.ravel(order="F").astype("<f8").tobytes())


def read_t3b(path) -> Tensor3:
    """Read a tensor written by :func:`write_t3b`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != T3B_MAGIC:
        raise FileFormatError(f"{path}: not a T3B1 tensor file")
    n1, n2, n3 = struct.unpack("<3I", blob[4:16])
    count = n1 * n2 * n3
    if n1 < 1 or n2 < 1 or n3 < 1:
        raise FileFormatError(f"{path}: dimensions must be positive, got {(n1, n2, n3)}")
    if len(blob) != 16 + 8 * count:
        raise FileFormatError(
            f"{path}: payload holds {len(blob) - 16} bytes, expected {8 * count}"
        )
    values = np.frombuffer(blob, dtype="<f8", offset=16)
    arr = values.reshape((n1, n2, n3), order="F")
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{path}: tensor entries must be finite")
    return np.ascontiguousarray(arr)
