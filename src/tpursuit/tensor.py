"""Dense third-order tensor algebra built on circular tube convolution.

A tensor here is a plain real numpy array of shape ``(n1, n2, n3)``:
``n1 x n2`` frontal slices stacked along the last axis, with length-``n3``
tubes running through them. The tensor product convolves tubes circularly,
so every product reduces to independent complex matrix products across the
DFT slices. Real input has conjugate-symmetric DFT slices, hence only the
first ``n3 // 2 + 1`` slices are ever computed and the rest are mirrored.

Entry ``(i, j, k)`` of a tensor lives at linear offset
``k*n1*n2 + j*n1 + i`` (zero-based), which is Fortran order for shape
``(n1, n2, n3)``; serialization and masks rely on that layout.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FileFormatError, ShapeMismatch

Tensor3 = np.ndarray
"""Alias for a real float64 array of shape ``(n1, n2, n3)``."""

T3B_MAGIC = b"T3B1"


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


def tprod(a: Tensor3, b: Tensor3) -> Tensor3:
    """Tensor product of a (n1 x n2 x n3) with b (n2 x l x n3).

    Equals the block-circulant matrix of a times the stacked frontal slices
    of b, but is computed slice-wise in the DFT domain at FFT cost. Only the
    leading half spectrum is multiplied; the mirrored slices follow from
    conjugate symmetry.
    """
    if a.ndim != 3 or b.ndim != 3 or a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ShapeMismatch(f"cannot multiply tensors of shapes {a.shape} and {b.shape}")
    n3 = a.shape[2]
    ah = np.fft.rfft(a, axis=2).transpose(2, 0, 1)
    bh = np.fft.rfft(b, axis=2).transpose(2, 0, 1)
    ch = ah @ bh
    return np.fft.irfft(ch.transpose(1, 2, 0), n=n3, axis=2)


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def rmse(x: Tensor3, y: Tensor3) -> float:
    """Root mean squared entrywise error between two equal-shape tensors."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"rmse needs equal shapes, got {x.shape} and {y.shape}")
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.sqrt((diff**2).sum() / diff.size))


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
