"""Dense third-order tensor algebra built on circular tube convolution.

A tensor here is a plain real numpy array of shape ``(n1, n2, n3)``:
``n1 x n2`` frontal slices stacked along the last axis, with length-``n3``
tubes running through them. The tensor product convolves tubes circularly,
so every product reduces to independent complex matrix products across the
DFT slices. Real input has conjugate-symmetric DFT slices, hence only the
first ``n3 // 2 + 1`` slices are ever computed and the rest are mirrored.

Entry ``(i, j, k)`` of a tensor lives at linear offset
``k*n1*n2 + j*n1 + i`` (zero-based), which is Fortran order for shape
``(n1, n2, n3)``; serialization and masks rely on that layout. Every
whole-tensor transform goes through ``spectrum`` and ``from_spectrum``,
which hold the half-spectrum slices transposed, ``(h, n2, n1)``: the
layout ``rfft`` gives a Fortran-ordered tensor, so a Fortran-ordered
tensor's slices need no copy, and the tensors ``from_spectrum`` returns
are Fortran ordered.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FileFormatError, ShapeMismatch

Tensor3 = np.ndarray
"""Alias for a real float64 array of shape ``(n1, n2, n3)``."""

T3B_MAGIC = b"T3B1"


def tensor_dims(dims) -> tuple:
    """dims as a tuple of three positive ints, each checked by positive_int;
    raises ShapeMismatch otherwise."""
    dims = tuple(dims)
    rule = f"dims must be three positive integers, got {dims}"
    if len(dims) != 3:
        raise ShapeMismatch(rule)
    return tuple(positive_int(d, f"{rule}; each", error=ShapeMismatch) for d in dims)


def positive_int(value, name: str, high=None, error=ValueError) -> int:
    """value as an int when it is an int or numpy integer in [1, high].

    Every count, rank and width the package takes is checked here. Bools
    and floats are refused, 2.0 too, rather than truncated; anything else
    raises error, a ValueError subclass, whose message names the rule.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1
            or (high is not None and value > high)):
        bound = "" if high is None else f" and <= {high}"
        raise error(f"{name} must be an integer >= 1{bound}, got {value!r}")
    return int(value)


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


def spectrum(a: np.ndarray) -> np.ndarray:
    """The n3 // 2 + 1 leading DFT slices of real tensors (..., n1, n2, n3),
    each transposed: shape (..., h, n2, n1)."""
    return np.fft.rfft(a, axis=-1).swapaxes(-1, -3)


def from_spectrum(slices_t: np.ndarray, n3: int) -> np.ndarray:
    """The real tensors (..., n1, n2, n3) whose spectrum is slices_t, each
    Fortran ordered."""
    # C order here is Fortran order for each tensor after the swap; numpy 2's
    # irfft returns it already, so this copies only where numpy 1.x does not
    return np.ascontiguousarray(np.fft.irfft(slices_t, n=n3, axis=-3)).swapaxes(-1, -3)


def t_transpose(a: Tensor3) -> Tensor3:
    """The t-transpose a' (n2 x n1 x n3) of a real tensor: each frontal slice
    transposed and slices 2..n3 reversed, so tprod(a, b)' = tprod(b', a')."""
    n3 = a.shape[2]
    return a[:, :, -np.arange(n3) % n3].transpose(1, 0, 2)


def tprod(a: Tensor3, b: Tensor3) -> Tensor3:
    """Tensor product of a (n1 x n2 x n3) with b (n2 x l x n3), Fortran ordered.

    Equals the block-circulant matrix of a times the stacked frontal slices
    of b, but is computed slice-wise in the DFT domain at FFT cost, as
    (a_f b_f)^T = b_f^T a_f^T on the transposed slices. Only the leading half
    spectrum is multiplied; the mirrored slices follow from conjugate
    symmetry.
    """
    if a.ndim != 3 or b.ndim != 3 or a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ShapeMismatch(f"cannot multiply tensors of shapes {a.shape} and {b.shape}")
    return from_spectrum(spectrum(b) @ spectrum(a), a.shape[2])


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm of a real array, summed by np.einsum rather than BLAS:
    OpenBLAS splits a dot product of more than 10000 entries over its
    threads, so the norm's low bits would depend on how many it runs.
    Outside [2**-450, 2**450], where the plain sum may have overflowed or
    lost its small terms, it sums again over the array scaled by the power
    of two at its largest magnitude (Blue, ACM TOMS, 1978), an exact scale:
    the norm of 2**e * a is 2**e times the norm of a."""
    x = np.ravel(a, order="K")
    norm = math.sqrt(float(np.einsum("i,i->", x, x)))
    if 2.0 ** -450 <= norm <= 2.0 ** 450:
        return norm
    _, exp = np.frexp(np.max(np.abs(x), initial=0.0))
    x = np.ldexp(x, -exp)
    # a norm past the largest float is inf, without numpy's warning
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(float(np.einsum("i,i->", x, x))), exp))


def rmse(x: Tensor3, y: Tensor3) -> float:
    """Root mean squared entrywise error between two equal-shape tensors."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"rmse needs equal shapes, got {x.shape} and {y.shape}")
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return frobenius_norm(diff) / math.sqrt(diff.size)


def write_t3b(path, a: Tensor3) -> None:
    """Write a tensor as magic T3B1, three u32 LE dims, float64 LE entries.

    Entries are laid out with offset k*n1*n2 + j*n1 + i, i.e. column-major
    within each frontal slice, slices consecutive.
    """
    a = as_tensor3(a)
    n1, n2, n3 = tensor_dims(a.shape)
    with open(path, "wb") as fh:
        fh.write(T3B_MAGIC)
        fh.write(struct.pack("<3I", n1, n2, n3))
        fh.write(a.ravel(order="F").astype("<f8").tobytes())


def read_t3b(path) -> Tensor3:
    """Read a tensor written by :func:`write_t3b`, in the file's Fortran order."""
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
    arr = np.frombuffer(blob, dtype="<f8", offset=16).reshape((n1, n2, n3), order="F")
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{path}: tensor entries must be finite")
    # a writable copy of the read-only buffer, in the file's own order
    return arr.copy(order="F")
