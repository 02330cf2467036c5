"""Measurement maps: entry sampling masks and dense sensing matrices.

Both act on the vectorization of a tensor in its storage layout
(column-major slices, offset k*n1*n2 + j*n1 + i). A ``SamplingMap`` picks
entries; a ``DenseMap`` multiplies by an m x N matrix. Their methods take
vectors in that layout; the module functions ``apply``, ``pinv_apply`` and
``whiten`` check shapes and vectorize, then call them. ``pinv_apply`` is
the Moore-Penrose right inverse, so apply(pinv_apply(b)) == b whenever the
map has full row rank, and pinv_apply(apply(x)) is the orthogonal
projection of x onto the row space. The ``unwhiten`` method inverts
``whiten``, taking whitened coordinates back to measurements.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (EmptyMask, FileFormatError, NumericalFailure, RankDeficientMap,
                     ShapeMismatch)
from .tensor import Tensor3

MSK_MAGIC = b"MSK1"

# dense matrices are capped at m * N entries to keep memory bounded
DENSE_ENTRY_LIMIT = 2**24


def _vec(x: np.ndarray) -> np.ndarray:
    # a free view when x is Fortran ordered
    return np.asarray(x, dtype=np.float64).ravel(order="F")


def _unvec(v: np.ndarray, dims) -> Tensor3:
    # the Fortran-ordered view of v, in storage order like every tensor the
    # pursuit builds
    return v.reshape(dims, order="F")


@dataclass(frozen=True)
class SamplingMask:
    """Strictly increasing linear offsets of observed entries for fixed dims."""

    dims: tuple
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ShapeMismatch(f"mask dims must be three positive integers, got {self.dims}")
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        if idx.size == 0:
            raise EmptyMask("a sampling mask must keep at least one entry")
        n = dims[0] * dims[1] * dims[2]
        if idx[0] < 0 or idx[-1] >= n or np.any(np.diff(idx) <= 0):
            raise ValueError("mask offsets must be strictly increasing within [0, n1*n2*n3)")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "indices", idx)

    @property
    def p(self) -> int:
        return int(self.indices.size)


class SamplingMap:
    """Reads the masked entries of a tensor in offset order."""

    def __init__(self, mask: SamplingMask):
        self.mask = mask
        self.dims = mask.dims
        self.m = mask.p
        self.n = self.dims[0] * self.dims[1] * self.dims[2]

    def measure(self, v: np.ndarray) -> np.ndarray:
        # a new array, one row per row of v; np.take gathers a stack of rows
        # several times faster than fancy indexing
        return np.take(v, self.mask.indices, axis=-1)

    def preimage(self, b: np.ndarray) -> np.ndarray:
        v = np.zeros(self.n)
        v[self.mask.indices] = b
        return v

    def whiten(self, v: np.ndarray) -> np.ndarray:
        # the rows of a sampling map are orthonormal already
        return v

    def unwhiten(self, w: np.ndarray) -> np.ndarray:
        return w


class DenseMap:
    """Multiplies the vectorized tensor by an explicit m x N sensing matrix."""

    def __init__(self, matrix: np.ndarray, dims):
        dims = tuple(int(d) for d in dims)
        n = dims[0] * dims[1] * dims[2]
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != n:
            raise ShapeMismatch(f"sensing matrix must be m x {n}, got {matrix.shape}")
        if matrix.shape[0] < 1:
            raise ValueError("a sensing matrix needs at least one row")
        if matrix.shape[0] * n > DENSE_ENTRY_LIMIT:
            raise ValueError(
                f"dense map of {matrix.shape[0]}x{n} exceeds the {DENSE_ENTRY_LIMIT} entry limit"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("sensing matrix entries must be finite")
        self.matrix = matrix
        self.dims = dims
        self.m = matrix.shape[0]
        self.n = n
        self._chol = None

    def _cholesky(self) -> np.ndarray:
        # upper Cholesky factor U of matrix @ matrix.T = U'U, built and
        # checked on first use. U is the transpose view of numpy's C-ordered
        # lower factor, so it is column-major, the layout LAPACK reads, and
        # the solves neither copy nor re-check it.
        if self._chol is None:
            gram = self.matrix @ self.matrix.T
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError as exc:
                raise RankDeficientMap(
                    "dense measurement rows are numerically dependent"
                ) from exc
            if not np.all(np.isfinite(chol)):
                raise NumericalFailure("the Gram matrix of the dense map overflows")
            # exactly dependent rows can still factor with a pivot at the
            # rounding floor of the Gram; treat those as deficient too
            pivots = np.diag(chol) ** 2
            floor = 100.0 * gram.shape[0] * np.finfo(np.float64).eps * np.diag(gram).max()
            if pivots.min() <= floor:
                raise RankDeficientMap("dense measurement rows are numerically dependent")
            self._chol = chol.T
        return self._chol

    def measure(self, v: np.ndarray) -> np.ndarray:
        return v @ self.matrix.T

    def preimage(self, b: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(b)):
            raise ValueError("measurement vector must be finite")
        w = scipy.linalg.cho_solve((self._cholesky(), False), b, check_finite=False)
        return self.matrix.T @ w

    def whiten(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if not np.all(np.isfinite(v)):
            raise ValueError("measured vectors must be finite")
        return scipy.linalg.solve_triangular(self._cholesky(), v, trans="T", check_finite=False)

    def unwhiten(self, w: np.ndarray) -> np.ndarray:
        # L w for the lower factor L = U' of phi phi' = L L', undoing whiten
        return self._cholesky().T @ w


MeasurementMap = SamplingMap | DenseMap
"""Linear map from tensors of fixed dims to R^m."""

sampling_map = SamplingMap
dense_map = DenseMap


def gaussian_ensemble(m: int, dims, seed) -> DenseMap:
    """iid N(0, 1/m) sensing matrix; E||phi(x)||^2 equals ||x||_F^2."""
    rng = np.random.default_rng(seed)
    n = math.prod(int(d) for d in dims)
    return DenseMap(rng.standard_normal((int(m), n)) / math.sqrt(m), dims)


def rademacher_ensemble(m: int, dims, seed) -> DenseMap:
    """iid +-1/sqrt(m) sensing matrix; E||phi(x)||^2 equals ||x||_F^2."""
    rng = np.random.default_rng(seed)
    n = math.prod(int(d) for d in dims)
    signs = rng.integers(0, 2, size=(int(m), n)).astype(np.float64) * 2.0 - 1.0
    return DenseMap(signs / math.sqrt(m), dims)


def random_mask(dims, missing_ratio: float, seed) -> SamplingMask:
    """Keep ceil((1 - missing_ratio) * N) entries uniformly without replacement."""
    dims = tuple(int(d) for d in dims)
    if not 0.0 <= missing_ratio < 1.0:
        raise ValueError(f"missing_ratio must lie in [0, 1), got {missing_ratio}")
    n = dims[0] * dims[1] * dims[2]
    keep = math.ceil((1.0 - missing_ratio) * n)
    if keep < 1:
        raise EmptyMask("missing_ratio leaves no observed entries")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=keep, replace=False)
    idx.sort()
    return SamplingMask(dims=dims, indices=idx)


def apply(phi: MeasurementMap, x: Tensor3) -> np.ndarray:
    """Measure a tensor, returning the length-m vector phi(x).

    A stack of tensors, shape (count, n1, n2, n3), gives a (count, m) array
    whose row i is phi(x[i]); a dense map measures the stack with one
    matrix product.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 4 and x.shape[1:] == phi.dims:
        # each row in storage order; a free view when x[i] is Fortran ordered
        return phi.measure(x.transpose(0, 3, 2, 1).reshape(x.shape[0], phi.n))
    if x.shape != phi.dims:
        raise ShapeMismatch(f"tensor shape {x.shape} does not match map dims {phi.dims}"
                            " or a stack of them")
    return phi.measure(_vec(x))


def pinv_apply(phi: MeasurementMap, b: np.ndarray) -> Tensor3:
    """Minimum-norm preimage of a measurement vector, a Fortran-ordered
    tensor (its memory is the storage-order vectorization).

    Sampling maps scatter b back into a zero tensor. Dense maps solve with
    the cached Cholesky factor of phi phi', raising RankDeficientMap when
    the rows are numerically dependent, NumericalFailure when phi phi'
    overflows, and ValueError when b holds a non-finite value.
    """
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != phi.m:
        raise ShapeMismatch(f"measurement vector has length {b.size}, expected {phi.m}")
    return _unvec(phi.preimage(b), phi.dims)


def whiten(phi: MeasurementMap, v: np.ndarray) -> np.ndarray:
    """Map measured vectors to coordinates where the projected-tensor inner
    product is the plain dot product.

    Sampling maps are row-orthonormal already and return v itself; dense
    maps apply the inverse of the lower Cholesky factor of phi phi' and
    raise ValueError when v holds a non-finite value.
    """
    return phi.whiten(v)


def write_msk(path, mask: SamplingMask) -> None:
    """Write magic MSK1, three u32 LE dims, u64 LE count, ascending u64 LE offsets."""
    n1, n2, n3 = mask.dims
    with open(path, "wb") as fh:
        fh.write(MSK_MAGIC)
        fh.write(struct.pack("<3IQ", n1, n2, n3, mask.p))
        fh.write(mask.indices.astype("<u8").tobytes())


def read_msk(path) -> SamplingMask:
    """Read a mask written by :func:`write_msk`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24 or blob[:4] != MSK_MAGIC:
        raise FileFormatError(f"{path}: not an MSK1 mask file")
    n1, n2, n3, count = struct.unpack("<3IQ", blob[4:24])
    if n1 < 1 or n2 < 1 or n3 < 1:
        raise FileFormatError(f"{path}: dimensions must be positive, got {(n1, n2, n3)}")
    if count < 1:
        raise FileFormatError(f"{path}: mask holds no entries")
    if len(blob) != 24 + 8 * count:
        raise FileFormatError(
            f"{path}: payload holds {len(blob) - 24} bytes, expected {8 * count}"
        )
    idx = np.frombuffer(blob, dtype="<u8", offset=24).astype(np.int64)
    n = n1 * n2 * n3
    if idx[0] < 0 or idx[-1] >= n or np.any(np.diff(idx) <= 0):
        raise FileFormatError(f"{path}: offsets must be strictly ascending within [0, {n})")
    return SamplingMask(dims=(n1, n2, n3), indices=idx)
