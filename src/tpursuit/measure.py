"""Measurement maps: entry sampling masks and dense sensing matrices.

Both kinds act on the vectorization of a tensor in its storage layout
(column-major slices, offset k*n1*n2 + j*n1 + i). A sampling map picks
entries; a dense map multiplies by an m x N matrix. ``pinv_apply`` is the
Moore-Penrose right inverse, so apply(pinv_apply(b)) == b whenever the map
has full row rank, and pinv_apply(apply(x)) is the orthogonal projection
of x onto the row space.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import EmptyMask, FileFormatError, RankDeficientMap, ShapeMismatch
from .tensor import Tensor3

MSK_MAGIC = b"MSK1"

# dense matrices are capped at m * N entries to keep memory bounded
DENSE_ENTRY_LIMIT = 2**24


def _vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).ravel(order="F")


def _unvec(v: np.ndarray, dims) -> Tensor3:
    return np.ascontiguousarray(v.reshape(dims, order="F"))


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


class MeasurementMap:
    """Linear map from tensors of fixed dims to R^m."""

    def __init__(self, kind, dims, mask=None, matrix=None, ensemble=None, seed=None):
        if kind not in ("sampling", "dense"):
            raise ValueError(f"unknown measurement kind {kind!r}")
        self.kind = kind
        self.dims = tuple(int(d) for d in dims)
        self.mask = mask
        self.matrix = matrix
        self.ensemble = ensemble
        self.seed = seed
        self._chol = None

    @property
    def m(self) -> int:
        if self.kind == "sampling":
            return self.mask.p
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        d = self.dims
        return d[0] * d[1] * d[2]

    def _cholesky(self) -> np.ndarray:
        # lower Cholesky factor of matrix @ matrix.T, built on first use
        if self._chol is None:
            gram = self.matrix @ self.matrix.T
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError as exc:
                raise RankDeficientMap(
                    "dense measurement rows are numerically dependent"
                ) from exc
            # exactly dependent rows can still factor with a pivot at the
            # rounding floor of the Gram; treat those as deficient too
            pivots = np.diag(chol) ** 2
            floor = 100.0 * gram.shape[0] * np.finfo(np.float64).eps * np.diag(gram).max()
            if pivots.min() <= floor:
                raise RankDeficientMap("dense measurement rows are numerically dependent")
            self._chol = chol
        return self._chol


def sampling_map(mask: SamplingMask) -> MeasurementMap:
    """Measurement map that reads the masked entries in offset order."""
    return MeasurementMap("sampling", mask.dims, mask=mask)


def dense_map(matrix: np.ndarray, dims, ensemble: str = "custom", seed=None) -> MeasurementMap:
    """Wrap an explicit m x N sensing matrix."""
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
    return MeasurementMap("dense", dims, matrix=matrix, ensemble=ensemble, seed=seed)


def gaussian_ensemble(m: int, dims, seed) -> MeasurementMap:
    """iid N(0, 1/m) sensing matrix; E||phi(x)||^2 equals ||x||_F^2."""
    dims = tuple(int(d) for d in dims)
    n = dims[0] * dims[1] * dims[2]
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((int(m), n)) / math.sqrt(m)
    return dense_map(matrix, dims, ensemble="gaussian", seed=seed)


def rademacher_ensemble(m: int, dims, seed) -> MeasurementMap:
    """iid +-1/sqrt(m) sensing matrix; E||phi(x)||^2 equals ||x||_F^2."""
    dims = tuple(int(d) for d in dims)
    n = dims[0] * dims[1] * dims[2]
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(int(m), n)).astype(np.float64) * 2.0 - 1.0
    return dense_map(signs / math.sqrt(m), dims, ensemble="rademacher", seed=seed)


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
        v = x.transpose(0, 3, 2, 1).reshape(x.shape[0], phi.n)
        if phi.kind == "sampling":
            return v[:, phi.mask.indices]
        return v @ phi.matrix.T
    if x.shape != phi.dims:
        raise ShapeMismatch(f"tensor shape {x.shape} does not match map dims {phi.dims}"
                            " or a stack of them")
    v = _vec(x)
    if phi.kind == "sampling":
        return v[phi.mask.indices].copy()
    return phi.matrix @ v


def pinv_apply(phi: MeasurementMap, b: np.ndarray) -> Tensor3:
    """Minimum-norm preimage of a measurement vector.

    Sampling maps scatter b back into a zero tensor. Dense maps solve with
    the cached Cholesky factor of phi phi', raising RankDeficientMap when
    the rows are numerically dependent.
    """
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != phi.m:
        raise ShapeMismatch(f"measurement vector has length {b.size}, expected {phi.m}")
    if phi.kind == "sampling":
        v = np.zeros(phi.n)
        v[phi.mask.indices] = b
        return _unvec(v, phi.dims)
    chol = phi._cholesky()
    w = scipy.linalg.cho_solve((chol, True), b)
    return _unvec(phi.matrix.T @ w, phi.dims)


def whiten(phi: MeasurementMap, v: np.ndarray) -> np.ndarray:
    """Map measured vectors to coordinates where the projected-tensor inner
    product is the plain dot product.

    Sampling maps are row-orthonormal already; dense maps apply the inverse
    of the lower Cholesky factor of phi phi'.
    """
    if phi.kind == "sampling":
        return v
    chol = phi._cholesky()
    return scipy.linalg.solve_triangular(chol, v, lower=True)


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
