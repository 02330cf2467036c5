"""Measurement maps: entry sampling masks and dense sensing matrices.

Both act on the vectorization of a tensor in its storage layout
(column-major slices, offset k*n1*n2 + j*n1 + i). A ``SamplingMap`` picks
entries; a ``DenseMap`` multiplies by an m x N matrix. Each has the
methods ``measure``, ``whiten`` and ``backproject`` (the adjoint of whiten
after measure) on vectors in that layout; the module functions ``apply``,
``whiten`` and ``backproject`` check shapes and vectorize, then call them;
``whiten`` also refuses a measured vector holding NaN or an infinity.
``pinv_apply`` is backproject after whiten, the Moore-Penrose right
inverse, so apply(pinv_apply(b)) == b whenever the map has full row rank,
and pinv_apply(apply(x)) is the orthogonal projection onto the row space.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyMask, FileFormatError, NumericalFailure, RankDeficientMap,
                     ShapeMismatch)
from .tensor import Tensor3, positive_int, tensor_dims

MSK_MAGIC = b"MSK1"

# dense matrices are capped at m * N entries to keep memory bounded
DENSE_ENTRY_LIMIT = 2**24


def _vec(x: np.ndarray) -> np.ndarray:
    # a free view when x is Fortran ordered
    return np.asarray(x, dtype=np.float64).ravel(order="F")


@dataclass(frozen=True)
class SamplingMask:
    """Strictly increasing linear offsets of observed entries for fixed dims."""

    dims: tuple
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tensor_dims(self.dims)
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

    def whiten(self, v: np.ndarray) -> np.ndarray:
        # the rows of a sampling map are orthonormal already
        return v

    def backproject(self, w: np.ndarray) -> np.ndarray:
        v = np.zeros(self.n)
        v[self.mask.indices] = w
        return v


class DenseMap:
    """Multiplies the vectorized tensor by an explicit m x N sensing matrix.

    dims must be three positive integers and the matrix m x N for
    N = n1 n2 n3; ShapeMismatch otherwise. Before any entry is read,
    dense_shape checks the row count: ValueError, naming it, unless m >= 1
    and m * N is within DENSE_ENTRY_LIMIT. Then ValueError unless every
    entry is finite.
    """

    def __init__(self, matrix: np.ndarray, dims):
        dims = tensor_dims(dims)
        n = dims[0] * dims[1] * dims[2]
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != n:
            raise ShapeMismatch(f"sensing matrix must be m x {n}, got {matrix.shape}")
        dense_shape(matrix.shape[0], dims, "the sensing matrix's row count")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("sensing matrix entries must be finite")
        self.matrix = matrix
        self.dims = dims
        self.m = matrix.shape[0]
        self.n = n
        self._chol = None

    def _cholesky(self) -> np.ndarray:
        # upper factor U of matrix @ matrix.T = U'U, the Gram's Cholesky
        # factor or R of a QR of matrix.T, built and checked on first use.
        # The Gram is symmetric and C-ordered, so its transpose view is the
        # same matrix in the column-major layout LAPACK reads: potrf
        # overwrites it with U in place, the strictly lower part zeroed,
        # and the solves neither copy nor re-check it. scipy loads here, on
        # the first factorization, not with the package.
        if self._chol is None:
            from scipy.linalg import LinAlgError, cholesky
            gram = self.matrix @ self.matrix.T
            # potrf is not given non-finite input, and the pivot floor is
            # read before the factor overwrites the Gram's diagonal
            if not np.all(np.isfinite(gram)):
                raise NumericalFailure("the Gram matrix of the dense map overflows")
            floor = 100.0 * gram.shape[0] * np.finfo(np.float64).eps * np.diag(gram).max()
            try:
                chol = cholesky(gram.T, lower=False, overwrite_a=True, check_finite=False)
            except LinAlgError:
                chol = None
            # exactly dependent rows can still factor with a pivot at the
            # rounding floor of the Gram; those, and a Gram that potrf
            # refuses, go to the QR factor, which sees the map's own
            # condition number rather than its square
            if chol is None or (np.diag(chol) ** 2).min() <= floor:
                del gram, chol
                chol = self._qr_factor()
            self._chol = chol
        return self._chol

    def _qr_factor(self) -> np.ndarray:
        # R of matrix.T = QR, upper and column-major, so R'R = matrix @ matrix.T;
        # rows are dependent when there are more than N of them or when R's
        # smallest pivot is at the rounding floor of its largest
        r = np.linalg.qr(self.matrix.T, mode="r")
        pivots = np.abs(np.diag(r))
        floor = max(self.m, self.n) * np.finfo(np.float64).eps * pivots.max()
        if r.shape[0] < self.m or pivots.min() < floor:
            raise RankDeficientMap("dense measurement rows are numerically dependent")
        return np.asfortranarray(r)

    def measure(self, v: np.ndarray) -> np.ndarray:
        return v @ self.matrix.T

    def whiten(self, v: np.ndarray) -> np.ndarray:
        # U'^-1 v
        from scipy.linalg import solve_triangular
        return solve_triangular(self._cholesky(), v, trans="T", check_finite=False)

    def backproject(self, w: np.ndarray) -> np.ndarray:
        # phi' U^-1 w, the adjoint of whiten after measure
        from scipy.linalg import solve_triangular
        return self.matrix.T @ solve_triangular(self._cholesky(), w, check_finite=False)


MeasurementMap = SamplingMap | DenseMap
"""Linear map from tensors of fixed dims to R^m."""

sampling_map = SamplingMap
dense_map = DenseMap


def dense_shape(m, dims, name: str = "the measurement count") -> tuple:
    """The m x N shape of a dense map on dims. Raises ValueError, naming m
    by name, unless m is an integer >= 1 and m * N is within
    DENSE_ENTRY_LIMIT."""
    m, n = positive_int(m, name), math.prod(tensor_dims(dims))
    if m * n > DENSE_ENTRY_LIMIT:
        raise ValueError(f"{name} {m} needs a dense map of {m}x{n}, over the "
                         f"{DENSE_ENTRY_LIMIT} entry limit")
    return m, n


def gaussian_ensemble(m: int, dims, seed) -> DenseMap:
    """iid N(0, 1/m) sensing matrix; E||phi(x)||^2 equals ||x||_F^2.
    Raises ValueError unless m is an integer >= 1 and m * N is within
    DENSE_ENTRY_LIMIT, before drawing."""
    shape = dense_shape(m, dims)
    rng = np.random.default_rng(seed)
    # scaled in place, so the draw is the only m x N buffer
    matrix = rng.standard_normal(shape)
    matrix /= math.sqrt(m)
    return DenseMap(matrix, dims)


def rademacher_ensemble(m: int, dims, seed) -> DenseMap:
    """iid +-1/sqrt(m) sensing matrix; E||phi(x)||^2 equals ||x||_F^2.
    Raises ValueError unless m is an integer >= 1 and m * N is within
    DENSE_ENTRY_LIMIT, before drawing."""
    shape = dense_shape(m, dims)
    rng = np.random.default_rng(seed)
    # one float copy of the integer draw, then every step in place
    matrix = rng.integers(0, 2, size=shape).astype(np.float64)
    matrix *= 2.0
    matrix -= 1.0
    matrix /= math.sqrt(m)
    return DenseMap(matrix, dims)


# the dense ensembles by name, as the trip study and the command line take them
ENSEMBLES = {"gaussian": gaussian_ensemble, "rademacher": rademacher_ensemble}


def random_mask(dims, missing_ratio: float, seed) -> SamplingMask:
    """Keep ceil((1 - missing_ratio) * N) entries uniformly without replacement."""
    dims = tensor_dims(dims)
    if not 0.0 <= missing_ratio < 1.0:
        raise ValueError(f"missing_ratio must lie in [0, 1), got {missing_ratio}")
    n = dims[0] * dims[1] * dims[2]
    # >= 1 for N >= 1, since 1 - missing_ratio >= 2**-53
    keep = math.ceil((1.0 - missing_ratio) * n)
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
    """Minimum-norm preimage of a measurement vector, backproject(whiten(b)).

    Raises what whiten raises for b. Dense maps raise RankDeficientMap when
    their rows are numerically dependent and NumericalFailure when phi phi'
    overflows.
    """
    return backproject(phi, whiten(phi, np.ravel(b)))


def whiten(phi: MeasurementMap, v: np.ndarray) -> np.ndarray:
    """Map measured vectors, of shape (m,) or (m, k), to coordinates where
    the projected-tensor inner product is the plain dot product. Sampling
    maps are row-orthonormal already and return v itself; dense maps solve
    with U' for the upper factor U of phi phi' = U'U: its Cholesky factor,
    or R of a QR of phi' when the Gram is too ill conditioned to factor.

    Every measured vector the package takes passes through here: raises
    ShapeMismatch unless v has phi.m rows, and ValueError, for either kind
    of map, when v holds a non-finite value.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[:1] != (phi.m,):
        raise ShapeMismatch(f"measured vectors have shape {v.shape}, expected {phi.m} rows")
    if not np.all(np.isfinite(v)):
        raise ValueError("measured vectors must be finite")
    return phi.whiten(v)


def backproject(phi: MeasurementMap, w: np.ndarray) -> Tensor3:
    """The adjoint of whiten after apply, a Fortran-ordered tensor: w scattered
    into zeros for a sampling map, phi' U^-1 w for a dense one."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (phi.m,):
        raise ShapeMismatch(f"whitened vector has shape {w.shape}, expected ({phi.m},)")
    # the Fortran-ordered view, in storage order like every tensor the pursuit builds
    return phi.backproject(w).reshape(phi.dims, order="F")


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
    if len(blob) != 24 + 8 * count:
        raise FileFormatError(
            f"{path}: payload holds {len(blob) - 24} bytes, expected {8 * count}"
        )
    idx = np.frombuffer(blob, dtype="<u8", offset=24).astype(np.int64)
    try:
        return SamplingMask(dims=(n1, n2, n3), indices=idx)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
