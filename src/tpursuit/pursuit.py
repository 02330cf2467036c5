"""Greedy rank-one pursuit for tensor completion and sensing.

Each iteration peels ``s`` unit-norm rank-one atoms off the current
residual, refits weights by least squares against the measurements, and
subtracts the fitted estimate. Both refit variants solve the same
minimum-norm least squares over whitened measured columns against the
whitened measurements, the OR1MP/EOR1MP pair of Wang, Lai, Lu & Ye (SIAM
J. Sci. Comput., 2015); they differ only in their columns:

* ``standard`` uses every atom collected so far (s*k coefficients at
  iteration k);
* ``economic`` uses the previous fit phi(yhat) and the new atoms (s+1
  coefficients), so its estimate is a rescale of the previous one plus
  the new batch.

The loop works in whitened measurement space: it holds one fit, the
whitened image wfit of phi(yhat), and the residual is
pinv(b - unwhiten(wfit)); yhat itself is summed once, at the end. The
standard refit keeps a thin QR factorization of its whitened columns and
grows it by each batch, so an iteration costs O(m k s) on top of the slice
factorization instead of refactoring the m x k block, and no other copy of
the measured columns is kept.

Both make the residual norm nonincreasing, and the decay is bounded by
``sqrt(1 - 1/min(n1, n2))`` per iteration regardless of the measurement
map, because the leading atom of any tensor captures at least
``1/sqrt(min(n1, n2))`` of its norm. The pursuit promises that rate of
decay, not recovery: its atoms stay frozen once peeled.

``refine`` is a second stage for either kind of map: Riemannian conjugate
gradients over the tensors of tubal rank r refit the whole estimate to the
measurements, which can recover the tensor where the frozen atoms cannot.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, NumericalFailure, RankOutOfRange, ShapeMismatch
from .measure import MeasurementMap, apply, pinv_apply, whiten
from .tensor import Tensor3, frobenius_norm
from .tsvd import RANK_REL_TOL, leading_atoms, slice_factors

RATE_SLACK = 1e-8

# refine's nuclear-norm weight, phase stall fraction and iteration cap. On
# 15 hard seeds of the acceptance family every weight from 1e-3 to 3e-2
# recovered all of them; 0 failed 7 and 1e-1 failed 2
REFINE_NUCLEAR = 1e-2
REFINE_STALL = 1e-6
REFINE_MAX_ITERS = 2000

METRICS_HEADER = ("iter", "residual_norm", "rate_bound", "elapsed_ms")


@dataclass(frozen=True)
class PursuitConfig:
    """Run parameters.

    r is the target tubal rank, s the number of atoms added per iteration
    (1 <= s <= r). Iteration k adds min(s, r - s*(k-1)) atoms while that is
    positive, so the default max_iters = ceil(r / s) collects at most r
    atoms; iterations past that (an explicit larger max_iters) add s each.
    residual_tol stops early once ||R_k|| <= residual_tol * ||R_1||. The
    pursuit draws no randomness.
    """

    r: int
    s: int = 1
    variant: str = "standard"
    residual_tol: float = 0.0
    max_iters: int | None = None

    def __post_init__(self):
        if self.r < 1:
            raise RankOutOfRange(f"target rank must be positive, got {self.r}")
        if not 1 <= self.s <= self.r:
            raise ValueError(f"batch size {self.s} outside [1, r={self.r}]")
        if self.variant not in ("standard", "economic"):
            raise ValueError(f"variant must be 'standard' or 'economic', got {self.variant!r}")
        if self.residual_tol < 0:
            raise ValueError("residual_tol must be nonnegative")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    @property
    def iterations_limit(self) -> int:
        return self.max_iters if self.max_iters is not None else -(-self.r // self.s)


@dataclass(frozen=True)
class IterationRecord:
    k: int
    residual_norm: float
    rate_bound: float
    elapsed_s: float
    leading_inner: float


class ThinQR:
    """Thin QR factorization W = Q R of whitened measured columns, grown a
    batch of columns at a time, with Q' wb kept alongside.

    Q' is stored as contiguous rows of an array that doubles when full, so
    adding s columns to k costs O(m k s) and the m x k block W itself is
    never kept or refactored.
    """

    def __init__(self, wb: np.ndarray, capacity: int):
        self.wb = wb
        self._qt = np.empty((capacity, wb.size))
        self.r = np.zeros((0, 0))
        self.qtb = np.zeros(0)

    @property
    def qt(self) -> np.ndarray:
        """Q' as a k x m array."""
        return self._qt[:self.r.shape[0]]

    def append(self, wcols: np.ndarray) -> None:
        """Add the columns of an m x s block."""
        k, s = self.r.shape[0], wcols.shape[1]
        if k + s > len(self._qt):
            grown = np.empty((max(2 * len(self._qt), k + s), self.wb.size))
            grown[:k] = self._qt[:k]
            self._qt = grown
        new = self._qt[k:k + s]
        new[...] = wcols.T
        r = np.zeros((k + s, k + s))
        r[:k, :k] = self.r
        for j in range(k, k + s):
            r[:j + 1, j] = self._orthogonalize(self._qt[:j], self._qt[j])
        self.r = r
        self.qtb = np.concatenate([self.qtb, new @ self.wb])

    @staticmethod
    def _orthogonalize(qt: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Orthonormalize row against the rows of qt in place; returns its
        coefficients: the projections onto qt, then the new diagonal.

        Classical Gram-Schmidt run twice, which leaves the row orthogonal
        to qt to rounding (Giraud, Langou & Rozloznik, "twice is enough",
        2005). A row that the second pass halves again held only rounding
        left over from qt's span, such as a zero row or any row once qt
        spans all of R^m; it is set to zero with a zero diagonal, which the
        solve's cutoff drops, and later rows then ignore it.
        """
        coef = np.zeros(len(qt) + 1)
        h = qt @ row
        row -= h @ qt
        first = np.linalg.norm(row)
        coef[:-1] = h
        h = qt @ row
        row -= h @ qt
        second = np.linalg.norm(row)
        coef[:-1] += h
        if second > 0.5 * first:
            row /= second
            coef[-1] = second
        else:
            row[...] = 0.0
        return coef

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-norm w for min over w of || W w - wb ||, and the fit W w.

        The k x k solve cuts singular values at eps * max(m, k) relative to
        the largest, the cutoff lstsq applies to the m x k block W, so both
        drop the same directions.
        """
        m, k = self.wb.size, self.r.shape[0]
        w = np.linalg.lstsq(self.r, self.qtb, rcond=np.finfo(np.float64).eps * max(m, k))[0]
        return w, self.qt.T @ (self.r @ w)


@dataclass(frozen=True)
class PursuitResult:
    """Outcome of a run.

    residual_norms[i] is ||R_{i+1}||, starting at the backprojection norm;
    check_rate tests it against the guaranteed envelope.
    """

    yhat: Tensor3
    residual_norms: np.ndarray
    iterations: int
    converged: bool
    history: tuple = ()


def _decay_factor(dims) -> float:
    return math.sqrt(1.0 - 1.0 / min(dims[0], dims[1]))


def measured_columns(phi: MeasurementMap, atoms) -> np.ndarray:
    """phi(atom) of each atom as the columns of an m x len(atoms) array,
    Fortran ordered, so its transpose holds one atom per contiguous row."""
    return np.stack([apply(phi, at.atom) for at in atoms]).T


def solve_weights_full(factor: ThinQR, wcols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Append whitened atom images to the factor, then refit over all of them.

    With the factor's columns the whitened images of the atoms and its wb
    = whiten(phi, b), the weights minimize
    || sum_i theta_i pinv(phi(atom_i)) - pinv(b) ||_F; they are solved by
    orthogonal factorization rather than normal equations. Returns the
    minimum-norm weights and the whitened fit.
    """
    factor.append(wcols)
    return factor.solve()


def solve_weights_economic(wfit: np.ndarray, wcols: np.ndarray,
                           wb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The refit of solve_weights_full over the economic block
    [wfit, wcols]: the whitened previous fit and the new atom images.

    Column 0 is scaled to unit norm in a fresh factor and its weight scaled
    back. Its norm tracks ||b|| while the atom columns have norm at most 1,
    so unscaled the block's condition number would grow with the scale of
    b and the rank cutoff would drop a direction. A zero column 0 (before
    the first atom) is left as it is.
    """
    scale = np.linalg.norm(wfit) or 1.0
    factor = ThinQR(wb, 1 + wcols.shape[1])
    factor.append(np.column_stack([wfit / scale, wcols]))
    weights, fit = factor.solve()
    weights[0] /= scale
    return weights, fit


def update_residual(phi: MeasurementMap, b: np.ndarray, wfit: np.ndarray, norms: list,
                    k: int) -> Tensor3:
    """The residual pinv(b - fit) of iteration k, for the whitened fit wfit.

    norms holds the residual norms so far, starting at ||pinv(b)||; the new
    norm is appended to it. Raises NumericalFailure when that norm is not
    finite and DivergenceDetected when it grows by more than RATE_SLACK
    relative to the starting norm.
    """
    residual = pinv_apply(phi, b - phi.unwhiten(wfit))
    norm_new = frobenius_norm(residual)
    if not math.isfinite(norm_new):
        raise NumericalFailure(f"residual norm is {norm_new} at iteration {k}")
    if norm_new > norms[-1] + RATE_SLACK * norms[0]:
        raise DivergenceDetected(
            f"residual grew from {norms[-1]:.6e} to {norm_new:.6e} at iteration {k}"
        )
    norms.append(norm_new)
    return residual


def run(b: np.ndarray, phi: MeasurementMap, cfg: PursuitConfig) -> PursuitResult:
    """Run the pursuit on measurements b of an unknown tensor.

    Parameters
    ----------
    b : measurement vector of length phi.m
    phi : measurement map fixing the tensor dimensions
    cfg : run parameters

    Returns a PursuitResult whose yhat sums the collected atoms with their
    final weights; with the default max_iters it has tubal rank at most r.
    The loop stops after cfg.max_iters iterations (default ceil(r/s)), when
    the residual drops to residual_tol * ||R_1||, or when the residual has
    no atoms left to peel. Raises RankOutOfRange when cfg.r exceeds
    min(n1, n2), ValueError when b holds a non-finite value, and
    NumericalFailure when the norm of pinv(b) or of a residual is not
    finite.
    """
    b = np.asarray(b, dtype=np.float64).ravel()
    if not np.all(np.isfinite(b)):
        raise ValueError("measurements must be finite")
    n1, n2, n3 = phi.dims
    if cfg.r > min(n1, n2):
        raise RankOutOfRange(f"target rank {cfg.r} exceeds min(n1, n2) = {min(n1, n2)}")
    residual = pinv_apply(phi, b)
    r0_norm = frobenius_norm(residual)
    if not math.isfinite(r0_norm):
        raise NumericalFailure(f"backprojection norm is {r0_norm}; the measurements overflow")
    wb = whiten(phi, b)
    # the standard refit's factor; the economic refit builds its own
    factor = ThinQR(wb, cfg.r)
    wfit = np.zeros(phi.m)
    atoms, coeffs, norms, history = [], np.zeros(0), [r0_norm], []
    k = 1
    converged = r0_norm <= cfg.residual_tol * r0_norm
    while k <= cfg.iterations_limit and not converged:
        started = time.perf_counter()
        left = cfg.r - cfg.s * (k - 1)
        batch = leading_atoms(residual, min(cfg.s, left) if left > 0 else cfg.s)
        if not batch:
            converged = True
            break
        wcols = whiten(phi, measured_columns(phi, batch))
        if cfg.variant == "standard":
            coeffs, wfit = solve_weights_full(factor, wcols)
        else:
            weights, wfit = solve_weights_economic(wfit, wcols, wb)
            coeffs = np.concatenate([weights[0] * coeffs, weights[1:]])
        residual = update_residual(phi, b, wfit, norms, k)
        history.append(IterationRecord(
            k=k,
            residual_norm=norms[-1],
            rate_bound=r0_norm * _decay_factor(phi.dims)**k,
            elapsed_s=time.perf_counter() - started,
            leading_inner=batch[0].tube_norm,
        ))
        atoms.extend(batch)
        converged = norms[-1] <= cfg.residual_tol * r0_norm
        k += 1
    # atoms are Fortran ordered, so the sum runs in storage order
    yhat = np.zeros(phi.dims, order="F")
    for c, at in zip(coeffs, atoms):
        yhat += c * at.atom
    return PursuitResult(yhat=yhat, residual_norms=np.asarray(norms), iterations=k - 1,
                         converged=bool(converged), history=tuple(history))


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().transpose(0, 2, 1)


def _to_tensor(slices: np.ndarray, n3: int) -> Tensor3:
    """The real tensor with the given half-spectrum DFT slices."""
    return np.fft.irfft(slices.transpose(1, 2, 0), n=n3, axis=2)


def _inner(w: np.ndarray, t1, t2) -> float:
    """Tensor inner product of two tangent vectors at one point."""
    return sum(float(w @ np.einsum("fij,fij->f", p.conj(), q).real) for p, q in zip(t1, t2))


def _tangent(u, v, zv, zhu):
    """Projection u m v' + up v' + u vp' of ambient slices z, from z v and z' u."""
    m = _ct(u) @ zv
    return m, zv - u @ m, zhu - v @ _ct(m)


def _transport(t, u0, v0, u, v):
    """Project a tangent vector at factors u0, v0 onto the tangent space at u, v."""
    m, up, vp = t
    zv = (u0 @ m + up) @ (_ct(v0) @ v) + u0 @ (_ct(vp) @ v)
    zhu = (v0 @ _ct(m) + vp) @ (_ct(u0) @ u) + v0 @ (_ct(up) @ u)
    return _tangent(u, v, zv, zhu)


def _retract(u, s, v, t, alpha):
    """Rank-r truncation of each slice of u diag(s) v' + alpha (u m v' + up v' + u vp'),
    which is [u up] [[diag(s) + alpha m, alpha I], [alpha I, 0]] [v vp]': two
    thin QRs and one 2r x 2r SVD per slice."""
    m, up, vp = t
    r = s.shape[1]
    qa, ra = np.linalg.qr(np.concatenate([u, up], axis=2))
    qb, rb = np.linalg.qr(np.concatenate([v, vp], axis=2))
    core = np.zeros((len(s), 2 * r, 2 * r), dtype=np.complex128)
    core[:, :r, :r] = alpha * m + s[:, :, None] * np.eye(r)
    core[:, :r, r:] = core[:, r:, :r] = alpha * np.eye(r)
    a, sig, bh = np.linalg.svd(ra @ core @ _ct(rb), full_matrices=False)
    return qa @ a[:, :, :r], sig[:, :r], qb @ _ct(bh[:, :r, :])


def refine(b: np.ndarray, phi: MeasurementMap, yhat: Tensor3, r: int) -> Tensor3:
    """Refit an estimate at tubal rank at most r to the measurements.

    Two phases of Riemannian conjugate gradients over the tensors of tubal
    rank r, one fixed-rank matrix manifold per half-spectrum DFT slice
    (Vandereycken, SIAM J. Optim., 2013), from yhat's r leading singular
    tubes, on the whitened misfit 1/2 ||whiten(b - phi(x))||^2 of either
    kind of map. Phase 1 adds REFINE_NUCLEAR times the start's leading tube
    norm times the tensor nuclear norm (Zhang & Aeron, IEEE Trans. Signal
    Process., 2017). A phase ends once an iteration lowers its objective by
    less than REFINE_STALL of itself; REFINE_MAX_ITERS caps both together.

    yhat has tubal rank at most r, such as run's output with the default
    max_iters, and 1 <= r <= min(n1, n2); otherwise raises RankOutOfRange.
    Returns the iterate of least misfit, of tubal rank at most r, or a copy
    of yhat when none fits better, deterministically. Raises ValueError when
    b holds a non-finite value.
    """
    n1, n2, n3 = phi.dims
    if not 1 <= r <= min(n1, n2):
        raise RankOutOfRange(f"refit rank {r} outside [1, {min(n1, n2)}]")
    yhat = np.asarray(yhat, dtype=np.float64)
    if yhat.shape != phi.dims:
        raise ShapeMismatch(f"estimate shape {yhat.shape} does not match map dims {phi.dims}")
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != phi.m:
        raise ShapeMismatch(f"measurement vector has length {b.size}, expected {phi.m}")
    if not np.all(np.isfinite(b)):
        raise ValueError("measurements must be finite")
    u, sig, vh = slice_factors(yhat, min(r + 1, n1, n2))
    # the tensor inner product counts DC and Nyquist once, other slices twice
    w = np.where(2 * np.arange(len(sig)) % n3 == 0, 1.0, 2.0) / n3
    tubes = np.sqrt(w @ sig**2)
    if sig.shape[1] > r and tubes[r] > RANK_REL_TOL * tubes[0]:
        raise RankOutOfRange(f"estimate has tubal rank above the refit rank {r}")
    u, s, v = u[:, :, :r], sig[:, :r], _ct(vh[:, :r, :])
    best = frobenius_norm(whiten(phi, apply(phi, yhat) - b))
    best_x, d, obj = None, None, math.inf
    lam = REFINE_NUCLEAR * tubes[0]
    for it in range(REFINE_MAX_ITERS + 1):
        x = _to_tensor((u * s[:, None, :]) @ _ct(v), n3)
        res = apply(phi, x) - b
        misfit = frobenius_norm(whiten(phi, res))
        if it and misfit < best:
            best, best_x = misfit, x
        new = 0.5 * misfit**2 + lam * float(w @ s.sum(axis=1))
        if obj - new < REFINE_STALL * obj:
            if lam == 0.0:
                break
            lam, d, new = 0.0, None, 0.5 * misfit**2
        obj = new
        if it == REFINE_MAX_ITERS:
            break
        z = np.fft.rfft(pinv_apply(phi, res), axis=2).transpose(2, 0, 1)
        m, up, vp = _tangent(u, v, z @ v, _ct(z) @ u)
        g = (m + lam * np.eye(r), up, vp)
        gg = _inner(w, g, g)
        slope = 0.0
        if d is not None:
            beta = max(0.0, (gg - _inner(w, g, _transport(g_old, u_old, v_old, u, v))) / gg_old)
            d = tuple(beta * p - q for p, q in zip(_transport(d, u_old, v_old, u, v), g))
            slope = _inner(w, g, d)
        if not slope < 0.0:
            d, slope = tuple(-p for p in g), -gg
        m, up, vp = d
        step = whiten(phi, apply(phi, _to_tensor((u @ m + up) @ _ct(v) + u @ _ct(vp), n3)))
        curvature = float(step @ step)
        if not (slope < 0.0 and curvature > 0.0):
            break
        g_old, gg_old, u_old, v_old = g, gg, u, v
        u, s, v = _retract(u, s, v, d, -slope / curvature)
    return yhat.copy() if best_x is None else best_x


def check_rate(result: PursuitResult, phi_inv_b_norm: float,
               slack: float = RATE_SLACK) -> bool:
    """True when every recorded residual obeys the guaranteed decay envelope
    ||R_k|| <= tau^(k-1) * ||pinv(b)|| with tau = sqrt(1 - 1/min(n1, n2))."""
    tau = _decay_factor(result.yhat.shape)
    for i, rn in enumerate(result.residual_norms):
        if rn > tau**i * phi_inv_b_norm * (1.0 + slack):
            return False
    return True


def write_metrics_csv(path, result: PursuitResult) -> None:
    """One row per iteration: iter, residual_norm, rate_bound, elapsed_ms."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for rec in result.history:
            writer.writerow([
                rec.k,
                f"{rec.residual_norm:.17g}",
                f"{rec.rate_bound:.17g}",
                f"{rec.elapsed_s * 1000.0:.17g}",
            ])
