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
backproject(whiten(b) - wfit). Of each atom it keeps only its lateral
slices w and v, atom = w * v', and drops the dense batch once measured;
yhat is built once, at the end, as the t-product W diag(weights) V' of the
collected slices. The standard refit keeps a thin QR factorization of its
whitened columns and grows it by each batch, so an iteration costs
O(m k s) on top of the slice factorization instead of refactoring the
m x k block, and no other copy of the measured columns is kept. The
working set is O(N + r m) for the standard refit and O(N) for the
economic one, plus the O(r (n1 + n2) n3) slices.

Both make the residual norm nonincreasing, and the decay is bounded by
``sqrt(1 - 1/min(n1, n2))`` per iteration regardless of the measurement
map, because the leading atom of any tensor captures at least
``1/sqrt(min(n1, n2))`` of its norm. That floor is all the bound needs,
the weak greedy setting (Temlyakov, Adv. Comput. Math., 2000), so
``leading_atoms`` peels sketched atoms and checks each batch's leading
one against the floor rather than computing the exact ones. The pursuit
promises that rate of decay, not recovery: its atoms stay frozen once
peeled.

``refine`` is a second stage for either kind of map: Riemannian conjugate
gradients over the tensors of tubal rank r refit the whole estimate to the
measurements, which can recover the tensor where the frozen atoms cannot.
It holds each iterate as transposed half-spectrum slices, the layout of
``tensor.spectrum``: the gradient slices are the spectrum of the
backprojected residual, and ``tensor.from_spectrum`` turns an iterate into
a Fortran-ordered tensor, like ``run``'s estimate.

A run's history, one record per iteration, is what the command line writes
as the metrics CSV (``tpursuit.cli.write_metrics_csv``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, NumericalFailure, RankOutOfRange, ShapeMismatch
from .measure import MeasurementMap, apply, backproject, pinv_apply, whiten
from .tensor import (Tensor3, as_tensor3, frobenius_norm, from_spectrum, positive_int, spectrum,
                     t_transpose, tprod)
from .tsvd import kept_tubes, leading_atoms, slice_ct, slice_factors

RATE_SLACK = 1e-8

# refine's nuclear-norm weight, phase stall fraction and iteration cap. On
# 15 hard seeds of the acceptance family every weight from 1e-3 to 3e-2
# recovered all of them; 0 failed 7 and 1e-1 failed 2
REFINE_NUCLEAR = 1e-2
REFINE_STALL = 1e-6
REFINE_MAX_ITERS = 2000


@dataclass(frozen=True)
class PursuitConfig:
    """Run parameters.

    r is the target tubal rank, an integer >= 1 (RankOutOfRange
    otherwise), and s the number of atoms added per iteration, an integer
    in [1, r] (ValueError otherwise). Iteration k adds min(s, r - s*(k-1))
    atoms, so a run takes at most ceil(r / s) iterations and collects at
    most r atoms. The pursuit's one random draw is leading_atoms' fixed-seed
    sketch, so a run is deterministic.
    """

    r: int
    s: int = 1
    variant: str = "standard"

    def __post_init__(self):
        positive_int(self.r, "target rank r", error=RankOutOfRange)
        positive_int(self.s, "batch size s", high=self.r)
        if self.variant not in ("standard", "economic"):
            raise ValueError(f"variant must be 'standard' or 'economic', got {self.variant!r}")


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

    Q' is stored as contiguous rows of an array with room for capacity
    columns, at least as many as are ever added, so adding s columns to k
    costs O(m k s) and the m x k block W itself is never kept or
    refactored. Each new column takes one Gram-Schmidt pass, and a second
    only when the first cancels most of it (_orthogonalize), so in the
    usual case a column costs two products with Q' and one norm. Its
    products over the m entries go through np.einsum, not BLAS, as in
    tensor.frobenius_norm. OpenBLAS runs calls of that length
    on its threads: it splits a dot product's sum by the thread count, so
    the weights' low bits would vary with the host, and its idle workers
    spin after each call.
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
        new = self._qt[k:k + s]
        new[...] = wcols.T
        r = np.zeros((k + s, k + s))
        r[:k, :k] = self.r
        for j in range(k, k + s):
            r[:j + 1, j] = self._orthogonalize(self._qt[:j], self._qt[j])
        self.r = r
        self.qtb = np.concatenate([self.qtb, np.einsum("km,m->k", new, self.wb)])

    @staticmethod
    def _orthogonalize(qt: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Orthonormalize row against the rows of qt in place; returns its
        coefficients: the projections onto qt, then the new diagonal.

        Classical Gram-Schmidt with reorthogonalization only when needed,
        the rule of Daniel, Gragg, Kaufman & Stewart (Math. Comp., 1976):
        a pass that keeps more than 1/sqrt(2) of the row's norm leaves it
        orthogonal to qt to rounding, and one that cancels more gets a
        second pass, which is enough (Giraud, Langou & Rozloznik, "twice is
        enough", 2005). Before a pass that removes h the row's norm was
        sqrt(||h||^2 + ||row||^2), so the first pass keeps enough exactly
        when the row's new norm exceeds ||h||, and the row is summed over
        once per pass. A row that the second pass halves again held only
        rounding left over from qt's span, such as a zero row or any row
        once qt spans all of R^m; it is set to zero with a zero diagonal,
        which the solve's cutoff drops, and later rows then ignore it.
        """
        coef = np.zeros(len(qt) + 1)
        h = coef[:-1]
        h += np.einsum("km,m->k", qt, row)
        row -= np.einsum("k,km->m", h, qt)
        norm = frobenius_norm(row)
        if norm <= frobenius_norm(h):
            again = np.einsum("km,m->k", qt, row)
            row -= np.einsum("k,km->m", again, qt)
            h += again
            first, norm = norm, frobenius_norm(row)
            if norm <= 0.5 * first:
                row[...] = 0.0
                return coef
        row /= norm
        coef[-1] = norm
        return coef

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-norm w for min over w of || W w - wb ||, and the fit W w.

        The k x k solve cuts singular values at eps * max(m, k) relative to
        the largest, the cutoff lstsq applies to the m x k block W, so both
        drop the same directions.
        """
        m, k = self.wb.size, self.r.shape[0]
        w = np.linalg.lstsq(self.r, self.qtb, rcond=np.finfo(np.float64).eps * max(m, k))[0]
        return w, np.einsum("km,k->m", self.qt, self.r @ w)


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
    """solve_weights_full with a fresh factor over the economic block
    [wfit, wcols]: the whitened previous fit and the new atom images.

    Column 0 is scaled to unit norm and its weight scaled back. Its norm
    tracks ||b|| while the atom columns have norm at most 1, so unscaled
    the block's condition number would grow with the scale of b and the
    rank cutoff would drop a direction. A zero column 0 (before the first
    atom) is left as it is.
    """
    scale = frobenius_norm(wfit) or 1.0
    factor = ThinQR(wb, 1 + wcols.shape[1])
    factor.append((wfit / scale)[:, None])
    weights, fit = solve_weights_full(factor, wcols)
    weights[0] /= scale
    return weights, fit


def update_residual(phi: MeasurementMap, wb: np.ndarray, wfit: np.ndarray, norms: list,
                    k: int) -> Tensor3:
    """The residual pinv(b - fit) of iteration k, for wb = whiten(b) and the whitened fit wfit.

    norms holds the residual norms so far, starting at ||pinv(b)||; the new
    norm is appended to it. Raises NumericalFailure when that norm is not
    finite and DivergenceDetected when it grows by more than RATE_SLACK
    relative to the starting norm.
    """
    residual = backproject(phi, wb - wfit)
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

    Returns a PursuitResult whose yhat, Fortran ordered, sums the collected
    atoms with their final weights, of tubal rank at most r. The loop stops
    after ceil(r/s) iterations, or earlier when the residual has no atoms
    left to peel; converged is True exactly when the residual reached zero.
    Raises RankOutOfRange when cfg.r exceeds min(n1, n2), what
    measure.whiten raises for b (ValueError when it holds a non-finite
    value), and NumericalFailure when the norm of pinv(b) or of a residual
    is not finite.
    """
    positive_int(cfg.r, "target rank r", high=min(phi.dims[:2]), error=RankOutOfRange)
    residual = pinv_apply(phi, b)
    r0_norm = frobenius_norm(residual)
    if not math.isfinite(r0_norm):
        raise NumericalFailure(f"backprojection norm is {r0_norm}; the measurements overflow")
    wb = whiten(phi, np.ravel(b))
    # the standard refit's factor; the economic refit builds its own
    factor = ThinQR(wb, cfg.r) if cfg.variant == "standard" else None
    n1, n2, n3 = phi.dims
    # the collected atoms' lateral slices, W (n1 x r x n3) and V (n2 x r x n3)
    wfac, vfac = np.zeros((n1, cfg.r, n3)), np.zeros((n2, cfg.r, n3))
    wfit = np.zeros(phi.m)
    coeffs, norms, history = np.zeros(0), [r0_norm], []
    k = 1
    converged = r0_norm == 0.0
    while cfg.s * (k - 1) < cfg.r and not converged:
        started = time.perf_counter()
        batch = leading_atoms(residual, min(cfg.s, cfg.r - cfg.s * (k - 1)))
        if not batch:
            converged = True
            break
        wcols = whiten(phi, measured_columns(phi, batch))
        # coeffs holds one weight per atom collected before this batch
        for i, at in enumerate(batch, start=coeffs.size):
            wfac[:, i], vfac[:, i] = at.w[:, 0], at.v[:, 0]
        leading_inner = batch[0].tube_norm
        # only the factors are kept, so the batch's dense atoms are freed here
        del batch
        if factor is not None:
            coeffs, wfit = solve_weights_full(factor, wcols)
        else:
            weights, wfit = solve_weights_economic(wfit, wcols, wb)
            coeffs = np.concatenate([weights[0] * coeffs, weights[1:]])
        # and so are the measured columns, which the refit no longer needs,
        # before the next slice factorization, an iteration's peak
        del wcols
        residual = update_residual(phi, wb, wfit, norms, k)
        history.append(IterationRecord(
            k=k,
            residual_norm=norms[-1],
            rate_bound=r0_norm * _decay_factor(phi.dims)**k,
            elapsed_s=time.perf_counter() - started,
            leading_inner=leading_inner,
        ))
        converged = norms[-1] == 0.0
        k += 1
    count = coeffs.size
    yhat = tprod(wfac[:, :count] * coeffs[:, None], t_transpose(vfac[:, :count]))
    return PursuitResult(yhat=yhat, residual_norms=np.asarray(norms), iterations=k - 1,
                         converged=bool(converged), history=tuple(history))


def _inner(w: np.ndarray, t1, t2) -> float:
    """Tensor inner product of two tangent vectors at one point."""
    return sum(float(w @ np.einsum("fij,fij->f", p.conj(), q).real) for p, q in zip(t1, t2))


def _tangent(u, v, zv, zhu):
    """Projection u m v' + up v' + u vp' of ambient slices z, from z v and z' u."""
    m = slice_ct(u) @ zv
    return m, zv - u @ m, zhu - v @ slice_ct(m)


def _transport(t, u0, v0, u, v):
    """Project a tangent vector at factors u0, v0 onto the tangent space at u, v."""
    m, up, vp = t
    zv = (u0 @ m + up) @ (slice_ct(v0) @ v) + u0 @ (slice_ct(vp) @ v)
    zhu = (v0 @ slice_ct(m) + vp) @ (slice_ct(u0) @ u) + v0 @ (slice_ct(up) @ u)
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
    a, sig, bh = np.linalg.svd(ra @ core @ slice_ct(rb), full_matrices=False)
    return qa @ a[:, :, :r], sig[:, :r], qb @ slice_ct(bh[:, :r, :])


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

    yhat has the map's dims, or ShapeMismatch is raised. It has tubal rank
    at most r, such as run's output, by tubal_rank's rule (tsvd.kept_tubes
    over its r + 1 leading tube norms), and r is an integer in
    [1, min(n1, n2)]; otherwise raises RankOutOfRange. Returns the iterate
    of least misfit, of tubal rank at most r, or a copy of yhat when none
    fits better, deterministically. Raises ValueError when yhat holds a
    non-finite value, and what measure.whiten raises for b, before it
    factors anything.
    """
    n1, n2, n3 = phi.dims
    r = positive_int(r, "refit rank r", high=min(n1, n2), error=RankOutOfRange)
    start = as_tensor3(yhat)
    if start.shape != phi.dims:
        raise ShapeMismatch(f"estimate shape {start.shape} does not match map dims {phi.dims}")
    # the misfit is squared, so b and yhat are divided by the power of two
    # at max|b| and the result multiplied back: an exact scale, under which
    # every step, lam included, scales with b
    b = np.asarray(b, dtype=np.float64).ravel()
    _, exp = np.frexp(np.max(np.abs(b), initial=0.0))
    wb = whiten(phi, np.ldexp(b, -exp))
    yhat = np.ldexp(start, -exp)
    u, sig, vh = slice_factors(yhat, min(r + 1, n1, n2))
    # the tensor inner product counts DC and Nyquist once, other slices twice
    w = np.where(2 * np.arange(len(sig)) % n3 == 0, 1.0, 2.0) / n3
    tubes = np.sqrt(w @ sig**2)
    if kept_tubes(tubes) > r:
        raise RankOutOfRange(f"estimate has tubal rank above the refit rank {r}")
    u, s, v = u[:, :, :r], sig[:, :r], slice_ct(vh[:, :r, :])
    best = frobenius_norm(whiten(phi, apply(phi, yhat)) - wb)
    best_x, d, obj = None, None, math.inf
    lam = REFINE_NUCLEAR * tubes[0]
    for it in range(REFINE_MAX_ITERS + 1):
        # each slice transposed, conj(v) diag(s) u'
        ut = u.transpose(0, 2, 1)
        x = from_spectrum((v.conj() * s[:, None, :]) @ ut, n3)
        res = whiten(phi, apply(phi, x)) - wb
        misfit = frobenius_norm(res)
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
        z = spectrum(backproject(phi, res)).transpose(0, 2, 1)
        m, up, vp = _tangent(u, v, z @ v, slice_ct(z) @ u)
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
        step_t = v.conj() @ (u @ m + up).transpose(0, 2, 1) + vp.conj() @ ut
        step = whiten(phi, apply(phi, from_spectrum(step_t, n3)))
        curvature = float(np.einsum("i,i->", step, step))
        if not (slope < 0.0 and curvature > 0.0):
            break
        g_old, gg_old, u_old, v_old = g, gg, u, v
        u, s, v = _retract(u, s, v, d, -slope / curvature)
    return start.copy(order="F") if best_x is None else np.ldexp(best_x, exp, out=best_x)


def check_rate(result: PursuitResult, phi_inv_b_norm: float) -> bool:
    """True when every recorded residual obeys the guaranteed decay envelope
    ||R_k|| <= tau^(k-1) * ||pinv(b)|| with tau = sqrt(1 - 1/min(n1, n2)),
    up to a relative RATE_SLACK."""
    tau = _decay_factor(result.yhat.shape)
    for i, rn in enumerate(result.residual_norms):
        if rn > tau**i * phi_inv_b_norm * (1.0 + RATE_SLACK):
            return False
    return True

