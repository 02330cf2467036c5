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

The loop works in measurement space: the fit is phi(yhat) and the
residual is pinv(b - fit); yhat itself is summed once, at the end.

Both make the residual norm nonincreasing, and the decay is bounded by
``sqrt(1 - 1/min(n1, n2))`` per iteration regardless of the measurement
map, because the leading atom of any tensor captures at least
``1/sqrt(min(n1, n2))`` of its norm. The pursuit promises that rate of
decay, not recovery: its atoms stay frozen once peeled.

``refine`` is a separate stage for sampling maps. It refits an estimate of
tubal rank at most r to the observed entries by alternating least squares
over the two t-SVD factors, which can recover the tensor where the frozen
atoms cannot.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceDetected, NumericalFailure, RankOutOfRange, ShapeMismatch
from .measure import MeasurementMap, SamplingMap, apply, pinv_apply, whiten
from .tensor import Tensor3, conj_transpose, frobenius_norm, tprod
from .tsvd import leading_atoms, truncated_tsvd, tubal_rank

RATE_SLACK = 1e-8

# refine stops once a sweep lowers the observed residual by less than this
# fraction of its current value, or after REFINE_MAX_SWEEPS sweeps; rank-5
# 20x20x5 completion at 50% observed reaches rounding in 300-400 sweeps
REFINE_STALL = 1e-4
REFINE_MAX_SWEEPS = 2000

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


@dataclass
class PursuitState:
    """Mutable loop state, kept in measurement space.

    fit is phi(yhat) for yhat = sum of coeffs[i] * atoms[i], wfit its
    whitened image, and residual is pinv(b - fit). columns holds phi of every
    collected atom and wcolumns their whitened images; only the standard
    refit reads them. For sampling maps whitening is the identity, and
    wfit and wcolumns are the same arrays as fit and columns.
    """

    config: PursuitConfig
    residual: Tensor3
    fit: np.ndarray
    wfit: np.ndarray
    k: int = 1
    atoms: list = field(default_factory=list)
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    columns: np.ndarray | None = None
    wcolumns: np.ndarray | None = None
    residual_norms: list = field(default_factory=list)
    history: list = field(default_factory=list)
    iter_started_at: float = 0.0


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


def _min_norm_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(a, b, rcond=None)[0]


def measured_columns(phi: MeasurementMap, atoms) -> np.ndarray:
    """Stack phi(atom) column vectors into an m x len(atoms) matrix."""
    return np.column_stack([apply(phi, at.atom) for at in atoms])


def solve_weights_full(wcolumns: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Minimum-norm weights for min over theta of || wcolumns @ theta - wb ||.

    With wcolumns the whitened images of the atoms and wb = whiten(phi, b)
    this minimizes || sum_i theta_i pinv(phi(atom_i)) - pinv(b) ||_F,
    solved by orthogonal factorization rather than normal equations.
    """
    return _min_norm_lstsq(wcolumns, wb)


def solve_weights_economic(wcolumns: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """The least squares of solve_weights_full over the economic block
    [whiten(phi(yhat_prev)), whitened new atom images].

    Column 0 is scaled to unit norm for the solve and its weight scaled
    back. Its norm tracks ||b|| while the atom columns have norm at most 1,
    so unscaled the block's condition number would grow with the scale of
    b and lstsq's cutoff would drop a direction. A zero column 0 (before
    the first atom) is left as it is.
    """
    scale = np.ones(wcolumns.shape[1])
    scale[0] = np.linalg.norm(wcolumns[:, 0]) or 1.0
    return _min_norm_lstsq(wcolumns / scale, wb) / scale


def update_residual(state: PursuitState, phi: MeasurementMap, b: np.ndarray, atoms,
                    coeffs: np.ndarray, fit: np.ndarray, wfit: np.ndarray) -> PursuitState:
    """Fold one refit into the state.

    atoms are this iteration's new atoms, coeffs the weights of every atom
    collected so far, fit the measured image of that estimate and wfit its
    whitened image. Sets the residual to pinv(b - fit) and appends the
    history record. Raises NumericalFailure when the residual norm is not
    finite and DivergenceDetected when it grows by more than RATE_SLACK
    relative to the starting norm.
    """
    residual = pinv_apply(phi, b - fit)
    norm_new = frobenius_norm(residual)
    if not math.isfinite(norm_new):
        raise NumericalFailure(f"residual norm is {norm_new} at iteration {state.k}")
    norm_prev = state.residual_norms[-1]
    norm_start = state.residual_norms[0]
    if norm_new > norm_prev + RATE_SLACK * norm_start:
        raise DivergenceDetected(
            f"residual grew from {norm_prev:.6e} to {norm_new:.6e} at iteration {state.k}"
        )
    state.history.append(IterationRecord(
        k=state.k,
        residual_norm=norm_new,
        rate_bound=norm_start * _decay_factor(phi.dims)**state.k,
        elapsed_s=time.perf_counter() - state.iter_started_at,
        leading_inner=atoms[0].tube_norm,
    ))
    state.residual_norms.append(norm_new)
    state.atoms.extend(atoms)
    state.coeffs = coeffs
    state.fit = fit
    state.wfit = wfit
    state.residual = residual
    state.k += 1
    return state


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
    r0 = pinv_apply(phi, b)
    r0_norm = frobenius_norm(r0)
    if not math.isfinite(r0_norm):
        raise NumericalFailure(f"backprojection norm is {r0_norm}; the measurements overflow")
    fit = np.zeros(phi.m)
    empty = np.zeros((phi.m, 0))
    state = PursuitState(config=cfg, residual=r0, fit=fit, wfit=fit,
                         columns=empty, wcolumns=empty, residual_norms=[r0_norm])
    wb = whiten(phi, b)
    converged = r0_norm <= cfg.residual_tol * r0_norm
    while state.k <= cfg.iterations_limit and not converged:
        state.iter_started_at = time.perf_counter()
        left = cfg.r - cfg.s * (state.k - 1)
        atoms = leading_atoms(state.residual, min(cfg.s, left) if left > 0 else cfg.s)
        if not atoms:
            converged = True
            break
        cols = measured_columns(phi, atoms)
        wcols = whiten(phi, cols)
        # whitening is the identity for sampling maps: keep one copy
        if cfg.variant == "standard":
            state.columns = np.hstack([state.columns, cols])
            state.wcolumns = (state.columns if wcols is cols
                              else np.hstack([state.wcolumns, wcols]))
            columns, wcolumns = state.columns, state.wcolumns
            weights = coeffs = solve_weights_full(wcolumns, wb)
        else:
            columns = np.column_stack([state.fit, cols])
            wcolumns = columns if wcols is cols else np.column_stack([state.wfit, wcols])
            weights = solve_weights_economic(wcolumns, wb)
            coeffs = np.concatenate([weights[0] * state.coeffs, weights[1:]])
        fit = columns @ weights
        wfit = fit if wcolumns is columns else wcolumns @ weights
        update_residual(state, phi, b, atoms, coeffs, fit, wfit)
        converged = state.residual_norms[-1] <= cfg.residual_tol * r0_norm
    yhat = np.zeros(phi.dims)
    for c, at in zip(state.coeffs, state.atoms):
        yhat += c * at.atom
    return PursuitResult(yhat=yhat, residual_norms=np.asarray(state.residual_norms),
                         iterations=state.k - 1, converged=bool(converged),
                         history=tuple(state.history))


class _RowFit:
    """Least squares for u in x = u * v' against the observed entries of x.

    Entry x[i, j, k] is linear in row i of u alone, so each row of u is an
    independent least-squares problem in its r*n3 coefficients. Fitting v
    for fixed u is the same problem on conj_transpose(x) = v * u'.
    observed is the 0/1 mask and data is zero where observed is.
    """

    def __init__(self, observed: Tensor3, data: Tensor3):
        n1, n2, n3 = observed.shape
        k = np.arange(n3)
        self.lag = (k[None, :] - k[:, None]) % n3    # [k, t] -> t - k
        self.lead = (k[:, None] + k[None, :]) % n3   # [c, d] -> c + d
        self.mask = observed.reshape(n1, n2 * n3)
        self.data = data.reshape(n1, n2 * n3)
        # mask_lag[(i, t), (j, c)] = observed[i, j, t - c]
        self.mask_lag = (observed[:, :, self.lag.T].transpose(0, 2, 1, 3)
                         .reshape(n1 * n3, n2 * n3))

    def design(self, v: Tensor3) -> np.ndarray:
        """a[(j, k), (l, t)] = v[j, l, t - k], so x[i, j, k] = a[(j, k)] @ u[i].ravel()."""
        n2, r, n3 = v.shape
        return v[:, :, self.lag].transpose(0, 2, 1, 3).reshape(n2 * n3, r * n3)

    def misfit(self, u: Tensor3, v: Tensor3) -> float:
        fit = u.reshape(u.shape[0], -1) @ self.design(v).T
        return frobenius_norm(self.mask * fit - self.data)

    def solve(self, v: Tensor3) -> Tensor3:
        """Least-squares u for fixed v."""
        n2, r, n3 = v.shape
        a = self.design(v)
        # gram[i] sums a[(j, k)] a[(j, k)]' over the observed (j, k) of row
        # i. Rows of a are cyclic shifts in t, so with c = t - k and
        # d = t2 - t entry ((l, t), (l2, t2)) is the sum over (j, c) of
        # observed[i, j, t - c] v[j, l, c] v[j, l2, c + d]: one product of
        # mask_lag with an n2*n3 x r*n3*r table instead of n2*n3 outer
        # products of length r*n3
        pairs = (v.transpose(0, 2, 1)[:, :, :, None, None]
                 * v[:, :, self.lead].transpose(0, 2, 3, 1)[:, :, None, :, :])
        lagged = (self.mask_lag @ pairs.reshape(n2 * n3, -1)).reshape(-1, n3, r, n3, r)
        t = np.arange(n3)[:, None]
        gram = (lagged[:, t, :, self.lag, :].transpose(2, 3, 0, 4, 1)
                .reshape(-1, r * n3, r * n3))
        rhs = (self.data @ a)[:, :, None]
        try:
            u = np.linalg.solve(gram, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            # some row sees too few entries to pin its coefficients
            u = (np.linalg.pinv(gram, hermitian=True) @ rhs)[:, :, 0]
        return u.reshape(-1, r, n3)


def refine(b: np.ndarray, phi: MeasurementMap, yhat: Tensor3, r: int) -> Tensor3:
    """Refit an estimate at tubal rank at most r to the observed entries.

    Alternating least squares over x = u * v' with u of shape (n1, r, n3)
    and v of shape (n2, r, n3), after Liu, Aeron, Aggarwal & Wang,
    "Low-tubal-rank tensor completion using alternating minimization"
    (IEEE Trans. Inf. Theory, 2020). The start is the truncated t-SVD of
    yhat. Each sweep solves exactly for u with v fixed, then for v with u
    fixed. Sweep k then stretches its step by k^(1/3) and keeps the
    stretched point when it fits better, the ALS line search of Bro
    ("Multi-way analysis in the food industry", 1998).

    Parameters
    ----------
    b : observed entries, length phi.m
    phi : a sampling map; dense maps raise ValueError
    yhat : estimate of tubal rank at most r, such as run's output with the
        default max_iters; a higher rank raises RankOutOfRange
    r : tubal rank of the refit, 1 <= r <= min(n1, n2)

    Returns a tensor of tubal rank at most r. Its observed residual
    ||b - phi(x)|| never rises from sweep to sweep and never ends above
    that of yhat; yhat itself comes back when no sweep improves on it.
    The result is a deterministic function of the inputs. The sweeps stop
    when one lowers the residual by less than REFINE_STALL of its current
    value, when one would raise it, or after REFINE_MAX_SWEEPS. Raises
    ValueError when b holds a non-finite value.
    """
    if not isinstance(phi, SamplingMap):
        raise ValueError(f"refine needs a sampling map, got {type(phi).__name__}")
    n1, n2, _ = phi.dims
    if not 1 <= r <= min(n1, n2):
        raise RankOutOfRange(f"refit rank {r} outside [1, {min(n1, n2)}]")
    yhat = np.asarray(yhat, dtype=np.float64)
    if yhat.shape != phi.dims:
        raise ShapeMismatch(f"estimate shape {yhat.shape} does not match map dims {phi.dims}")
    rank = tubal_rank(yhat)
    if rank > r:
        raise RankOutOfRange(f"estimate has tubal rank {rank}, above the refit rank {r}")
    b = np.asarray(b, dtype=np.float64).ravel()
    if not np.all(np.isfinite(b)):
        raise ValueError("measurements must be finite")
    data = pinv_apply(phi, b)
    observed = pinv_apply(phi, np.ones(phi.m))
    rows = _RowFit(observed, data)
    cols = _RowFit(conj_transpose(observed), conj_transpose(data))
    start = frobenius_norm(b - apply(phi, yhat))
    factors = truncated_tsvd(yhat, r)
    u, v = tprod(factors.u, factors.s), factors.v
    best = start
    for sweep in range(1, REFINE_MAX_SWEEPS + 1):
        u_new = rows.solve(v)
        v_new = cols.solve(u_new)
        misfit = cols.misfit(v_new, u_new)
        stretch = sweep ** (1.0 / 3.0)
        if stretch > 1.0:
            u_far = u + stretch * (u_new - u)
            v_far = v + stretch * (v_new - v)
            far = rows.misfit(u_far, v_far)
            if far < misfit:
                u_new, v_new, misfit = u_far, v_far, far
        if not misfit <= best:  # also stops on a non-finite misfit
            break
        u, v = u_new, v_new
        stalled = best - misfit < REFINE_STALL * best
        best = misfit
        if stalled:
            break
    x = tprod(u, conj_transpose(v))
    if frobenius_norm(b - apply(phi, x)) > start:
        return yhat.copy()
    return x


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
