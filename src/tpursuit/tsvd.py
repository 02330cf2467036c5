"""Tensor singular value decomposition and its rank-one building blocks.

The decomposition factors only the leading ``n3 // 2 + 1`` DFT slices; the
remaining slices are conjugate mirrors, so the inverse transform returns
real factors. It takes them from ``tensor.spectrum``, transposed, and
factors them as they are when n2 >= n1 and transposed back otherwise, so
the stack it factors has at least as many rows as columns; for n2 >= n1
a Fortran-ordered input is not copied on numpy 2. To keep k triplets of a
slice it takes the k leading eigenvectors of the slice's Gram matrix on
its smaller side and runs a thin SVD of the slice times those vectors. At
k = min(n1, n2) the eigenvectors form a unitary basis, so the same path,
``truncated_tsvd(a, min(n1, n2))``, gives the full decomposition. Every
slice is factored on the calling thread. Each left singular vector is
rotated so that its largest-magnitude entry is real and nonnegative, which
pins the per-slice phase and makes the factors deterministic.

Rank-one atoms are t-products of the inverse-transformed factors through
``tensor.tprod``, one atom per call, so each costs O(n1 n2 n3) memory
whatever the tube length. ``leading_atoms``, the pursuit's factorization,
takes its slice factors from a randomized range finder (Halko, Martinsson
& Tropp, SIAM Review, 2011) on the same oriented, scaled stack: a fixed
Gaussian Omega from ``default_rng(0)`` with s + SKETCH_OVERSAMPLE
columns, SKETCH_POWER_STEPS power steps, and a thin SVD of the slice
projected onto the sketched range. Its atoms are not the exact leading
ones, but each sigma is u^H A v of its own vectors, so a tube norm is still
the atom's inner product with the tensor and a batch stays orthonormal.
Where the sketch would span the whole space, and so costs more than the
exact factorization, and where its leading tube norm falls below the
floor ||a|| / sqrt(min(n1, n2)) that the pursuit's decay rests on,
``leading_atoms`` takes the exact ``truncated_tsvd``.
``truncated_tsvd``, ``tubal_rank`` and ``slice_factors`` without sketch
stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, RankOutOfRange
from .tensor import (Tensor3, frobenius_norm, from_spectrum, positive_int, spectrum, t_transpose,
                     tprod)

RANK_REL_TOL = 1e-10

# leading_atoms' range finder: oversampling p and power steps q. Over the
# 64 atoms of the complete-large runs at seeds 1 and 7919, p = 8, q = 2
# kept 0.9989-1.0000 of the exact tube norms; p = 8, q = 1 kept
# 0.983-1.000 and p = 4, q = 1 kept 0.941-0.999
SKETCH_OVERSAMPLE = 8
SKETCH_POWER_STEPS = 2


@dataclass(frozen=True)
class TSVDFactors:
    """Orthogonal u (n1 x rho x n3), f-diagonal s (rho x rho x n3), orthogonal v (n2 x rho x n3)."""

    u: Tensor3
    s: Tensor3
    v: Tensor3

    @property
    def rho(self) -> int:
        return self.u.shape[1]

    def tube_norms(self) -> np.ndarray:
        """Frobenius norm of each singular tube s(i, i, :), nonincreasing in i.

        The tubes are scaled by the power of two at their largest magnitude
        first, so no square overflows or underflows; the scale is exact, so
        where the unscaled squares do neither the norms are the same bits.
        """
        rho = self.rho
        diag = self.s[np.arange(rho), np.arange(rho), :]
        _, exp = np.frexp(np.abs(diag).max())
        return np.ldexp(np.linalg.norm(np.ldexp(diag, -exp), axis=1), exp)


@dataclass(frozen=True)
class RankOneAtom:
    """Unit Frobenius norm tubal-rank-one tensor u * (s / ||s||) * v'.

    ``tube_norm`` is the Frobenius norm of the tube s the atom was peeled
    with, exact or sketched, which equals the inner product of the atom
    with its source tensor. ``w`` (n1 x 1 x n3) and ``v`` (n2 x 1 x n3) are
    its lateral-slice factors, atom = w * v' with w = u * (s / ||s||): the
    (n1 + n2) n3 numbers that describe it, views of the batch's factors
    that hold no reference to ``atom``, which owns its buffer.
    """

    tube_norm: float
    atom: Tensor3
    w: Tensor3
    v: Tensor3


def _fix_phase(u, vh):
    # rotate each (u column, vh row) pair so the largest-|.| entry of u,
    # first on ties, lands on the nonnegative real axis
    lead_idx = np.argmax(np.abs(u), axis=1)
    lead = np.take_along_axis(u, lead_idx[:, None, :], axis=1)[:, 0, :]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return u * phase.conj()[:, None, :], vh * phase[:, :, None]


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each slice of a stack."""
    return x.conj().transpose(0, 2, 1)


def _leading_triplets(stack: np.ndarray, k: int):
    """k leading singular triplets of each slice of a stack with at least as
    many rows as columns, as (u, sigma, vh) of widths k."""
    gram = np.matmul(_h(stack), stack)
    v = np.linalg.eigh(gram)[1][:, :, ::-1][:, :, :k]
    del gram
    # u comes from the thin SVD of a v, never from a v / sigma, so it stays
    # orthonormal on a zero slice and when k exceeds the slice's rank
    u, sig, zh = np.linalg.svd(stack @ v, full_matrices=False)
    return u, sig, zh @ _h(v)


def _sketched_triplets(stack: np.ndarray, k: int):
    """k approximate leading singular triplets of each slice, as
    _leading_triplets gives them, from a randomized range finder: Q spans
    A Omega after SKETCH_POWER_STEPS power steps, and u = Q U_B, sigma and
    vh come from the thin SVD U_B diag(sigma) vh of B = Q^H A. Each sigma is
    u^H A v exactly, and u and vh stay orthonormal.

    A^H Q is formed as (Q^H A)^H, so the stack is never conjugated into a
    copy. B is wide, l x n2 for l = k + SKETCH_OVERSAMPLE, so its SVD goes
    through the thin QR B^H = P R: B = R^H P^H, and the l x l SVD
    R^H = U_B diag(sigma) W^H gives vh = W^H P^H.
    """
    omega = np.random.default_rng(0).standard_normal((stack.shape[2], k + SKETCH_OVERSAMPLE))
    q = np.linalg.qr(stack @ omega)[0]
    for _ in range(SKETCH_POWER_STEPS):
        q = np.linalg.qr(stack @ np.linalg.qr(_h(_h(q) @ stack))[0])[0]
    p, r = np.linalg.qr(_h(_h(q) @ stack))
    ub, sig, wh = np.linalg.svd(_h(r))
    return q @ ub[:, :, :k], sig[:, :k], wh[:, :k] @ _h(p)


def _assemble(u, sig, vh, n3: int) -> TSVDFactors:
    """Inverse-transform half-spectrum factors."""
    k = sig.shape[1]
    s_t = np.zeros((k, k, n3), order="F")
    s_t[np.arange(k), np.arange(k), :] = np.fft.irfft(sig.T, n=n3, axis=1)
    # v's slices are vh^H, so transposed they are conj(vh)
    return TSVDFactors(u=from_spectrum(u.transpose(0, 2, 1), n3), s=s_t,
                       v=from_spectrum(vh.conj(), n3))


def truncated_tsvd(a: Tensor3, k: int) -> TSVDFactors:
    """Leading k singular tubes of the decomposition; the best tubal-rank-k fit.

    u and v have orthonormal lateral slices, s is f-diagonal with the
    diagonal of every DFT slice real, nonnegative and sorted descending. At
    k = min(n1, n2) it is the full decomposition a = u * s * v'.

    Each DFT slice's k leading right singular vectors come from the
    eigendecomposition of its Gram matrix on the smaller side; a thin SVD of
    the slice times them gives orthonormal left vectors and the singular
    values. The slices are factored on the calling thread, and the result
    does not depend on the input's memory order; u, s and v are Fortran
    ordered. Raises RankOutOfRange unless k is an integer in
    [1, min(n1, n2)], and NumericalFailure when a slice cannot be factored,
    such as for an input holding NaN or an infinity.
    """
    return _assemble(*slice_factors(a, k), a.shape[2])


def slice_factors(a: Tensor3, k: int, sketch: bool = False):
    """truncated_tsvd's factors of the half-spectrum DFT slices, (u, sigma, vh)
    of shapes (h, n1, k), (h, k) and (h, k, n2) for h = n3 // 2 + 1; with
    sketch, leading_atoms' approximate ones. Either way every slice is
    factored on the calling thread."""
    n1, n2, n3 = a.shape
    k = positive_int(k, "truncation width k", high=min(n1, n2), error=RankOutOfRange)
    # factor the orientation with at least as many rows as columns, so the
    # Gram is on the smaller side; the transposed slices of a
    # Fortran-ordered tensor are contiguous already and are not copied
    transposed = n2 >= n1
    stack = spectrum(np.asarray(a, dtype=np.float64))
    if not transposed:
        stack = stack.transpose(0, 2, 1)
    # either way the stack is private, spectrum's or its contiguous copy,
    # which replaces it, so it is scaled in place: an exact power-of-two
    # scale per slice, undone on sigma, keeps the Gram from overflowing or
    # underflowing where the slice itself does not. The exponent is taken
    # from the largest real or imaginary part, which bounds every |z| within
    # sqrt(2), so no complex magnitude is computed
    stack = np.ascontiguousarray(stack)
    parts = stack.view(np.float64)
    _, exp = np.frexp(np.abs(parts).max(axis=(1, 2)))
    np.ldexp(parts, -exp[:, None, None], out=parts)
    try:
        u, sig, vh = (_sketched_triplets(stack, k) if sketch
                      else _leading_triplets(stack, k))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("slice factorization did not converge") from exc
    sig = np.ldexp(sig, exp[:, None])
    if transposed:
        # a_f^T = u diag(sig) vh, so a_f = vh^T diag(sig) u^T
        u, vh = vh.transpose(0, 2, 1), u.transpose(0, 2, 1)
    u, vh = _fix_phase(u, vh)
    return u, sig, vh


def tubal_rank(a: Tensor3) -> int:
    """Number of singular tubes with norm above RANK_REL_TOL times the
    leading one; 0 for a zero tensor."""
    tubes = truncated_tsvd(a, min(a.shape[0], a.shape[1])).tube_norms()
    return int((tubes > RANK_REL_TOL * tubes[0]).sum())


def leading_atoms(a: Tensor3, s: int) -> list[RankOneAtom]:
    """Peel s leading rank-one atoms off a tensor.

    The factors u, s, v come from the range finder (slice_factors with
    sketch), which keeps the atom contract but not the exact leading tubes.
    They come from truncated_tsvd instead when s + SKETCH_OVERSAMPLE >=
    min(n1, n2), where a sketch would span the whole space at a higher
    cost than the exact factorization, and when the leading tube norm of
    the sketch is below ||a|| / sqrt(min(n1, n2)), so the leading atom
    always meets that floor. Atom i is w_i * v(:, i, :)'
    with w_i = u(:, i, :) * (s(i, i, :) / theta_i) and theta_i the tube
    norm, both t-products through tprod. Only atoms whose tube norm is
    above RANK_REL_TOL times the leading tube norm are kept, tubal_rank's
    rule, so a zero tensor yields an empty list and the result may be
    shorter than s. Raises RankOutOfRange unless s is an integer in
    [1, min(n1, n2)]. Each atom is a Fortran-ordered tensor with a buffer
    of its own, so its memory is its storage-order vectorization.
    """
    n1, n2, n3 = a.shape
    s = positive_int(s, "atom count s", high=min(n1, n2), error=RankOutOfRange)
    factors = None
    # a sketch as wide as the slice took 1.6-2.5 times as long as the exact
    # factorization on narrow shapes from 10x9x4 to 64x48x8
    if s + SKETCH_OVERSAMPLE < min(n1, n2):
        factors = _assemble(*slice_factors(a, s, sketch=True), n3)
        if factors.tube_norms()[0] < frobenius_norm(a) / math.sqrt(min(n1, n2)):
            factors = None
    if factors is None:
        factors = truncated_tsvd(a, s)
    tubes = factors.tube_norms()
    # tube norms are nonincreasing, so the kept atoms are a prefix
    theta = tubes[tubes > RANK_REL_TOL * tubes[0]]
    count = theta.size
    w = tprod(factors.u[:, :count], factors.s[:count, :count] / theta[:, None])
    return [RankOneAtom(tube_norm=float(t),
                        atom=tprod(w[:, i:i + 1], t_transpose(factors.v[:, i:i + 1])),
                        w=w[:, i:i + 1], v=factors.v[:, i:i + 1])
            for i, t in enumerate(theta)]
