"""Unit tests for the tubal SVD and rank-one atom extraction."""

import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from oracles import (conj_transpose, fft3, identity_tensor, inner, is_orthogonal,
                     slice_svd_tsvd)
import tpursuit.tsvd as tsvd_module
from tpursuit import measure, pursuit
from tpursuit.tsvd import leading_atoms, truncated_tsvd, tubal_rank
from tpursuit.errors import NumericalFailure, RankOutOfRange
from tpursuit.tensor import frobenius_norm, spectrum, t_transpose, tprod
from tpursuit.trip import sample_rank_r_unit

SHAPES = [(1, 1, 1), (4, 4, 1), (3, 5, 4), (5, 3, 4), (8, 8, 8), (6, 2, 7)]


def reconstruct(f):
    return tprod(tprod(f.u, f.s), conj_transpose(f.v))


def test_import_binds_the_tsvd_module():
    # no package attribute shadows the submodule
    assert isinstance(tsvd_module, types.ModuleType)
    assert tsvd_module.truncated_tsvd is truncated_tsvd


def test_tsvd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(201)
    for shape in SHAPES:
        for _ in range(4):
            a = rng.standard_normal(shape)
            f = truncated_tsvd(a, min(a.shape[:2]))
            err = frobenius_norm(reconstruct(f) - a)
            assert err <= 1e-10 * max(1.0, frobenius_norm(a)), shape
            assert is_orthogonal(f.u)
            assert is_orthogonal(f.v)


def test_s_is_f_diagonal_with_exact_zeros():
    rng = np.random.default_rng(202)
    for shape in [(3, 5, 4), (5, 5, 3), (2, 6, 5)]:
        a = rng.standard_normal(shape)
        f = truncated_tsvd(a, min(a.shape[:2]))
        rho = f.rho
        off = f.s.copy()
        off[np.arange(rho), np.arange(rho), :] = 0.0
        assert np.count_nonzero(off) == 0


def test_fourier_singular_values_real_nonneg_descending():
    rng = np.random.default_rng(203)
    for _ in range(10):
        a = rng.standard_normal((5, 4, 6))
        f = truncated_tsvd(a, min(a.shape[:2]))
        shat = fft3(f.s).slices
        rho = f.rho
        for k in range(a.shape[2]):
            diag = shat[np.arange(rho), np.arange(rho), k]
            assert np.abs(diag.imag).max() <= 1e-10 * max(1.0, np.abs(diag).max())
            vals = diag.real
            assert vals.min() >= -1e-10
            assert np.all(np.diff(vals) <= 1e-10 * max(1.0, vals[0]))


def test_tube_norms_match_diagonal_and_order():
    rng = np.random.default_rng(204)
    a = rng.standard_normal((6, 5, 4))
    f = truncated_tsvd(a, min(a.shape[:2]))
    tubes = f.tube_norms()
    for i in range(f.rho):
        assert abs(tubes[i] - np.linalg.norm(f.s[i, i, :])) <= 1e-12
    assert np.all(np.diff(tubes) <= 1e-10 * max(1.0, tubes[0]))


def test_truncated_tsvd_exact_on_low_rank_input():
    rng = np.random.default_rng(205)
    for r in (1, 2, 3):
        y = sample_rank_r_unit((7, 6, 5), r, rng)
        for k in range(r, 6):
            f = truncated_tsvd(y, k)
            assert frobenius_norm(reconstruct(f) - y) <= 1e-8


def test_truncation_error_monotone():
    rng = np.random.default_rng(206)
    a = rng.standard_normal((6, 6, 4))
    errs = []
    for k in range(1, 7):
        f = truncated_tsvd(a, k)
        errs.append(frobenius_norm(reconstruct(f) - a))
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    assert errs[-1] <= 1e-10 * max(1.0, frobenius_norm(a))


def leading_of_full(a, k):
    """The first k tubes of the decomposition from a full SVD of every DFT
    slice, an independent reference for truncated_tsvd."""
    return slice_svd_tsvd(a, k)


# n1 < n2 and n1 > n2, odd and even n3, n3 = 1 and 2
TRUNCATION_SHAPES = [(3, 5, 4), (5, 3, 4), (6, 9, 7), (9, 6, 7), (8, 8, 8), (7, 4, 1), (4, 7, 2)]


def test_truncated_tsvd_matches_full_svd_factors():
    rng = np.random.default_rng(213)
    for shape in TRUNCATION_SHAPES:
        a = rng.standard_normal(shape)
        for k in range(1, min(shape[:2]) + 1):
            f = truncated_tsvd(a, k)
            u, s, v = leading_of_full(a, k)
            assert np.abs(f.u - u).max() <= 1e-12, (shape, k)
            assert np.abs(f.v - v).max() <= 1e-12, (shape, k)
            assert np.abs(f.s - s).max() <= 1e-12 * np.abs(s).max(), (shape, k)
            assert is_orthogonal(f.u) and is_orthogonal(f.v)


def test_truncated_tsvd_on_zero_slices_and_past_the_rank():
    # where singular values repeat or vanish the factors are not unique,
    # so compare the fit and the tubes and check orthonormality
    rng = np.random.default_rng(214)
    constant_tubes = np.repeat(rng.standard_normal((6, 4, 1)), 5, axis=2)
    low_rank = sample_rank_r_unit((7, 5, 6), 2, rng)
    for a in (constant_tubes, low_rank, np.zeros((4, 6, 3))):
        for k in range(1, min(a.shape[:2]) + 1):
            f = truncated_tsvd(a, k)
            u, s, v = leading_of_full(a, k)
            scale = max(frobenius_norm(a), 1e-300)
            assert frobenius_norm(reconstruct(f) - tprod(tprod(u, s), conj_transpose(v))) <= 1e-12 * scale
            assert np.abs(f.s - s).max() <= 1e-12 * scale
            assert is_orthogonal(f.u) and is_orthogonal(f.v)


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e150, 1e160])
def test_truncated_tsvd_at_extreme_magnitudes(scale):
    # a Gram matrix formed without rescaling squares these magnitudes into
    # overflow or subnormals
    rng = np.random.default_rng(215)
    for shape in ((5, 7, 4), (7, 5, 3)):
        a = scale * rng.standard_normal(shape)
        for k in (1, 3, 5):
            f = truncated_tsvd(a, k)
            u, s, v = leading_of_full(a, k)
            assert np.abs(f.u - u).max() <= 1e-12
            assert np.abs(f.v - v).max() <= 1e-12
            assert np.abs(f.s - s).max() <= 1e-12 * np.abs(s).max()


@pytest.mark.parametrize("scale", [1e-160, 1e160, 1e300])
def test_leading_atoms_at_extreme_magnitudes(scale):
    # the tube norms and the floor check square the tubes and the tensor;
    # unscaled, 1e160 overflows and 1e-160 underflows
    a = np.random.default_rng(217).standard_normal((30, 24, 4))
    plain = leading_atoms(a, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = leading_atoms(scale * a, 2)
        tubes = truncated_tsvd(scale * a, 2).tube_norms()
    assert len(scaled) == len(plain) == 2
    for got, want in zip(scaled, plain):
        assert got.tube_norm == pytest.approx(scale * want.tube_norm, rel=1e-12)
        assert np.abs(got.atom - want.atom).max() <= 1e-12
    np.testing.assert_allclose(tubes, scale * truncated_tsvd(a, 2).tube_norms(), rtol=1e-12)


@pytest.mark.parametrize("e", [-600, -1, 1, 600])
def test_power_of_two_scaling_is_exact(e):
    # each slice is scaled by the power of two at its largest part before it
    # is factored, so a power-of-two scale of the input moves no bit of u
    # or v and scales s and the tube norms exactly; (9, 7, 8) at s = 2 takes
    # leading_atoms' exact path and (30, 24, 4) its sketch
    rng = np.random.default_rng(222)
    for shape in ((9, 7, 8), (6, 11, 9), (30, 24, 4)):
        a = rng.standard_normal(shape)
        scaled, plain = truncated_tsvd(2.0 ** e * a, 2), truncated_tsvd(a, 2)
        np.testing.assert_array_equal(scaled.u, plain.u)
        np.testing.assert_array_equal(scaled.v, plain.v)
        np.testing.assert_array_equal(scaled.s, np.ldexp(plain.s, e))
        got, want = leading_atoms(2.0 ** e * a, 2), leading_atoms(a, 2)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert g.tube_norm == math.ldexp(w.tube_norm, e)
            np.testing.assert_array_equal(g.atom, w.atom)
            np.testing.assert_array_equal(g.w, w.w)
            np.testing.assert_array_equal(g.v, w.v)


def test_truncated_tsvd_with_one_huge_entry():
    rng = np.random.default_rng(216)
    a = rng.standard_normal((32, 32, 6))
    a[3, 4, 2] = 1e300
    for k in (1, 2, 5):
        f = truncated_tsvd(a, k)
        u, s, v = leading_of_full(a, k)
        assert np.abs(f.s - s).max() <= 1e-12 * np.abs(s).max()
        # the tubes after the first sit below rounding of the first, so only
        # the leading factors are determined
        assert np.abs(f.u[:, 0, :] - u[:, 0, :]).max() <= 1e-12
        assert np.abs(f.v[:, 0, :] - v[:, 0, :]).max() <= 1e-12
        assert is_orthogonal(f.u) and is_orthogonal(f.v)


@pytest.mark.parametrize("shape", [(9, 7, 8), (6, 11, 9), (5, 5, 1), (4, 4, 2), (3, 8, 5)])
def test_truncated_tsvd_is_independent_of_the_input_memory_order(shape):
    a = np.random.default_rng(216).standard_normal(shape)
    c, f = truncated_tsvd(np.ascontiguousarray(a), 3), truncated_tsvd(np.asfortranarray(a), 3)
    np.testing.assert_array_equal(c.u, f.u)
    np.testing.assert_array_equal(c.s, f.s)
    np.testing.assert_array_equal(c.v, f.v)


def test_concurrent_callers_get_the_serial_result():
    # more callers than cores, with frequent thread switches
    rng = np.random.default_rng(220)
    inputs = [rng.standard_normal((9, 8, 10)) for _ in range(6)]
    expected = [truncated_tsvd(a, 2) for a in inputs]
    results = [None] * len(inputs)

    def call(i):
        for _ in range(5):
            results[i] = truncated_tsvd(inputs[i], 2)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in callers)
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.s, want.s)
        np.testing.assert_array_equal(got.v, want.v)


def _factor_and_exit():
    truncated_tsvd(np.random.default_rng(218).standard_normal((8, 8, 8)), 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_can_factor_after_the_parent_did():
    _factor_and_exit()
    child = multiprocessing.get_context("fork").Process(target=_factor_and_exit)
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child hung in truncated_tsvd")
    assert child.exitcode == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_truncated_tsvd_non_finite_input(bad):
    a = np.random.default_rng(219).standard_normal((4, 5, 3))
    a[1, 2, 1] = bad
    with pytest.raises(NumericalFailure), np.errstate(invalid="ignore"):
        truncated_tsvd(a, 2)


def test_truncated_tsvd_rank_bounds():
    a = np.zeros((3, 4, 2))
    with pytest.raises(RankOutOfRange):
        truncated_tsvd(a, 0)
    with pytest.raises(RankOutOfRange):
        truncated_tsvd(a, 4)


def test_tubal_rank_cases():
    rng = np.random.default_rng(207)
    assert tubal_rank(np.zeros((4, 4, 3))) == 0
    assert tubal_rank(identity_tensor(4, 3)) == 4
    for r in (1, 2, 3):
        y = sample_rank_r_unit((6, 7, 4), r, rng)
        assert tubal_rank(y) == r
        assert tubal_rank(1e6 * y) == r
    full = rng.standard_normal((5, 6, 3))
    assert tubal_rank(full) == 5


def test_factorization_is_deterministic():
    rng = np.random.default_rng(208)
    a = rng.standard_normal((5, 4, 3))
    f1 = truncated_tsvd(a, min(a.shape[:2]))
    f2 = truncated_tsvd(a.copy(), min(a.shape[:2]))
    np.testing.assert_array_equal(f1.u, f2.u)
    np.testing.assert_array_equal(f1.s, f2.s)
    np.testing.assert_array_equal(f1.v, f2.v)


def test_leading_atoms_unit_norm_orthogonal_and_weighted():
    rng = np.random.default_rng(209)
    for _ in range(10):
        a = rng.standard_normal((6, 5, 4))
        atoms = leading_atoms(a, 3)
        assert len(atoms) == 3
        for at in atoms:
            assert abs(frobenius_norm(at.atom) - 1.0) <= 1e-10
            assert abs(at.tube_norm - inner(at.atom, a)) <= 1e-8 * at.tube_norm
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(inner(atoms[i].atom, atoms[j].atom)) <= 1e-10
        norms = [at.tube_norm for at in atoms]
        assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(2))


def test_atoms_match_their_tprod_definition():
    # leading_atoms builds each atom as tprod(w_i, t_transpose(v_i)); the
    # t-product of the truncated factors through the oracle's transpose is
    # the reference, for odd and even n3, for n3 = 2, for tall and wide
    # slices and for a Fortran-ordered input
    rng = np.random.default_rng(213)
    inputs = [rng.standard_normal(shape) for shape in SHAPES + [(7, 9, 6), (9, 7, 5), (5, 4, 2)]]
    inputs.append(np.asfortranarray(rng.standard_normal((6, 7, 5))))
    for a in inputs:
        shape = a.shape
        k = min(shape[0], shape[1], 3)
        f = truncated_tsvd(a, k)
        atoms = leading_atoms(a, k)
        assert len(atoms) == k
        for i, at in enumerate(atoms):
            tube = (f.s[i, i, :] / at.tube_norm).reshape(1, 1, -1)
            want = tprod(tprod(f.u[:, i:i + 1, :], tube), conj_transpose(f.v[:, i:i + 1, :]))
            assert frobenius_norm(at.atom - want) <= 1e-12, (shape, i)


def test_atoms_are_the_tprod_of_their_factors():
    # each atom carries its lateral slices w (n1 x 1 x n3) and v (n2 x 1 x n3),
    # atom = w * v', in buffers of their own: for odd and even n3, n3 = 2,
    # and tall and wide slices
    rng = np.random.default_rng(214)
    for shape in [(7, 9, 6), (9, 7, 5), (5, 4, 2), (4, 6, 2), (6, 6, 1), (3, 5, 4)]:
        n1, n2, n3 = shape
        atoms = leading_atoms(rng.standard_normal(shape), min(n1, n2, 3))
        for i, at in enumerate(atoms):
            assert at.w.shape == (n1, 1, n3) and at.v.shape == (n2, 1, n3)
            assert not np.shares_memory(at.w, at.atom)
            assert not np.shares_memory(at.v, at.atom)
            want = tprod(at.w, conj_transpose(at.v))
            assert frobenius_norm(at.atom - want) <= 1e-12, (shape, i)


def test_leading_atoms_memory_does_not_grow_with_the_tube_length():
    # each atom is one t-product, so a batch of s atoms on a long tube peaks
    # at the atoms themselves plus a few tensors of working space, not at a
    # table of n3 lags per atom
    a = np.asfortranarray(np.random.default_rng(216).standard_normal((32, 32, 256)))
    s = 2
    tracemalloc.start()
    try:
        atoms = leading_atoms(a, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(atoms) == s
    assert peak <= (s + 3) * a.nbytes, peak / a.nbytes
    assert all(at.atom.flags.f_contiguous for at in atoms)
    assert not np.shares_memory(atoms[0].atom, atoms[1].atom)


def test_truncated_tsvd_factors_the_spectrum_in_place():
    # the stack factored is the spectrum's own buffer (or its one contiguous
    # copy), scaled in place: at most about three stacks are live at once,
    # the stack, its Gram and the eigenvectors; the input is left as it was
    rng = np.random.default_rng(215)
    for a in (np.asfortranarray(rng.standard_normal((128, 128, 16))),
              rng.standard_normal((128, 128, 16)), rng.standard_normal((128, 96, 16))):
        before = a.copy()
        stack_bytes = spectrum(a).nbytes
        tracemalloc.start()
        try:
            factors = truncated_tsvd(a, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * stack_bytes, (a.shape, peak / stack_bytes)
        np.testing.assert_array_equal(a, before)
        assert factors.rho == 8


def test_full_atom_set_reconstructs_tensor():
    rng = np.random.default_rng(210)
    a = rng.standard_normal((4, 6, 3))
    atoms = leading_atoms(a, 4)
    total = sum(at.tube_norm * at.atom for at in atoms)
    assert frobenius_norm(total - a) <= 1e-10 * frobenius_norm(a)


def test_leading_atoms_drop_rule():
    rng = np.random.default_rng(211)
    y = sample_rank_r_unit((6, 6, 3), 1, rng)
    atoms = leading_atoms(y, 3)
    assert len(atoms) == 1
    assert leading_atoms(np.zeros((4, 4, 2)), 2) == []


def test_leading_atoms_rank_bounds():
    a = np.zeros((3, 4, 2))
    with pytest.raises(RankOutOfRange):
        leading_atoms(a, 0)
    with pytest.raises(RankOutOfRange):
        leading_atoms(a, 4)


def test_leading_atom_inner_product_lower_bound():
    # the best rank-one atom always captures at least ||a|| / sqrt(min(n1, n2))
    rng = np.random.default_rng(212)
    for _ in range(60):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        n3 = int(rng.integers(1, 9))
        a = rng.standard_normal((n1, n2, n3))
        atoms = leading_atoms(a, 1)
        floor = frobenius_norm(a) / np.sqrt(min(n1, n2))
        assert atoms[0].tube_norm >= floor * (1.0 - 1e-10)


# min(n1, n2) > s + SKETCH_OVERSAMPLE, so leading_atoms takes the range
# finder: both slice orientations, odd and even n3
SKETCH_SHAPES = [(24, 40, 5), (40, 24, 6), (64, 64, 8), (33, 30, 7)]


def _low_rank_plus_noise(shape, rng, rank=4, noise=0.05):
    y = sample_rank_r_unit(shape, rank, rng)
    return y + noise * rng.standard_normal(shape) / np.sqrt(np.prod(shape))


def _no_exact_factorization(a, k):
    raise AssertionError("leading_atoms fell back to truncated_tsvd")


def test_sketched_atoms_keep_the_atom_contract(monkeypatch):
    # unit norm, orthonormal within the batch, tube_norm the inner product
    # with the source tensor, and a leading tube norm at or above the floor
    monkeypatch.setattr(tsvd_module, "truncated_tsvd", _no_exact_factorization)
    rng = np.random.default_rng(230)
    for shape in SKETCH_SHAPES:
        n1, n2, _ = shape
        for a in (rng.standard_normal(shape), _low_rank_plus_noise(shape, rng)):
            for s in (1, 3):
                atoms = leading_atoms(a, s)
                assert len(atoms) == s, (shape, s)
                for i, at in enumerate(atoms):
                    assert abs(frobenius_norm(at.atom) - 1.0) <= 1e-12, (shape, s, i)
                    assert abs(at.tube_norm - inner(at.atom, a)) <= 1e-12 * at.tube_norm
                    for other in atoms[i + 1:]:
                        assert abs(inner(at.atom, other.atom)) <= 1e-12, (shape, s, i)
                assert atoms[0].tube_norm >= frobenius_norm(a) / np.sqrt(min(n1, n2))


def test_sketched_atoms_capture_the_exact_tube_norms_of_low_rank_plus_noise():
    rng = np.random.default_rng(231)
    for shape in SKETCH_SHAPES:
        for noise in (0.05, 0.3):
            a = _low_rank_plus_noise(shape, rng, noise=noise)
            exact = truncated_tsvd(a, 4).tube_norms()
            atoms = leading_atoms(a, 4)
            captured = [at.tube_norm / t for at, t in zip(atoms, exact)]
            assert len(atoms) == 4 and min(captured) >= 0.99, (shape, noise, captured)


def test_a_sketch_below_the_floor_falls_back_to_truncated_tsvd(monkeypatch):
    rng = np.random.default_rng(232)
    sketch = tsvd_module._sketched_triplets
    calls = []

    def weak_sketch(stack, k):
        # the range finder's factors with their energy cut 100-fold, far
        # below ||a|| / sqrt(min(n1, n2))
        calls.append(k)
        u, sig, vh = sketch(stack, k)
        return u, sig / 100.0, vh

    monkeypatch.setattr(tsvd_module, "_sketched_triplets", weak_sketch)
    for shape in SKETCH_SHAPES:
        a = rng.standard_normal(shape)
        s = 3
        atoms = leading_atoms(a, s)
        # the exact atoms, built from truncated_tsvd as leading_atoms builds them
        f = truncated_tsvd(a, s)
        theta = f.tube_norms()
        w = tprod(f.u, f.s / theta[:, None])
        assert len(atoms) == s
        for i, at in enumerate(atoms):
            assert at.tube_norm == theta[i]
            np.testing.assert_array_equal(at.w, w[:, i:i + 1])
            np.testing.assert_array_equal(at.v, f.v[:, i:i + 1])
            np.testing.assert_array_equal(
                at.atom, tprod(w[:, i:i + 1], t_transpose(f.v[:, i:i + 1])))
    assert calls == [3] * len(SKETCH_SHAPES)


def test_atoms_of_narrow_tensors_come_from_truncated_tsvd(monkeypatch):
    # where s + SKETCH_OVERSAMPLE >= min(n1, n2) a sketch spans the whole
    # space, so the exact factorization is taken and the range finder skipped
    def no_sketch(stack, k):
        raise AssertionError("the range finder ran")

    monkeypatch.setattr(tsvd_module, "_sketched_triplets", no_sketch)
    rng = np.random.default_rng(233)
    for shape, s in (((9, 40, 5), 1), ((40, 12, 4), 4), ((8, 8, 8), 2)):
        assert s + tsvd_module.SKETCH_OVERSAMPLE >= min(shape[:2])
        assert len(leading_atoms(rng.standard_normal(shape), s)) == s


def _assert_same_atoms(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tube_norm == w.tube_norm
        np.testing.assert_array_equal(g.atom, w.atom)
        np.testing.assert_array_equal(g.w, w.w)
        np.testing.assert_array_equal(g.v, w.v)


@pytest.mark.parametrize("shape", SKETCH_SHAPES)
def test_sketched_atoms_are_byte_identical_across_calls_and_orders(shape):
    a = np.random.default_rng(234).standard_normal(shape)
    want = leading_atoms(a, 3)
    _assert_same_atoms(leading_atoms(a, 3), want)
    _assert_same_atoms(leading_atoms(np.asfortranarray(a), 3), want)
    _assert_same_atoms(leading_atoms(np.ascontiguousarray(a), 3), want)


def test_runs_on_sketched_atoms_are_byte_identical():
    dims = (48, 48, 8)
    y = sample_rank_r_unit(dims, 4, np.random.default_rng(235))
    phi = measure.sampling_map(measure.random_mask(dims, 0.5, seed=235))
    cfg = pursuit.PursuitConfig(r=4, s=2)
    results = []
    for truth in (y, np.ascontiguousarray(y), np.asfortranarray(y), y):
        results.append(pursuit.run(measure.apply(phi, truth), phi, cfg))
    for got in results[1:]:
        assert got.yhat.tobytes() == results[0].yhat.tobytes()
        assert got.residual_norms.tobytes() == results[0].residual_norms.tobytes()
