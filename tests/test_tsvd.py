"""Unit tests for the tubal SVD and rank-one atom extraction."""

import importlib
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from oracles import (conj_transpose, fft3, identity_tensor, inner, is_orthogonal,
                     slice_svd_tsvd)
from tpursuit.tsvd import leading_atoms, truncated_tsvd, tsvd, tubal_rank
from tpursuit.errors import NumericalFailure, RankOutOfRange
from tpursuit.tensor import frobenius_norm, tprod
from tpursuit.trip import sample_rank_r_unit

# the package exports the function tsvd under the module's name
tsvd_module = importlib.import_module("tpursuit.tsvd")

SHAPES = [(1, 1, 1), (4, 4, 1), (3, 5, 4), (5, 3, 4), (8, 8, 8), (6, 2, 7)]


def reconstruct(f):
    return tprod(tprod(f.u, f.s), conj_transpose(f.v))


def test_tsvd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(201)
    for shape in SHAPES:
        for _ in range(4):
            a = rng.standard_normal(shape)
            f = tsvd(a)
            err = frobenius_norm(reconstruct(f) - a)
            assert err <= 1e-10 * max(1.0, frobenius_norm(a)), shape
            assert is_orthogonal(f.u)
            assert is_orthogonal(f.v)


def test_s_is_f_diagonal_with_exact_zeros():
    rng = np.random.default_rng(202)
    for shape in [(3, 5, 4), (5, 5, 3), (2, 6, 5)]:
        a = rng.standard_normal(shape)
        f = tsvd(a)
        rho = f.rho
        off = f.s.copy()
        off[np.arange(rho), np.arange(rho), :] = 0.0
        assert np.count_nonzero(off) == 0


def test_fourier_singular_values_real_nonneg_descending():
    rng = np.random.default_rng(203)
    for _ in range(10):
        a = rng.standard_normal((5, 4, 6))
        f = tsvd(a)
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
    f = tsvd(a)
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


@pytest.mark.parametrize("shape", [(9, 7, 8), (6, 11, 9), (5, 5, 1)])
def test_truncated_tsvd_is_independent_of_the_worker_count(shape, monkeypatch):
    rng = np.random.default_rng(217)
    a = rng.standard_normal(shape)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(tsvd_module, "_worker_count", lambda: workers)
        results.append(truncated_tsvd(a, 3))
    for f in results[1:]:
        np.testing.assert_array_equal(f.u, results[0].u)
        np.testing.assert_array_equal(f.s, results[0].s)
        np.testing.assert_array_equal(f.v, results[0].v)


def test_concurrent_callers_get_the_serial_result(monkeypatch):
    # more workers and callers than cores, with frequent thread switches
    rng = np.random.default_rng(220)
    inputs = [rng.standard_normal((9, 8, 10)) for _ in range(6)]
    monkeypatch.setattr(tsvd_module, "_worker_count", lambda: 1)
    expected = [truncated_tsvd(a, 2) for a in inputs]
    monkeypatch.setattr(tsvd_module, "_worker_count", lambda: 4)
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


def test_no_worker_thread_outlives_the_call(monkeypatch):
    monkeypatch.setattr(tsvd_module, "_worker_count", lambda: 3)
    truncated_tsvd(np.random.default_rng(221).standard_normal((8, 8, 8)), 2)
    workers = [t.name for t in threading.enumerate() if t.name.startswith("tpursuit")]
    assert workers == []


def _factor_and_exit():
    truncated_tsvd(np.random.default_rng(218).standard_normal((8, 8, 8)), 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_can_factor_after_the_parent_did(monkeypatch):
    monkeypatch.setattr(tsvd_module, "_worker_count", lambda: 2)
    _factor_and_exit()  # the parent's pool now has a worker thread
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
    f1 = tsvd(a)
    f2 = tsvd(a.copy())
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
    # leading_atoms assembles each batch in one real product; tprod of the
    # truncated factors is the reference, for odd and even n3, for n3 = 2
    # (the smallest lag that wraps around), for tall and wide slices and
    # for a Fortran-ordered input
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
