"""Unit tests for sampling and dense measurement maps."""

import struct

import numpy as np
import pytest
import scipy.linalg

from tpursuit import measure as ms
from tpursuit.tsvd import leading_atoms
from tpursuit.errors import (
    EmptyMask,
    FileFormatError,
    NumericalFailure,
    RankDeficientMap,
    ShapeMismatch,
)


def offset(i, j, k, dims):
    n1, n2, _ = dims
    return k * n1 * n2 + j * n1 + i


def test_sampling_apply_reads_declared_offsets():
    dims = (3, 4, 2)
    rng = np.random.default_rng(301)
    y = rng.standard_normal(dims)
    triplets = [(0, 0, 0), (2, 1, 0), (1, 3, 1), (2, 3, 1)]
    idx = sorted(offset(i, j, k, dims) for i, j, k in triplets)
    mask = ms.SamplingMask(dims=dims, indices=np.array(idx))
    phi = ms.sampling_map(mask)
    b = ms.apply(phi, y)
    want = sorted(
        (offset(i, j, k, dims), y[i, j, k]) for i, j, k in triplets
    )
    np.testing.assert_array_equal(b, [v for _, v in want])


def test_sampling_pinv_scatters_and_projects():
    dims = (4, 3, 3)
    rng = np.random.default_rng(302)
    y = rng.standard_normal(dims)
    mask = ms.random_mask(dims, 0.4, seed=7)
    phi = ms.sampling_map(mask)
    b = ms.apply(phi, y)
    back = ms.pinv_apply(phi, b)
    # measured entries survive, the rest are zero
    np.testing.assert_array_equal(ms.apply(phi, back), b)
    assert np.count_nonzero(back) <= mask.p
    # projection is idempotent
    np.testing.assert_array_equal(ms.pinv_apply(phi, ms.apply(phi, back)), back)


def test_dense_pinv_matches_pseudoinverse():
    rng = np.random.default_rng(303)
    dims = (4, 3, 2)
    phi = ms.gaussian_ensemble(10, dims, seed=5)
    b = rng.standard_normal(10)
    got = ms.pinv_apply(phi, b)
    want = np.linalg.pinv(phi.matrix) @ b
    np.testing.assert_allclose(got.ravel(order="F"), want, atol=1e-8)
    # right inverse on the measurement side
    np.testing.assert_allclose(ms.apply(phi, got), b, atol=1e-8)


def test_dense_apply_matches_matrix_vector_product():
    rng = np.random.default_rng(304)
    dims = (3, 3, 2)
    mat = rng.standard_normal((7, 18))
    phi = ms.dense_map(mat, dims)
    x = rng.standard_normal(dims)
    np.testing.assert_allclose(ms.apply(phi, x), mat @ x.ravel(order="F"), atol=1e-12)


def test_apply_on_a_stack_matches_one_tensor_at_a_time():
    rng = np.random.default_rng(307)
    dims = (4, 3, 5)
    xs = rng.standard_normal((6,) + dims)
    # the same stack with every tensor stored in Fortran order
    xs_f = np.ascontiguousarray(xs.transpose(0, 3, 2, 1)).transpose(0, 3, 2, 1)
    for phi in (
        ms.gaussian_ensemble(9, dims, seed=17),
        ms.sampling_map(ms.random_mask(dims, 0.4, seed=17)),
    ):
        want = np.stack([ms.apply(phi, x) for x in xs])
        for stack in (xs, xs_f):
            got = ms.apply(phi, stack)
            assert got.shape == (6, phi.m)
            if isinstance(phi, ms.SamplingMap):
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert ms.apply(phi, xs[:0]).shape == (0, phi.m)


def test_apply_shape_mismatch():
    phi = ms.gaussian_ensemble(5, (3, 3, 2), seed=0)
    with pytest.raises(ShapeMismatch):
        ms.apply(phi, np.zeros((3, 3, 3)))
    # a stack whose tensors have the wrong dims, and inputs of other ranks
    for bad in ((4, 3, 3, 3), (3, 3, 2, 1), (2, 1, 3, 3, 2), (3, 6), (18,)):
        with pytest.raises(ShapeMismatch):
            ms.apply(phi, np.zeros(bad))
    with pytest.raises(ShapeMismatch):
        ms.pinv_apply(phi, np.zeros(6))


def test_gaussian_ensemble_determinism_and_scale():
    dims = (6, 6, 4)
    a = ms.gaussian_ensemble(80, dims, seed=42)
    b = ms.gaussian_ensemble(80, dims, seed=42)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = ms.gaussian_ensemble(80, dims, seed=43)
    assert np.any(a.matrix != c.matrix)
    # pooled second moment of sqrt(m)-scaled entries is 1 within 5 percent
    pooled = np.mean((a.matrix * np.sqrt(80)) ** 2)
    assert abs(pooled - 1.0) <= 0.05


def test_rademacher_ensemble_entries():
    dims = (5, 5, 3)
    phi = ms.rademacher_ensemble(64, dims, seed=11)
    vals = np.unique(np.abs(phi.matrix))
    np.testing.assert_allclose(vals, [1.0 / 8.0], atol=1e-15)
    # every column has unit norm exactly
    np.testing.assert_allclose(np.linalg.norm(phi.matrix, axis=0), 1.0, atol=1e-12)
    again = ms.rademacher_ensemble(64, dims, seed=11)
    np.testing.assert_array_equal(phi.matrix, again.matrix)


def test_dense_entry_limit_guard():
    dims = (8, 8, 4)
    m_bad = ms.DENSE_ENTRY_LIMIT // (8 * 8 * 4) + 1
    with pytest.raises(ValueError):
        ms.gaussian_ensemble(m_bad, dims, seed=0)


def test_random_mask_count_and_determinism():
    dims = (5, 4, 3)
    n = 60
    for ratio in (0.0, 0.25, 0.5, 0.9):
        mask = ms.random_mask(dims, ratio, seed=3)
        assert mask.p == int(np.ceil((1.0 - ratio) * n))
    m1 = ms.random_mask(dims, 0.5, seed=9)
    m2 = ms.random_mask(dims, 0.5, seed=9)
    np.testing.assert_array_equal(m1.indices, m2.indices)
    m3 = ms.random_mask(dims, 0.5, seed=10)
    assert not np.array_equal(m1.indices, m3.indices)


def test_random_mask_ratio_bounds():
    with pytest.raises(ValueError):
        ms.random_mask((2, 2, 2), 1.0, seed=0)
    with pytest.raises(ValueError):
        ms.random_mask((2, 2, 2), -0.1, seed=0)


def test_sampling_mask_validation():
    with pytest.raises(EmptyMask):
        ms.SamplingMask(dims=(2, 2, 2), indices=np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        ms.SamplingMask(dims=(2, 2, 2), indices=np.array([3, 1]))
    with pytest.raises(ValueError):
        ms.SamplingMask(dims=(2, 2, 2), indices=np.array([1, 1]))
    with pytest.raises(ValueError):
        ms.SamplingMask(dims=(2, 2, 2), indices=np.array([0, 8]))
    with pytest.raises(ShapeMismatch):
        ms.SamplingMask(dims=(2, 2), indices=np.array([0]))


def test_msk_round_trip(tmp_path):
    mask = ms.random_mask((6, 5, 4), 0.35, seed=21)
    path = tmp_path / "m.msk"
    ms.write_msk(path, mask)
    back = ms.read_msk(path)
    assert back.dims == mask.dims
    np.testing.assert_array_equal(back.indices, mask.indices)


def test_msk_rejects_corrupt_files(tmp_path):
    mask = ms.SamplingMask(dims=(2, 2, 2), indices=np.array([0, 3, 5]))
    good = tmp_path / "good.msk"
    ms.write_msk(good, mask)
    blob = good.read_bytes()

    bad_magic = tmp_path / "magic.msk"
    bad_magic.write_bytes(b"ZZZZ" + blob[4:])
    with pytest.raises(FileFormatError):
        ms.read_msk(bad_magic)

    short = tmp_path / "short.msk"
    short.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError):
        ms.read_msk(short)

    zero_count = tmp_path / "empty.msk"
    zero_count.write_bytes(blob[:16] + struct.pack("<Q", 0))
    with pytest.raises(FileFormatError):
        ms.read_msk(zero_count)

    unsorted = tmp_path / "unsorted.msk"
    payload = np.array([3, 0, 5], dtype="<u8").tobytes()
    unsorted.write_bytes(blob[:24] + payload)
    with pytest.raises(FileFormatError):
        ms.read_msk(unsorted)

    out_of_range = tmp_path / "range.msk"
    payload = np.array([0, 3, 8], dtype="<u8").tobytes()
    out_of_range.write_bytes(blob[:24] + payload)
    with pytest.raises(FileFormatError):
        ms.read_msk(out_of_range)


def test_rank_deficient_dense_map():
    rng = np.random.default_rng(305)
    row = rng.standard_normal(12)
    mat = np.vstack([row, row, rng.standard_normal(12)])
    phi = ms.dense_map(mat, (2, 3, 2))
    with pytest.raises(RankDeficientMap):
        ms.pinv_apply(phi, np.zeros(3))


def test_dense_map_whose_gram_overflows():
    rng = np.random.default_rng(308)
    phi = ms.dense_map(1e160 * rng.standard_normal((5, 24)), (2, 3, 4))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFailure):
            ms.pinv_apply(phi, np.ones(5))
        with pytest.raises(NumericalFailure):
            ms.whiten(phi, np.ones(5))


def test_dense_solves_reject_non_finite_input():
    dims = (4, 3, 2)
    phi = ms.gaussian_ensemble(10, dims, seed=9)
    for bad in (np.nan, np.inf, -np.inf):
        b = np.ones(phi.m)
        b[3] = bad
        with pytest.raises(ValueError):
            ms.pinv_apply(phi, b)
        with pytest.raises(ValueError):
            ms.whiten(phi, b)
        with pytest.raises(ValueError):
            ms.whiten(phi, np.column_stack([np.ones(phi.m), b]))


def test_dense_factor_is_cached_column_major():
    phi = ms.gaussian_ensemble(30, (4, 4, 3), seed=11)
    chol = phi._cholesky()
    assert phi._cholesky() is chol
    assert chol.flags.f_contiguous
    # the upper factor U of phi phi' = U'U
    np.testing.assert_allclose(chol.T @ chol, phi.matrix @ phi.matrix.T, atol=1e-12)


def test_dense_solves_match_the_per_call_lower_factor_solve():
    # the cached factor gives bit for bit what solving with numpy's
    # C-ordered lower factor on every call gives
    rng = np.random.default_rng(309)
    dims = (8, 8, 4)
    phi = ms.gaussian_ensemble(128, dims, seed=19)
    lower = np.linalg.cholesky(phi.matrix @ phi.matrix.T)
    for _ in range(3):
        b = rng.standard_normal(phi.m)
        want = (phi.matrix.T @ scipy.linalg.cho_solve((lower, True), b)).reshape(dims, order="F")
        np.testing.assert_array_equal(ms.pinv_apply(phi, b), want)
        for v in (b, rng.standard_normal((phi.m, 3))):
            want = scipy.linalg.solve_triangular(lower, v, lower=True)
            np.testing.assert_array_equal(ms.whiten(phi, v), want)


def test_whiten_preserves_projected_inner_products():
    # <pinv(u), pinv(v)> over tensors equals <whiten(u), whiten(v)> over vectors
    rng = np.random.default_rng(306)
    dims = (4, 4, 3)
    for phi in (
        ms.gaussian_ensemble(20, dims, seed=13),
        ms.sampling_map(ms.random_mask(dims, 0.5, seed=13)),
    ):
        for _ in range(5):
            u = rng.standard_normal(phi.m)
            v = rng.standard_normal(phi.m)
            lhs = float(
                np.sum(ms.pinv_apply(phi, u) * ms.pinv_apply(phi, v))
            )
            rhs = float(np.dot(ms.whiten(phi, u), ms.whiten(phi, v)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
            # unwhiten inverts whiten; a sampling map returns its input
            back = phi.unwhiten(ms.whiten(phi, v))
            assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)
            if isinstance(phi, ms.SamplingMap):
                assert phi.unwhiten(v) is v


def test_preimages_and_atoms_stay_in_storage_order():
    # the pursuit's residuals and atoms are Fortran ordered, so vectorizing
    # an atom for apply is a view and not a copy
    dims = (6, 5, 4)
    rng = np.random.default_rng(330)
    phi = ms.sampling_map(ms.random_mask(dims, 0.5, seed=330))
    residual = ms.pinv_apply(phi, rng.standard_normal(phi.m))
    assert residual.shape == dims and residual.flags.f_contiguous
    atoms = leading_atoms(residual, 3)
    assert len(atoms) == 3
    for at in atoms:
        assert at.atom.shape == dims and at.atom.flags.f_contiguous
        assert np.shares_memory(ms._vec(at.atom), at.atom)
