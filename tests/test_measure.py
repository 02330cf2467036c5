"""Unit tests for sampling and dense measurement maps."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from tpursuit import measure as ms
from tpursuit.tensor import read_t3b, tprod, write_t3b
from tpursuit.trip import sample_rank_r_unit
from tpursuit.tsvd import leading_atoms, truncated_tsvd
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


def test_whiten_and_backproject_check_the_measured_length():
    # a wrong length is a shape error on both kinds of map, not a vector
    # returned unchanged or a shape error from inside scipy
    dims = (3, 3, 2)
    for phi in (ms.gaussian_ensemble(5, dims, seed=0),
                ms.sampling_map(ms.random_mask(dims, 0.5, seed=0))):
        for bad in ((phi.m + 1,), (phi.m - 1, 2), (1, phi.m), ()):
            with pytest.raises(ShapeMismatch):
                ms.whiten(phi, np.ones(bad))
            with pytest.raises(ShapeMismatch):
                ms.backproject(phi, np.ones(bad))
        # backproject takes one vector, whiten a block of them too
        assert ms.whiten(phi, np.ones((phi.m, 2))).shape == (phi.m, 2)
        with pytest.raises(ShapeMismatch):
            ms.backproject(phi, np.ones((phi.m, 2)))


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


def test_ensembles_scale_their_draw_in_place():
    # the m x N draw is the only float buffer: no scaled copy (Gaussian), and
    # one float copy of the integer draw (Rademacher); the entries are those
    # of the plain expressions, bit for bit
    m, dims = 256, (8, 8, 8)
    n = 8 * 8 * 8
    cases = (
        (ms.gaussian_ensemble, 1.25,
         lambda rng: rng.standard_normal((m, n)) / np.sqrt(m)),
        (ms.rademacher_ensemble, 2.25,
         lambda rng: (rng.integers(0, 2, size=(m, n)).astype(np.float64) * 2.0 - 1.0)
         / np.sqrt(m)),
    )
    for ensemble, bound, reference in cases:
        tracemalloc.start()
        try:
            phi = ensemble(m, dims, seed=29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * m * n, (ensemble.__name__, peak / (8 * m * n))
        np.testing.assert_array_equal(phi.matrix, reference(np.random.default_rng(29)))


def test_dense_entry_limit_guard():
    dims = (8, 8, 4)
    m_bad = ms.DENSE_ENTRY_LIMIT // (8 * 8 * 4) + 1
    with pytest.raises(ValueError):
        ms.gaussian_ensemble(m_bad, dims, seed=0)


def test_dense_maps_take_three_positive_dims_and_a_whole_row_count():
    for dims in ((0, 2, 2), (-2, -2, 1), (2, 2), (1, 2, 2, 1), (2.5, 2, 2)):
        n = max(0, int(np.prod(dims)))
        with pytest.raises(ShapeMismatch, match="three positive integers"):
            ms.DenseMap(np.ones((1, n)), dims)
    assert ms.DenseMap(np.ones((1, 4)), (1, 2, 2)).dims == (1, 2, 2)
    for make in (ms.gaussian_ensemble, ms.rademacher_ensemble):
        # 2.7 rows scaled by 1/sqrt(2.7) would break E||phi(x)||^2 = ||x||^2
        for m in (2.7, 2.0, 0, -1, "3"):
            with pytest.raises(ValueError, match="integer >= 1"):
                make(m, (2, 2, 2), seed=0)
        with pytest.raises(ShapeMismatch):
            make(3, (2, 2, 0), seed=0)
        assert make(np.int64(3), (2, 2, 2), seed=0).m == 3


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


def test_square_ill_conditioned_dense_map_falls_back_to_qr():
    # a square 4x4x4 map with singular values from 1 to 1e-7: the Gram's
    # smallest Cholesky pivot sits at its rounding floor, so the factor is R
    # of phi' = QR, and recovery loses only the map's condition number
    rng = np.random.default_rng(310)
    n = 64
    left = np.linalg.qr(rng.standard_normal((n, n)))[0]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mat = (left * np.logspace(0, -7, n)) @ right.T
    gram = mat @ mat.T
    floor = 100.0 * n * np.finfo(np.float64).eps * np.diag(gram).max()
    try:
        pivots = np.diag(scipy.linalg.cholesky(gram)) ** 2
        assert pivots.min() <= floor
    except scipy.linalg.LinAlgError:
        pass
    phi = ms.dense_map(mat, (4, 4, 4))
    factor = phi._cholesky()
    assert factor.flags.f_contiguous
    assert np.all(np.tril(factor, -1) == 0)
    np.testing.assert_allclose(factor.T @ factor, gram, atol=1e-14)
    x = rng.standard_normal((4, 4, 4))
    back = ms.pinv_apply(phi, ms.apply(phi, x))
    # a backward-stable solve errs by about cond(phi) * eps = 2.2e-9
    bound = 10 * 1e7 * np.finfo(np.float64).eps
    assert np.linalg.norm(back - x) <= bound * np.linalg.norm(x)


def test_dense_map_with_more_rows_than_entries_is_rank_deficient():
    # m > N rows are dependent however they are drawn, Gram or QR
    phi = ms.gaussian_ensemble(40, (2, 3, 4), seed=311)
    with pytest.raises(RankDeficientMap):
        ms.pinv_apply(phi, np.ones(40))


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


def test_dense_factor_is_built_in_the_gram_buffer():
    # potrf overwrites the Gram with U in place: the factorization holds one
    # m x m array (8 m^2 bytes), not a copy of it and a separate output
    phi = ms.gaussian_ensemble(512, (16, 16, 4), seed=23)
    m = phi.m
    tracemalloc.start()
    try:
        chol = phi._cholesky()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * m * m, peak / (8 * m * m)
    assert chol.flags.f_contiguous
    assert np.all(np.tril(chol, -1) == 0)
    np.testing.assert_allclose(chol.T @ chol, phi.matrix @ phi.matrix.T, atol=1e-12)


def _assert_close_to_rounding(got, want):
    # entries near zero carry the rounding of the whole vector
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_dense_solves_match_the_per_call_factor_solve():
    # the cached factor gives bit for bit what factoring the Gram with scipy
    # and solving with that upper factor on every call gives
    rng = np.random.default_rng(309)
    dims = (8, 8, 4)
    phi = ms.gaussian_ensemble(128, dims, seed=19)
    gram = phi.matrix @ phi.matrix.T
    upper = scipy.linalg.cholesky(gram)
    # numpy's lower factor gives the same solves to rounding
    lower = np.linalg.cholesky(gram)
    for _ in range(3):
        b = rng.standard_normal(phi.m)
        got = ms.pinv_apply(phi, b)
        half = scipy.linalg.solve_triangular(upper, b, trans="T")
        back = scipy.linalg.solve_triangular(upper, half)
        np.testing.assert_array_equal(got, (phi.matrix.T @ back).reshape(dims, order="F"))
        half = scipy.linalg.solve_triangular(lower, b, lower=True)
        back = scipy.linalg.solve_triangular(lower, half, lower=True, trans="T")
        _assert_close_to_rounding(got, (phi.matrix.T @ back).reshape(dims, order="F"))
        for v in (b, rng.standard_normal((phi.m, 3))):
            got = ms.whiten(phi, v)
            np.testing.assert_array_equal(
                got, scipy.linalg.solve_triangular(upper, v, trans="T"))
            _assert_close_to_rounding(got, scipy.linalg.solve_triangular(lower, v, lower=True))


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


def test_backproject_is_the_adjoint_of_whitened_measurement():
    # <backproject(w), x> over tensors equals <w, whiten(apply(x))>
    rng = np.random.default_rng(331)
    dims = (5, 4, 3)
    for phi in (
        ms.gaussian_ensemble(30, dims, seed=331),
        ms.rademacher_ensemble(45, dims, seed=331),
        ms.sampling_map(ms.random_mask(dims, 0.5, seed=331)),
    ):
        for _ in range(5):
            w = rng.standard_normal(phi.m)
            x = rng.standard_normal(dims)
            back = ms.backproject(phi, w)
            assert back.shape == dims and back.flags.f_contiguous
            lhs = float(np.sum(back * x))
            rhs = float(w @ ms.whiten(phi, ms.apply(phi, x)))
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_preimages_and_atoms_stay_in_storage_order(tmp_path):
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
    # so are the tensors built from a half spectrum, whatever the input's order
    for a in (residual, np.ascontiguousarray(residual)):
        assert tprod(a, np.ascontiguousarray(a[:5, :, :])).flags.f_contiguous
        factors = truncated_tsvd(a, 3)
        assert all(t.flags.f_contiguous for t in (factors.u, factors.s, factors.v))
    probe = sample_rank_r_unit(dims, 2, rng)
    assert probe.shape == dims and probe.flags.f_contiguous
    write_t3b(tmp_path / "a.t3b", np.ascontiguousarray(residual))
    back = read_t3b(tmp_path / "a.t3b")
    assert back.flags.f_contiguous and back.flags.writeable
    np.testing.assert_array_equal(back, residual)


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy serves only the dense factor and solves, and loads on the first
    # factorization: not with the package, not when a dense map is built and
    # not anywhere in completion from sampled entries
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import tpursuit\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded with tpursuit'\n"
        "dims = (3, 3, 2)\n"
        "y = tpursuit.sample_rank_r_unit(dims, 1, np.random.default_rng(1))\n"
        "phi = tpursuit.sampling_map(tpursuit.random_mask(dims, 0.3, seed=1))\n"
        "b = tpursuit.apply(phi, y)\n"
        "yhat = tpursuit.run(b, phi, tpursuit.PursuitConfig(r=1)).yhat\n"
        "tpursuit.refine(b, phi, yhat, 1)\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by completion'\n"
        "phi = tpursuit.gaussian_ensemble(12, dims, seed=1)\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by building a dense map'\n"
        "phi._cholesky()\n"
        "assert 'scipy' in sys.modules\n"
        "b = np.arange(1.0, 13.0)\n"
        "assert np.allclose(tpursuit.apply(phi, tpursuit.pinv_apply(phi, b)), b)\n"
    )
    src = str(Path(ms.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
