"""Unit tests for the tubal tensor algebra in tpursuit.tensor."""

import struct

import numpy as np
import pytest

from oracles import (bcirc, bdiag, conj_transpose, fft3, fold, identity_tensor,
                     inner, is_orthogonal, unfold)
from tpursuit import tensor as tt
from tpursuit.errors import FileFormatError, ShapeMismatch


def dft_matrix(n):
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n)


def random_tensor(rng, max_dim=5):
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(3))
    return rng.standard_normal(dims)


def test_as_tensor3_validation():
    a = tt.as_tensor3([[[1, 2], [3, 4]]])
    assert a.dtype == np.float64 and a.shape == (1, 2, 2)
    with pytest.raises(ShapeMismatch):
        tt.as_tensor3(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        tt.as_tensor3(np.full((2, 2, 2), np.nan))


def test_fft3_matches_dft_matrix():
    # oracle: every tube transforms by the explicit DFT matrix
    rng = np.random.default_rng(101)
    for _ in range(25):
        a = random_tensor(rng)
        n3 = a.shape[2]
        w = dft_matrix(n3)
        ah = fft3(a)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                np.testing.assert_allclose(
                    ah.slices[i, j, :], w @ a[i, j, :], atol=1e-12
                )


def test_unfold_layout_hand_enumerated():
    a = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                a[i, j, k] = 100 * i + 10 * j + k
    expected = np.array([
        [0.0, 10.0],
        [100.0, 110.0],
        [1.0, 11.0],
        [101.0, 111.0],
    ])
    np.testing.assert_array_equal(unfold(a), expected)


def test_fold_inverts_unfold():
    rng = np.random.default_rng(104)
    for _ in range(20):
        a = random_tensor(rng, max_dim=6)
        np.testing.assert_array_equal(fold(unfold(a), a.shape[2]), a)
    with pytest.raises(ShapeMismatch):
        fold(np.zeros((5, 2)), 3)


def test_bcirc_block_layout():
    rng = np.random.default_rng(105)
    a = rng.standard_normal((2, 3, 4))
    c = bcirc(a)
    n1, n2, n3 = a.shape
    assert c.shape == (n1 * n3, n2 * n3)
    for bi in range(n3):
        for bj in range(n3):
            block = c[bi * n1:(bi + 1) * n1, bj * n2:(bj + 1) * n2]
            np.testing.assert_array_equal(block, a[:, :, (bi - bj) % n3])


def test_bcirc_and_bdiag_guard_materialization():
    big = np.zeros((9, 9, 9))
    with pytest.raises(ValueError):
        bcirc(big)
    with pytest.raises(ValueError):
        bdiag(fft3(big))


def test_block_circulant_diagonalized_by_dft():
    # (F kron I) bcirc(a) (F^-1 kron I) equals the block-diagonal spectrum
    rng = np.random.default_rng(106)
    for _ in range(25):
        a = random_tensor(rng, max_dim=4)
        n1, n2, n3 = a.shape
        f = dft_matrix(n3)
        finv = f.conj().T / n3
        lhs = np.kron(f, np.eye(n1)) @ bcirc(a) @ np.kron(finv, np.eye(n2))
        rhs = bdiag(fft3(a))
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_tprod_matches_block_circulant_oracle():
    rng = np.random.default_rng(107)
    for _ in range(40):
        n1, n2, n3 = (int(rng.integers(1, 6)) for _ in range(3))
        l = int(rng.integers(1, 6))
        a = rng.standard_normal((n1, n2, n3))
        b = rng.standard_normal((n2, l, n3))
        want = fold(bcirc(a) @ unfold(b), n3)
        got = tt.tprod(a, b)
        scale = max(1.0, tt.frobenius_norm(want))
        assert tt.frobenius_norm(got - want) <= 1e-10 * scale


def test_tprod_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        tt.tprod(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
    with pytest.raises(ShapeMismatch):
        tt.tprod(np.zeros((2, 3, 4)), np.zeros((3, 2, 5)))


def test_identity_tensor_is_neutral():
    rng = np.random.default_rng(108)
    for _ in range(10):
        a = random_tensor(rng, max_dim=6)
        n1, n2, n3 = a.shape
        left = tt.tprod(identity_tensor(n1, n3), a)
        right = tt.tprod(a, identity_tensor(n2, n3))
        np.testing.assert_allclose(left, a, atol=1e-12)
        np.testing.assert_allclose(right, a, atol=1e-12)


def test_tprod_associativity():
    rng = np.random.default_rng(109)
    for _ in range(10):
        n3 = int(rng.integers(1, 5))
        a = rng.standard_normal((3, 4, n3))
        b = rng.standard_normal((4, 2, n3))
        c = rng.standard_normal((2, 5, n3))
        ab_c = tt.tprod(tt.tprod(a, b), c)
        a_bc = tt.tprod(a, tt.tprod(b, c))
        np.testing.assert_allclose(ab_c, a_bc, atol=1e-10)


def test_conj_transpose_involution_and_product_rule():
    rng = np.random.default_rng(110)
    for _ in range(15):
        n3 = int(rng.integers(1, 6))
        a = rng.standard_normal((3, 4, n3))
        b = rng.standard_normal((4, 2, n3))
        np.testing.assert_array_equal(conj_transpose(conj_transpose(a)), a)
        lhs = conj_transpose(tt.tprod(a, b))
        rhs = tt.tprod(conj_transpose(b), conj_transpose(a))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_conj_transpose_matches_bcirc_transpose():
    # transposing the block circulant is the same as circulating the transpose
    rng = np.random.default_rng(111)
    for _ in range(10):
        a = random_tensor(rng, max_dim=4)
        np.testing.assert_allclose(
            bcirc(conj_transpose(a)), bcirc(a).T, atol=1e-12
        )


def test_frobenius_norm_matches_spectrum_scaling():
    rng = np.random.default_rng(112)
    for _ in range(20):
        a = random_tensor(rng, max_dim=4)
        n3 = a.shape[2]
        spec = np.linalg.norm(bdiag(fft3(a)))
        assert abs(tt.frobenius_norm(a) - spec / np.sqrt(n3)) <= 1e-10 * max(1.0, spec)


def test_inner_matches_spectrum():
    rng = np.random.default_rng(113)
    for _ in range(20):
        a = random_tensor(rng, max_dim=4)
        b = rng.standard_normal(a.shape)
        ah = fft3(a).slices
        bh = fft3(b).slices
        spec = float(np.real(np.vdot(ah, bh))) / a.shape[2]
        assert abs(inner(a, b) - spec) <= 1e-10 * max(1.0, abs(spec))


def test_inner_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        inner(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_is_orthogonal():
    rng = np.random.default_rng(115)
    a = rng.standard_normal((6, 3, 4))
    from tpursuit.tsvd import tsvd

    q = tsvd(a).u
    assert is_orthogonal(q)
    assert not is_orthogonal(2.0 * q)
    assert is_orthogonal(identity_tensor(4, 3))


def test_t3b_round_trip(tmp_path):
    rng = np.random.default_rng(116)
    a = rng.standard_normal((3, 4, 5))
    path = tmp_path / "a.t3b"
    tt.write_t3b(path, a)
    back = tt.read_t3b(path)
    np.testing.assert_array_equal(back, a)


def test_t3b_layout_offsets(tmp_path):
    # entry (i, j, k) sits at payload offset k*n1*n2 + j*n1 + i
    rng = np.random.default_rng(117)
    a = rng.standard_normal((2, 3, 4))
    path = tmp_path / "a.t3b"
    tt.write_t3b(path, a)
    blob = path.read_bytes()
    assert blob[:4] == tt.T3B_MAGIC
    assert struct.unpack("<3I", blob[4:16]) == (2, 3, 4)
    payload = np.frombuffer(blob, dtype="<f8", offset=16)
    n1, n2, _ = a.shape
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert payload[k * n1 * n2 + j * n1 + i] == a[i, j, k]


def test_t3b_rejects_corrupt_files(tmp_path):
    good = tmp_path / "good.t3b"
    tt.write_t3b(good, np.ones((2, 2, 2)))
    blob = good.read_bytes()

    bad_magic = tmp_path / "magic.t3b"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FileFormatError):
        tt.read_t3b(bad_magic)

    truncated = tmp_path / "short.t3b"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError):
        tt.read_t3b(truncated)

    zero_dim = tmp_path / "zero.t3b"
    zero_dim.write_bytes(blob[:4] + struct.pack("<3I", 2, 0, 2) + blob[16:])
    with pytest.raises(FileFormatError):
        tt.read_t3b(zero_dim)

    nonfinite = tmp_path / "nan.t3b"
    payload = np.full(8, np.nan).astype("<f8").tobytes()
    nonfinite.write_bytes(blob[:16] + payload)
    with pytest.raises(FileFormatError):
        tt.read_t3b(nonfinite)
