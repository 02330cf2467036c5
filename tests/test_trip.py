"""Unit tests for the empirical restricted isometry study."""

import csv

import numpy as np
import pytest

from oracles import conj_transpose
from tpursuit import trip
from tpursuit.errors import RankOutOfRange
from tpursuit.measure import apply, dense_map, gaussian_ensemble, random_mask, sampling_map
from tpursuit.tensor import frobenius_norm, tprod
from tpursuit.tsvd import tubal_rank


def _reference_probe(dims, r, rng):
    # one probe at a time, as the definition reads: QR of a Gaussian block
    # in each leading DFT slice for U and for V, Gaussian singular tubes,
    # then U * S * V^T by two tensor products, normalized
    n1, n2, n3 = dims

    def lateral(n):
        gh = np.fft.rfft(rng.standard_normal((n, r, n3)), axis=2)
        qs = np.empty_like(gh)
        for k in range(gh.shape[2]):
            qs[:, :, k] = np.linalg.qr(gh[:, :, k])[0]
        return np.fft.irfft(qs, n=n3, axis=2)

    u = lateral(n1)
    v = lateral(n2)
    s = np.zeros((r, r, n3))
    s[np.arange(r), np.arange(r), :] = rng.standard_normal((r, n3))
    x = tprod(tprod(u, s), conj_transpose(v))
    return x / frobenius_norm(x)


# n3 odd, even and 1, ranks 1 to min(n1, n2)
PROBE_SHAPES = [((6, 7, 5), 3), ((8, 8, 4), 2), ((5, 4, 1), 2), ((3, 9, 6), 1), ((4, 4, 2), 4)]


@pytest.mark.parametrize("dims,r", PROBE_SHAPES)
def test_probe_blocks_match_the_per_probe_construction(dims, r):
    rng = np.random.default_rng(504)
    got = trip._sample_probes(dims, r, 7, rng)
    ref_rng = np.random.default_rng(504)
    want = np.stack([_reference_probe(dims, r, ref_rng) for _ in range(7)])
    assert got.shape == (7,) + dims
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    # both leave the generator in the same state
    np.testing.assert_array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))
    single_rng = np.random.default_rng(504)
    one = trip.sample_rank_r_unit(dims, r, single_rng)
    np.testing.assert_allclose(one, want[0], rtol=0, atol=1e-13)
    assert one.flags.c_contiguous


@pytest.mark.parametrize("dims,r", PROBE_SHAPES)
def test_empirical_delta_is_the_worst_per_probe_distortion(dims, r, monkeypatch):
    n = dims[0] * dims[1] * dims[2]
    maps = (
        gaussian_ensemble(max(1, n // 2), dims, seed=41),
        sampling_map(random_mask(dims, 0.3, seed=41)),
    )
    default_entries = trip.PROBE_BLOCK_ENTRIES
    for phi in maps:
        ref_rng = np.random.default_rng(505)
        measured = [apply(phi, _reference_probe(dims, r, ref_rng)) for _ in range(10)]
        want = max(abs(float(bx @ bx) - 1.0) for bx in measured)
        # one block of everything, and blocks of 3 probes so the last is short
        for entries in (default_entries, 3 * max(n, phi.m)):
            monkeypatch.setattr(trip, "PROBE_BLOCK_ENTRIES", entries)
            rng = np.random.default_rng(505)
            got = trip.empirical_delta(phi, dims, r, 10, rng)
            assert abs(got - want) <= 1e-12 * max(1.0, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_probes_have_unit_norm_and_requested_rank():
    rng = np.random.default_rng(501)
    for r in (1, 2, 3):
        for _ in range(5):
            x = trip.sample_rank_r_unit((6, 7, 4), r, rng)
            assert abs(frobenius_norm(x) - 1.0) <= 1e-12
            assert tubal_rank(x) == r


def test_probe_stream_is_deterministic():
    a = trip.sample_rank_r_unit((5, 5, 3), 2, np.random.default_rng(77))
    b = trip.sample_rank_r_unit((5, 5, 3), 2, np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)


def test_probe_rank_bounds():
    rng = np.random.default_rng(502)
    with pytest.raises(RankOutOfRange):
        trip.sample_rank_r_unit((3, 4, 2), 4, rng)
    with pytest.raises(RankOutOfRange):
        trip.sample_rank_r_unit((3, 4, 2), 0, rng)


def test_empirical_delta_on_isometries():
    dims = (3, 3, 2)
    n = 18
    eye = dense_map(np.eye(n), dims)
    rng = np.random.default_rng(503)
    assert trip.empirical_delta(eye, dims, 2, 20, rng) <= 1e-10
    doubled = dense_map(2.0 * np.eye(n), dims)
    rng = np.random.default_rng(503)
    delta = trip.empirical_delta(doubled, dims, 2, 20, rng)
    assert abs(delta - 3.0) <= 1e-10


def test_scaling_study_rows_and_determinism():
    cfg = trip.TripStudyConfig(
        dims=(4, 4, 2), r=1, m_grid=(8, 16), n_samples=5, trials=3, seed=12
    )
    rows1 = trip.scaling_study(cfg)
    rows2 = trip.scaling_study(cfg)
    assert [r.m for r in rows1] == [8, 16]
    for a, b in zip(rows1, rows2):
        assert a == b
    for row in rows1:
        assert 0.0 <= row.delta_q1 <= row.delta_median <= row.delta_q3
        assert row.trials == 3 and row.samples == 5


def test_scaling_study_median_falls_with_more_measurements():
    cfg = trip.TripStudyConfig(
        dims=(4, 4, 2), r=1, m_grid=(8, 16, 32, 64), n_samples=20, trials=5, seed=3
    )
    rows = trip.scaling_study(cfg)
    assert rows[-1].delta_median < rows[0].delta_median


def test_study_config_validation():
    with pytest.raises(RankOutOfRange):
        trip.TripStudyConfig(dims=(3, 3, 2), r=4, m_grid=(8,))
    with pytest.raises(ValueError):
        trip.TripStudyConfig(dims=(3, 3, 2), r=1, m_grid=())
    with pytest.raises(ValueError):
        trip.TripStudyConfig(dims=(3, 3, 2), r=1, m_grid=(8,), n_samples=0)
    with pytest.raises(ValueError):
        trip.TripStudyConfig(dims=(3, 3, 2), r=1, m_grid=(8,), ensemble="uniform")


def test_study_csv_format(tmp_path):
    cfg = trip.TripStudyConfig(
        dims=(4, 4, 2), r=1, m_grid=(8, 16), n_samples=4, trials=2, seed=4
    )
    rows = trip.scaling_study(cfg)
    path = tmp_path / "study.csv"
    trip.write_study_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert tuple(parsed[0]) == trip.STUDY_HEADER
    assert len(parsed) == 1 + len(rows)
    for raw, row in zip(parsed[1:], rows):
        assert int(raw[0]) == row.m
        assert float(raw[1]) == row.delta_median
        assert float(raw[2]) == row.delta_q1
        assert float(raw[3]) == row.delta_q3
        assert int(raw[4]) == row.trials
        assert int(raw[5]) == row.samples
