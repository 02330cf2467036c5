"""Unit tests for the greedy rank-one pursuit loop and its weight solvers."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import inner
from tpursuit import pursuit as pu
from tpursuit.cli import METRICS_HEADER, write_metrics_csv
from tpursuit.errors import DivergenceDetected, NumericalFailure, RankOutOfRange
from tpursuit.measure import (
    SamplingMap,
    SamplingMask,
    _vec,
    apply,
    gaussian_ensemble,
    pinv_apply,
    random_mask,
    sampling_map,
    whiten,
)
from tpursuit.tensor import frobenius_norm
from tpursuit.trip import sample_rank_r_unit
from tpursuit.tsvd import leading_atoms, tubal_rank


def full_map(dims, seed=0):
    return sampling_map(random_mask(dims, 0.0, seed=seed))


def tensor_objective(phi, atoms, theta, r0):
    est = np.zeros(phi.dims)
    for t, at in zip(theta, atoms):
        est += t * pinv_apply(phi, apply(phi, at.atom))
    return frobenius_norm(est - r0)


def test_solve_weights_full_matches_dense_oracle():
    # whitened least squares must reach the tensor-space optimum
    rng = np.random.default_rng(401)
    dims = (5, 5, 3)
    for phi in (
        sampling_map(random_mask(dims, 0.5, seed=17)),
        gaussian_ensemble(30, dims, seed=17),
    ):
        y = sample_rank_r_unit(dims, 3, rng)
        b = apply(phi, y)
        r0 = pinv_apply(phi, b)
        atoms = leading_atoms(r0, 3)
        wcolumns = whiten(phi, pu.measured_columns(phi, atoms))
        theta, _ = pu.solve_weights_full(pu.ThinQR(whiten(phi, b), 3), wcolumns)
        cols = np.column_stack(
            [pinv_apply(phi, apply(phi, at.atom)).ravel() for at in atoms]
        )
        oracle = np.linalg.lstsq(cols, r0.ravel(), rcond=None)[0]
        got = tensor_objective(phi, atoms, theta, r0)
        want = tensor_objective(phi, atoms, oracle, r0)
        assert got <= want + 1e-8 * max(1.0, want)
        np.testing.assert_allclose(theta, oracle, atol=1e-8)


def refit_columns(phi, seed):
    """Whitened images of six atoms, two per batch; column 4 is a
    combination of columns 0-3 up to a relative 1e-14."""
    rng = np.random.default_rng(seed)
    atoms = leading_atoms(rng.standard_normal(phi.dims), 6)
    wcols = whiten(phi, pu.measured_columns(phi, atoms))
    dep = wcols[:, :4] @ rng.standard_normal(4)
    noise = rng.standard_normal(phi.m)
    wcols[:, 4] = dep + 1e-14 * np.linalg.norm(dep) * noise / np.linalg.norm(noise)
    return wcols, whiten(phi, apply(phi, rng.standard_normal(phi.dims)))


def assert_matches_lstsq(weights, wfit, block, wb):
    # lstsq's default cutoff eps * max(m, k) drops the nearly dependent
    # direction at m >= 576; a k x k solve at numpy's default eps * k would
    # keep it and return weights of order 1e14
    want = np.linalg.lstsq(block, wb, rcond=None)[0]
    assert np.linalg.norm(weights - want) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.norm(wfit - block @ want) <= 1e-10 * np.linalg.norm(block @ want)


@pytest.mark.parametrize("kind", ["sampling", "gaussian"])
def test_incremental_refit_matches_lstsq_on_the_whole_block(kind):
    phi = (sampling_map(random_mask((12, 12, 8), 0.5, seed=31)) if kind == "sampling"
           else gaussian_ensemble(600, (10, 10, 8), seed=31))
    assert phi.m >= 576
    wcols, wb = refit_columns(phi, 32)
    factor = pu.ThinQR(wb, 6)
    for k in (2, 4, 6):
        weights, wfit = pu.solve_weights_full(factor, wcols[:, k - 2:k])
        assert_matches_lstsq(weights, wfit, wcols[:, :k], wb)
    # the economic block [previous fit, new batch] with its first column at
    # unit norm; the last column is nearly the fit plus the first new one
    wfit = np.zeros(phi.m)
    unit = wcols[:, 5] / np.linalg.norm(wcols[:, 5])
    for k in (2, 4, 6):
        batch = wcols[:, k - 2:k].copy()
        if k == 6:
            batch[:, 1] = wfit + batch[:, 0] + 1e-14 * np.linalg.norm(wfit) * unit
        scale = np.linalg.norm(wfit) or 1.0
        block = np.column_stack([wfit / scale, batch])
        weights, new_fit = pu.solve_weights_economic(wfit, batch, wb)
        weights[0] *= scale
        assert_matches_lstsq(weights, new_fit, block, wb)
        wfit = new_fit


def assert_orthonormal_factor(factor, block):
    qt = factor.qt
    k = qt.shape[0]
    assert np.abs(qt @ qt.T - np.eye(k)).max() <= 1e-13
    assert np.linalg.norm(block - qt.T @ factor.r) <= 1e-13 * np.linalg.norm(block)


def count_sums_over_rows(monkeypatch, m):
    """The list to which each frobenius_norm over m entries in pursuit adds one."""
    sums = []

    def counted(x):
        if np.size(x) == m:
            sums.append(x)
        return frobenius_norm(x)
    monkeypatch.setattr(pu, "frobenius_norm", counted)
    return sums


def test_random_columns_take_one_gram_schmidt_pass(monkeypatch):
    m = 100_003
    block = np.random.default_rng(77).standard_normal((m, 8))
    factor = pu.ThinQR(np.zeros(m), 8)
    sums = count_sums_over_rows(monkeypatch, m)
    for k in range(0, 8, 2):
        factor.append(block[:, k:k + 2])
    # one norm of the row per column, after its one pass
    assert len(sums) == 8
    assert_orthonormal_factor(factor, block)


def near_span_factor(m, share_outside, seed):
    """A ThinQR over 6 random columns plus one column of norm 3 whose part
    outside their span is share_outside of its norm."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((m, 7))
    inside = block[:, :6] @ rng.standard_normal(6)
    outside = block[:, 6] - block[:, :6] @ np.linalg.lstsq(block[:, :6], block[:, 6], rcond=None)[0]
    block[:, 6] = 3.0 * (math.sqrt(1.0 - share_outside ** 2) * inside / np.linalg.norm(inside)
                         + share_outside * outside / np.linalg.norm(outside))
    factor = pu.ThinQR(np.zeros(m), 7)
    factor.append(block[:, :6])
    return factor, block


def test_a_row_mostly_inside_the_span_takes_a_second_pass(monkeypatch):
    # all but 0.1% of the row's norm lies in the span, so one classical
    # Gram-Schmidt pass leaves it orthogonal to about 5e-12 only
    factor, block = near_span_factor(100_003, 1e-3, seed=78)
    sums = count_sums_over_rows(monkeypatch, block.shape[0])
    factor.append(block[:, 6:])
    assert_orthonormal_factor(factor, block)
    assert factor.r[6, 6] == pytest.approx(3e-3, rel=1e-6)
    assert len(sums) == 2


@pytest.mark.parametrize("m, dropped", [(4099, 2), (3, 3)])
def test_a_row_without_a_new_direction_drops_with_a_zero_diagonal(m, dropped):
    # a zero row at m = 4099, and at m = 3 a row once the factor spans R^3
    block = np.random.default_rng(79).standard_normal((m, 4))
    if dropped == 2:
        block[:, 2] = 0.0
    factor = pu.ThinQR(np.zeros(m), 4)
    factor.append(block[:, :3])
    factor.append(block[:, 3:])
    assert factor.r[dropped, dropped] == 0.0
    assert not factor.qt[dropped].any()
    # the other rows stay orthonormal, and W = QR still holds
    kept = np.delete(factor.qt, dropped, axis=0)
    assert np.abs(kept @ kept.T - np.eye(3)).max() <= 1e-13
    assert np.linalg.norm(block - factor.qt.T @ factor.r) <= 1e-13 * np.linalg.norm(block)


def test_single_atom_weight_under_full_observation():
    rng = np.random.default_rng(402)
    dims = (4, 4, 3)
    phi = full_map(dims)
    y = rng.standard_normal(dims)
    b = apply(phi, y)
    atoms = leading_atoms(y, 1)
    theta, _ = pu.solve_weights_full(pu.ThinQR(b, 1), pu.measured_columns(phi, atoms))
    # unit atom, identity map: optimal weight is the plain inner product
    assert abs(theta[0] - inner(atoms[0].atom, y)) <= 1e-10 * abs(theta[0])
    assert abs(theta[0] - atoms[0].tube_norm) <= 1e-8 * abs(theta[0])


def test_variants_agree_on_first_iteration():
    rng = np.random.default_rng(403)
    for trial in range(8):
        dims = (6, 5, 3)
        y = sample_rank_r_unit(dims, 3, np.random.default_rng(500 + trial))
        phi = sampling_map(random_mask(dims, 0.4, seed=trial))
        b = apply(phi, y)
        res_s = pu.run(b, phi, pu.PursuitConfig(r=1, s=1, variant="standard"))
        res_e = pu.run(b, phi, pu.PursuitConfig(r=1, s=1, variant="economic"))
        assert abs(res_s.residual_norms[1] - res_e.residual_norms[1]) <= 1e-10
        np.testing.assert_allclose(res_s.yhat, res_e.yhat, atol=1e-8)


def test_full_refit_never_loses_to_running_rescale():
    # fed the same state, the full solve optimizes over a superset
    rng = np.random.default_rng(404)
    for trial in range(6):
        dims = (6, 6, 3)
        y = sample_rank_r_unit(dims, 4, np.random.default_rng(600 + trial))
        phi = sampling_map(random_mask(dims, 0.45, seed=trial))
        b = apply(phi, y)
        r0 = pinv_apply(phi, b)
        wb = whiten(phi, b)
        fit = np.zeros(phi.m)
        collected = []
        for _ in range(4):
            atoms = leading_atoms(r0 - pinv_apply(phi, fit), 1)
            if not atoms:
                break
            block = np.column_stack([fit, pu.measured_columns(phi, atoms)])
            wblock = whiten(phi, block)
            alpha, _ = pu.solve_weights_economic(wblock[:, 0], wblock[:, 1:], wb)
            collected.extend(atoms)
            theta, _ = pu.solve_weights_full(
                pu.ThinQR(wb, len(collected)), whiten(phi, pu.measured_columns(phi, collected)))
            fit = block @ alpha
            econ = frobenius_norm(pinv_apply(phi, fit) - r0)
            full = tensor_objective(phi, collected, theta, r0)
            assert full <= econ + 1e-10 * max(1.0, econ)


def test_zero_measurements_short_circuit():
    dims = (4, 4, 2)
    phi = sampling_map(random_mask(dims, 0.5, seed=1))
    res = pu.run(np.zeros(phi.m), phi, pu.PursuitConfig(r=2))
    assert res.iterations == 0
    assert res.converged
    np.testing.assert_array_equal(res.yhat, np.zeros(dims))


def test_full_observation_recovers_exactly():
    rng = np.random.default_rng(405)
    dims = (8, 7, 4)
    for variant in ("standard", "economic"):
        for r, s in ((3, 1), (4, 2), (3, 3)):
            y = sample_rank_r_unit(dims, r, rng)
            phi = full_map(dims)
            b = apply(phi, y)
            res = pu.run(b, phi, pu.PursuitConfig(r=r, s=s, variant=variant))
            rel = frobenius_norm(res.yhat - y) / frobenius_norm(y)
            assert rel <= 1e-6, (variant, r, s, rel)
            assert res.iterations == math.ceil(r / s)


def test_run_stops_at_rank_r_with_a_short_last_batch():
    # r = 5, s = 2: batches of 2, 2 and 1 atoms, and no iteration after them
    dims = (8, 7, 4)
    y = np.random.default_rng(407).standard_normal(dims)
    phi = sampling_map(random_mask(dims, 0.5, seed=407))
    for variant in ("standard", "economic"):
        res = pu.run(apply(phi, y), phi, pu.PursuitConfig(r=5, s=2, variant=variant))
        assert res.iterations == 3
        assert tubal_rank(res.yhat) == 5
        assert not res.converged


def _run_and_dense_reference(monkeypatch, b, phi, cfg):
    """run's result and the sum of the dense atoms it peeled with its final
    weights, recorded at the leading_atoms and refit call sites."""
    batches, refits = [], []

    def record_atoms(a, s):
        batches.append(leading_atoms(a, s))
        return batches[-1]

    solve = pu.solve_weights_full if cfg.variant == "standard" else pu.solve_weights_economic

    def record_weights(*args):
        out = solve(*args)
        refits.append(out[0].copy())
        return out

    monkeypatch.setattr(pu, "leading_atoms", record_atoms)
    monkeypatch.setattr(pu, solve.__name__, record_weights)
    result = pu.run(b, phi, cfg)
    monkeypatch.undo()
    coeffs = np.zeros(0)
    for weights in refits:
        # the economic weights rescale the previous estimate, then add the batch
        coeffs = weights if cfg.variant == "standard" else np.concatenate(
            [weights[0] * coeffs, weights[1:]])
    want = np.zeros(phi.dims)
    for c, at in zip(coeffs, [at for batch in batches for at in batch]):
        want += c * at.atom
    return result, want


@pytest.mark.parametrize("variant", ["standard", "economic"])
def test_yhat_is_the_weighted_sum_of_the_dense_atoms(variant, monkeypatch):
    # run keeps only each atom's factors and builds yhat by one t-product; it
    # equals the sum of the dense atoms, with a ragged last batch (r = 5,
    # s = 2), on a sampling and a dense map, on a short and a long tube, and
    # after an early stop
    cfg = pu.PursuitConfig(r=5, s=2, variant=variant)
    for dims in ((8, 7, 4), (8, 7, 64)):
        y = np.random.default_rng(409).standard_normal(dims)
        for phi in (sampling_map(random_mask(dims, 0.5, seed=409)),
                    gaussian_ensemble(150, dims, seed=409)):
            result, want = _run_and_dense_reference(monkeypatch, apply(phi, y), phi, cfg)
            assert result.iterations == 3
            assert frobenius_norm(result.yhat - want) <= 1e-12 * frobenius_norm(want)
            assert result.yhat.flags.f_contiguous
    # one observed nonzero entry: the first atom fits it exactly, the
    # residual reaches zero and the run stops after one iteration
    dims = (8, 7, 4)
    phi = sampling_map(random_mask(dims, 0.5, seed=410))
    spike = np.zeros(phi.n)
    spike[phi.mask.indices[5]] = 3.0
    spike = spike.reshape(dims, order="F")
    result, want = _run_and_dense_reference(monkeypatch, apply(phi, spike), phi, cfg)
    assert result.converged and result.iterations == 1
    assert frobenius_norm(result.yhat - want) <= 1e-12 * frobenius_norm(want)


def _traced_peak(b, phi, cfg) -> int:
    tracemalloc.start()
    try:
        result = pu.run(b, phi, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == math.ceil(cfg.r / cfg.s)
    return peak


def test_run_memory_does_not_grow_by_a_dense_tensor_per_atom():
    # run keeps each atom's factors, not the atom: the economic working set
    # does not depend on r, and the standard one grows only by the refit's
    # Q' rows, 8 m bytes per atom
    dims = (64, 64, 8)
    y = sample_rank_r_unit(dims, 4, np.random.default_rng(411))
    phi = sampling_map(random_mask(dims, 0.5, seed=411))
    b = apply(phi, y)
    slack = 2**20
    peaks = {(variant, r): _traced_peak(b, phi, pu.PursuitConfig(r=r, s=2, variant=variant))
             for variant in ("standard", "economic") for r in (4, 16)}
    assert peaks["economic", 16] <= peaks["economic", 4] + slack, peaks
    assert peaks["standard", 16] <= peaks["standard", 4] + 8 * phi.m * 12 + slack, peaks


def test_economic_runs_build_no_rank_sized_factor(monkeypatch):
    # the economic refit factors its s + 1 columns afresh each iteration and
    # never reserves the standard refit's r rows
    capacities = []

    class Recording(pu.ThinQR):
        def __init__(self, wb, capacity):
            capacities.append(capacity)
            super().__init__(wb, capacity)

    monkeypatch.setattr(pu, "ThinQR", Recording)
    dims = (8, 7, 4)
    phi = sampling_map(random_mask(dims, 0.5, seed=412))
    b = apply(phi, np.random.default_rng(412).standard_normal(dims))
    pu.run(b, phi, pu.PursuitConfig(r=6, s=2, variant="economic"))
    assert capacities == [3, 3, 3]
    capacities.clear()
    pu.run(b, phi, pu.PursuitConfig(r=6, s=2, variant="standard"))
    assert capacities == [6]


def test_residuals_monotone_and_within_envelope():
    rng = np.random.default_rng(406)
    for trial in range(10):
        dims = (7, 6, 4)
        rank = int(rng.integers(1, 5))
        y = sample_rank_r_unit(dims, rank, np.random.default_rng(700 + trial))
        phi = sampling_map(random_mask(dims, float(rng.uniform(0.2, 0.7)), seed=trial))
        b = apply(phi, y)
        variant = "standard" if trial % 2 == 0 else "economic"
        res = pu.run(b, phi, pu.PursuitConfig(r=5, s=1, variant=variant))
        norms = res.residual_norms
        assert all(
            norms[i + 1] <= norms[i] + pu.RATE_SLACK * norms[0]
            for i in range(norms.size - 1)
        )
        assert pu.check_rate(res, norms[0])


def test_check_rate_flags_violations():
    fake = pu.PursuitResult(
        yhat=np.zeros((4, 4, 2)),
        residual_norms=np.array([1.0, 0.99]),
        iterations=1,
        converged=False,
    )
    # sqrt(1 - 1/4) ~ 0.866 < 0.99, so the envelope is broken
    assert not pu.check_rate(fake, 1.0)
    ok = pu.PursuitResult(
        yhat=np.zeros((4, 4, 2)),
        residual_norms=np.array([1.0, 0.5]),
        iterations=1,
        converged=False,
    )
    assert pu.check_rate(ok, 1.0)


def test_per_iteration_decrease_beats_leading_inner_product():
    # squared residual falls by at least the leading atom weight squared;
    # with s not dividing r the last batch takes only the atoms left, so
    # the estimate stays within tubal rank r
    for r, s in ((4, 2), (5, 2)):
        for trial in range(10):
            dims = (6, 6, 3)
            y = sample_rank_r_unit(dims, 3, np.random.default_rng(800 + trial))
            phi = sampling_map(random_mask(dims, 0.5, seed=trial))
            b = apply(phi, y)
            variant = "standard" if trial % 2 == 0 else "economic"
            res = pu.run(b, phi, pu.PursuitConfig(r=r, s=s, variant=variant))
            norms = res.residual_norms
            for rec in res.history:
                lhs = norms[rec.k] ** 2
                rhs = norms[rec.k - 1] ** 2 - rec.leading_inner**2
                assert lhs <= rhs + 1e-8 * norms[0] ** 2
            assert tubal_rank(res.yhat) <= r, (r, s, trial)


def test_residual_equals_measured_misfit():
    rng = np.random.default_rng(408)
    dims = (5, 5, 3)
    y = sample_rank_r_unit(dims, 2, rng)
    mask_phi = sampling_map(random_mask(dims, 0.4, seed=2))
    dense_phi = gaussian_ensemble(40, dims, seed=2)
    for phi in (mask_phi, dense_phi):
        b = apply(phi, y)
        for variant in ("standard", "economic"):
            res = pu.run(b, phi, pu.PursuitConfig(r=2, variant=variant))
            misfit = float(np.linalg.norm(whiten(phi, b - apply(phi, res.yhat))))
            assert abs(misfit - res.residual_norms[-1]) <= 1e-8 * max(1.0, misfit), variant


def test_run_rejects_oversized_batch():
    phi = full_map((3, 4, 2))
    with pytest.raises(RankOutOfRange):
        pu.run(np.zeros(phi.m), phi, pu.PursuitConfig(r=5, s=5))


def test_run_rejects_a_rank_above_min_n1_n2():
    for phi in (full_map((8, 8, 4)), gaussian_ensemble(200, (8, 8, 4), seed=3)):
        with pytest.raises(RankOutOfRange):
            pu.run(np.ones(phi.m), phi, pu.PursuitConfig(r=9))
    # the limit is the smaller of n1 and n2
    phi = full_map((3, 6, 2))
    with pytest.raises(RankOutOfRange):
        pu.run(np.ones(phi.m), phi, pu.PursuitConfig(r=4))
    assert pu.run(np.ones(phi.m), phi, pu.PursuitConfig(r=3)).iterations <= 3


def test_run_rejects_non_finite_measurements():
    for phi in (full_map((4, 4, 2)), gaussian_ensemble(20, (4, 4, 2), seed=3)):
        for bad in (np.nan, np.inf, -np.inf):
            b = np.ones(phi.m)
            b[phi.m // 2] = bad
            with pytest.raises(ValueError, match="finite"):
                pu.run(b, phi, pu.PursuitConfig(r=2))


def test_config_validation():
    with pytest.raises(RankOutOfRange):
        pu.PursuitConfig(r=0)
    with pytest.raises(ValueError):
        pu.PursuitConfig(r=2, s=3)
    with pytest.raises(ValueError):
        pu.PursuitConfig(r=2, s=0)
    with pytest.raises(ValueError):
        pu.PursuitConfig(r=2, variant="fast")


def test_divergence_detected_on_bad_weights():
    rng = np.random.default_rng(410)
    dims = (4, 4, 2)
    phi = full_map(dims)
    y = rng.standard_normal(dims)
    b = apply(phi, y)
    r0 = pinv_apply(phi, b)
    atoms = leading_atoms(r0, 1)
    weights = np.array([1e6])
    wfit = whiten(phi, pu.measured_columns(phi, atoms) @ weights)
    with pytest.raises(DivergenceDetected):
        pu.update_residual(phi, whiten(phi, b), wfit, [frobenius_norm(r0)], 1)


def test_update_residual_is_the_preimage_of_the_unwhitened_misfit():
    # backproject(wb - wfit) is pinv(b - L wfit) for phi phi' = L L',
    # without leaving whitened coordinates
    rng = np.random.default_rng(412)
    dims = (6, 5, 4)
    for phi in (gaussian_ensemble(70, dims, seed=412),
                sampling_map(random_mask(dims, 0.5, seed=412))):
        b = apply(phi, sample_rank_r_unit(dims, 2, rng))
        r0 = pinv_apply(phi, b)
        atoms = leading_atoms(r0, 2)
        wfit = whiten(phi, pu.measured_columns(phi, atoms) @ np.array([0.7, -0.2]))
        got = pu.update_residual(phi, whiten(phi, b), wfit, [frobenius_norm(r0)], 1)
        assert got.flags.f_contiguous
        if isinstance(phi, SamplingMap):
            np.testing.assert_array_equal(got, pinv_apply(phi, b - wfit))
        else:
            want = pinv_apply(phi, b - phi._cholesky().T @ wfit)
            assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)


def test_non_finite_norms_raise_numerical_failure():
    # b scaled by 1e300 has finite norms, though their plain sums of squares
    # overflow, so it runs to finite residual norms and a finite estimate
    rng = np.random.default_rng(411)
    dims = (8, 8, 4)
    phi = sampling_map(random_mask(dims, 0.5, seed=4))
    b = 1e300 * apply(phi, sample_rank_r_unit(dims, 2, rng))
    for variant in ("standard", "economic"):
        result = pu.run(b, phi, pu.PursuitConfig(r=3, variant=variant))
        assert np.all(np.isfinite(result.residual_norms)) and np.all(np.isfinite(result.yhat))
    # a refit that yields a non-finite residual norm
    phi = full_map((4, 4, 2))
    b = apply(phi, rng.standard_normal((4, 4, 2)))
    r0 = pinv_apply(phi, b)
    atoms = leading_atoms(r0, 1)
    for bad in (np.nan, np.inf):
        weights = np.array([bad])
        # a sampling map's whitened fit is its measured fit; whiten itself
        # refuses a non-finite vector
        wfit = pu.measured_columns(phi, atoms) @ weights
        with pytest.raises(NumericalFailure, match="residual norm"):
            pu.update_residual(phi, whiten(phi, b), wfit, [frobenius_norm(r0)], 1)


def test_relative_residuals_do_not_depend_on_the_scale_of_b():
    # the economic block mixes the previous fit (norm about ||b||) with
    # unit atoms; unless its first column is scaled, lstsq's cutoff drops
    # a direction once b is scaled far from 1 (DivergenceDetected at 1e-8,
    # a stall after iteration 1 at 1e8); at 1e300 the squares of the norms
    # overflow, and at 2**-530 they underflow, unless the norm rescales
    dims = (8, 8, 4)
    y = sample_rank_r_unit(dims, 2, np.random.default_rng(412))
    phi = sampling_map(random_mask(dims, 0.5, seed=5))
    b = apply(phi, y)
    for variant in ("standard", "economic"):
        cfg = pu.PursuitConfig(r=3, s=1, variant=variant)
        ref = pu.run(b, phi, cfg).residual_norms
        for scale in (2**-530, 1e-8, 1e-4, 1e8, 1e12, 1e150, 1e300):
            norms = pu.run(scale * b, phi, cfg).residual_norms
            np.testing.assert_allclose(norms / norms[0], ref / ref[0], rtol=0, atol=1e-10,
                                       err_msg=f"{variant} at scale {scale:g}")
    # refine's result scales with b and yhat, over the same range of scales;
    # it squares its misfit, so it rescales b and yhat by a power of two
    yhat = pu.run(b, phi, pu.PursuitConfig(r=2)).yhat
    ref = pu.refine(b, phi, yhat, 2)
    for scale in (2**-530, 1e-8, 1e-4, 1e8, 1e12, 1e150, 1e300):
        x = pu.refine(scale * b, phi, scale * yhat, 2)
        np.testing.assert_allclose(x / scale, ref, rtol=0, atol=1e-10 * np.abs(ref).max(),
                                   err_msg=f"refine at scale {scale:g}")


def test_metrics_csv_round_trip(tmp_path):
    rng = np.random.default_rng(411)
    dims = (5, 5, 3)
    y = sample_rank_r_unit(dims, 3, rng)
    phi = sampling_map(random_mask(dims, 0.3, seed=4))
    b = apply(phi, y)
    res = pu.run(b, phi, pu.PursuitConfig(r=3))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, res)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_HEADER
    assert len(rows) == 1 + len(res.history)
    for row, rec in zip(rows[1:], res.history):
        assert int(row[0]) == rec.k
        # %.17g preserves float64 exactly
        assert float(row[1]) == rec.residual_norm
        assert float(row[2]) == rec.rate_bound
        assert float(row[3]) == rec.elapsed_s * 1000.0
        assert float(row[3]) >= 0.0


def observed_misfit(phi, b, x):
    return frobenius_norm(b - apply(phi, x))


def test_refine_keeps_rank_and_never_raises_observed_residual(monkeypatch):
    dims = (10, 9, 4)
    base = random_mask(dims, 0.4, seed=5)
    masks = (
        random_mask(dims, 0.4, seed=3),
        random_mask(dims, 0.5, seed=4),
        # row 0 is never observed, so its least squares is underdetermined
        SamplingMask(dims, base.indices[base.indices % dims[0] != 0]),
    )
    for trial, mask in enumerate(masks):
        y = sample_rank_r_unit(dims, 3, np.random.default_rng(900 + trial))
        phi = sampling_map(mask)
        b = apply(phi, y)
        # inputs of tubal rank 1, 2 and 3 under a rank-3 refit
        cfg = pu.PursuitConfig(r=trial + 1, variant="economic")
        yhat = pu.run(b, phi, cfg).yhat
        start = observed_misfit(phi, b, yhat)
        x = pu.refine(b, phi, yhat, 3)
        assert tubal_rank(x) <= 3
        assert np.all(np.isfinite(x))
        assert observed_misfit(phi, b, x) <= start
        assert observed_misfit(phi, b, x) < 0.5 * start
        # the refinement capped at k iterations returns the best of its
        # first k iterates; only rounding in forming the tensor may show
        # between consecutive caps
        misfits = [start]
        for cap in range(1, 26):
            monkeypatch.setattr(pu, "REFINE_MAX_ITERS", cap)
            x = pu.refine(b, phi, yhat, 3)
            assert tubal_rank(x) <= 3
            misfits.append(observed_misfit(phi, b, x))
            assert misfits[-1] <= start
        monkeypatch.undo()
        assert all(m1 <= m0 + 1e-12 * start for m0, m1 in zip(misfits, misfits[1:])), misfits


def test_refine_returns_tensors_in_storage_order(monkeypatch):
    # like run's estimate, so apply vectorizes refine's output without a copy
    dims = (6, 5, 4)
    y = sample_rank_r_unit(dims, 2, np.random.default_rng(931))
    for phi in (sampling_map(random_mask(dims, 0.4, seed=931)),
                gaussian_ensemble(90, dims, seed=931)):
        b = apply(phi, y)
        yhat = pu.run(b, phi, pu.PursuitConfig(r=2)).yhat
        # an improving iterate, then the copy of a C-ordered input that no
        # iterate improves on when the cap allows none
        for cap, start in ((pu.REFINE_MAX_ITERS, yhat), (0, np.ascontiguousarray(yhat))):
            monkeypatch.setattr(pu, "REFINE_MAX_ITERS", cap)
            x = pu.refine(b, phi, start, 2)
            assert x.shape == dims and x.flags.f_contiguous
            assert np.shares_memory(_vec(x), x)
        monkeypatch.undo()


def test_refine_recovers_exactly_under_full_observation():
    dims = (8, 7, 4)
    phi = full_map(dims)
    for trial in range(3):
        y = sample_rank_r_unit(dims, 3, np.random.default_rng(950 + trial))
        b = apply(phi, y)
        # a single atom is far from y; the rank-3 refit must close the gap
        yhat = pu.run(b, phi, pu.PursuitConfig(r=1)).yhat
        assert frobenius_norm(yhat - y) > 0.1
        x = pu.refine(b, phi, yhat, 3)
        assert frobenius_norm(x - y) <= 1e-8 * frobenius_norm(y)


def test_refine_repeats_byte_identically():
    dims = (9, 8, 3)
    y = sample_rank_r_unit(dims, 2, np.random.default_rng(960))
    phi = sampling_map(random_mask(dims, 0.45, seed=960))
    b = apply(phi, y)
    yhat = pu.run(b, phi, pu.PursuitConfig(r=2, variant="economic")).yhat
    one = pu.refine(b, phi, yhat, 2)
    two = pu.refine(b, phi, yhat.copy(), 2)
    assert one.tobytes() == two.tobytes()


def test_refine_recovers_from_gaussian_maps_and_rejects_over_rank_inputs():
    # 160 Gaussian measurements are 1.25x the 128 degrees of freedom of a
    # tubal-rank-2 8x8x4 tensor; the pursuit alone stops far from it
    dims = (8, 8, 4)
    for seed in (0, 1):
        y = sample_rank_r_unit(dims, 2, np.random.default_rng(990 + seed))
        dense = gaussian_ensemble(160, dims, seed=990 + seed)
        b = apply(dense, y)
        yhat = pu.run(b, dense, pu.PursuitConfig(r=2)).yhat
        assert frobenius_norm(yhat - y) > 0.1 * frobenius_norm(y)
        x = pu.refine(b, dense, yhat, 2)
        assert frobenius_norm(x - y) <= 1e-10 * frobenius_norm(y)
    dims = (5, 5, 3)
    phi = sampling_map(random_mask(dims, 0.5, seed=3))
    full_rank = np.random.default_rng(970).standard_normal(dims)
    with pytest.raises(RankOutOfRange):
        pu.refine(apply(phi, full_rank), phi, full_rank, 2)
    with pytest.raises(RankOutOfRange):
        pu.refine(np.zeros(phi.m), phi, np.zeros(dims), 6)


def test_refine_recovers_acceptance_seed_105():
    # seed 105 of the acceptance recovery family: a refinement by
    # alternating least squares took the pursuit's rmse of 1.2e-2 to 2.8e-1
    dims = (20, 20, 5)
    y = sample_rank_r_unit(dims, 5, np.random.default_rng(105))
    phi = sampling_map(random_mask(dims, 0.5, seed=105))
    b = apply(phi, y)
    yhat = pu.run(b, phi, pu.PursuitConfig(r=5, variant="economic")).yhat
    x = pu.refine(b, phi, yhat, 5)
    assert tubal_rank(x) <= 5
    assert np.sqrt(np.mean((x - y) ** 2)) <= 1e-6


def test_refine_rejects_non_finite_measurements():
    dims = (6, 6, 3)
    y = sample_rank_r_unit(dims, 2, np.random.default_rng(980))
    phi = sampling_map(random_mask(dims, 0.5, seed=980))
    b = apply(phi, y)
    yhat = pu.run(b, phi, pu.PursuitConfig(r=2, variant="economic")).yhat
    for bad in (np.nan, np.inf, -np.inf):
        b_bad = b.copy()
        b_bad[phi.m // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            pu.refine(b_bad, phi, yhat, 2)
        # checked before the estimate's slices are factored
        yhat_bad = yhat.copy()
        yhat_bad[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            pu.refine(b, phi, yhat_bad, 2)


def test_runs_are_byte_identical_for_any_blas_thread_count():
    # m = 16384 measured entries, above the 10000 from which OpenBLAS splits
    # a dot product over its threads: summed by BLAS, the refit's norms
    # would change in their low bits between one thread and two
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from tpursuit import measure, pursuit\n"
        "from tpursuit.trip import sample_rank_r_unit\n"
        "dims = (64, 64, 8)\n"
        "y = sample_rank_r_unit(dims, 4, np.random.default_rng(236))\n"
        "phi = measure.sampling_map(measure.random_mask(dims, 0.5, seed=236))\n"
        "b = measure.apply(phi, y)\n"
        "digest = hashlib.sha256()\n"
        "for variant in ('standard', 'economic'):\n"
        "    res = pursuit.run(b, phi, pursuit.PursuitConfig(r=4, s=2, variant=variant))\n"
        "    digest.update(res.yhat.tobytes())\n"
        "    digest.update(res.residual_norms.tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    src = str(Path(pu.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]
