"""Unit tests for the greedy rank-one pursuit loop and its weight solvers."""

import csv
import math

import numpy as np
import pytest

from oracles import inner
from tpursuit import pursuit as pu
from tpursuit.errors import DivergenceDetected, NumericalFailure, RankOutOfRange
from tpursuit.measure import (
    SamplingMask,
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
    factor = pu.ThinQR(wb, 2)
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


def test_early_stop_on_residual_tolerance():
    rng = np.random.default_rng(409)
    dims = (4, 5, 3)
    y = sample_rank_r_unit(dims, 3, rng)
    phi = full_map(dims)
    b = apply(phi, y)
    res = pu.run(b, phi, pu.PursuitConfig(r=3, s=1, residual_tol=0.99))
    assert res.converged
    assert res.iterations == 1


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
    with pytest.raises(ValueError):
        pu.PursuitConfig(r=2, residual_tol=-1.0)
    with pytest.raises(ValueError):
        pu.PursuitConfig(r=2, max_iters=0)
    assert pu.PursuitConfig(r=5, s=2).iterations_limit == 3
    assert pu.PursuitConfig(r=5, s=2, max_iters=7).iterations_limit == 7


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
        pu.update_residual(phi, b, wfit, [frobenius_norm(r0)], 1)


def test_non_finite_norms_raise_numerical_failure():
    # b scaled by 1e300 overflows the backprojection norm; the parent
    # returned residual_norms [inf, inf, inf] and no error
    rng = np.random.default_rng(411)
    dims = (8, 8, 4)
    phi = sampling_map(random_mask(dims, 0.5, seed=4))
    b = 1e300 * apply(phi, sample_rank_r_unit(dims, 2, rng))
    for variant in ("standard", "economic"):
        with pytest.raises(NumericalFailure, match="backprojection"), np.errstate(over="ignore"):
            pu.run(b, phi, pu.PursuitConfig(r=3, variant=variant))
    # a refit that yields a non-finite residual norm
    phi = full_map((4, 4, 2))
    b = apply(phi, rng.standard_normal((4, 4, 2)))
    r0 = pinv_apply(phi, b)
    atoms = leading_atoms(r0, 1)
    for bad in (np.nan, np.inf):
        weights = np.array([bad])
        wfit = whiten(phi, pu.measured_columns(phi, atoms) @ weights)
        with pytest.raises(NumericalFailure, match="residual norm"):
            pu.update_residual(phi, b, wfit, [frobenius_norm(r0)], 1)


def test_relative_residuals_do_not_depend_on_the_scale_of_b():
    # the economic block mixes the previous fit (norm about ||b||) with
    # unit atoms; unless its first column is scaled, lstsq's cutoff drops
    # a direction once b is scaled far from 1 (DivergenceDetected at 1e-8,
    # a stall after iteration 1 at 1e8)
    dims = (8, 8, 4)
    y = sample_rank_r_unit(dims, 2, np.random.default_rng(412))
    phi = sampling_map(random_mask(dims, 0.5, seed=5))
    b = apply(phi, y)
    for variant in ("standard", "economic"):
        cfg = pu.PursuitConfig(r=3, s=1, variant=variant)
        ref = pu.run(b, phi, cfg).residual_norms
        for scale in (1e-8, 1e-4, 1e8, 1e12, 1e150):
            norms = pu.run(scale * b, phi, cfg).residual_norms
            np.testing.assert_allclose(norms / norms[0], ref / ref[0], rtol=0, atol=1e-10,
                                       err_msg=f"{variant} at scale {scale:g}")
    # refine's result scales with b and yhat, over the same range of scales
    yhat = pu.run(b, phi, pu.PursuitConfig(r=2)).yhat
    ref = pu.refine(b, phi, yhat, 2)
    for scale in (1e-8, 1e-4, 1e8, 1e12, 1e150):
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
    pu.write_metrics_csv(path, res)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == pu.METRICS_HEADER
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
        cfg = pu.PursuitConfig(r=3, variant="economic", max_iters=trial + 1)
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


def test_refine_recovers_exactly_under_full_observation():
    dims = (8, 7, 4)
    phi = full_map(dims)
    for trial in range(3):
        y = sample_rank_r_unit(dims, 3, np.random.default_rng(950 + trial))
        b = apply(phi, y)
        # a single atom is far from y; the rank-3 refit must close the gap
        yhat = pu.run(b, phi, pu.PursuitConfig(r=3, max_iters=1)).yhat
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
