"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see every line; under
plain capture the lines still appear for failing criteria.
"""

import csv
import math
import time

import numpy as np

from oracles import bcirc, bdiag, conj_transpose, fft3, fold, inner, is_orthogonal, unfold
from tpursuit import cli, frames
from tpursuit.errors import NumericalFailure
from tpursuit.measure import apply, random_mask, sampling_map, write_msk
from tpursuit.pursuit import PursuitConfig, check_rate, refine, run
from tpursuit.tensor import frobenius_norm, tprod
from tpursuit.trip import TripStudyConfig, sample_rank_r_unit, scaling_study
from tpursuit.tsvd import leading_atoms, truncated_tsvd, tubal_rank


def _status(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return line


def _report(name, ok, detail):
    line = _status(name, ok, detail)
    assert ok, line


def _dft(n):
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n)


def test_tensor_product_matches_block_circulant_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n1, n2, n3, l = (int(rng.integers(1, 6)) for _ in range(4))
        a = rng.standard_normal((n1, n2, n3))
        b = rng.standard_normal((n2, l, n3))
        want = fold(bcirc(a) @ unfold(b), n3)
        got = tprod(a, b)
        denom = max(1.0, frobenius_norm(want))
        worst = max(worst, frobenius_norm(got - want) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        "tensor product vs block-circulant oracle (200 draws)",
        ok,
        f"worst rel err {worst:.3e}, {elapsed:.2f}s",
    )


def test_transform_identities_hold():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        n1, n2, n3 = (int(rng.integers(1, 5)) for _ in range(3))
        a = rng.standard_normal((n1, n2, n3))
        b = rng.standard_normal((n1, n2, n3))
        f = _dft(n3)
        lhs = np.kron(f, np.eye(n1)) @ bcirc(a) @ np.kron(f.conj().T / n3, np.eye(n2))
        rhs = bdiag(fft3(a))
        scale = max(1.0, np.abs(rhs).max())
        worst = max(worst, np.abs(lhs - rhs).max() / scale)

        spec_norm = np.linalg.norm(bdiag(fft3(a))) / np.sqrt(n3)
        worst = max(
            worst,
            abs(frobenius_norm(a) - spec_norm) / max(1.0, spec_norm),
        )

        spec_inner = float(np.real(np.vdot(fft3(a).slices, fft3(b).slices))) / n3
        worst = max(
            worst,
            abs(inner(a, b) - spec_inner) / max(1.0, abs(spec_inner)),
        )
    ok = worst <= 1e-10
    _report(
        "transform diagonalization, norm and inner identities (100 draws)",
        ok,
        f"worst rel err {worst:.3e}",
    )


def test_factorization_reconstructs_with_orthogonal_factors():
    rng = np.random.default_rng(1003)
    worst = 0.0
    all_orth = True
    exact_diag = True
    for _ in range(100):
        n1, n2, n3 = (int(rng.integers(1, 9)) for _ in range(3))
        a = rng.standard_normal((n1, n2, n3))
        f = truncated_tsvd(a, min(n1, n2))
        recon = tprod(tprod(f.u, f.s), conj_transpose(f.v))
        worst = max(
            worst, frobenius_norm(recon - a) / max(1.0, frobenius_norm(a))
        )
        all_orth = all_orth and is_orthogonal(f.u, tol=1e-8) and is_orthogonal(f.v, tol=1e-8)
        off = f.s.copy()
        off[np.arange(f.rho), np.arange(f.rho), :] = 0.0
        exact_diag = exact_diag and np.count_nonzero(off) == 0
    ok = worst <= 1e-8 and all_orth and exact_diag
    _report(
        "factorization reconstruction and orthogonality (100 draws)",
        ok,
        f"worst rel err {worst:.3e}, orthogonal={all_orth}, f-diagonal={exact_diag}",
    )


def test_leading_atom_energy_floor():
    rng = np.random.default_rng(1004)
    violations = 0
    worst_margin = np.inf
    for _ in range(500):
        n1, n2, n3 = (int(rng.integers(1, 9)) for _ in range(3))
        a = rng.standard_normal((n1, n2, n3))
        theta = leading_atoms(a, 1)[0].tube_norm
        floor = frobenius_norm(a) / math.sqrt(min(n1, n2))
        worst_margin = min(worst_margin, theta / floor)
        if theta < floor * (1.0 - 1e-10):
            violations += 1
    ok = violations == 0
    _report(
        "leading atom energy floor (500 draws)",
        ok,
        f"{violations} violations, smallest margin {worst_margin:.6f}",
    )


def test_residual_decrease_and_rate_envelope():
    rng = np.random.default_rng(1005)
    t0 = time.perf_counter()
    decrease_bad = 0
    envelope_bad = 0
    runs = 0
    while runs < 500:
        n1 = int(rng.integers(4, 17))
        n2 = int(rng.integers(4, 17))
        n3 = int(rng.integers(2, 9))
        dims = (n1, n2, n3)
        s = int(rng.integers(1, 4))
        # run rejects r above min(n1, n2); clamping keeps the draws unchanged
        r = min(int(rng.integers(s, 7)), n1, n2)
        rank = int(rng.integers(1, min(5, min(n1, n2)) + 1))
        missing = float(rng.uniform(0.1, 0.7))  # 30..90 percent observed
        variant = "standard" if runs % 2 == 0 else "economic"
        y = sample_rank_r_unit(dims, rank, np.random.default_rng(2000 + runs))
        phi = sampling_map(random_mask(dims, missing, seed=3000 + runs))
        b = apply(phi, y)
        res = run(b, phi, PursuitConfig(r=r, s=s, variant=variant))
        norms = res.residual_norms
        for rec in res.history:
            lhs = norms[rec.k] ** 2
            rhs = norms[rec.k - 1] ** 2 - rec.leading_inner**2
            if lhs > rhs + 1e-8 * norms[0] ** 2:
                decrease_bad += 1
        if not check_rate(res, norms[0]):
            envelope_bad += 1
        runs += 1
    elapsed = time.perf_counter() - t0
    ok = decrease_bad == 0 and envelope_bad == 0 and elapsed < 120.0
    _report(
        "per-iteration decrease and decay envelope (500 runs)",
        ok,
        f"{decrease_bad} decrease / {envelope_bad} envelope violations, {elapsed:.1f}s",
    )


def test_recovery_from_half_observed_entries():
    # recovery: the pursuit alone stops at rmse ~1e-2 here; the rank-5
    # refinement that follows it must reach the 1e-3 median bar.
    # ordering: with s=1 both variants fit the same span through iteration
    # 2 and peel the same third atom, over which the full refit optimizes a
    # superset of what the economic one reaches; later iterations peel
    # different atoms, so no ordering is promised past iteration 3
    dims = (20, 20, 5)
    econ_rmse = []
    over_rank = []
    shared_gap = 0.0
    margins = []
    for seed in range(10):
        y = sample_rank_r_unit(dims, 5, np.random.default_rng(seed))
        phi = sampling_map(random_mask(dims, 0.5, seed=seed))
        b = apply(phi, y)
        res_e = run(b, phi, PursuitConfig(r=5, variant="economic"))
        res_s = run(b, phi, PursuitConfig(r=5, variant="standard"))
        yhat = refine(b, phi, res_e.yhat, 5)
        econ_rmse.append(cli.rmse(yhat, y))
        if tubal_rank(yhat) > 5:
            over_rank.append(seed)
        ne, ns = res_e.residual_norms, res_s.residual_norms
        shared_gap = max(shared_gap, max(abs(ns[k] - ne[k]) for k in (1, 2)) / ne[0])
        margins.append((ne[3] * (1.0 + 1e-8) - ns[3]) / ne[3])
    median = float(np.median(econ_rmse))
    worst = int(np.argmax(econ_rmse))
    recovery_ok = median <= 1e-3 and not over_rank
    recovery = _status(
        "recovery of rank-5 20x20x5 tensors from half the entries, "
        "pursuit then rank-5 refinement (10 seeds)",
        recovery_ok,
        f"median economic rmse {median:.4e} (need <= 1e-3), "
        f"worst seed {worst} at {econ_rmse[worst]:.4e}, "
        f"tubal rank above 5 on seeds {over_rank}",
    )
    tightest = int(np.argmin(margins))
    ordering_ok = shared_gap <= 1e-10 and min(margins) >= 0.0
    ordering = _status(
        "standard and economic refits from a shared state (10 seeds)",
        ordering_ok,
        f"iterations 1-2 differ by at most {shared_gap:.2e} of ||R_1|| (need <= 1e-10), "
        f"standard <= economic x (1 + 1e-8) at iteration 3 on "
        f"{sum(m >= 0.0 for m in margins)}/10 instances, smallest relative margin "
        f"{margins[tightest]:.4e} at seed {tightest}",
    )
    assert recovery_ok and ordering_ok, f"{recovery}\n{ordering}"


def test_batch_size_tradeoff_curves():
    dims = (64, 64, 8)
    y = sample_rank_r_unit(dims, 6, np.random.default_rng(424242))
    phi = sampling_map(random_mask(dims, 0.5, seed=424242))
    b = apply(phi, y)
    cfgs = {s: PursuitConfig(r=6, s=s, variant="economic") for s in (1, 2, 3)}
    for cfg in cfgs.values():
        run(b, phi, cfg)  # warmup
    curves = {}
    times = {s: [] for s in cfgs}
    # CPU time, which other load on the host does not inflate as it does
    # wall time; round robin, so that what remains lands on every s alike,
    # and the fastest repeat is the one it touched least
    for _ in range(5):
        for s, cfg in cfgs.items():
            t0 = time.process_time()
            res = run(b, phi, cfg)
            times[s].append(time.process_time() - t0)
            curves[s] = res.residual_norms
    fastest = {s: min(t) for s, t in times.items()}
    monotone = all(
        all(c[i + 1] <= c[i] + 1e-10 * c[0] for i in range(len(c) - 1))
        for c in curves.values()
    )
    ordered = fastest[1] >= fastest[2] >= fastest[3]
    ok = monotone and ordered
    _report(
        "batch size trade-off on a fixed half-observed instance",
        ok,
        f"residual curves monotone={monotone}, fastest of 5 CPU seconds "
        f"s=1:{fastest[1]:.3f} s=2:{fastest[2]:.3f} s=3:{fastest[3]:.3f}",
    )


def test_isometry_constant_scaling_study():
    t0 = time.perf_counter()
    cfg = TripStudyConfig(
        dims=(8, 8, 4),
        r=2,
        m_grid=(200, 400, 800, 1600, 3200),
        n_samples=200,
        trials=20,
        seed=1008,
        ensemble="gaussian",
    )
    try:
        rows = scaling_study(cfg)
        medians = np.array([row.delta_median for row in rows])
        inversions = int(sum(medians[i + 1] > medians[i] for i in range(len(medians) - 1)))
        slope = float(np.polyfit(np.log(cfg.m_grid), np.log(medians), 1)[0])
        failed = False
    except NumericalFailure:
        inversions, slope, failed = 99, float("nan"), True
    elapsed = time.perf_counter() - t0
    ok = not failed and inversions <= 1 and -0.7 <= slope <= -0.3 and elapsed < 180.0
    _report(
        "isometry constant falls like sqrt of the measurement count",
        ok,
        f"log-log slope {slope:.3f} (want [-0.7, -0.3]), "
        f"{inversions} median inversions, {elapsed:.1f}s",
    )


def _complete_metrics_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # drop the wall-clock column, physical time is not replayable
    return [row[:3] for row in rows]


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    def go(args):
        code = cli.main([str(a) for a in args])
        capsys.readouterr()
        assert code == 0, args

    rng = np.random.default_rng(1009)
    stack = rng.integers(0, 256, size=(6, 7, 3)).astype(np.float64)
    for k in range(3):
        frames.write_pgm(tmp_path / f"frame_{k:04d}.pgm", stack[:, :, k])

    mask_path = tmp_path / "mask.msk"
    write_msk(mask_path, random_mask((8, 8, 4), 0.4, seed=77))

    mismatch = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        go(["synth", "--dims", "8x8x4", "--rank", "2", "--seed", "7",
            "--out", d / "y.t3b"])
        go(["complete", "--in", d / "y.t3b", "--out", d / "rec.t3b",
            "--metrics", d / "rec.csv", "--rank", "2", "--missing", "0.4",
            "--seed", "7", "--variant", "economic"])
        go(["complete", "--in", d / "y.t3b", "--out", d / "rec_mask.t3b",
            "--mask", mask_path, "--rank", "2", "--seed", "7"])
        go(["sense", "--in", d / "y.t3b", "--out", d / "sensed.t3b",
            "--metrics", d / "sensed.csv", "--rank", "2", "--m", "160",
            "--ensemble", "rademacher", "--seed", "7"])
        go(["trip", "--dims", "4x4x2", "--rank", "1", "--m-grid", "16,32",
            "--samples", "8", "--trials", "3", "--seed", "7",
            "--out", d / "study.csv"])
        go(["ingest", "--in", tmp_path / "frame_*.pgm", "--out", d / "frames.t3b"])
        go(["export", "--in", d / "frames.t3b", "--out", d / "exported",
            "--format", "pgm"])

    one, two = tmp_path / "one", tmp_path / "two"
    for name in ("y.t3b", "rec.t3b", "rec_mask.t3b", "sensed.t3b",
                 "study.csv", "frames.t3b"):
        if (one / name).read_bytes() != (two / name).read_bytes():
            mismatch.append(name)
    for name in ("rec.csv", "sensed.csv"):
        if _complete_metrics_rows(one / name) != _complete_metrics_rows(two / name):
            mismatch.append(name)
    for k in range(3):
        name = f"exported/frame_{k:04d}.pgm"
        if (one / name).read_bytes() != (two / name).read_bytes():
            mismatch.append(name)
    ok = not mismatch
    _report(
        "repeated CLI runs with one seed produce identical artifacts",
        ok,
        "all byte-identical (metrics compared without the wall-clock column)"
        if ok
        else f"mismatched: {mismatch}",
    )
