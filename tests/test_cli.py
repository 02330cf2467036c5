"""End-to-end tests of the tpursuit command line, run in process."""

import csv
import json

import numpy as np
import pytest

from tpursuit import cli
from tpursuit.errors import (DivergenceDetected, FileFormatError, NumericalFailure,
                             RankDeficientMap, RankOutOfRange, ShapeMismatch)
from tpursuit.measure import random_mask, write_msk
from tpursuit.tensor import frobenius_norm, read_t3b, write_t3b
from tpursuit.tsvd import tubal_rank


def run_cli(args, capsys):
    try:
        code = cli.main([str(a) for a in args])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    record = json.loads(out.strip().splitlines()[-1]) if out.strip() else None
    return code, record


def synth(tmp_path, capsys, name="y.t3b", dims="6x6x4", rank=2, seed=3):
    path = tmp_path / name
    code, record = run_cli(
        ["synth", "--dims", dims, "--rank", rank, "--seed", seed, "--out", path],
        capsys,
    )
    assert code == 0
    return path, record


def test_rmse_definition():
    x = np.zeros((2, 2, 2))
    y = np.full((2, 2, 2), 2.0)
    assert cli.rmse(x, y) == 2.0
    with pytest.raises(ShapeMismatch):
        cli.rmse(x, np.zeros((2, 2, 3)))


def test_synth_output_and_record(tmp_path, capsys):
    path, record = synth(tmp_path, capsys)
    y = read_t3b(path)
    assert y.shape == (6, 6, 4)
    assert tubal_rank(y) == 2
    assert record["command"] == "synth"
    assert record["dims"] == [6, 6, 4]
    assert record["rank"] == 2


def test_synth_determinism(tmp_path, capsys):
    p1, _ = synth(tmp_path, capsys, "a.t3b", seed=9)
    p2, _ = synth(tmp_path, capsys, "b.t3b", seed=9)
    p3, _ = synth(tmp_path, capsys, "c.t3b", seed=10)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() != p3.read_bytes()


def test_synth_rank_too_large(tmp_path, capsys):
    code, _ = run_cli(
        ["synth", "--dims", "4x4x2", "--rank", 5, "--out", tmp_path / "x.t3b"],
        capsys,
    )
    assert code == cli.EXIT_USAGE


def test_synth_bad_dims_string(tmp_path, capsys):
    code, _ = run_cli(
        ["synth", "--dims", "4x4", "--rank", 1, "--out", tmp_path / "x.t3b"],
        capsys,
    )
    assert code == cli.EXIT_USAGE


def test_complete_full_observation(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys)
    y = read_t3b(src)
    out = tmp_path / "rec.t3b"
    metrics = tmp_path / "metrics.csv"
    code, record = run_cli(
        [
            "complete", "--in", src, "--out", out, "--metrics", metrics,
            "--rank", 2, "--missing", 0.0, "--seed", 3,
        ],
        capsys,
    )
    assert code == 0
    # every entry observed, so the pursuit reproduces the tensor
    assert record["rmse"] <= 1e-6 * np.abs(y).max()
    assert record["observed"] == y.size
    assert record["iterations"] == 2
    yhat = read_t3b(out)
    assert frobenius_norm(yhat - y) <= 1e-6 * frobenius_norm(y)
    with open(metrics, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli.METRICS_HEADER)
    assert len(rows) == 1 + record["iterations"]


def test_complete_with_mask_file(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys)
    mask = random_mask((6, 6, 4), 0.3, seed=5)
    mask_path = tmp_path / "m.msk"
    write_msk(mask_path, mask)
    out = tmp_path / "rec.t3b"
    code, record = run_cli(
        ["complete", "--in", src, "--out", out, "--mask", mask_path, "--rank", 2],
        capsys,
    )
    assert code == 0
    assert record["observed"] == mask.p
    assert record["missing"] is None
    assert read_t3b(out).shape == (6, 6, 4)


def test_complete_mask_dims_mismatch(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys)
    mask_path = tmp_path / "m.msk"
    write_msk(mask_path, random_mask((5, 5, 4), 0.3, seed=5))
    code, _ = run_cli(
        ["complete", "--in", src, "--out", tmp_path / "r.t3b",
         "--mask", mask_path, "--rank", 2],
        capsys,
    )
    assert code == cli.EXIT_SHAPE


def test_complete_requires_mask_or_missing(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys)
    code, _ = run_cli(
        ["complete", "--in", src, "--out", tmp_path / "r.t3b", "--rank", 2],
        capsys,
    )
    assert code == cli.EXIT_USAGE


def test_complete_missing_ratio_bounds(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys)
    code, _ = run_cli(
        ["complete", "--in", src, "--out", tmp_path / "r.t3b",
         "--rank", 2, "--missing", 1.0],
        capsys,
    )
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("missing", ["2", "1", "-0.1", "nan"])
def test_a_missing_ratio_outside_its_range_is_refused_by_the_flag(tmp_path, capsys, missing):
    src, _ = synth(tmp_path, capsys)
    out = tmp_path / "r.t3b"
    with pytest.raises(SystemExit) as exc:
        cli.main(["complete", "--in", str(src), "--out", str(out), "--rank", "2",
                  f"--missing={missing}"])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"tpursuit: argument --missing: must be a finite number in [0, 1), got '{missing}'\n"
    assert not out.exists()


def test_complete_deterministic_outputs(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys)
    outs = []
    for name in ("r1.t3b", "r2.t3b"):
        out = tmp_path / name
        code, _ = run_cli(
            ["complete", "--in", src, "--out", out, "--rank", 2,
             "--missing", 0.4, "--seed", 11, "--variant", "economic"],
            capsys,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_complete_noise_perturbs_measurements(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys)
    clean = tmp_path / "clean.t3b"
    noisy = tmp_path / "noisy.t3b"
    run_cli(["complete", "--in", src, "--out", clean, "--rank", 2,
             "--missing", 0.0, "--seed", 3], capsys)
    code, record = run_cli(
        ["complete", "--in", src, "--out", noisy, "--rank", 2,
         "--missing", 0.0, "--seed", 3, "--noise-sigma", 0.05],
        capsys,
    )
    assert code == 0
    assert clean.read_bytes() != noisy.read_bytes()
    assert record["noise_sigma"] == 0.05
    assert record["rmse"] > 1e-6


@pytest.mark.parametrize("command", ["complete", "sense"])
@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "-0.5"])
def test_noise_sigma_must_be_finite_and_nonnegative(tmp_path, capsys, command, sigma):
    src, _ = synth(tmp_path, capsys)
    out = tmp_path / "r.t3b"
    extra = ["--missing", "0.5"] if command == "complete" else ["--m", "40"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--in", str(src), "--out", str(out), "--rank", "2",
                  f"--noise-sigma={sigma}", *extra])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"tpursuit: argument --noise-sigma: must be a finite number >= 0, got '{sigma}'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["complete", "sense"])
def test_a_noise_level_that_overflows_is_one_usage_error(tmp_path, capsys, command):
    # the noise is drawn without numpy's overflow warning, and a noisy
    # tensor that is not finite is refused with one line naming the flag
    src, _ = synth(tmp_path, capsys)
    out = tmp_path / "r.t3b"
    extra = ["--missing", "0.5"] if command == "complete" else ["--m", "40"]
    code = cli.main([command, "--in", str(src), "--out", str(out), "--rank", "2",
                     "--noise-sigma", "1e308", *extra])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--noise-sigma" in captured.err and "overflow" in captured.err
    assert not out.exists()


def _one_refusal(argv, capsys):
    """The exit code and the one stderr line of a run that prints no record."""
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # the parser's refusals
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tpursuit: ") and captured.err.count("\n") == 1, captured.err
    return code, captured.err


@pytest.mark.parametrize("command", ["complete", "sense"])
def test_noise_whose_noisy_norm_passes_1e154_is_recovered(tmp_path, capsys, command):
    # the noisy entries, about 1e200, are finite, and so is their Frobenius
    # norm, though its plain sum of squares overflows
    src, _ = synth(tmp_path, capsys)
    out = tmp_path / "r.t3b"
    extra = ["--missing", "0.5"] if command == "complete" else ["--m", "40"]
    code, record = run_cli([command, "--in", src, "--out", out, "--rank", 2,
                            "--noise-sigma", "1e200", *extra], capsys)
    assert code == 0
    assert np.isfinite(record["rmse"])
    assert out.exists()


def test_the_largest_noise_level_on_a_small_tensor_is_one_usage_error(tmp_path, capsys):
    # max|Y| is below 1, so the noise's scale 1e308 * max|Y| is finite, and
    # the norm of the noisy tensor overflows
    src, _ = synth(tmp_path, capsys, dims="32x32x8", rank=2, seed=7)
    assert np.max(np.abs(read_t3b(src))) < 1.0
    code, err = _one_refusal(["complete", "--in", src, "--out", tmp_path / "r.t3b",
                              "--rank", 2, "--missing", 0.5, "--noise-sigma", "1e308"], capsys)
    assert code == cli.EXIT_USAGE
    assert "--noise-sigma 1e+308 overflows" in err


def test_measurements_whose_norm_passes_1e154_are_recovered(tmp_path, capsys):
    # every entry is finite, and so is the norm of the measurements
    src = tmp_path / "huge.t3b"
    write_t3b(src, np.full((6, 6, 4), 1e200))
    out = tmp_path / "r.t3b"
    code, record = run_cli(["complete", "--in", src, "--out", out, "--rank", 2,
                            "--missing", 0.5], capsys)
    assert code == 0
    assert np.isfinite(record["rmse"])
    assert out.exists()


def test_complete_missing_input(tmp_path, capsys):
    code, _ = run_cli(
        ["complete", "--in", tmp_path / "absent.t3b", "--out", tmp_path / "r.t3b",
         "--rank", 2, "--missing", 0.5],
        capsys,
    )
    assert code == cli.EXIT_IO


def test_complete_corrupt_input(tmp_path, capsys):
    bad = tmp_path / "bad.t3b"
    bad.write_bytes(b"nonsense")
    code, _ = run_cli(
        ["complete", "--in", bad, "--out", tmp_path / "r.t3b",
         "--rank", 2, "--missing", 0.5],
        capsys,
    )
    assert code == cli.EXIT_IO


def test_sense_square_gaussian_recovers(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys, dims="5x5x3", rank=2)
    out = tmp_path / "rec.t3b"
    code, record = run_cli(
        ["sense", "--in", src, "--out", out, "--rank", 2, "--m", 75, "--seed", 2],
        capsys,
    )
    assert code == 0
    # m = n1*n2*n3 makes the map invertible, so recovery is exact
    assert record["rmse"] <= 1e-6
    assert record["ensemble"] == "gaussian"
    assert record["m"] == 75


def test_pursuit_rank_above_min_n1_n2(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys, dims="8x8x4", rank=2)
    out = tmp_path / "r.t3b"
    for flags in (["complete", "--missing", 0.5], ["sense", "--m", 200]):
        code, _ = run_cli([*flags, "--in", src, "--out", out, "--rank", 9], capsys)
        assert code == cli.EXIT_USAGE
        assert not out.exists()


TRIP_4X4 = ["trip", "--dims", "4x4x2", "--rank", "1", "--m-grid", "8", "--samples", "2",
            "--trials", "1"]


@pytest.mark.parametrize("flags, message", [
    (["--m-grid", "8,a"], "argument --m-grid: must be an integer >= 1, got 'a'"),
    (["--samples", "0"], "argument --samples: must be an integer >= 1, got '0'"),
    (["--trials", "0"], "argument --trials: must be an integer >= 1, got '0'"),
    (["--rank", "9"], "--rank must be an integer >= 1 and <= 4, got 9"),
], ids=["m-grid", "samples", "trials", "rank"])
def test_a_trip_count_out_of_range_is_refused_by_its_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "study.csv"
    argv = [*TRIP_4X4, "--out", str(out)]
    argv[argv.index(flags[0]) + 1] = flags[1]
    assert _one_refusal(argv, capsys) == (cli.EXIT_USAGE, f"tpursuit: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--rank", "9"], "--rank must be an integer >= 1 and <= 4, got 9"),
    (["--rank", "0"], "argument --rank: must be an integer >= 1, got '0'"),
    (["--rank", "2", "--batch", "3"], "--batch must be an integer >= 1 and <= 2, got 3"),
    (["--rank", "2", "--batch", "0"], "argument --batch: must be an integer >= 1, got '0'"),
], ids=["rank-high", "rank-zero", "batch-high", "batch-zero"])
def test_a_pursuit_count_out_of_range_is_refused_by_its_flag(tmp_path, capsys, flags, message):
    src, _ = synth(tmp_path, capsys, dims="4x4x2", rank=1)
    out = tmp_path / "r.t3b"
    argv = ["complete", "--in", src, "--out", out, "--missing", 0.5, *flags]
    assert _one_refusal(argv, capsys) == (cli.EXIT_USAGE, f"tpursuit: {message}\n")
    assert not out.exists()


def test_a_synth_rank_out_of_range_is_refused_by_its_flag(tmp_path, capsys):
    argv = ["synth", "--dims", "4x4x2", "--rank", 5, "--out", tmp_path / "x.t3b"]
    assert _one_refusal(argv, capsys) == (
        cli.EXIT_USAGE, "tpursuit: --rank must be an integer >= 1 and <= 4, got 5\n")


@pytest.mark.parametrize("m", [-3, 0, 257, 300])
def test_sense_m_outside_one_to_n(tmp_path, capsys, m):
    src, _ = synth(tmp_path, capsys, dims="8x8x4", rank=2)
    out = tmp_path / "r.t3b"
    code = cli.main(["sense", "--in", str(src), "--out", str(out), "--rank", "2",
                     "--m", str(m)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--m {m} outside [1, N]" in err and "256" in err
    assert not out.exists()


def test_sense_rademacher_deterministic(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys, dims="4x4x2", rank=1)
    blobs = []
    for name in ("s1.t3b", "s2.t3b"):
        out = tmp_path / name
        code, _ = run_cli(
            ["sense", "--in", src, "--out", out, "--rank", 1, "--m", 24,
             "--ensemble", "rademacher", "--seed", 6],
            capsys,
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_trip_study_cli(tmp_path, capsys):
    out = tmp_path / "study.csv"
    args = ["trip", "--dims", "4x4x2", "--rank", 1, "--m-grid", "8,16",
            "--samples", 4, "--trials", 2, "--seed", 5, "--out", out]
    code, record = run_cli(args, capsys)
    assert code == 0
    assert record["m_grid"] == [8, 16]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    first = out.read_bytes()
    run_cli(args, capsys)
    assert out.read_bytes() == first


def test_ingest_and_export_round_trip(tmp_path, capsys):
    from tpursuit import frames

    rng = np.random.default_rng(606)
    stack = rng.integers(0, 256, size=(4, 5, 3)).astype(np.float64)
    for k in range(3):
        frames.write_pgm(tmp_path / f"in_{k:04d}.pgm", stack[:, :, k])
    tensor_path = tmp_path / "frames.t3b"
    code, record = run_cli(
        ["ingest", "--in", tmp_path / "in_*.pgm", "--out", tensor_path],
        capsys,
    )
    assert code == 0
    np.testing.assert_array_equal(read_t3b(tensor_path), stack)

    out_dir = tmp_path / "export"
    code, record = run_cli(
        ["export", "--in", tensor_path, "--out", out_dir, "--format", "pgm"],
        capsys,
    )
    assert code == 0
    for k in range(3):
        a = (tmp_path / f"in_{k:04d}.pgm").read_bytes()
        b = (out_dir / f"frame_{k:04d}.pgm").read_bytes()
        assert a == b


def test_ingest_no_matches(tmp_path, capsys):
    code, _ = run_cli(
        ["ingest", "--in", tmp_path / "nothing_*.pgm", "--out", tmp_path / "t.t3b"],
        capsys,
    )
    assert code == cli.EXIT_IO


def test_export_ppm_wrong_depth(tmp_path, capsys):
    src, _ = synth(tmp_path, capsys, dims="4x4x2", rank=1)
    code, _ = run_cli(
        ["export", "--in", src, "--out", tmp_path / "o", "--format", "ppm"],
        capsys,
    )
    assert code == cli.EXIT_SHAPE


def test_unknown_subcommand(capsys):
    code, _ = run_cli(["polish"], capsys)
    assert code == cli.EXIT_USAGE


def test_trip_study_keeps_rows_whose_medians_rise(tmp_path, capsys):
    # Monte Carlo noise makes the medians of this doubling grid rise twice;
    # the study still reports every row
    out = tmp_path / "study.csv"
    code, record = run_cli(
        ["trip", "--dims", "4x4x2", "--rank", 1, "--m-grid", "8,16,32,64",
         "--samples", 2, "--trials", 1, "--seed", 13, "--out", out],
        capsys,
    )
    assert code == 0
    assert record["m_grid"] == [8, 16, 32, 64]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli.STUDY_HEADER)
    assert [int(row[0]) for row in rows[1:]] == [8, 16, 32, 64]


PURSUIT_KEYS = ["command", "in", "out", "metrics", "dims", "rank", "batch", "variant",
                "seed", "noise_sigma"]
OUTCOME_KEYS = ["rmse", "iterations", "converged", "wall_time_s"]


def test_run_record_keys_in_order(tmp_path, capsys):
    src, record = synth(tmp_path, capsys)
    assert list(record) == ["command", "dims", "rank", "seed", "out"]
    mask_path = tmp_path / "m.msk"
    write_msk(mask_path, random_mask((6, 6, 4), 0.3, seed=5))
    out = tmp_path / "r.t3b"
    complete_keys = [*PURSUIT_KEYS, "mask", "missing", "observed", *OUTCOME_KEYS]
    for flags in (["--missing", 0.3], ["--mask", mask_path]):
        code, record = run_cli(
            ["complete", "--in", src, "--out", out, "--rank", 2, *flags], capsys
        )
        assert code == 0
        assert list(record) == complete_keys
    code, record = run_cli(
        ["sense", "--in", src, "--out", out, "--rank", 2, "--m", 100], capsys
    )
    assert code == 0
    assert list(record) == [*PURSUIT_KEYS, "ensemble", "m", *OUTCOME_KEYS]
    code, record = run_cli(
        ["trip", "--dims", "4x4x2", "--rank", 1, "--m-grid", "8", "--samples", 2,
         "--trials", 1, "--out", tmp_path / "s.csv"],
        capsys,
    )
    assert code == 0
    assert list(record) == ["command", "dims", "rank", "m_grid", "samples", "trials",
                            "ensemble", "seed", "out"]


@pytest.mark.parametrize("error, expected", [
    (NumericalFailure("no convergence"), cli.EXIT_NUMERICAL),
    (RankDeficientMap("dependent rows"), cli.EXIT_NUMERICAL),
    (DivergenceDetected("residual grew"), cli.EXIT_NUMERICAL),
    (ShapeMismatch("bad shape"), cli.EXIT_SHAPE),
    (FileFormatError("not a T3B1 tensor file"), cli.EXIT_IO),
    (OSError("disk gone"), cli.EXIT_IO),
    (RankOutOfRange("rank too large"), cli.EXIT_USAGE),
    (ValueError("bad value"), cli.EXIT_USAGE),
])
def test_each_error_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, error, expected):
    src, _ = synth(tmp_path, capsys)
    out = tmp_path / "r.t3b"

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_pursuit", fail)
    code = cli.main(["complete", "--in", str(src), "--out", str(out), "--rank", "2",
                     "--missing", "0.5"])
    assert code == expected
    assert capsys.readouterr().err == f"tpursuit: {error}\n"
    assert not out.exists()
