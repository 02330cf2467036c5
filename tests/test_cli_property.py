"""Property tests for the command line: synth, complete, sense and trip,
given arbitrary integer flags, and every command given arbitrary text for
--missing, --noise-sigma, --dims, --m-grid, export --format and the ingest
--in glob, exit with a documented code (0, or 2 usage, 3 I/O, 4 shape,
5 numerical; the parser's own refusals exit 2 too). A nonzero exit prints
exactly one stderr line, starting "tpursuit: ", and so no traceback.

Each integer example draws in-range flags, then may set one of them to an
integer of at most 0. Inputs are kept small: dims up to 8x8x4, --m-grid
entries up to 2^17, --samples and --trials up to 3; a text example whose
tokens read as larger counts is discarded."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from tpursuit import cli, frames  # noqa: E402
from tpursuit.tensor import write_t3b  # noqa: E402
from tpursuit.trip import sample_rank_r_unit  # noqa: E402

FUZZ = settings(max_examples=50, deadline=None, database=None, derandomize=True)

DOCUMENTED_EXITS = (0, cli.EXIT_USAGE, cli.EXIT_IO, cli.EXIT_SHAPE, cli.EXIT_NUMERICAL)

dims_flag = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4)).map(
    lambda d: "x".join(map(str, d)))
# up to 5, past min(n1, n2) for some dims
ranks = st.integers(1, 5)
batches = st.integers(1, 2)
seeds = st.integers(0, 2**32 - 1)
counts = st.integers(1, 3)
inputs_t3b = st.sampled_from(["big.t3b", "thin.t3b"])


def corruptions(*flags):
    """None (leave the flags as drawn) for about half the examples, else one
    flag and an integer of at most 0 to give it."""
    return st.one_of(st.none(), st.tuples(st.sampled_from(flags), st.integers(-2, 0)))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A work directory holding two synthetic tensors to recover, and a
    frames directory that ingest globs match against: two PGM frames of one
    shape, one of another, a PPM image, a file that is no frame and a
    .t3b tensor."""
    root = tmp_path_factory.mktemp("cli_property")
    for name, dims in (("big.t3b", (8, 8, 4)), ("thin.t3b", (3, 5, 2))):
        write_t3b(root / name, sample_rank_r_unit(dims, 2, np.random.default_rng(3)))
    frames_dir = root / "frames"
    frames_dir.mkdir()
    for k in range(2):
        frames.write_pgm(frames_dir / f"frame_{k:04d}.pgm", np.full((4, 3), 40.0 * k))
    frames.write_pgm(frames_dir / "frame_wide.pgm", np.zeros((4, 5)))
    frames.write_ppm(frames_dir / "color.ppm", np.zeros((4, 3, 3)))
    (frames_dir / "notes.pgm").write_bytes(b"P5 not a frame")
    write_t3b(frames_dir / "tensor.t3b", np.zeros((2, 2, 3)))
    return root


def _check(argv, corruption):
    argv = [str(a) for a in argv]
    if corruption is not None:
        flag, value = corruption
        argv[argv.index(flag) + 1] = f"{value}x2x2" if flag == "--dims" else str(value)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    err = stderr.getvalue()
    assert code in DOCUMENTED_EXITS, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert err.startswith("tpursuit: ") and err.count("\n") == 1, (argv, code, err)
        assert err.endswith("\n"), (argv, code, err)
    else:
        assert stdout.getvalue().count("\n") == 1, (argv, stdout.getvalue())


@FUZZ
@given(dims=dims_flag, rank=ranks, seed=seeds,
       corruption=corruptions("--dims", "--rank", "--seed"))
def test_synth_exits_with_a_documented_code(inputs, dims, rank, seed, corruption):
    _check(["synth", "--dims", dims, "--rank", rank, "--seed", seed,
            "--out", inputs / "synth.t3b"], corruption)


@FUZZ
@given(name=inputs_t3b, rank=ranks, batch=batches, seed=seeds,
       corruption=corruptions("--rank", "--batch", "--seed"))
def test_complete_exits_with_a_documented_code(inputs, name, rank, batch, seed, corruption):
    _check(["complete", "--in", inputs / name, "--out", inputs / "complete.t3b",
            "--rank", rank, "--batch", batch, "--seed", seed, "--missing", "0.5"], corruption)


@FUZZ
@given(name=inputs_t3b, rank=ranks, batch=batches, m=st.integers(1, 300), seed=seeds,
       ensemble=st.sampled_from(["gaussian", "rademacher"]),
       corruption=corruptions("--rank", "--batch", "--m", "--seed"))
def test_sense_exits_with_a_documented_code(inputs, name, rank, batch, m, seed, ensemble,
                                            corruption):
    _check(["sense", "--in", inputs / name, "--out", inputs / "sense.t3b", "--rank", rank,
            "--batch", batch, "--m", m, "--seed", seed, "--ensemble", ensemble], corruption)


@FUZZ
@given(dims=dims_flag, rank=ranks, seed=seeds, samples=counts, trials=counts,
       grid=st.lists(st.one_of(st.integers(1, 300), st.sampled_from([2**16 + 1, 2**17])),
                     min_size=1, max_size=2),
       corruption=corruptions("--dims", "--rank", "--m-grid", "--samples", "--trials",
                              "--seed"))
def test_trip_exits_with_a_documented_code(inputs, dims, rank, seed, samples, trials, grid,
                                           corruption):
    _check(["trip", "--dims", dims, "--rank", rank, "--m-grid", ",".join(map(str, grid)),
            "--samples", samples, "--trials", trials, "--seed", seed,
            "--out", inputs / "study.csv"], corruption)


@FUZZ
@given(command=st.sampled_from(["synth", "complete", "sense", "trip"]),
       seed=st.integers(-2**63, -1))
def test_a_negative_seed_exits_2_with_one_line_naming_it(inputs, command, seed):
    # refused at the parser, before any input is read or drawn
    argv = {
        "synth": ["--dims", "4x4x2", "--rank", "1", "--out", inputs / "neg.t3b"],
        "complete": ["--in", inputs / "big.t3b", "--out", inputs / "neg.t3b", "--rank", "1",
                     "--missing", "0.5"],
        "sense": ["--in", inputs / "big.t3b", "--out", inputs / "neg.t3b", "--rank", "1",
                  "--m", "20"],
        "trip": ["--dims", "4x4x2", "--rank", "1", "--m-grid", "8", "--samples", "2",
                 "--trials", "1", "--out", inputs / "neg.csv"],
    }[command]
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *map(str, argv), "--seed", str(seed)])
    assert exc.value.code == cli.EXIT_USAGE
    assert stderr.getvalue() == f"tpursuit: argument --seed: must be an integer >= 0, got '{seed}'\n"


def _small(text, sep, high):
    """Whether no token of text reads as an int above high, so that a run
    given text stays small."""
    for token in text.split(sep):
        try:
            if int(token) > high:
                return False
        except ValueError:
            pass
    return True


def near(*examples):
    """Arbitrary text, or a valid example, or one spliced with short text."""
    return st.one_of(st.text(), st.sampled_from(examples),
                     st.tuples(st.sampled_from(examples), st.text(max_size=3),
                               st.booleans()).map(lambda t: t[1] + t[0] if t[2] else t[0] + t[1]))


@FUZZ
@given(command=st.sampled_from(["complete", "sense"]), name=inputs_t3b,
       flag=st.sampled_from(["--missing", "--noise-sigma"]),
       text=near("0.5", "0", "0.99", "1", "-0.1", "1e-3", "1e200", "1e308", "nan", "inf"))
def test_a_float_flag_given_any_text_exits_with_a_documented_code(inputs, command, name, flag,
                                                                  text):
    argv = [command, "--in", inputs / name, "--out", inputs / "float.t3b", "--rank", 1]
    if command == "complete":
        argv += [f"--missing={text}"] if flag == "--missing" else ["--missing=0.5"]
    else:
        argv += ["--m", 12]
    if flag == "--noise-sigma":
        argv.append(f"--noise-sigma={text}")
    _check(argv, None)


@FUZZ
@given(command=st.sampled_from(["synth", "trip"]),
       text=near("4x4x2", "8X8X4", "0x4x2", "4x4", "4x4x2x1", "-1x2x2", "4x٤x2"))
def test_dims_given_any_text_exit_with_a_documented_code(inputs, command, text):
    assume(_small(text.lower(), "x", 8))
    argv = {"synth": ["synth", "--rank", 1, "--out", inputs / "dims.t3b"],
            "trip": ["trip", "--rank", 1, "--m-grid", 8, "--samples", 2, "--trials", 1,
                     "--out", inputs / "dims.csv"]}[command]
    _check([*argv, f"--dims={text}"], None)


@FUZZ
@given(text=near("8", "8,16", "0", "8,,16", "-8", "8.0", "1,2,3"))
def test_an_m_grid_given_any_text_exits_with_a_documented_code(inputs, text):
    assume(_small(text, ",", 300))
    _check(["trip", "--dims", "4x4x2", "--rank", 1, f"--m-grid={text}", "--samples", 2,
            "--trials", 1, "--out", inputs / "grid.csv"], None)


@FUZZ
@given(name=st.sampled_from(["big.t3b", "frames/tensor.t3b"]),
       text=near("pgm", "ppm", "PGM", "gif"))
def test_an_export_format_given_any_text_exits_with_a_documented_code(inputs, name, text):
    _check(["export", "--in", inputs / name, "--out", inputs / "exported",
            f"--format={text}"], None)


@FUZZ
@given(text=near("*.pgm", "frame_000[01].pgm", "*", "*.ppm", "color.ppm", "notes.pgm",
                 "*.t3b", "frame_*", "absent_*.pgm", "[").filter(lambda t: "/" not in t))
def test_an_ingest_glob_given_any_text_exits_with_a_documented_code(inputs, text):
    # the glob stays inside the frames directory: it holds no "/"
    _check(["ingest", f"--in={inputs / 'frames'}/{text}", "--out", inputs / "ingested.t3b"],
           None)
