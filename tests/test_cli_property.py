"""Property tests for the command line: synth, complete, sense and trip,
given arbitrary integer flags, exit with a documented code (0, or 2 usage,
3 I/O, 4 shape, 5 numerical; argparse's own exit counts as 2) and never
print a traceback. A negative --seed is refused at the parser with one line.

Each example draws in-range flags, then may set one of them to an integer
of at most 0. Inputs are kept small: dims up to 8x8x4, --m-grid entries up
to 2^17, --samples and --trials up to 3."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tpursuit import cli  # noqa: E402
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
    """A work directory holding two synthetic tensors to recover."""
    root = tmp_path_factory.mktemp("cli_property")
    for name, dims in (("big.t3b", (8, 8, 4)), ("thin.t3b", (3, 5, 2))):
        write_t3b(root / name, sample_rank_r_unit(dims, 2, np.random.default_rng(3)))
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
        assert "tpursuit" in err, (argv, code, err)
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
    assert stderr.getvalue() == f"tpursuit: --seed must be an integer >= 0, got '{seed}'\n"
