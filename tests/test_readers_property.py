"""Property tests for the binary readers: given arbitrary bytes, or a valid
file with a few bytes changed, cut or added, `read_t3b`, `read_msk` and PNM
ingest either return data that round-trips through the matching writer or
raise FileFormatError, never any other exception."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from tpursuit import frames  # noqa: E402
from tpursuit.errors import FileFormatError  # noqa: E402
from tpursuit.measure import SamplingMask, read_msk, write_msk  # noqa: E402
from tpursuit.tensor import read_t3b, write_t3b  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)

small_dims = st.tuples(*(st.integers(1, 3) for _ in range(3)))


def _mutate(blob: bytes, ops) -> bytes:
    out = bytearray(blob)
    for op, pos, payload in ops:
        at = pos % (len(out) + 1)
        if op == "set" and at < len(out):
            out[at] = payload[0] if payload else 0
        elif op == "cut":
            del out[at:at + len(payload) + 1]
        elif op == "insert":
            out[at:at] = payload
    return bytes(out)


mutations = st.lists(
    st.tuples(st.sampled_from(["set", "cut", "insert"]), st.integers(0, 2**16),
              st.binary(max_size=8)),
    min_size=1, max_size=3,
)


@st.composite
def t3b_files(draw):
    dims = draw(small_dims)
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=int(np.prod(dims)), max_size=int(np.prod(dims))))
    return np.array(values).reshape(dims)


@st.composite
def msk_files(draw):
    dims = draw(small_dims)
    n = int(np.prod(dims))
    offsets = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return SamplingMask(dims=dims, indices=np.array(sorted(offsets)))


@st.composite
def pnm_files(draw):
    channels = draw(st.sampled_from([1, 3]))
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 7, 255]))
    raster = draw(st.binary(min_size=height * width * channels,
                            max_size=height * width * channels))
    comment = draw(st.sampled_from([b"", b"# c\n"]))
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + b"\n" + comment + b"%d %d\n%d\n" % (width, height, maxval)
    return channels, header + raster


def _check_t3b(tmp, blob):
    src, out = tmp / "in.t3b", tmp / "out.t3b"
    src.write_bytes(blob)
    try:
        a = read_t3b(src)
    except FileFormatError:
        return
    write_t3b(out, a)
    assert out.read_bytes() == blob


def _check_msk(tmp, blob):
    src, out = tmp / "in.msk", tmp / "out.msk"
    src.write_bytes(blob)
    try:
        mask = read_msk(src)
    except FileFormatError:
        return
    write_msk(out, mask)
    assert out.read_bytes() == blob


def _check_pnm(tmp, blob, suffix):
    src = tmp / f"in.{suffix}"
    src.write_bytes(blob)
    try:
        tensor = frames.ingest_paths([src])
    except FileFormatError:
        return
    assert tensor.ndim == 3 and tensor.shape[2] == (3 if suffix == "ppm" else 1)
    assert np.all((tensor >= 0.0) & (tensor <= 255.0))
    out = tmp / f"out.{suffix}"
    if suffix == "ppm":
        frames.write_ppm(out, tensor)
    else:
        frames.write_pgm(out, tensor[:, :, 0])
    np.testing.assert_array_equal(frames.ingest_paths([out]), np.rint(tensor))


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@FUZZ
@given(blob=st.one_of(st.binary(max_size=96), st.binary(max_size=96).map(lambda b: b"T3B1" + b)))
def test_t3b_reader_on_arbitrary_bytes(tmp, blob):
    _check_t3b(tmp, blob)


@FUZZ
@given(a=t3b_files(), ops=mutations)
def test_t3b_reader_on_mutated_files(tmp, a, ops):
    path = tmp / "valid.t3b"
    write_t3b(path, a)
    blob = path.read_bytes()
    _check_t3b(tmp, blob)
    _check_t3b(tmp, _mutate(blob, ops))


@FUZZ
@given(blob=st.one_of(st.binary(max_size=96), st.binary(max_size=96).map(lambda b: b"MSK1" + b)))
def test_msk_reader_on_arbitrary_bytes(tmp, blob):
    _check_msk(tmp, blob)


@FUZZ
@given(mask=msk_files(), ops=mutations)
def test_msk_reader_on_mutated_files(tmp, mask, ops):
    path = tmp / "valid.msk"
    write_msk(path, mask)
    blob = path.read_bytes()
    _check_msk(tmp, blob)
    _check_msk(tmp, _mutate(blob, ops))


@FUZZ
@given(blob=st.one_of(st.binary(max_size=64),
                      st.binary(max_size=64).map(lambda b: b"P5" + b),
                      st.binary(max_size=64).map(lambda b: b"P6" + b)),
       suffix=st.sampled_from(["pgm", "ppm"]))
# a header number too long for int() to parse
@example(blob=b"P5 " + b"9" * 5000 + b" 1 255\n" + bytes(9), suffix="pgm")
def test_pnm_ingest_on_arbitrary_bytes(tmp, blob, suffix):
    _check_pnm(tmp, blob, suffix)


@FUZZ
@given(file=pnm_files(), ops=mutations)
def test_pnm_ingest_on_mutated_files(tmp, file, ops):
    channels, blob = file
    suffix = "pgm" if channels == 1 else "ppm"
    _check_pnm(tmp, blob, suffix)
    _check_pnm(tmp, _mutate(blob, ops), suffix)
