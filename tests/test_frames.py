"""Unit tests for binary PGM/PPM frame I/O."""

import numpy as np
import pytest

from tpursuit import frames
from tpursuit.errors import FileFormatError, ShapeMismatch


def test_pgm_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(601)
    img = rng.integers(0, 256, size=(5, 7)).astype(np.float64)
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    frames.write_pgm(p1, img)
    back = frames.read_pgm(p1)
    np.testing.assert_array_equal(back, img)
    frames.write_pgm(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_header_layout(tmp_path):
    path = tmp_path / "h.pgm"
    frames.write_pgm(path, np.zeros((2, 3)))
    blob = path.read_bytes()
    # width before height, single newline separators, fixed maxval
    assert blob.startswith(b"P5\n3 2\n255\n")
    assert len(blob) == len(b"P5\n3 2\n255\n") + 6


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(602)
    img = rng.integers(0, 256, size=(4, 6, 3)).astype(np.float64)
    path = tmp_path / "c.ppm"
    frames.write_ppm(path, img)
    np.testing.assert_array_equal(frames.read_ppm(path), img)
    assert path.read_bytes().startswith(b"P6\n6 4\n255\n")


def test_write_clamps_and_rounds(tmp_path):
    path = tmp_path / "clip.pgm"
    frames.write_pgm(path, np.array([[-3.0, 12.4], [255.9, 99.5]]))
    back = frames.read_pgm(path)
    np.testing.assert_array_equal(back, [[0.0, 12.0], [255.0, 100.0]])


def test_low_maxval_rescales(tmp_path):
    path = tmp_path / "scale.pgm"
    path.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 100]))
    back = frames.read_pgm(path)
    np.testing.assert_allclose(back, [[127.5, 255.0]])


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "comment.pgm"
    path.write_bytes(b"P5 # a comment\n# another line\n 2\t1 \n255\n" + bytes([7, 8]))
    back = frames.read_pgm(path)
    np.testing.assert_array_equal(back, [[7.0, 8.0]])


def test_rejects_wide_samples(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FileFormatError):
        frames.read_pgm(path)


def test_rejects_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P4\n1 1\n255\n\x00")
    with pytest.raises(FileFormatError):
        frames.read_pgm(bad)

    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(FileFormatError):
        frames.read_pgm(short)

    color_as_gray = tmp_path / "c.ppm"
    frames.write_ppm(color_as_gray, np.zeros((2, 2, 3)))
    with pytest.raises(FileFormatError):
        frames.read_pgm(color_as_gray)


def test_rejects_samples_above_maxval_and_overlong_numbers(tmp_path):
    above = tmp_path / "above.pgm"
    above.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 101]))
    with pytest.raises(FileFormatError, match="exceeds maxval"):
        frames.read_pgm(above)

    # int() refuses a decimal string this long with ValueError
    overlong = tmp_path / "long.pgm"
    overlong.write_bytes(b"P5 " + b"9" * 5000 + b" 1 255\n" + bytes(9))
    with pytest.raises(FileFormatError, match="digits"):
        frames.read_pgm(overlong)


def test_write_shape_validation(tmp_path):
    with pytest.raises(ShapeMismatch):
        frames.write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))
    with pytest.raises(ShapeMismatch):
        frames.write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 4)))


def test_ingest_stacks_pgm_frames_in_order(tmp_path):
    rng = np.random.default_rng(603)
    stack = rng.integers(0, 256, size=(3, 4, 3)).astype(np.float64)
    paths = []
    for k in range(3):
        p = tmp_path / f"frame_{k:04d}.pgm"
        frames.write_pgm(p, stack[:, :, k])
        paths.append(p)
    tensor = frames.ingest_paths(paths)
    np.testing.assert_array_equal(tensor, stack)


def test_ingest_single_ppm(tmp_path):
    rng = np.random.default_rng(604)
    img = rng.integers(0, 256, size=(3, 5, 3)).astype(np.float64)
    p = tmp_path / "color.ppm"
    frames.write_ppm(p, img)
    np.testing.assert_array_equal(frames.ingest_paths([p]), img)


def test_ingest_rejections(tmp_path):
    gray = tmp_path / "a.pgm"
    color = tmp_path / "b.ppm"
    frames.write_pgm(gray, np.zeros((2, 2)))
    frames.write_ppm(color, np.zeros((2, 2, 3)))
    with pytest.raises(FileNotFoundError):
        frames.ingest_paths([])
    with pytest.raises(ValueError):
        frames.ingest_paths([gray, color])
    with pytest.raises(ValueError):
        frames.ingest_paths([color, color])
    other = tmp_path / "c.pgm"
    frames.write_pgm(other, np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        frames.ingest_paths([gray, other])


def test_export_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(605)
    tensor = rng.integers(0, 256, size=(4, 5, 2)).astype(np.float64)
    written = frames.export_frames(tensor, tmp_path / "out")
    assert [p.name for p in written] == ["frame_0000.pgm", "frame_0001.pgm"]
    np.testing.assert_array_equal(frames.ingest_paths(written), tensor)


def test_export_ppm_needs_three_slices(tmp_path):
    with pytest.raises(ShapeMismatch):
        frames.export_frames(np.zeros((2, 2, 2)), tmp_path, fmt="ppm")
    written = frames.export_frames(np.zeros((2, 2, 3)), tmp_path, fmt="ppm")
    assert [p.name for p in written] == ["frame_0000.ppm"]
