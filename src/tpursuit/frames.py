"""Binary PGM (P5) and PPM (P6) frame I/O, 8-bit only.

A stack of grayscale frames becomes an n1 x n2 x frames tensor; a single
color image becomes n1 x n2 x 3 with the channel planes as frontal slices.
Pixel values are rescaled to [0, 255] reals on ingest (exact for maxval
255) and rounded back with clamping on export.
"""

from __future__ import annotations

import numpy as np

from .errors import FileFormatError, ShapeMismatch


def _parse_header(blob: bytes, path) -> tuple[bytes, int, int, int, int]:
    """Return magic, width, height, maxval and the raster offset."""
    if len(blob) < 2 or blob[:1] != b"P":
        raise FileFormatError(f"{path}: not a PNM file")
    magic = blob[:2]
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(blob):
            raise FileFormatError(f"{path}: truncated header")
        c = blob[pos:pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(blob) and blob[pos:pos + 1].isdigit():
                pos += 1
            # int() refuses strings past sys.get_int_max_str_digits()
            if pos - start > 20:
                raise FileFormatError(f"{path}: header number of {pos - start} digits")
            tokens.append(int(blob[start:pos]))
        else:
            raise FileFormatError(f"{path}: unexpected byte {c!r} in header")
    if pos >= len(blob) or blob[pos:pos + 1] not in b" \t\r\n":
        raise FileFormatError(f"{path}: missing whitespace before raster")
    pos += 1
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise FileFormatError(f"{path}: image dimensions must be positive")
    if not 1 <= maxval <= 255:
        raise FileFormatError(f"{path}: only 8-bit data supported, maxval {maxval}")
    return magic, width, height, maxval, pos


def _read_raster(path, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, width, height, maxval, offset = _parse_header(blob, path)
    expected_magic = b"P5" if channels == 1 else b"P6"
    if magic != expected_magic:
        raise FileFormatError(f"{path}: expected {expected_magic.decode()}, got {magic!r}")
    count = width * height * channels
    raster = blob[offset:offset + count]
    if len(raster) != count:
        raise FileFormatError(f"{path}: raster holds {len(raster)} bytes, expected {count}")
    data = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    if data.max() > maxval:
        raise FileFormatError(f"{path}: sample {data.max():g} exceeds maxval {maxval}")
    data *= 255.0 / maxval
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, channels)


def read_pgm(path) -> np.ndarray:
    """Grayscale image as an (height, width) float array in [0, 255]."""
    return _read_raster(path, 1)


def read_ppm(path) -> np.ndarray:
    """Color image as an (height, width, 3) float array in [0, 255]."""
    return _read_raster(path, 3)


def _write_raster(path, image: np.ndarray, channels: int) -> None:
    image = np.asarray(image, dtype=np.float64)
    magic = b"P5" if channels == 1 else b"P6"
    tail = () if channels == 1 else (channels,)
    if image.ndim != 2 + len(tail) or image.shape[2:] != tail:
        raise ShapeMismatch(f"{magic.decode()} images need shape (h, w) + {tail}, "
                            f"got {image.shape}")
    height, width = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (width, height))
        fh.write(np.clip(np.rint(image), 0.0, 255.0).astype(np.uint8).tobytes())


def write_pgm(path, image: np.ndarray) -> None:
    """Write an (height, width) image as 8-bit P5, rounding and clamping to [0, 255]."""
    _write_raster(path, image, 1)


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (height, width, 3) image as 8-bit P6, rounding and clamping to [0, 255]."""
    _write_raster(path, image, 3)


def ingest_paths(paths) -> np.ndarray:
    """Build a tensor from sorted frame paths.

    All-PGM inputs stack as frontal slices; exactly one PPM yields the
    three channel planes. Mixing formats is rejected.
    """
    paths = list(paths)
    if not paths:
        raise FileNotFoundError("no input frames matched")
    suffixes = {str(p).lower().rsplit(".", 1)[-1] for p in paths}
    if suffixes == {"ppm"}:
        if len(paths) != 1:
            raise ValueError("color ingest takes exactly one PPM file")
        return read_ppm(paths[0])
    if suffixes != {"pgm"}:
        raise ValueError("ingest wants either PGM frames or a single PPM file")
    frames = [read_pgm(p) for p in paths]
    shape = frames[0].shape
    for p, f in zip(paths, frames):
        if f.shape != shape:
            raise ShapeMismatch(f"{p}: frame shape {f.shape} differs from {shape}")
    return np.stack(frames, axis=2)


def export_frames(tensor: np.ndarray, out_dir, fmt: str = "pgm") -> list:
    """Write the frontal slices back out as 8-bit frames.

    fmt 'pgm' writes one frame_%04d.pgm per slice; fmt 'ppm' treats the
    three slices as color planes of a single image.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "ppm":
        if tensor.shape[2] != 3:
            raise ShapeMismatch(f"PPM export needs n3 = 3, got {tensor.shape[2]}")
        dest = out / "frame_0000.ppm"
        write_ppm(dest, tensor)
        written.append(dest)
    elif fmt == "pgm":
        for k in range(tensor.shape[2]):
            dest = out / f"frame_{k:04d}.pgm"
            write_pgm(dest, tensor[:, :, k])
            written.append(dest)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return written
