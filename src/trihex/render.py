"""Deterministic raster (plain PBM) and vector (SVG) output of prefractals.

One pixel or one unit rect per grid cell, nothing resampled: prefractals
are exactly grid-aligned, so any other policy would lose exactness.
Row 0 of a raster is the top of the image (largest j), keeping +y up.
The PBM of a constructed set (`render`, `gen --format pbm`) streams the
digit route's rows, with no Prefractal and no bitmap; rasterize and
write_pbm serve library sets.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from . import fractal  # before numpy: with no .pyc, compiling it after numpy raises peak RSS

import numpy as np

from .errors import DEFAULT_MAX_SQUARES, DomainError, ResourceError
from .fractal import Prefractal, _rows, _square_blocks
from .radix import DigitSystem, _Record

__all__ = ["RasterSpec", "rasterize", "write_pbm", "write_svg"]


class RasterSpec(_Record):
    """Pixel geometry of a rendered prefractal, a pixel per grid cell; origin is (i_min, j_min)."""

    __slots__ = ("origin", "width", "height")


def _bounding_box(p: Prefractal) -> RasterSpec:
    """Integer bounding box of a nonempty prefractal's squares."""
    if not len(p):
        raise DomainError("cannot render an empty prefractal")
    ends = np.array([(i.min(), j.min(), i.max(), j.max()) for i, j in _square_blocks(p)])
    i_min, j_min = ends[:, :2].min(axis=0).tolist()
    i_max, j_max = ends[:, 2:].max(axis=0).tolist()
    return RasterSpec((i_min, j_min), i_max - i_min + 1, j_max - j_min + 1)


def rasterize(p: Prefractal) -> tuple[RasterSpec, np.ndarray]:
    """Bitmap with pixel (row, col) set iff the matching cell is a square.

    ResourceError, before the bitmap is allocated, past _SCAN_RATIO * DEFAULT_MAX_SQUARES
    pixels: the cells that the PBM stream of `render` scans at the default cap.
    """
    spec, cap = _bounding_box(p), fractal._SCAN_RATIO * DEFAULT_MAX_SQUARES
    if spec.width * spec.height > cap:
        raise ResourceError(f"raster of {spec.width} x {spec.height} pixels exceeds the cap {cap}")
    i_min, j_min = spec.origin
    bitmap = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for i, j in _square_blocks(p):
        bitmap[j_min + spec.height - 1 - j, i - i_min] = 1
    return spec, bitmap


def _pbm_rows(bitmap: np.ndarray) -> bytes:
    """Each row as w digits and w - 1 spaces, then a newline (alone when w = 0)."""
    h, w = bitmap.shape
    rows = np.full((h, max(2 * w, 1)), ord(" "), dtype=np.uint8)
    rows[:, :-1:2] = bitmap.astype(bool) + np.uint8(ord("0"))  # bool(v), also for objects
    rows[:, -1] = ord("\n")
    return rows.tobytes()


def _pbm(width: int, height: int, blocks: Iterable[np.ndarray]) -> Iterator[bytes]:
    """The one PBM path: the header, then blocks of bitmap rows, about _BLOCK pixels a chunk."""
    step = max(1, fractal._BLOCK // max(width, 1))
    body = (_pbm_rows(block[r : r + step]) for block in blocks for r in range(0, len(block), step))
    return chain([f"P1\n{width} {height}\n".encode("ascii")], body)


def write_pbm(bitmap) -> bytes:
    """Plain PBM (magic P1, ASCII); set pixel = 1 = black."""
    try:
        bitmap = np.asarray(bitmap)
    except ValueError:  # ragged rows
        raise DomainError("bitmap rows must all have one length") from None
    if bitmap.ndim != 2:
        raise DomainError("bitmap must be two-dimensional")
    h, w = bitmap.shape
    return b"".join(_pbm(w, h, [bitmap]))


def _set_chunks(system: DigitSystem, n: int, max_squares: int | None, fmt: str) -> Iterator[bytes]:
    """The ASCII chunks of `gen` or `render` in format fmt; every gate runs before the return.

    PBM is write_pbm(rasterize(ifs_prefractal(system, n))[1]), neither
    built.  Its box is all of index_bounds, W = m^n a side (digits all -b
    or all m-1-b pair with digits all 0), and PBM row r, j = hi - r, is
    column W-1-r of the digit route's Kronecker power, or by its symmetric
    rule row W-1-r: the top_down blocks.  The rest read ifs_prefractal.
    """
    if fmt == "pbm":  # the gates (_gate, then the digit scan cap) run before m^n is computed
        blocks = fractal._digit_blocks(system, n, max_squares, top_down=True)
        return _pbm(system.m**n, system.m**n, blocks)
    p = fractal.ifs_prefractal(system, n, max_squares)
    if fmt == "json":
        return chain(fractal._json_chunks(p), [b"\n"])
    if fmt == "text":
        return (_rows(b"%d %d\n", i, j) for i, j in _square_blocks(p))
    return _svg_chunks(p)


def _svg_chunks(p: Prefractal) -> Iterator[bytes]:
    """write_svg as chunks of _BLOCK rects; an empty set raises before any chunk."""
    spec = _bounding_box(p)
    (i_min, j_min), width, height = spec.origin, spec.width, spec.height
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{i_min} {-(j_min + height)} {width} {height}" '
        f'width="{width}" height="{height}">\n'
    ).encode("ascii")
    body = (_rows(b'<rect x="%d" y="%d" width="1" height="1"/>\n', i, -1 - j)
            for i, j in _square_blocks(p))
    return chain([header], body, [b"</svg>\n"])


def write_svg(p: Prefractal) -> bytes:
    """One unit rect per square on the integer grid, y flipped so +j is up."""
    return b"".join(_svg_chunks(p))
