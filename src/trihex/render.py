"""Deterministic raster (plain PBM) and vector (SVG) output of prefractals.

One pixel or one unit rect per grid cell, nothing resampled: prefractals
are exactly grid-aligned, so any other policy would lose exactness.
Row 0 of a raster is the top of the image (largest j), keeping +y up.
`render` and `gen` write a constructed set with the numpy-free
`trihex.routes`, from the digit route's rows, with no Prefractal and no
bitmap: PBM by `_pbm_chunks`, SVG by `_set_chunks`.  The writers here
serve library sets: write_pbm feeds the same PBM formatter chunks of its
packed bitmap, and write_svg shares the SVG header.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from . import routes
from .fractal import Prefractal, _rows, _square_blocks  # before numpy: see fractal's own imports

import numpy as np

from .errors import DEFAULT_MAX_SQUARES, DomainError, ResourceError
from .radix import _Record
from .routes import _SCAN_RATIO, _pbm, _svg_head

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
    spec, cap = _bounding_box(p), _SCAN_RATIO * DEFAULT_MAX_SQUARES
    if spec.width * spec.height > cap:
        raise ResourceError(f"raster of {spec.width} x {spec.height} pixels exceeds the cap {cap}")
    i_min, j_min = spec.origin
    bitmap = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for i, j in _square_blocks(p):
        bitmap[j_min + spec.height - 1 - j, i - i_min] = 1
    return spec, bitmap


def write_pbm(bitmap) -> bytes:
    """Plain PBM (magic P1, ASCII); set pixel = 1 = black."""
    try:
        bitmap = np.asarray(bitmap)
    except ValueError:  # ragged rows
        raise DomainError("bitmap rows must all have one length") from None
    if bitmap.ndim != 2:
        raise DomainError("bitmap must be two-dimensional")
    h, w = bitmap.shape
    # pixel (r, c) is bit r * w + c of the packed bytes; astype(bool) is bool(v), also for objects
    data = np.packbits(bitmap.astype(bool), axis=None, bitorder="little").tobytes()
    step = 8 * max(1, routes._BLOCK // (8 * w or 1))  # rows a chunk: a multiple of 8 starts on a byte
    chunks = ((data[r * w // 8 : (r + step) * w // 8], min(step, h - r)) for r in range(0, h, step))
    return b"".join(_pbm(w, h, chunks))


def _svg_chunks(p: Prefractal) -> Iterator[bytes]:
    """write_svg as chunks of _BLOCK rects; an empty set raises before any chunk."""
    spec = _bounding_box(p)
    body = (_rows(b'<rect x="%d" y="%d" width="1" height="1"/>\n', i, -1 - j)
            for i, j in _square_blocks(p))
    return chain([_svg_head(*spec.origin, spec.width, spec.height)], body, [b"</svg>\n"])


def write_svg(p: Prefractal) -> bytes:
    """One unit rect per square on the integer grid, y flipped so +j is up."""
    return b"".join(_svg_chunks(p))
