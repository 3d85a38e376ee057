"""Deterministic raster (plain PBM) and vector (SVG) output of prefractals.

One pixel or one unit rect per grid cell, nothing resampled: prefractals
are exactly grid-aligned, so any other policy would lose exactness.
Row 0 of a raster is the top of the image (largest j), keeping +y up.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from . import fractal
from .errors import DomainError
from .fractal import Prefractal, _rows, _square_blocks
from .radix import _Record

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
    """Bitmap with pixel (row, col) set iff the matching cell is a square."""
    spec = _bounding_box(p)
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


def _pbm_chunks(bitmap) -> Iterator[bytes]:
    """write_pbm as chunks of whole rows, about _BLOCK pixels each; checked before any chunk."""
    try:
        bitmap = np.asarray(bitmap)
    except ValueError:  # ragged rows
        raise DomainError("bitmap rows must all have one length") from None
    if bitmap.ndim != 2:
        raise DomainError("bitmap must be two-dimensional")
    h, w = bitmap.shape
    step = max(1, fractal._BLOCK // max(w, 1))
    body = (_pbm_rows(bitmap[r : r + step]) for r in range(0, h, step))
    return chain([f"P1\n{w} {h}\n".encode("ascii")], body)


def write_pbm(bitmap) -> bytes:
    """Plain PBM (magic P1, ASCII); set pixel = 1 = black."""
    return b"".join(_pbm_chunks(bitmap))


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
