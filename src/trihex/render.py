"""Deterministic raster (plain PBM) and vector (SVG) output of prefractals.

One pixel or one unit rect per grid cell, nothing resampled: prefractals
are exactly grid-aligned, so any other policy would lose exactness.
Row 0 of a raster is the top of the image (largest j), keeping +y up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fractal import Prefractal, _rows

__all__ = ["RasterSpec", "rasterize", "write_pbm", "write_svg"]


@dataclass(frozen=True)
class RasterSpec:
    """Pixel geometry of a rendered prefractal: one pixel per grid cell."""

    origin: tuple[int, int]  # (i_min, j_min) of the bounding box
    width: int
    height: int


def _bounding_box(squares: np.ndarray) -> RasterSpec:
    """Integer bounding box of a nonempty N x 2 array of (i, j) squares."""
    if len(squares) == 0:
        raise DomainError("cannot render an empty prefractal")
    i_min, j_min = (int(v) for v in squares.min(axis=0))
    i_max, j_max = (int(v) for v in squares.max(axis=0))
    return RasterSpec((i_min, j_min), i_max - i_min + 1, j_max - j_min + 1)


def rasterize(p: Prefractal) -> tuple[RasterSpec, np.ndarray]:
    """Bitmap with pixel (row, col) set iff the matching cell is a square."""
    squares = p.squares
    spec = _bounding_box(squares)
    i_min, j_min = spec.origin
    bitmap = np.zeros((spec.height, spec.width), dtype=np.uint8)
    bitmap[j_min + spec.height - 1 - squares[:, 1], squares[:, 0] - i_min] = 1
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
    # each row is w digits and w - 1 spaces, then a newline (alone when w = 0)
    rows = np.full((h, max(2 * w, 1)), ord(" "), dtype=np.uint8)
    rows[:, :-1:2] = bitmap.astype(bool) + np.uint8(ord("0"))  # bool(v), also for objects
    rows[:, -1] = ord("\n")
    return f"P1\n{w} {h}\n".encode("ascii") + rows.tobytes()


def write_svg(p: Prefractal) -> bytes:
    """One unit rect per square on the integer grid, y flipped so +j is up."""
    squares = p.squares
    spec = _bounding_box(squares)
    (i_min, j_min), width, height = spec.origin, spec.width, spec.height
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{i_min} {-(j_min + height)} {width} {height}" '
        f'width="{width}" height="{height}">\n'
        + _rows('<rect x="%d" y="%d" width="1" height="1"/>\n', squares[:, 0], -1 - squares[:, 1])
        + "</svg>\n"
    ).encode("ascii")
