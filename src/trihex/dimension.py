"""Box-counting dimension of the grid prefractals and exact area decay."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_MAX_SQUARES, DomainError
from .radix import DigitSystem, _depth, _gate, lattice_cardinality

__all__ = [
    "DimensionReport",
    "closed_form_dim",
    "box_count_estimate",
    "lebesgue_measure",
    "report_to_json",
]


@dataclass(frozen=True)
class DimensionReport:
    """One box-count measurement against the closed form."""

    m: int
    b: int
    depth: int
    box_count: int
    estimate: float
    closed_form: float
    abs_error: float


def closed_form_dim(m: int, b: int = 0) -> float:
    """log(generator square count) / log(m)."""
    return math.log(lattice_cardinality(m, b)) / math.log(m)


def box_count_estimate(system: DigitSystem, n: int,
                       max_squares: int | None = DEFAULT_MAX_SQUARES) -> DimensionReport:
    """Count the depth-n squares (side m^-n) and read the dimension off the count.

    The geometric construction never merges squares, so the count is l^n,
    l = lattice_cardinality(m, b), and no square is built.  The depth and
    the square cap pass the construction's gates, in its order.
    """
    if _depth(n) < 1:
        raise DomainError(f"box counting needs depth >= 1, got {n}")
    _gate(system, n, max_squares)
    count = lattice_cardinality(system.m, system.b) ** n
    estimate = math.log(count) / (n * math.log(system.m))
    closed = closed_form_dim(system.m, system.b)
    return DimensionReport(system.m, system.b, n, count, estimate, closed,
                           abs(estimate - closed))


def lebesgue_measure(system: DigitSystem, n: int) -> Fraction:
    """Exact area of the depth-n prefractal: (l / m^2)^n."""
    ell = lattice_cardinality(system.m, system.b)
    return Fraction(ell, system.m**2) ** _depth(n)


def report_to_json(report: DimensionReport) -> str:
    """One-line JSON with fixed field order; reals at 12 significant digits."""
    return (
        '{"m":%d,"b":%d,"depth":%d,"box_count":%d,'
        '"estimate":%s,"closed_form":%s,"abs_error":%s}'
        % (
            report.m,
            report.b,
            report.depth,
            report.box_count,
            format(report.estimate, ".12g"),
            format(report.closed_form, ".12g"),
            format(report.abs_error, ".12g"),
        )
    )
