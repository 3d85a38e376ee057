"""Box-counting dimension of the grid prefractals and exact area decay."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .fractal import DEFAULT_MAX_SQUARES, ifs_prefractal, lattice_cardinality
from .radix import DigitSystem, _depth

__all__ = [
    "DimensionReport",
    "closed_form_dim",
    "box_count_estimate",
    "lebesgue_measure",
    "dim_limit_table",
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

    The count is taken from the actual geometric construction, not from
    the closed-form power, so the report cross-checks both.
    """
    if _depth(n) < 1:
        raise DomainError(f"box counting needs depth >= 1, got {n}")
    count = len(ifs_prefractal(system, n, max_squares))
    estimate = math.log(count) / (n * math.log(system.m))
    closed = closed_form_dim(system.m, system.b)
    return DimensionReport(system.m, system.b, n, count, estimate, closed,
                           abs(estimate - closed))


def lebesgue_measure(system: DigitSystem, n: int) -> Fraction:
    """Exact area of the depth-n prefractal: (l / m^2)^n."""
    ell = lattice_cardinality(system.m, system.b)
    return Fraction(ell, system.m**2) ** _depth(n)


def dim_limit_table(b: int, m_values: Iterable[int]) -> list[tuple[int, float]]:
    """Closed-form dimension for each radix at a fixed balance."""
    return [(m, closed_form_dim(m, b)) for m in m_values]


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
