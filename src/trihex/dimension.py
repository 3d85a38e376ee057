"""Box-counting dimension of the grid prefractals and exact area decay."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DEFAULT_MAX_SQUARES, DomainError
from .radix import DigitSystem, _depth, _gate, _Record, lattice_cardinality

if TYPE_CHECKING:  # only lebesgue_measure builds one; dim does not load it
    from fractions import Fraction

__all__ = [
    "DimensionReport",
    "closed_form_dim",
    "box_count_estimate",
    "lebesgue_measure",
    "report_to_json",
]


class DimensionReport(_Record):
    """One box-count measurement against the closed form."""

    __slots__ = ("m", "b", "depth", "box_count", "estimate", "closed_form", "abs_error")


# the one JSON line of a report: its four integer fields, then its three reals
_REPORT_JSON = "{%s}" % ",".join(f'"{name}":%{spec}' for name, spec in zip(
    DimensionReport.__slots__, ("d",) * 4 + (".12g",) * 3, strict=True))


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
    from fractions import Fraction

    ell = lattice_cardinality(system.m, system.b)
    return Fraction(ell, system.m**2) ** _depth(n)


def report_to_json(report: DimensionReport) -> str:
    """One-line JSON in __slots__ order; reals at 12 significant digits."""
    return _REPORT_JSON % report._values()
