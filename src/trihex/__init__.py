"""Exact arithmetic in standard and balanced base-m digit systems, and the
Sierpinski-type plane fractals carved out by digitwise sum conditions.

The public names are loaded from their submodules on first access, so
`import trihex` alone imports no submodule, and numpy only comes in with
the square-set modules (fractal, dimension, render).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # public name -> the submodule that defines it
    "DEFAULT_MAX_SQUARES": "errors",
    "DigitString": "radix",
    "DigitSystem": "radix",
    "DimensionReport": "dimension",
    "DomainError": "errors",
    "GeneratorLattice": "fractal",
    "GridSquare": "fractal",
    "MembershipAutomaton": "membership",
    "Prefractal": "fractal",
    "RasterSpec": "render",
    "ResourceError": "errors",
    "ValueInterval": "radix",
    "add": "radix",
    "box_count_estimate": "dimension",
    "carry_free": "radix",
    "closed_form_dim": "dimension",
    "covers_point": "fractal",
    "digits_to_rational": "radix",
    "dim_limit_table": "dimension",
    "equivalence_check": "fractal",
    "expansions": "radix",
    "format_numeral": "radix",
    "frac_digit_choices": "radix",
    "ifs_prefractal": "fractal",
    "index_bounds": "fractal",
    "int_to_digits": "radix",
    "iterate": "fractal",
    "lattice": "fractal",
    "lattice_cardinality": "fractal",
    "lebesgue_measure": "dimension",
    "member": "membership",
    "parse_numeral": "radix",
    "prefractal_by_digits": "fractal",
    "prefractal_from_json": "fractal",
    "prefractal_to_json": "fractal",
    "rasterize": "render",
    "report_to_json": "dimension",
    "unit_square": "fractal",
    "write_pbm": "render",
    "write_svg": "render",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
