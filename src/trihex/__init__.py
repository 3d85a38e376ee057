"""Exact arithmetic in standard and balanced base-m digit systems, and the
Sierpinski-type plane fractals carved out by digitwise sum conditions.

The public names are each submodule's `__all__`, loaded on first access,
so `import trihex` alone imports no submodule.  Names are looked up in
the numpy-free submodules first; numpy only comes in with the square-set
modules (fractal, render).  `trihex.check_certificate`, the independent
check of membership certificates, is found after them in `certify`; it
audits the decision and stays out of `__all__`.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("errors", "radix", "membership", "automaton", "dimension", "fractal", "render")


def _modules(names=_SUBMODULES):
    return (importlib.import_module(f".{name}", __name__) for name in names)


def __getattr__(name):
    if name == "__all__":
        return sorted({n for module in _modules() for n in module.__all__})
    # a submodule name must fail at once: the import system probes it before loading;
    # so must a "_" name, as no __all__ holds one (hasattr(trihex, "__wrapped__"), doctest)
    if name not in _SUBMODULES and name not in ("cli", "certify") and not name.startswith("_"):
        for module in _modules((*_SUBMODULES, "certify")):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
