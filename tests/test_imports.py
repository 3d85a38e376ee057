"""Lazy package exports; numpy, dataclasses and inspect kept out of the numpy-free commands."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trihex
from trihex.cli import run

SUBMODULES = ("errors", "radix", "membership", "fractal", "dimension", "render", "cli")


def _guard_lines(code: str) -> list[str]:
    """The lines that code prints in a fresh interpreter, with this trihex on its path."""
    src = str(Path(trihex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True).stdout.splitlines()


NUMPY_GUARD = """
import contextlib, io, sys, trihex
print("submodules after import trihex:", sorted(m for m in sys.modules if m.startswith("trihex.")))
print("hasattr before import:", hasattr(trihex, "fractal"), hasattr(trihex, "cli"))
for name in ["member", "MembershipAutomaton", "DigitSystem", "DomainError", "ResourceError",
             "DEFAULT_MAX_SQUARES"]:
    getattr(trihex, name)
from trihex import cli
print("numpy after numpy-free names and cli:", "numpy" in sys.modules)
numeral_and_member = [
    ["member", "--base", "3", "--balance", "1", "--point=-1/3,1/3"],
    ["convert", "--int", "14", "--base", "3", "--balance", "1"],
    ["convert", "--x", "[1 0 . 2]@3b0"],
    ["add", "--x", "[1 0 . 2]@3b0", "--y", "[2 1 . 1]@3b0"],
    ["carryfree", "--x", "[0 . 1]@2b0", "--y", "[0 . 0 1]@2b0"],
]
for argv in numeral_and_member:
    assert trihex.cli.run(argv) == 0, argv
print("numpy after numeral and member commands:", "numpy" in sys.modules)
print("dataclasses, inspect after them:", "dataclasses" in sys.modules, "inspect" in sys.modules)
assert trihex.cli.run(["dim", "--base", "3", "--balance", "1", "--depth", "8"]) == 0
print("numpy, trihex.fractal after dim:", "numpy" in sys.modules, "trihex.fractal" in sys.modules)
print("dataclasses, inspect after dim:", "dataclasses" in sys.modules, "inspect" in sys.modules)
trihex.Prefractal
print("numpy after Prefractal:", "numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert trihex.cli.run(["gen", "--base", "2", "--depth", "2", "--format", "text"]) == 0
print("numpy after gen:", "numpy" in sys.modules)
print("dataclasses, inspect after gen:", "dataclasses" in sys.modules, "inspect" in sys.modules)
"""


def test_numeral_and_member_commands_run_without_numpy():
    assert _guard_lines(NUMPY_GUARD) == [
        "submodules after import trihex: []",
        "hasattr before import: False False",
        "numpy after numpy-free names and cli: False",
        "true", "[1 -1 -1 -1]@3b1", "11/3", "[1 0 2]@3b0", "true",
        "numpy after numeral and member commands: False",
        "dataclasses, inspect after them: False False",
        '{"m":3,"b":1,"depth":8,"box_count":5764801,'
        '"estimate":1.77124374916,"closed_form":1.77124374916,"abs_error":0}',
        "numpy, trihex.fractal after dim: False False",
        "dataclasses, inspect after dim: False False",
        "numpy after Prefractal: True",
        "numpy after gen: True",  # gen does load it, so the check above is not vacuous
        "dataclasses, inspect after gen: False True",  # numpy loads inspect; no trihex module
    ]


DUNDER_GUARD = """
import sys, trihex
print("dunder probes:", hasattr(trihex, "__wrapped__"), getattr(trihex, "__test__", {}))
print("numpy after them:", "numpy" in sys.modules)
print("missing public name:", hasattr(trihex, "nosuch"))
print("numpy after it:", "numpy" in sys.modules)
"""


def test_underscore_names_fail_before_any_import():
    assert _guard_lines(DUNDER_GUARD) == [
        "dunder probes: False {}",
        "numpy after them: False",
        "missing public name: False",
        "numpy after it: True",  # only every __all__ read shows a name is missing
    ]


STDLIB_GUARD = """
import contextlib, io, sys
from trihex import cli
commands = [
    ["verify", "--base", "3", "--balance", "1", "--depth", "3"],
    ["dim", "--base", "3", "--balance", "1", "--depth", "4"],
    ["gen", "--base", "2", "--depth", "2", "--format", "json"],
    ["convert", "--int", "0", "--base", "2"],
    ["add", "--x", "[1 0 . 2]@3b0", "--y", "[2 1 . 1]@3b0"],
    ["carryfree", "--x", "[0 . 1]@2b0", "--y", "[0 . 0 1]@2b0"],
    ["convert", "--x", "[1 0 . 2]@3b0"],
    ["member", "--base", "2", "--point", "1/3,1/5", "--witness"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
    print(argv[0], "json" in sys.modules, "fractions" in sys.modules)
"""


def test_square_set_and_numeral_commands_load_neither_json_nor_fractions():
    assert _guard_lines(STDLIB_GUARD) == [
        "verify False False", "dim False False", "gen False False", "convert False False",
        "add False False", "carryfree False False",
        "convert False True",  # convert --x builds a Fraction
        "member True True",  # --witness prints JSON, so the check above is not vacuous
    ]


EXPORTS = [
    "DEFAULT_MAX_SQUARES", "DigitString", "DigitSystem", "DimensionReport", "DomainError",
    "GeneratorLattice", "MembershipAutomaton", "Prefractal", "RasterSpec",
    "ResourceError", "ValueInterval", "add", "box_count_estimate", "carry_free",
    "closed_form_dim", "covers_point", "digits_to_rational",
    "equivalence_check", "expansions", "format_numeral", "frac_digit_choices", "ifs_prefractal",
    "index_bounds", "int_to_digits", "iterate", "lattice", "lattice_cardinality",
    "lebesgue_measure", "member", "parse_numeral", "prefractal_by_digits",
    "prefractal_from_json", "prefractal_to_json", "rasterize", "report_to_json", "unit_square",
    "write_pbm", "write_svg",
]


def test_public_names_are_pinned():
    assert trihex.__all__ == EXPORTS
    assert vars(trihex)["__version__"] == "0.1.0"


def test_every_export_is_its_submodule_object():
    modules = [importlib.import_module(f"trihex.{name}") for name in SUBMODULES]
    for name in trihex.__all__:
        value = getattr(trihex, name)
        homes = [m for m in modules if hasattr(m, name)]
        assert homes, name
        assert all(getattr(m, name) is value for m in homes), name


def test_dir_and_star_import_list_every_export():
    assert set(trihex.__all__) <= set(dir(trihex))
    namespace = {}
    exec("from trihex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(trihex.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        trihex.no_such_name  # noqa: B018
    assert not hasattr(trihex, "MAX_SQUARES")


HELP = {
    "gen": """\
usage: trihex gen [-h] --base BASE [--balance BALANCE] --depth DEPTH
                  [--max-squares MAX_SQUARES] [--format {json,text,pbm,svg}]
                  [--out OUT]

options:
  -h, --help            show this help message and exit
  --base BASE           radix m (>= 2)
  --balance BALANCE     balance offset b, 0 for the standard base (default 0)
  --depth DEPTH         construction depth n
  --max-squares MAX_SQUARES
                        abort above this many squares (default 10000000)
  --format {json,text,pbm,svg}
  --out OUT             output path (default: stdout)
""",
    "dim": """\
usage: trihex dim [-h] --base BASE [--balance BALANCE] --depth DEPTH
                  [--max-squares MAX_SQUARES]

options:
  -h, --help            show this help message and exit
  --base BASE           radix m (>= 2)
  --balance BALANCE     balance offset b, 0 for the standard base (default 0)
  --depth DEPTH         construction depth n
  --max-squares MAX_SQUARES
                        abort above this many squares (default 10000000)
""",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_keeps_the_square_cap_default(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "--help"]) == 0
    assert capsys.readouterr().out == HELP[command]
