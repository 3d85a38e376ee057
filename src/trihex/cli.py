"""Command-line front door: numeral conversion and arithmetic, prefractal
generation, exact membership queries, dimension reports, rendering, and
the construction equivalence check.

Exit codes: 0 success, 1 domain/resource/file/memory error or a number past
Python's int/str digit limit (one-line diagnostic on stderr), 2 usage error.

No command imports numpy: gen, render and verify run on the numpy-free
trihex.routes, imported inside their handler, and the numeral, member
and dim commands load neither numpy nor dataclasses nor inspect; dim
counts squares by the closed form instead.
Each handler imports what only it uses, since every command compiles what
it imports: trihex.membership for member, and json for member --witness.
fractions is loaded by the first function that builds a Fraction, so only
convert --x and member load it.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from typing import TYPE_CHECKING, Iterable

from .errors import DEFAULT_MAX_SQUARES, DomainError, ResourceError
from .radix import (
    DigitSystem,
    _rational,
    add,
    carry_free,
    format_numeral,
    int_to_digits,
    parse_numeral,
)

if TYPE_CHECKING:  # an annotation only: _rational builds the Fractions
    from fractions import Fraction

_RATIONAL_RE = re.compile(r"\A[+-]?[0-9]+(/[0-9]+)?\Z")
_INT_RE = re.compile(r"\A[+-]?[0-9]+\Z")


class _UsageError(Exception):
    """Bad flag combination; reported like an argparse usage failure."""


def _int_flag(text: str) -> int:
    """An integer flag value in ASCII digits: no Unicode digits, '_' or spaces."""
    try:
        if _INT_RE.match(text):
            return int(text)
    except ValueError:  # past Python's 4300-digit int/str limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise DomainError(f"malformed rational {text!r} (expected p or p/q)")
    return _rational(text)


def _parse_point(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"point must be 'x,y', got {text!r}")
    return _parse_rational(parts[0]), _parse_rational(parts[1])


def _emit(chunks: Iterable[bytes], out: str | None) -> None:
    """Write ASCII chunks to the out path, else to sys.stdout, a text stream (maybe a StringIO)."""
    if out is not None:
        with open(out, "wb") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunk.decode("ascii") for chunk in chunks)


def _cmd_convert(args) -> int:
    if (args.integer is None) == (args.x is None):
        raise _UsageError("convert needs exactly one of --int or --x")
    if args.integer is not None:
        if args.base is None:
            raise _UsageError("convert --int needs --base")
        system = DigitSystem(args.base, args.balance or 0)
        print(format_numeral(int_to_digits(args.integer, system)))
    elif args.base is not None or args.balance is not None:
        raise _UsageError("convert --x takes no --base or --balance; the numeral names its base")
    else:
        print(parse_numeral(args.x).value())
    return 0


def _cmd_add(args) -> int:
    print(format_numeral(add(parse_numeral(args.x), parse_numeral(args.y))))
    return 0


def _cmd_carryfree(args) -> int:
    print("true" if carry_free(parse_numeral(args.x), parse_numeral(args.y)) else "false")
    return 0


def _cmd_member(args) -> int:
    from .membership import _certificate, member

    system = DigitSystem(args.base, args.balance)
    x, y = _parse_point(args.point)
    if not args.witness:
        print("true" if member(x, y, system) else "false")
        return 0
    import json  # only the witness loads it

    cert = _certificate(x, y, system)
    print("true" if cert["member"] else "false")
    print(json.dumps(cert, separators=(",", ":")))
    return 0


def _cmd_gen(args) -> int:
    from .routes import _pbm_chunks, _set_chunks  # the digit route's rows, with no numpy

    system = DigitSystem(args.base, args.balance)
    if args.format == "pbm":
        chunks = _pbm_chunks(system, args.depth, args.max_squares)
    else:
        chunks = _set_chunks(system, args.depth, args.max_squares, args.format)
    _emit(chunks, args.out)
    return 0


def _cmd_dim(args) -> int:
    from .dimension import box_count_estimate, report_to_json

    system = DigitSystem(args.base, args.balance)
    report = box_count_estimate(system, args.depth, args.max_squares)
    print(report_to_json(report))
    return 0


def _cmd_verify(args) -> int:
    from .routes import _matches_digit_route

    system = DigitSystem(args.base, args.balance)
    same, geometric, digit = _matches_digit_route(system, args.depth, args.max_squares)
    if same:
        print(f"equivalence: ok ({geometric} squares)")
        return 0
    print(
        f"equivalence: MISMATCH at depth {args.depth} "
        f"({geometric} geometric vs {digit} digit squares)",
        file=sys.stderr,
    )
    return 1


def _add_system_flags(parser, depth: bool = False) -> None:
    parser.add_argument("--base", type=_int_flag, required=True, help="radix m (>= 2)")
    parser.add_argument("--balance", type=_int_flag, default=0,
                        help="balance offset b, 0 for the standard base (default 0)")
    if depth:
        parser.add_argument("--depth", type=_int_flag, required=True, help="construction depth n")
        parser.add_argument("--max-squares", type=_int_flag, default=DEFAULT_MAX_SQUARES,
                            help=f"abort above this many squares (default {DEFAULT_MAX_SQUARES})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trihex",
        description="Exact base-m / balanced base-m numerals and the plane "
                    "fractals their digit sums generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="integer -> numeral, or numeral -> rational")
    p.add_argument("--int", dest="integer", type=_int_flag, help="integer to expand")
    p.add_argument("--x", help="numeral to evaluate, e.g. '[1 0 . 2]@3b0'")
    p.add_argument("--base", type=_int_flag, help="radix m (with --int)")
    p.add_argument("--balance", type=_int_flag, help="balance offset b (with --int, default 0)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("add", help="exact sum of two numerals of one system")
    p.add_argument("--x", required=True, help="first numeral")
    p.add_argument("--y", required=True, help="second numeral")
    p.set_defaults(func=_cmd_add)

    p = sub.add_parser("carryfree", help="can the two numerals be added with no carries?")
    p.add_argument("--x", required=True, help="first numeral")
    p.add_argument("--y", required=True, help="second numeral")
    p.set_defaults(func=_cmd_carryfree)

    p = sub.add_parser("member", help="exact membership of a rational point in the limit set")
    _add_system_flags(p)
    p.add_argument("--point", required=True, help="rational point 'x,y', e.g. '1/2,1/2'")
    p.add_argument("--witness", action="store_true",
                   help="also print the answer's certificate as one JSON line")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("gen", help="generate the depth-n prefractal")
    _add_system_flags(p, depth=True)
    p.add_argument("--format", choices=["json", "text", "pbm", "svg"], default="json")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dim", help="box-count dimension report as one JSON line")
    _add_system_flags(p, depth=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("render", help="render the depth-n prefractal")
    _add_system_flags(p, depth=True)
    p.add_argument("--format", choices=["pbm", "svg"], default="pbm")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check geometric vs digit construction equivalence")
    _add_system_flags(p, depth=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        if sys.stdout is None and getattr(args, "out", None) is None:  # started with stdout closed
            raise OSError("standard output is closed")
        code = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed (gen --out)
            sys.stdout.flush()  # so a write to a closed pipe is reported here, once
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # ValueError covers DomainError and Python's 4300-digit int/str conversion limit
    except (ValueError, ResourceError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raw = getattr(sys.stdout, "buffer", None)
    if isinstance(raw, io.RawIOBase):  # python -u: a raw write may stop short without an error
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(raw), sys.stdout.encoding,
                                      write_through=True)
    code = run(sys.argv[1:])
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:  # run reported it; drop the unwritten rest, or exit fails on it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
