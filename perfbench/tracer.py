"""Traced run of one trihex CLI command, in a fresh process.

    PYTHONPATH=src python3 perfbench/tracer.py STDOUT_FILE -- <trihex args>

Runs `trihex.cli.run(args)` in-process with its standard output captured
to STDOUT_FILE, then replays the command's calls into the public
functions of trihex.radix, .fractal, .dimension and .render one by one,
and probes sub-steps the CLI does not call on their own.  Spans are kept
in memory and printed once, as one JSON line on standard output, with
the exact counts of the work done.

Span tree of one command:

    command
      cli.run   the command as the CLI runs it
      replay    the layer calls cli.run makes, again, one span each
      probe     calls cli.run does not make: sub-steps and read-back
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import numpy as np

from trihex import cli, dimension, fractal, radix, render


class Trace:
    """Spans as [id, parent id, name, start, end], plus exact counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.alloc_peak = 0

    @contextmanager
    def span(self, name: str, parent: int | None):
        rec = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        try:
            yield rec[0]
        finally:
            rec[4] = time.perf_counter()


def _system(args) -> radix.DigitSystem:
    return radix.DigitSystem(args.base, args.balance)


def _probe_construction(tr: Trace, probe: int, system, n: int) -> None:
    """The last level's iterate, its canonicalisation alone, and the
    tracemalloc peak of the whole construction."""
    lat = fractal.lattice(system.m, system.b)
    prev = fractal.ifs_prefractal(system, n - 1)
    with tr.span("fractal.iterate_last", probe):
        last = fractal.iterate(prev, lat)
    del last
    # iterate's broadcast, so that only Prefractal(...) is timed below
    shifts = np.asarray(lat.points, dtype=np.int64) * system.m ** (n - 1)
    kids = (prev.squares[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
    del prev
    with tr.span("fractal.canonicalise", probe):
        canon = fractal.Prefractal(system, n, kids)
    del canon, kids
    tracemalloc.start()
    try:
        fractal.ifs_prefractal(system, n)
        tr.alloc_peak = max(tr.alloc_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def _ifs(tr: Trace, parent: int, system, n: int):
    with tr.span("fractal.ifs_prefractal", parent):
        p = fractal.ifs_prefractal(system, n)
    tr.counts["squares_built"] += len(p)
    return p


def replay_draw(args, tr: Trace, root: int) -> None:
    """gen (every format) and render."""
    system = _system(args)
    text = None
    with tr.span("replay", root) as rep:
        p = _ifs(tr, rep, system, args.depth)
        if args.format == "json":
            with tr.span("fractal.prefractal_to_json", rep):
                text = fractal.prefractal_to_json(p)
        elif args.format == "pbm":
            with tr.span("render.rasterize", rep):
                _, bitmap = render.rasterize(p)
            with tr.span("render.write_pbm", rep):
                render.write_pbm(bitmap)
            tr.counts["pbm_squares"] += len(p)
            tr.counts["pbm_pixels"] += bitmap.size
        elif args.format == "svg":
            with tr.span("render.write_svg", rep):
                render.write_svg(p)
        # text: the formatter is part of cli itself, so it lands in cli.self_s
    with tr.span("probe", root) as probe:
        if text is not None:
            with tr.span("fractal.prefractal_from_json", probe):
                back = fractal.prefractal_from_json(text)
            if back != p:
                raise SystemExit("prefractal JSON does not read back to the same squares")
        del p, text
        _probe_construction(tr, probe, system, args.depth)


def replay_verify(args, tr: Trace, root: int) -> None:
    system = _system(args)
    with tr.span("replay", root) as rep:
        g = _ifs(tr, rep, system, args.depth)
        with tr.span("fractal.prefractal_by_digits", rep):
            d = fractal.prefractal_by_digits(system, args.depth)
        with tr.span("fractal.equal", rep):
            same = g == d
    if not same:
        raise SystemExit("geometric and digit constructions differ")
    lo, hi = fractal.index_bounds(system, args.depth)
    tr.counts["by_digits_kept"] += len(d)
    tr.counts["by_digits_scanned"] += (hi - lo + 1) ** 2
    del g, d
    with tr.span("probe", root) as probe:
        _probe_construction(tr, probe, system, args.depth)


def replay_dim(args, tr: Trace, root: int) -> None:
    system = _system(args)
    with tr.span("replay", root) as rep:
        with tr.span("dimension.box_count_estimate", rep):
            dimension.box_count_estimate(system, args.depth)
    with tr.span("probe", root) as probe:
        # the same construction alone, to split box counting's own time off
        _ifs(tr, probe, system, args.depth)
        _probe_construction(tr, probe, system, args.depth)


def replay_member(args, tr: Trace, root: int) -> None:
    system = _system(args)
    x, y = (Fraction(v) for v in args.point.split(","))
    with tr.span("replay", root) as rep:
        with tr.span("fractal.member", rep):
            automaton = fractal.MembershipAutomaton(system)
            automaton.decide(x, y)
    states = automaton.states()
    tr.counts["member_states"] += len(states)
    tr.counts["member_alive"] += sum(v == "alive" for v in states.values())
    remainders = {r for state in states for r in state}
    tr.counts["remainders"] += len(remainders)
    with tr.span("probe", root) as probe:
        with tr.span("radix.frac_digit_choices", probe):
            for r in remainders:
                radix.frac_digit_choices(r, system)


def _radix_call(tr: Trace, parent: int, fn, *args):
    with tr.span(f"radix.{fn.__name__}", parent):
        return fn(*args)


def replay_convert(args, tr: Trace, root: int) -> None:
    with tr.span("replay", root) as rep:
        if args.integer is not None:
            x = _radix_call(tr, rep, radix.int_to_digits, args.integer, _system(args))
            _radix_call(tr, rep, radix.format_numeral, x)
        else:
            x = _radix_call(tr, rep, radix.parse_numeral, args.x)
            _radix_call(tr, rep, radix.digits_to_rational, x)


def replay_add(args, tr: Trace, root: int) -> None:
    with tr.span("replay", root) as rep:
        x = _radix_call(tr, rep, radix.parse_numeral, args.x)
        y = _radix_call(tr, rep, radix.parse_numeral, args.y)
        _radix_call(tr, rep, radix.format_numeral, _radix_call(tr, rep, radix.add, x, y))


def replay_carryfree(args, tr: Trace, root: int) -> None:
    with tr.span("replay", root) as rep:
        x = _radix_call(tr, rep, radix.parse_numeral, args.x)
        y = _radix_call(tr, rep, radix.parse_numeral, args.y)
        _radix_call(tr, rep, radix.carry_free, x, y)


REPLAYS = {
    "gen": replay_draw,
    "render": replay_draw,
    "verify": replay_verify,
    "dim": replay_dim,
    "member": replay_member,
    "convert": replay_convert,
    "add": replay_add,
    "carryfree": replay_carryfree,
}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STDOUT_FILE -- <trihex args>", file=sys.stderr)
        return 2
    stdout_path, cli_args = argv[0], argv[2:]
    args = cli.build_parser().parse_args(cli_args)
    tr = Trace()
    captured = io.StringIO()
    with tr.span("command", None) as root:
        with tr.span("cli.run", root), redirect_stdout(captured):
            rc = cli.run(cli_args)
        REPLAYS[args.command](args, tr, root)
    data = captured.getvalue().encode("ascii")
    with open(stdout_path, "wb") as handle:
        handle.write(data)
    if getattr(args, "out", None):
        tr.counts["bytes_out"] += os.path.getsize(args.out)
    tr.counts["bytes_out"] += len(data)
    print(json.dumps({"rc": rc, "spans": tr.spans, "counts": tr.counts,
                      "alloc_peak": tr.alloc_peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
