"""The two constructions of a depth-n square set as Python-int scan rows, and the set's text.

numpy-free, so no command loads numpy: `verify` compares the routes, and
`render` and `gen` write the digit route's rows in every format.
Both routes stream the W = m^n scan rows of the shifted-digit frame, one
int each, in order: bit c of row r is square (lo + r, lo + c), whose key
is r * W + c (see fractal.Prefractal).  The geometric route copies cells
under the generator lattice's shifts; the digit route takes the
Kronecker power of the digit rule.  Each splits the digits at k = n // 2
and yields each of its m^k low rows times each row of its top factor,
whose cells lie at stride m^k: the bits of the two factors never meet,
so each product is exact and carries nothing.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat, zip_longest
from typing import Iterable, Iterator

from .errors import ResourceError
from .radix import DigitSystem, _gate, lattice_cardinality

_BLOCK = 65536  # squares per writer chunk, so a writer's memory does not grow with its output
_SCAN_RATIO = 32  # cells the digit scan may visit per square of the cap
_BIT = [(b"0" * 2**t + b"1" * 2**t) * (128 >> t) for t in range(8)]  # byte -> ASCII of its bit t
_BINARY = bytes.maketrans(b"01", b"\0\1")  # bin()'s digits -> compress's selectors


def _lattice_points(system: DigitSystem) -> Iterator[tuple[int, int]]:
    """The shift pairs (k, h) with k, h and k + h all in the alphabet, sorted."""
    lo, hi = system.min_digit, system.max_digit
    # for each k the valid h form one range, so the pairs come out sorted
    return ((k, h) for k in range(lo, hi + 1)
            for h in range(max(lo, lo - k), min(hi, hi - k) + 1))


def _digit_factors(system: DigitSystem, n: int, k: int,
                   top_down: bool = False) -> tuple[list[int], Iterator[int]]:
    """The digit route's two factors: its m^k low rows and the walk over its top rows.

    On digits shifted by b into [0, m-1] the rule is the m x m matrix
    A[u, v] = (b <= u + v <= m-1+b), and the kept cells are those of its
    n-fold Kronecker power.  Row u of A is one range of v, so spread at
    stride c it is one geometric series of bits, computed exactly.  A
    row of the power is the product of such rows, digit t's at stride
    m^t: the low rows, over the k low digits, are built once, and a
    depth-first walk over the top n - k digits multiplies in one row per
    level.  So row c * m^k + r of the power is low[r] times the walk's
    row c, whose cells lie at stride m^k.  top_down walks the rows in
    reverse order, row W-1 first, from A[::-1]: reversing A's rows
    reverses every base-m digit of a row index.  No rule is built at
    depth 0, however large the base.
    """
    m, b = system.m, system.b
    order = range(m - 1, -1, -1) if top_down else range(m)
    # row u of A at stride c: bits v * c for v from max(0, b - u) to min(m-1, m-1+b - u)
    rule = [[((1 << min(m, m + b - u) * c) - (1 << max(0, b - u) * c)) // ((1 << c) - 1)
             for u in order] for c in (m**t for t in range(n))]
    low = [1]
    for t in range(k):
        low = [x * y for x in rule[t] for y in low]  # digit t on top of the lower digits

    def walk(t: int, top: int) -> Iterator[int]:
        if t < k:
            yield top
            return
        for row in rule[t]:
            yield from walk(t - 1, top * row)

    return low, walk(n - 1, 1)


def _digit_rows(system: DigitSystem, n: int, max_squares: int | None,
                top_down: bool = False) -> Iterator[int]:
    """The digit route's scan rows (see the module docstring and _digit_factors).

    The gates (_gate, then the scan cap) run at the call, before any rule
    is built.
    """
    _, width = _gate(system, n, max_squares)
    if max_squares is not None and width * width > _SCAN_RATIO * max_squares:
        raise ResourceError(f"digit scan at depth {n} exceeds the cap {max_squares}")
    low, tops = _digit_factors(system, n, n // 2, top_down)
    return (row * top for top in tops for row in low)


def _ifs_rows(system: DigitSystem, depth: int, stride: int) -> list[int]:
    """P_depth as its m^depth row ints, cell (i, j) of the shifted-digit frame at bit j * stride.

    From the unit cell, each level puts every row under each lattice shift
    (k, h): the shifted digits k + b and h + b go on top of the row's and
    its cells', one shift-and-OR per point and row, as fractal.iterate
    does on keys.  The points are enumerated again at each level, never
    held, and not at depth 0, however large the base.
    """
    m, b, rows = system.m, system.b, [1]
    for t in range(depth):
        grown, w = [0] * m ** (t + 1), m**t
        for k, h in _lattice_points(system):
            top, shift = (k + b) * w, (h + b) * w * stride
            for i, row in enumerate(rows):
                grown[top + i] |= row << shift
        rows = grown
    return rows


def _geometric_rows(system: DigitSystem, n: int) -> Iterator[int]:
    """The geometric route's scan rows, those of _digit_rows; after _gate.

    P_n is P_(n-k) stacked on P_k, k = n // 2: each square of P_(n-k)
    puts its digits on top of every square of P_k.  So row c * m^k + r
    is row r of P_k times row c of P_(n-k), whose cells lie at stride
    m^k.  Both factors are built by the IFS and held, about m^(n/2) rows
    each: a row is never built from the digits of its index, which would
    be the digit rule again, and the two routes would stop being
    independent.
    """
    k = n // 2
    low = _ifs_rows(system, k, 1)
    for top in _ifs_rows(system, n - k, system.m**k):
        yield from (row * top for row in low)


def _matches_digit_route(system: DigitSystem, n: int,
                         max_squares: int | None) -> tuple[bool, int, int]:
    """(the two routes give the same cells, the geometric count, the digit count).

    The digit route is called first, so its gates (_gate, the scan cap) run
    before either route builds.  zip_longest pairs the routes' rows, a
    short stream read as None, which equals no row; both are counted to
    the end, past a difference, so a MISMATCH line gives both totals.
    """
    same, geometric, digit = True, 0, 0
    for d, g in zip_longest(_digit_rows(system, n, max_squares), _geometric_rows(system, n)):
        same = same and d == g
        geometric, digit = geometric + (g or 0).bit_count(), digit + (d or 0).bit_count()
    return same, geometric, digit


def _row_chunks(rows: Iterable[int], width: int) -> Iterator[tuple[bytes, int]]:
    """The rows of `width` cells as (bytes, count) chunks of _BLOCK cells, or of one wider row.

    Row r of a chunk is its bits r * width on, little-endian.  The rows
    are joined in pairs, log2(count) rounds, so a bit is copied that many
    times, not count.
    """
    rows, step = iter(rows), max(1, _BLOCK // width)
    while group := list(islice(rows, step)):
        count, stride = len(group), width
        while len(group) > 1:
            group = [lo | hi << stride
                     for lo, hi in zip_longest(group[::2], group[1::2], fillvalue=0)]
            stride *= 2
        yield group[0].to_bytes(-(-count * width // 8), "little"), count


def _pbm_rows(data: bytes, width: int, count: int) -> bytes | bytearray:
    """count bitmap rows, pixel c of row r at bit r * width + c of data's bytes, as PBM lines."""
    if not width:  # a row of no pixels is its newline alone
        return b"\n" * count
    out = bytearray(b" ") * (16 * len(data))  # a digit and a space per pixel, 8 a byte
    for t, table in enumerate(_BIT):
        out[2 * t :: 16] = data.translate(table)
    del out[2 * width * count :]  # the pixels past the last row that its byte holds
    out[2 * width - 1 :: 2 * width] = b"\n" * count
    return out


def _pbm(width: int, height: int, chunks: Iterable[tuple[bytes, int]]) -> Iterator[bytes]:
    """The one PBM path: the header, then each (bytes, count) chunk of rows (see _pbm_rows)."""
    yield f"P1\n{width} {height}\n".encode("ascii")
    for data, count in chunks:
        yield _pbm_rows(data, width, count)


def _pbm_chunks(system: DigitSystem, n: int, max_squares: int | None) -> Iterator[bytes]:
    """`render`'s PBM chunks, and `gen --format pbm`'s; every gate runs before the return.

    They are write_pbm(rasterize(ifs_prefractal(system, n))[1]), neither
    built.  The box is all of index_bounds, W = m^n a side (digits all -b
    or all m-1-b pair with digits all 0), and PBM row r, j = hi - r, is
    column W-1-r of the digit route's Kronecker power, or by its symmetric
    rule row W-1-r: the top_down rows.
    """
    rows = _digit_rows(system, n, max_squares, top_down=True)  # before m^n is computed
    width = system.m**n
    return _pbm(width, width, _row_chunks(rows, width))


def _bits(x: int) -> bytes:
    """x's bits, lowest first, as bytes 0 or 1, up to its highest set bit."""
    return bin(x)[:1:-1].encode("ascii").translate(_BINARY)


def _json_head(system: DigitSystem, depth: int, squares: int) -> bytes:
    """The JSON export's text up to its first square."""
    return (f'{{"m":{system.m},"b":{system.b},"depth":{depth},"count":{squares},'
            '"squares":[').encode("ascii")


def _svg_head(i: int, j: int, width: int, height: int) -> bytes:
    """The SVG header of the box of width x height cells from cell (i, j), y flipped so +j is up."""
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{i} {-(j + height)} {width} {height}" '
            f'width="{width}" height="{height}">\n').encode("ascii")


def _text_rows(system: DigitSystem, n: int, lo: int, sep: bytes,
               texts: list[bytes]) -> Iterator[bytes]:
    """For each row i in order, sep % i before the text of each of its cells, texts[j - lo].

    The digit route's factors over the k low digits, k >= 1 with m^k at
    most 128 cells where m allows: row c * m^k + r is low row r under
    the cells q of top row c, and cell q * m^k + s is text s of the
    slice of m^k texts from q * m^k.  compress picks a slice's texts by
    low row r's bits and join puts sep % i before each, both C loops: no
    Python code runs per square.  A low row's selector is built when its
    row is written, so a base past 128 holds m bytes of them, not m^2.
    """
    k = min(n, next((t for t in range(7, 1, -1) if system.m**t <= 128), 1))  # 128 = 2^7
    step = system.m**k
    slices = [texts[q : q + step] for q in range(0, len(texts), step)]
    low, tops = _digit_factors(system, n, k)
    for c, top in enumerate(tops):
        cells = [slices[q] for q in compress(range(len(slices)), _bits(top)[::step])]
        for i, row in enumerate(low, lo + c * step):
            yield (sep % i).join(chain([b""], *map(compress, cells, repeat(_bits(row)))))


def _set_chunks(system: DigitSystem, n: int, max_squares: int | None,
                fmt: str) -> Iterator[bytes]:
    """`gen`'s JSON, text or SVG chunks; every gate runs before the return.

    They are the library's prefractal_to_json (and a newline), text rows
    or write_svg of ifs_prefractal(system, n), which is not built: a row
    of _text_rows at a time, under closed-form headers.  The count is
    l^n, l = lattice_cardinality, and the box is all of index_bounds, W
    = m^n a side: every digit string of i pairs with j's digits all 0.
    The texts are W <= l^n <= max_squares, so _gate bounds them too.
    """
    lo, width = _gate(system, n, max_squares)
    columns = range(lo, lo + width)
    if fmt == "json":
        head = _json_head(system, n, lattice_cardinality(system.m, system.b) ** n)
        sep, cell, tail = b",[%d,", b"%d]", b"]}\n"
    elif fmt == "text":
        head, sep, cell, tail = b"", b"%d ", b"%d\n", b""
    else:
        head = _svg_head(lo, lo, width, width)
        sep, cell, tail = b'<rect x="%d" y="', b'%d" width="1" height="1"/>\n', b"</svg>\n"
        columns = range(-1 - lo, -1 - lo - width, -1)  # a rect's y is -1 - j
    rows = _text_rows(system, n, lo, sep, [cell % j for j in columns])
    if fmt == "json":
        rows = chain([next(rows)[1:]], rows)  # no comma before the first square
    return chain([head], rows, [tail])
