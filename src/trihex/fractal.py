"""Depth-n prefractals on the m-adic grid.

Two independent constructions of the same square sets are provided: the
geometric route (each square spawns one child per generator-lattice
shift) and the digit route (the n-fold Kronecker power of the m x m
matrix that marks the digit pairs whose sum stays inside the alphabet;
the flat indices of its set cells are the square keys).  Both stream
boolean cell masks over the same blocks of scan rows, each route in one
reused buffer, and `equivalence_check` compares them a block of each
route at a time, in place, with no key array on either side; the
geometric stream also holds P_(n-k), the whole set when a block is one
row (see _geometric_blocks).  Read last row first, the digit route's
rows are also the PBM rows that `render` streams (see trihex.render).  The
membership decisions live in the numpy-free `trihex.membership` and
`trihex.automaton`; no square-set command compiles them.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain, product
from typing import Iterator

import numpy as np

from .errors import DEFAULT_MAX_SQUARES, DomainError, ResourceError
from .radix import (DigitSystem, _cap, _gate, _key_frame, _rational, _Record, index_bounds,
                    lattice_cardinality)

__all__ = [
    "DEFAULT_MAX_SQUARES",
    "GeneratorLattice",
    "Prefractal",
    "MembershipAutomaton",
    "lattice",
    "lattice_cardinality",
    "index_bounds",
    "unit_square",
    "iterate",
    "ifs_prefractal",
    "prefractal_by_digits",
    "equivalence_check",
    "covers_point",
    "prefractal_to_json",
    "prefractal_from_json",
]


def __getattr__(name):
    if name == "MembershipAutomaton":  # perfbench/tracer.py reads it here; loaded on first use
        from .automaton import MembershipAutomaton
        return MembershipAutomaton
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class GeneratorLattice(_Record):
    """A set of shift pairs (k, h) of integers with k, h and k + h all inside the digit alphabet.

    Checked once, here: any other point, or a repeated one, is a DomainError.
    """

    __slots__ = ("system", "points")

    def __init__(self, system: DigitSystem, points) -> None:
        lo, hi = system.min_digit, system.max_digit
        outside = DomainError(f"lattice point outside the alphabet of base {system}")
        try:
            pairs = tuple(map(tuple, points))  # tuples pass as they are; lists are copied
            k, h = _index_pairs(pairs).T  # the integer-pair gate of Prefractal's rows
        except (DomainError, TypeError):  # not pairs of integers, or past int64
            raise outside from None
        coords = np.stack([k, h, k + h])  # int64 arrays: unlike numpy scalars, k + h never warns
        if not np.all((lo <= coords) & (coords <= hi)):
            raise outside
        if np.any(np.diff(np.sort(k * system.m + h)) == 0):  # k*m + h is one-to-one here
            raise DomainError(f"repeated lattice point in base {system}")
        super().__init__(system, pairs)  # edits to the caller's lists cannot reach it

    def __len__(self) -> int:
        return len(self.points)


def lattice(m: int, b: int = 0) -> GeneratorLattice:
    """Enumerate the generator lattice for the (m, b) digit system."""
    system = DigitSystem(m, b)
    lo, hi = system.min_digit, system.max_digit
    # for each k the valid h form one range, so the pairs come out sorted
    pts = tuple((k, h) for k in range(lo, hi + 1)
                for h in range(max(lo, lo - k), min(hi, hi - k) + 1))
    return GeneratorLattice(system, pts)


_BLOCK = 65536  # squares per writer chunk, so a writer's memory does not grow with its output
_SCAN_CELLS = 2**18  # cells per block of either route, so verify holds about one block of each
_SCAN_RATIO = 32  # cells the digit scan may visit per square of the cap


def _field(v: np.ndarray) -> np.ndarray:
    """`b"%d" % x` for each x in the int64 column v, in uint8 rows NUL-padded at any position."""
    lo, hi = (int(v.min()), int(v.max())) if v.size else (0, 0)
    if hi - lo < v.size - 1:  # the column spans fewer values than rows: format each once
        return np.take(_field(np.arange(lo, hi + 1)), v - lo, axis=0)
    rest = np.abs(v)
    w = len(str(rest.max(initial=0)))
    rows = np.zeros((v.size, w + 1), np.uint8)
    rows[v < 0, 0] = ord("-")
    for c in range(w, 0, -1):  # units digit first; the columns left of the leading digit stay NUL
        q = rest // 10  # numpy divides by a constant several times faster than it takes % 10
        rows[:, c] = (rest - 10 * q + ord("0")) * (rest >= (c < w))  # the units digit even at 0
        rest = q
    return rows


def _rows(template: bytes, *columns: np.ndarray) -> bytearray:
    """`template % row` for each row of the integer columns, joined, with _field's NULs deleted."""
    head, *tails = template.split(b"%d")
    fields = [_field(c) for c in columns]
    skeleton = head + b"".join(bytes(f.shape[1]) + tail for f, tail in zip(fields, tails))
    buf = bytearray(skeleton) * len(columns[0])
    mat = np.frombuffer(buf, np.uint8).reshape(-1, len(skeleton))  # a row per square, over buf
    starts = np.cumsum([len(head)] + [f.shape[1] + len(tail) for f, tail in zip(fields, tails)])
    for f, start in zip(fields, starts):
        mat[:, start : start + f.shape[1]] = f
    return buf.translate(None, b"\0")  # no literal holds a NUL


def _integers(values) -> bool:
    """Whether every value is an int or a numpy integer, never a bool; each type checked once."""
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in {*map(type, values)})


def _index_pairs(squares) -> np.ndarray:
    """Square indices as an N x 2 int64 array; only exact integers are accepted."""
    if isinstance(squares, np.ndarray):
        exact = squares.dtype.kind in "iu"  # numpy integers are at most 64 bits wide
        if squares.dtype.kind == "u" and squares.size and int(squares.max()) >= 2**63:
            raise DomainError("square index does not fit in int64")  # the cast would wrap it
    else:
        try:
            exact = _integers(chain.from_iterable(squares))
        except TypeError:
            raise DomainError("squares must be an array of (i, j) pairs") from None
    if not exact:
        raise DomainError("square indices must be integers")
    try:
        arr = np.asarray(squares, dtype=np.int64)
    except OverflowError:
        raise DomainError("square index does not fit in int64") from None
    except (TypeError, ValueError):  # ragged rows, strings, JSON objects
        raise DomainError("squares must be an array of (i, j) pairs") from None
    if arr.shape == (0,):  # [] is the empty set; rows of any other length are not pairs
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("squares must be an array of (i, j) pairs")
    return arr


class Prefractal:
    """A depth-n set of grid squares, lex-sorted by (i, j) and duplicate-free.

    Square (i, j) denotes [i/m^n, (i+1)/m^n] x [j/m^n, (j+1)/m^n].
    Indices may be negative in balanced systems.  Stored once, as sorted
    int64 keys (i - lo) * W + (j - lo), lo and W = m^n from _key_frame.
    W^2 must fit in int64: the depth is at most 31 for (2, 0), 19 for
    (3, 1) and 13 for (5, 2), and DomainError beyond.
    """

    __slots__ = ("system", "depth", "_keys")

    def __init__(self, system: DigitSystem, depth: int, squares):
        lo, width = _key_frame(system, depth)
        arr = _index_pairs(squares)
        if arr.size and (int(arr.min()) < lo or int(arr.max()) >= lo + width):
            raise DomainError(f"square index outside depth-{depth} range [{lo}, {lo + width - 1}]")
        keys = (arr[:, 0] - lo) * width + (arr[:, 1] - lo)
        keys.sort(kind="stable")  # merges already-sorted runs in linear passes
        if np.any(keys[1:] == keys[:-1]):
            raise DomainError("duplicate grid squares")
        self.system, self.depth, self._keys = system, depth, keys

    @classmethod
    def _from_keys(cls, system: DigitSystem, depth: int, keys: np.ndarray) -> Prefractal:
        """A prefractal over keys that are already sorted and duplicate-free."""
        p = cls.__new__(cls)
        p.system, p.depth, p._keys = system, depth, keys
        return p

    @property
    def squares(self) -> np.ndarray:
        """The (i, j) pairs in key order, as a fresh N x 2 int64 array."""
        lo, width = _key_frame(self.system, self.depth)
        out = np.empty((len(self), 2), dtype=np.int64)
        np.divmod(self._keys, width, out=(out[:, 0], out[:, 1]))
        out += lo
        return out

    def __len__(self) -> int:
        return int(self._keys.size)

    def __iter__(self):
        return (tuple(row) for row in self.squares.tolist())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Prefractal)
            and self.system == other.system
            and self.depth == other.depth
            and np.array_equal(self._keys, other._keys)
        )

    def __repr__(self) -> str:
        return f"Prefractal(system={self.system}, depth={self.depth}, squares={len(self)})"

    def has_square(self, i: int, j: int) -> bool:
        if not _integers((i, j)):
            raise DomainError(f"square indices must be integers, got ({i!r}, {j!r})")
        i, j = int(i), int(j)  # i - lo on a numpy unsigned index would wrap or overflow
        lo, width = _key_frame(self.system, self.depth)
        if not (0 <= i - lo < width and 0 <= j - lo < width):
            return False
        key = (i - lo) * width + (j - lo)
        pos = int(np.searchsorted(self._keys, key))
        return pos < len(self) and bool(self._keys[pos] == key)


def _square_blocks(p: Prefractal) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (i, j) columns of p's squares in key order, _BLOCK squares at a time."""
    lo, width = _key_frame(p.system, p.depth)
    for start in range(0, len(p), _BLOCK):
        i, j = np.divmod(p._keys[start : start + _BLOCK], width)
        yield i + lo, j + lo


def unit_square(system: DigitSystem) -> Prefractal:
    """The depth-0 prefractal: the single square (0, 0)."""
    return Prefractal(system, 0, [(0, 0)])


def iterate(p: Prefractal, lat: GeneratorLattice,
            max_squares: int | None = DEFAULT_MAX_SQUARES) -> Prefractal:
    """One construction step: every square spawns one child per lattice shift.

    The child of square (i, j) under shift (k, h) is (i + k*m^depth,
    j + h*m^depth) at depth + 1: on keys, the shifted digits k + b and h + b
    go on top of the parent's.  The shifts were checked, in the alphabet and
    distinct, when the lattice was built, so distinct parents and shifts
    never collide.
    """
    if p.system != lat.system:
        raise DomainError(f"prefractal system {p.system} does not match lattice {lat.system}")
    _cap(p.depth + 1, len(p) * len(lat), max_squares)
    _key_frame(p.system, p.depth + 1)  # the child depth is gated before any key arithmetic
    b, width, s = p.system.b, p.system.m ** (p.depth + 1), p.system.m**p.depth
    tops_i, tops_j = np.array(lat.points, dtype=np.int64).reshape(-1, 2).T + b  # shifted digits
    # top (I, J) on square (i, j) is (I*s + i, J*s + j): key (I*W + J)*s + i*W + j, W = width
    base = p._keys + (p._keys // s) * (width - s)  # i*s + j becomes i*W + j
    runs = ((tops_i * width + tops_j) * s)[:, None] + base  # an ascending run of keys per top
    keys = runs.reshape(-1)
    keys.sort(kind="stable")  # merges the len(lat) sorted runs in place
    return Prefractal._from_keys(p.system, p.depth + 1, keys)


def _low_digits(system: DigitSystem, n: int) -> int:
    """k, the low digits per block: a block of m^k rows holds <= _SCAN_CELLS cells, or one row."""
    m, k = system.m, 0
    while k < n and m ** (k + 1) * m**n <= _SCAN_CELLS:
        k += 1
    return k


def _geometric_blocks(system: DigitSystem, n: int) -> Iterator[np.ndarray]:
    """The geometric route's cell masks, in the row blocks of _digit_blocks; after _gate.

    P_n is P_d stacked on P_k, k = _low_digits and d = n - k: each square
    (I, J) of P_d puts its digits on top of every square of P_k.  Both are
    built by ifs_prefractal.  Block I covers the m^k rows from I * m^k on,
    as the digit route's block I does; it is P_k's m^k x m^k mask copied
    under each top J of column I of P_d, as an m^k x W mask.  P_d is held
    throughout, and at k = 0 it is P_n: building a column from the digits
    of its index instead would be the digit rule again, and the two routes
    would stop being independent.  Every block is one buffer, cleared and
    refilled at each step: a yielded block is valid only until the next pull.
    """
    k = _low_digits(system, n)
    s, columns = system.m**k, system.m ** (n - k)
    # no cap, and the depth gates cannot fail: _gate has passed for depth n >= k, n - k
    low, top = ifs_prefractal(system, k, None), ifs_prefractal(system, n - k, None)
    low_mask = np.zeros(s * s, bool)
    low_mask[low._keys] = True
    low_mask = low_mask.reshape(s, 1, s)  # the low digits of i, one top, the low digits of j
    ends = np.searchsorted(top._keys, np.arange(columns + 1) * columns)  # top key I*columns + J
    mask = np.empty((s, columns, s), bool)
    for c in range(columns):
        mask.fill(False)
        mask[:, top._keys[ends[c] : ends[c + 1]] - c * columns, :] = low_mask
        yield mask.reshape(s, -1)  # cell (i, J*s + j) of the block: key (c*s + i)*W + J*s + j


def ifs_prefractal(system: DigitSystem, n: int,
                   max_squares: int | None = DEFAULT_MAX_SQUARES) -> Prefractal:
    """Iterate the unit square n times through the generator lattice, gated before any square."""
    _gate(system, n, max_squares)  # the lattice has >= 3 points, so the last level is the largest
    p = unit_square(system)
    if n:  # a depth-0 set needs no lattice, however large the base
        lat = lattice(system.m, system.b)
        for _ in range(n):
            p = iterate(p, lat, None)
    return p


def _digit_blocks(system: DigitSystem, n: int, max_squares: int | None,
                  top_down: bool = False) -> Iterator[np.ndarray]:
    """The digit route's cell masks, in blocks of whole scan rows of <= _SCAN_CELLS cells.

    On digits shifted by b into [0, m-1] the rule is one m x m boolean
    matrix, A[u, v] = (b <= u + v <= m-1+b).  The kept cells (i - lo, j - lo)
    are those of the n-fold Kronecker power of A, and a cell's flat index
    in that W x W power is the square key.  Block p is the m^k x W slice of
    rows from p * m^k on: kron(row p of the (n-k)-fold power, the k-fold
    power).  Row p is the outer product of A's rows at p's n-k base-m
    digits, which itertools.product yields in row order, so neither the
    whole power nor its top factor is ever built.  top_down yields the rows
    in reverse order, row W-1 first, from A[::-1]: reversing A's rows
    reverses every base-m digit of a row index, so the power of A[::-1]
    holds row i of A's power at row W-1-i.
    The gates (_gate, then the scan cap) run at the call, before any
    block; all W^2 cells are then scanned, a block at a time, independently
    of the geometric route.  Every block is written into one buffer: a
    yielded block is valid only until the next pull.
    """
    _, width = _gate(system, n, max_squares)
    if max_squares is not None and width * width > _SCAN_RATIO * max_squares:
        raise ResourceError(f"digit scan at depth {n} exceeds the cap {max_squares}")
    if not n:  # the one cell of the empty power; no m x m rule, however large the base
        return iter([np.ones((1, 1), bool)])
    m, b, u = system.m, system.b, np.arange(system.m)
    rule = (u >= b - u[:, None]) & (u <= m - 1 + b - u[:, None])  # b <= u + v <= m-1+b
    rule = rule[::-1] if top_down else rule
    k = _low_digits(system, n)
    low = reduce(np.kron, [rule] * k, np.ones((1, 1), bool))
    block = np.empty((m**k, m ** (n - k), m**k), bool)  # cell (i, J, j) is top[J] and low[i, j]

    def blocks():
        for rows in product(rule, repeat=n - k):
            top = reduce(np.multiply.outer, rows, np.ones(1, bool)).reshape(-1)  # row p, on top
            yield np.multiply(low[:, None, :], top[:, None], out=block).reshape(m**k, -1)

    return blocks()


def prefractal_by_digits(system: DigitSystem, n: int,
                         max_squares: int | None = DEFAULT_MAX_SQUARES) -> Prefractal:
    """Depth-n squares selected by the digit condition alone (see _digit_blocks)."""
    # block p, rows from p * m^k on, starts at key p * m^k * W, above every key of block p - 1
    keys = [np.flatnonzero(mask) + p * mask.size
            for p, mask in enumerate(_digit_blocks(system, n, max_squares))]
    return Prefractal._from_keys(system, n, np.concatenate(keys))


def _matches_digit_route(system: DigitSystem, n: int,
                         max_squares: int | None) -> tuple[bool, int, int]:
    """(the two routes give the same cells, the geometric count, the digit count).

    One block mask of each route at a time.  The digit route is called
    first, so its gates (_gate, then the scan cap) run before either route
    builds.  Each pair is counted, then compared in place: the geometric
    block is overwritten with the XOR of the two, as its route refills it
    at the next pull anyway.
    """
    same, counts, end = True, [0, 0], ()
    digits = iter(_digit_blocks(system, n, max_squares))
    geometrics = iter(_geometric_blocks(system, n))
    while True:
        digit, geometric = next(digits, end), next(geometrics, end)  # a shorter stream reads ()
        if digit is end and geometric is end:
            return same, *map(int, counts)
        counts[0] += np.count_nonzero(geometric)  # counted past a difference, for MISMATCH
        counts[1] += np.count_nonzero(digit)
        same = same and np.shape(geometric) == np.shape(digit) and not (
            np.logical_xor(geometric, digit, out=geometric).any())


def equivalence_check(system: DigitSystem, n: int,
                      max_squares: int | None = DEFAULT_MAX_SQUARES) -> bool:
    """Whether the geometric and digit constructions give the same squares."""
    return _matches_digit_route(system, n, max_squares)[0]


def covers_point(p: Prefractal, x, y) -> bool:
    """Whether (x, y) lies in the closed union of the prefractal squares."""
    scale = p.system.m**p.depth

    def candidates(t):
        t = _rational(t) * scale
        f = math.floor(t)
        return (f, f - 1) if f == t else (f,)

    return any(p.has_square(i, j) for i in candidates(x) for j in candidates(y))


def _json_chunks(p: Prefractal) -> Iterator[bytes]:
    """prefractal_to_json as ASCII chunks: the header, _BLOCK squares a chunk, the trailer."""
    yield (
        f'{{"m":{p.system.m},"b":{p.system.b},"depth":{p.depth},"count":{len(p)},'
        '"squares":['
    ).encode("ascii")
    for n, (i, j) in enumerate(_square_blocks(p)):
        rows = _rows(b",[%d,%d]", i, j)
        yield rows if n else rows[1:]  # no comma before the first square
    yield b"]}"


def prefractal_to_json(p: Prefractal) -> str:
    """One-line JSON export, squares lex-sorted, integers only."""
    return b"".join(_json_chunks(p)).decode("ascii")


def prefractal_from_json(text: str) -> Prefractal:
    """Parse and validate a prefractal JSON export."""
    import json  # the one reader: no command loads it

    try:
        payload = json.loads(text)
    # ValueError covers JSONDecodeError and integers past the 4300-digit limit
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"bad prefractal JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DomainError("bad prefractal JSON: expected an object")
    try:
        system = DigitSystem(payload["m"], payload["b"])
        depth = payload["depth"]
        count = payload["count"]
        squares = payload["squares"]
    except KeyError as exc:
        raise DomainError(f"bad prefractal JSON: missing field {exc}") from None
    if type(count) is not int:
        raise DomainError("bad prefractal JSON: count must be an integer")
    p = Prefractal(system, depth, squares)
    if len(p) != count:
        raise DomainError(f"square count {len(p)} does not match declared {count}")
    return p
