"""Depth-n prefractals on the m-adic grid.

Two independent constructions of the same square sets are provided: the
geometric route (each square spawns one child per generator-lattice
shift) and the digit route (the n-fold Kronecker power of the m x m
matrix that marks the digit pairs whose sum stays inside the alphabet;
the flat indices of its set cells are the square keys).  Here a square
set is a `Prefractal` of sorted int64 keys, for the library; no command
builds one.  The numpy-free `trihex.routes` streams both routes as
Python-int scan rows, which `equivalence_check` compares a row of each
at a time and `prefractal_by_digits` reads back into keys, a chunk of
rows at a time.  The membership decisions live in the numpy-free
`trihex.membership` and `trihex.automaton`; no square-set command
compiles them.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator

from . import routes  # before numpy: with no .pyc, compiling it after numpy raises peak RSS

import numpy as np

from .errors import DEFAULT_MAX_SQUARES, DomainError
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
    return GeneratorLattice(system, routes._lattice_points(system))


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
    for start in range(0, len(p), routes._BLOCK):
        i, j = np.divmod(p._keys[start : start + routes._BLOCK], width)
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


def prefractal_by_digits(system: DigitSystem, n: int,
                         max_squares: int | None = DEFAULT_MAX_SQUARES) -> Prefractal:
    """Depth-n squares selected by the digit condition alone (see routes._digit_rows)."""
    rows = routes._digit_rows(system, n, max_squares)  # the gates run here
    width, keys, start = system.m**n, [], 0
    for data, count in routes._row_chunks(rows, width):
        # bit t of a chunk from scan row start // width on is key start + t; most bytes are 0
        data = np.frombuffer(data, np.uint8)
        nz = np.flatnonzero(data)
        at, lane = np.nonzero(np.unpackbits(data[nz, None], axis=1, bitorder="little"))
        keys.append(8 * nz[at] + lane + start)
        start += count * width
    return Prefractal._from_keys(system, n, np.concatenate(keys))


def equivalence_check(system: DigitSystem, n: int,
                      max_squares: int | None = DEFAULT_MAX_SQUARES) -> bool:
    """Whether the geometric and digit constructions give the same squares."""
    return routes._matches_digit_route(system, n, max_squares)[0]


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
    yield routes._json_head(p.system, p.depth, len(p))
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
