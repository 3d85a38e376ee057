"""Depth-n prefractals on the m-adic grid.

Two independent constructions of the same square sets are provided: the
geometric route (each square spawns one child per generator-lattice
shift) and the digit route (the n-fold Kronecker power of the m x m
matrix that marks the digit pairs whose sum stays inside the alphabet;
the flat indices of its set cells are the square keys).
`equivalence_check` compares them as sets.  The membership search lives
in the numpy-free `trihex.membership` and is re-exported here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import Iterator

import numpy as np

from .errors import DEFAULT_MAX_SQUARES, DomainError, ResourceError
from .membership import MembershipAutomaton, member
from .radix import DigitSystem, _gate, _key_frame, _rational, index_bounds, lattice_cardinality

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
    "member",
    "covers_point",
    "prefractal_to_json",
    "prefractal_from_json",
]


@dataclass(frozen=True)
class GeneratorLattice:
    """Shift pairs (k, h) of integers with k, h and k + h all inside the digit alphabet.

    Checked once, here: any other point is a DomainError.
    """

    system: DigitSystem
    points: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        lo, hi = self.system.min_digit, self.system.max_digit
        outside = DomainError(f"lattice point outside the alphabet of base {self.system}")
        try:  # int64 would truncate 0.5 and take True as 1, so the types are checked first
            pairs = tuple(map(tuple, self.points))  # tuples pass as they are; lists are copied
            flat = [t for k, h in pairs for t in (k, h)]
            kinds = {*map(type, flat)}
            if not all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds):
                raise outside
            k, h = np.array(flat, dtype=np.int64).reshape(-1, 2).T
        except (TypeError, ValueError, OverflowError):  # not a pair of integers, or past int64
            raise outside from None
        coords = np.stack([k, h, k + h])  # int64 arrays: unlike numpy scalars, k + h never warns
        if not np.all((lo <= coords) & (coords <= hi)):
            raise outside
        object.__setattr__(self, "points", pairs)  # edits to the caller's lists cannot reach it

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


@cache  # on first use: verify and dim import this module but format nothing
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII groups "0000".."9999" as uint32s, and the pad rows of _field."""
    digits = np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij")
    # pad row d - 1 (+ 19 if negative): 0xFF over the last d of 20 columns, "-" just before them
    keep = np.tri(19, 20, dtype=np.uint8)[:, ::-1] * 255
    pads = np.concatenate([keep, keep + np.eye(19, 20, 1, np.uint8)[:, ::-1] * ord("-")])
    return np.stack(digits, axis=-1).reshape(-1, 4).view(np.uint32), pads


def _field(v: np.ndarray) -> np.ndarray:
    """`b"%d" % x` for each x in the int64 column v, right-aligned in NUL-padded uint8 rows."""
    quad_table, pad_table = _digit_tables()
    a = np.abs(v)
    w = len(str(a.max(initial=0))) + 1  # a column to spare for "-"
    # the ASCII digits of a's base-10^4 groups, most significant first
    quads = np.take(quad_table, a[:, None] // 10 ** (4 * np.arange((w + 3) // 4))[::-1] % 10000)
    rows = np.searchsorted(10 ** np.arange(1, w - 1), a, side="right") + 19 * (v < 0)
    pads = np.take(np.ascontiguousarray(pad_table[:, -w:]), rows, axis=0)
    # min(digit, 0xFF) keeps a digit, min("0", NUL) blanks a leading zero, min("0", "-") signs
    return np.minimum(quads.view(np.uint8)[:, -w:], pads, out=pads)


def _rows(template: bytes, *columns: np.ndarray) -> bytes:
    """`template % row` for each row of the given integer columns, concatenated."""
    head, *tails = template.split(b"%d")
    fields = [_field(c) for c in columns]
    skeleton = head + b"".join(bytes(f.shape[1]) + tail for f, tail in zip(fields, tails))
    mat = np.tile(np.frombuffer(skeleton, np.uint8), (len(columns[0]), 1))  # a row per square
    starts = np.cumsum([len(head)] + [f.shape[1] + len(tail) for f, tail in zip(fields, tails)])
    for f, start in zip(fields, starts):
        mat[:, start : start + f.shape[1]] = f
    return mat.tobytes().translate(None, b"\0")  # no literal holds a NUL


def _index_pairs(squares) -> np.ndarray:
    """Square indices as an int64 array; only exact integers are accepted."""
    if isinstance(squares, np.ndarray):
        exact = squares.dtype.kind != "b" and np.can_cast(squares.dtype, np.int64)
    else:
        try:
            exact = all(type(v) is int for row in squares for v in row)
        except TypeError:
            raise DomainError("squares must be an array of (i, j) pairs") from None
    if not exact:
        raise DomainError("square indices must be integers")
    try:
        return np.asarray(squares, dtype=np.int64)
    except OverflowError:
        raise DomainError("square index does not fit in int64") from None
    except (TypeError, ValueError):  # ragged rows, strings, JSON objects
        raise DomainError("squares must be an array of (i, j) pairs") from None


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
        if arr.shape == (0,):  # [] is the empty set; rows of any other length are not pairs
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DomainError("squares must be an array of (i, j) pairs")
        if arr.size and (int(arr.min()) < lo or int(arr.max()) >= lo + width):
            raise DomainError(f"square index outside depth-{depth} range [{lo}, {lo + width - 1}]")
        self._canonicalise(system, depth, (arr[:, 0] - lo) * width + (arr[:, 1] - lo))

    @classmethod
    def _from_keys(cls, system: DigitSystem, depth: int, keys: np.ndarray) -> Prefractal:
        return cls.__new__(cls)._canonicalise(system, depth, keys)

    def _canonicalise(self, system: DigitSystem, depth: int, keys: np.ndarray) -> Prefractal:
        keys.sort(kind="stable")  # merges already-sorted runs in linear passes
        if keys.size and bool(np.any(keys[1:] == keys[:-1])):
            raise DomainError("duplicate grid squares")
        self.system = system
        self.depth = depth
        self._keys = keys
        return self

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
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool) for t in (i, j)):
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
    go on top of the parent's.  Distinct parents and shifts never collide;
    a duplicate aborts rather than being silently merged.  The shifts were
    checked when the lattice was built.
    """
    if p.system != lat.system:
        raise DomainError(f"prefractal system {p.system} does not match lattice {lat.system}")
    expected = len(p) * len(lat)
    if max_squares is not None and expected > max_squares:
        raise ResourceError(
            f"depth {p.depth + 1} needs {expected} squares, over the cap {max_squares}"
        )
    _key_frame(p.system, p.depth + 1)  # the child depth is gated before any key arithmetic
    k, h = np.array(lat.points, dtype=np.int64).reshape(-1, 2).T
    m, b, s = p.system.m, p.system.b, p.system.m**p.depth
    base = p._keys + (p._keys // s) * ((m - 1) * s)  # u*s + v becomes u*m*s + v
    shifts = ((k + b) * m * s + h + b) * s
    # shifts on the outer axis, so the sort merges len(lat) sorted runs
    return Prefractal._from_keys(p.system, p.depth + 1, (shifts[:, None] + base).reshape(-1))


def ifs_prefractal(system: DigitSystem, n: int,
                   max_squares: int | None = DEFAULT_MAX_SQUARES) -> Prefractal:
    """Iterate the unit square n times through the generator lattice, gated before any square."""
    _gate(system, n, max_squares)  # the lattice has >= 3 points, so the last level is the largest
    p = unit_square(system)
    if n:
        lat = lattice(system.m, system.b)
        for _ in range(n):
            p = iterate(p, lat, None)
    return p


def prefractal_by_digits(system: DigitSystem, n: int,
                         max_squares: int | None = DEFAULT_MAX_SQUARES) -> Prefractal:
    """Depth-n squares selected by the digit condition alone.

    On digits shifted by b into [0, m-1] the rule is one m x m boolean
    matrix, A[u, v] = (b <= u + v <= m-1+b).  The kept cells (i - lo, j - lo)
    are those of the n-fold Kronecker power of A, and a cell's flat index
    in that W x W power is the square key.  All W^2 cells are built, in
    blocks, independently of the geometric route.
    """
    _, width = _gate(system, n, max_squares)
    if max_squares is not None and width * width > 32 * max_squares:
        raise ResourceError(f"digit scan at depth {n} exceeds the cap {max_squares}")
    m, b, u = system.m, system.b, np.arange(system.m)
    digit_rule = (u >= b - u[:, None]) & (u <= m - 1 + b - u[:, None])  # b <= u + v <= m-1+b
    k = 0  # low digits per block, so a block of m^k rows holds at most 4M cells
    while k < n and m ** (k + 1) * width <= 2**22:
        k += 1
    low, high = (reduce(np.kron, [digit_rule] * t, np.ones((1, 1), bool)) for t in (k, n - k))
    # row p of high fixes the top n - k digits of i - lo, so the block starts at key p * m^k * W
    keys = [np.flatnonzero(np.kron(row, low)) + p * m**k * width for p, row in enumerate(high)]
    return Prefractal._from_keys(system, n, np.concatenate(keys))


def equivalence_check(system: DigitSystem, n: int,
                      max_squares: int | None = DEFAULT_MAX_SQUARES) -> bool:
    """Whether the geometric and digit constructions agree as square sets."""
    return ifs_prefractal(system, n, max_squares) == prefractal_by_digits(system, n, max_squares)


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
