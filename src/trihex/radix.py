"""Exact signed-digit numerals: standard base m and b-balanced base m.

A digit system fixes a radix m >= 2 and a balance offset b, giving the
digit alphabet [-b, m-1-b].  b = 0 is the ordinary alphabet 0..m-1;
b >= 1 shifts it to straddle zero (balanced ternary is m=3, b=1).
Digit strings are finite, exponent-indexed numerals with a radix point;
every operation here is exact.  The depth gate, the square-key frame and
the square count of the depth-n prefractals live here too, without numpy.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, ResourceError

__all__ = [
    "DigitSystem",
    "DigitString",
    "ValueInterval",
    "int_to_digits",
    "digits_to_rational",
    "add",
    "carry_free",
    "frac_digit_choices",
    "lattice_cardinality",
    "index_bounds",
    "expansions",
    "format_numeral",
    "parse_numeral",
]


class _Record:
    """Frozen record of its __slots__ fields; not a dataclass, which would load inspect."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, *value) -> None:  # also __delattr__
        raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class DigitSystem(_Record):
    """Radix m with digit alphabet [-b, m-1-b]."""

    __slots__ = ("m", "b")

    def __init__(self, m: int, b: int = 0) -> None:
        super().__init__(m, b)
        if type(m) is not int or type(b) is not int:  # bool is not a radix
            raise DomainError("radix and balance must be integers")
        if m < 2:
            raise DomainError(f"radix must be at least 2, got {m=}")
        if b != 0 and (m <= 2 or not 1 <= b <= m // 2):
            raise DomainError(f"balance must be 0, or 1 <= b <= m/2 with m > 2; got {m=}, {b=}")

    @property
    def min_digit(self) -> int:
        return -self.b

    @property
    def max_digit(self) -> int:
        return self.m - 1 - self.b

    def digits(self) -> range:
        """The alphabet as an integer range."""
        return range(self.min_digit, self.max_digit + 1)

    def has_digit(self, d: int) -> bool:
        return self.min_digit <= d <= self.max_digit

    def digit_for(self, n: int) -> int:
        """The unique alphabet member congruent to n modulo m."""
        r = n % self.m
        return r if r <= self.max_digit else r - self.m

    def interval(self) -> "ValueInterval":
        return ValueInterval(Fraction(-self.b, self.m - 1),
                             Fraction(self.m - 1 - self.b, self.m - 1))

    def __str__(self) -> str:
        return f"{self.m}b{self.b}"


class ValueInterval(_Record):
    """Closed range of values of pure-fractional digit strings.

    All-minimal digits sum to -b/(m-1) and all-maximal digits to
    (m-1-b)/(m-1); for b = 0 the interval is [0, 1].
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        super().__init__(lo, hi)

    def contains(self, r) -> bool:
        return self.lo <= r <= self.hi


class DigitString:
    """Immutable sparse numeral: a finite map exponent -> digit plus its system.

    Exponent e contributes digit * m**e.  Absent exponents are zero and
    explicit zeros are never stored, so equal values compare equal.
    """

    __slots__ = ("system", "_digits")

    def __init__(self, system: DigitSystem, digits=None):
        table = {}
        if digits:
            items = digits.items() if hasattr(digits, "items") else digits
            for e, d in items:
                if type(e) is not int or type(d) is not int:  # bool is not a digit
                    raise DomainError("exponents and digits must be integers")
                if not system.has_digit(d):
                    raise DomainError(f"digit {d} outside alphabet of base {system}")
                if d != 0:
                    table[e] = d
        self.system = system
        self._digits = table

    def digit(self, e: int) -> int:
        return self._digits.get(e, 0)

    def exponents(self) -> list[int]:
        """Exponents with nonzero digits, ascending."""
        return sorted(self._digits)

    @property
    def is_zero(self) -> bool:
        return not self._digits

    @property
    def min_exponent(self) -> int | None:
        return min(self._digits) if self._digits else None

    @property
    def max_exponent(self) -> int | None:
        return max(self._digits) if self._digits else None

    def value(self) -> Fraction:
        """Exact value sum(digit * m**e) over the stored exponents, summed in halves."""
        m, low, items = self.system.m, min(self._digits, default=0), self._digits.items()
        scaled = _scaled(m, low, items if len(items) <= _RUN else sorted(items))
        return Fraction(scaled * m**low) if low >= 0 else Fraction(scaled, m**-low)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DigitString)
            and self.system == other.system
            and self._digits == other._digits
        )

    def __hash__(self) -> int:
        return hash((self.system, tuple(sorted(self._digits.items()))))

    def __str__(self) -> str:
        return format_numeral(self)

    def __repr__(self) -> str:
        return f"DigitString({format_numeral(self)!r})"


_RUN = 32  # digits that _scaled sums one power at a time


def _scaled(m: int, low: int, items) -> int:
    """sum(d * m**(e - low)) over the (e, d) items, low their lowest exponent.

    Past _RUN items, which then come sorted, it sums the halves as
    lo + hi * m**gap, so the big products are balanced and subquadratic.
    """
    if len(items) <= _RUN:
        return sum(d * m ** (e - low) for e, d in items)
    half = len(items) // 2
    mid = items[half][0]
    return _scaled(m, low, items[:half]) + _scaled(m, mid, items[half:]) * m ** (mid - low)


def _carry(system: DigitSystem, coeffs: dict[int, int]) -> DigitString:
    """The numeral of sum(c * m**e) over coeffs, the one division loop of radix.

    Walks the exponents upward from the lowest: each keeps the alphabet
    digit d congruent to c + carry mod m and carries (c + carry - d) / m up.
    Where nothing is carried it jumps to the next coefficient.
    """
    spots = sorted(coeffs, reverse=True)  # popped lowest first
    digits, carry = {}, 0
    while spots or carry:
        if not carry:
            e = spots[-1]
        c = carry + (coeffs[spots.pop()] if spots and spots[-1] == e else 0)
        d = system.digit_for(c)
        if d:
            digits[e] = d
        carry, e = (c - d) // system.m, e + 1
    return DigitString(system, digits)


def int_to_digits(n: int, system: DigitSystem) -> DigitString:
    """Expand an integer into digits of the system.

    Repeatedly replaces n by (n - d) / m where d is the alphabet digit
    congruent to n mod m, until n reaches zero.  Standard systems carry
    no sign, so negative integers are rejected when b = 0; balanced
    systems encode any integer.
    """
    if type(n) is not int:  # bool is not an integer here
        raise DomainError(f"integer to expand must be an int, got {n!r}")
    if system.b == 0 and n < 0:
        raise DomainError(f"standard base cannot represent negative integer {n}")
    return _carry(system, {0: n})


def digits_to_rational(x: DigitString) -> Fraction:
    """Exact value of a digit string."""
    return x.value()


def _digit_sums(x: DigitString, y: DigitString) -> dict[int, int]:
    """The pointwise digit sums of x and y over both numerals' exponents."""
    if x.system != y.system:
        raise DomainError(f"mismatched digit systems: {x.system} vs {y.system}")
    return {e: x.digit(e) + y.digit(e) for e in x._digits.keys() | y._digits.keys()}


def add(x: DigitString, y: DigitString) -> DigitString:
    """Exact sum: the pointwise digit sums, carried upward.

    Each alphabet holds one digit per residue mod m, so a value has at
    most one finite numeral, and the carry writes it.  Every carry is
    small, so the work is linear in the number of digits.
    """
    return _carry(x.system, _digit_sums(x, y))


def carry_free(x: DigitString, y: DigitString) -> bool:
    """True when add carries nothing: every pointwise digit sum is in the alphabet."""
    return all(map(x.system.has_digit, _digit_sums(x, y).values()))


def _depth(n) -> int:
    """n, after the one depth gate: an exact nonnegative int; bool is no depth."""
    if type(n) is not int or n < 0:
        raise DomainError(f"depth must be a nonnegative integer, got {n!r}")
    return n


def lattice_cardinality(m: int, b: int = 0) -> int:
    """Closed form m(m+1)/2 + b(m-1-b) for the generator lattice size."""
    DigitSystem(m, b)
    return m * (m + 1) // 2 + b * (m - 1 - b)


def index_bounds(system: DigitSystem, depth: int) -> tuple[int, int]:
    """Range of indices with a depth-n digit decomposition inside the alphabet."""
    g = (system.m ** _depth(depth) - 1) // (system.m - 1)  # 1 + m + ... + m^(depth-1)
    return -system.b * g, (system.m - 1 - system.b) * g


def _key_frame(system: DigitSystem, depth: int) -> tuple[int, int]:
    """(lo, W) of the depth-n square key (i - lo) * W + (j - lo), W = m^n.

    i - lo is i's digits shifted by b into [0, m-1], read as a base-m numeral.
    """
    # W = m^depth >= 2^depth, so past depth 31 the key overflows: reject before m^(2 depth)
    if _depth(depth) > 31 or system.m ** (2 * depth) > 2**63:
        raise DomainError(f"depth {depth} too deep for base {system}: keys overflow int64")
    return index_bounds(system, depth)[0], system.m**depth


def _gate(system: DigitSystem, n: int, max_squares: int | None) -> tuple[int, int]:
    """_key_frame(system, n), after the square cap is checked: before any square or lattice."""
    frame = _key_frame(system, n)
    expected = lattice_cardinality(system.m, system.b) ** n
    if max_squares is not None and expected > max_squares:
        raise ResourceError(f"depth {n} needs {expected} squares, over the cap {max_squares}")
    return frame


def _digit_window(a: int, q: int, system: DigitSystem) -> list[tuple[int, int]]:
    """Digits d with m*r - d in the value interval, r = a/q, and numerators m*a - d*q.

    Those d fill [m*r - hi, m*r - lo], a window of width 1.  With
    f = floor(m*r - lo) they are {f - 1, f} when m*r - lo is an integer,
    else {f}, clipped to the alphabet.  q > 0; ascending digit order.
    """
    m, b = system.m, system.b
    f, rest = divmod((m - 1) * m * a + b * q, (m - 1) * q)
    low = f if rest else f - 1
    return [(d, m * a - d * q) for d in range(max(low, -b), min(f, m - 1 - b) + 1)]


def _rational(r) -> Fraction:
    """Fraction(r), with DomainError for anything that is not a finite rational."""
    try:
        return Fraction(r)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"not a rational number: {r!r}") from None


def _remainder(r, system: DigitSystem) -> tuple[int, int]:
    """r as (numerator, denominator), after the one check that r is in the value interval."""
    r = _rational(r)
    iv = system.interval()
    if not iv.contains(r):
        raise DomainError(f"{r} outside value interval [{iv.lo}, {iv.hi}] of base {system}")
    return r.numerator, r.denominator


def frac_digit_choices(r, system: DigitSystem) -> list[tuple[int, Fraction]]:
    """Digits that can start a fractional expansion of r, with remainders.

    A digit d extends to a full expansion exactly when m*r - d lies back
    in the value interval.  That window has width 1, so there are one or
    two choices; two only when the remainder lands on an endpoint.
    Returned in ascending digit order.
    """
    a, q = _remainder(r, system)
    return [(d, Fraction(n, q)) for d, n in _digit_window(a, q, system)]


def expansions(r, system: DigitSystem, depth: int) -> list[DigitString]:
    """All distinct depth-digit prefixes of fractional expansions of r.

    Prefixes occupy exponents -1 .. -depth and are returned in ascending
    digit order, most significant first; at most two are alive at any depth.
    """
    a, q = _remainder(r, system)
    prefixes = [([], a)]  # (digits from exponent -1 down, remainder numerator over q)
    for _ in range(_depth(depth)):
        grown = []
        for ds, num in prefixes:  # ds grows in place; only a two-digit window copies it
            *low, (d, nxt) = _digit_window(num, q, system)
            grown += [(ds + [c], n) for c, n in low] + [(ds, nxt)]  # copied before d goes in
            ds.append(d)
        prefixes = grown
    return [DigitString(system, zip(range(-1, -depth - 1, -1), ds)) for ds, _ in prefixes]


# Numeral text format: space-separated ASCII decimal digits inside brackets, an
# optional '.' token as the radix point, then '@<m>b<b>'.
# Examples: [1 -1 -1 -1]@3b1   [1 0 . 2]@3b0   [0]@2b0
_NUMERAL_RE = re.compile(r"\A\s*\[([^\[\]@]*)\]@([0-9]+)b([0-9]+)\s*\Z")
_TOKEN_RE = re.compile(r"\A-?[0-9]+\Z")


def format_numeral(x: DigitString) -> str:
    """Render a digit string in the bracketed text format, with interior zeros."""
    top, low = max(x.max_exponent or 0, 0), min(x.min_exponent or 0, 0)
    tokens = [str(x.digit(e)) for e in range(top, low - 1, -1)]
    if low:
        tokens.insert(top + 1, ".")  # after exponent 0
    return "[{}]@{}".format(" ".join(tokens), x.system)


def parse_numeral(text: str) -> DigitString:
    """Inverse of format_numeral; rejects anything outside the grammar."""
    m = _NUMERAL_RE.match(text)
    if not m:
        raise DomainError(f"malformed numeral: {text!r}")
    body, radix, balance = m.groups()
    system = DigitSystem(int(radix), int(balance))
    tokens = body.split()
    if tokens.count(".") > 1:
        raise DomainError(f"more than one radix point in numeral: {text!r}")
    point = tokens.index(".") if "." in tokens else len(tokens)
    del tokens[point : point + 1]  # the radix point, if any
    digits = {}
    for spot, tok in enumerate(tokens):
        if not _TOKEN_RE.match(tok):
            raise DomainError(f"bad digit token {tok!r} in numeral: {text!r}")
        digits[point - 1 - spot] = int(tok)
    return DigitString(system, digits)
