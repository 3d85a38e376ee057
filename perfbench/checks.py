"""Output checks and independent oracles for the benchmark.

Nothing here imports trihex: every expected answer is worked out with
plain integers and `fractions.Fraction`, so a defect in the library
cannot hide itself by also being in the check.  A check returns None
when the output is right and a one-line description of the fault
otherwise.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


class OraclePremiseError(Exception):
    """A point whose expansion is not unique; the oracle cannot decide it."""


def lattice_size(m: int, b: int) -> int:
    """Generator squares of the (m, b) system: m(m+1)/2 + b(m-1-b)."""
    return m * (m + 1) // 2 + b * (m - 1 - b)


# --- digit systems ---------------------------------------------------------

def int_digits(n: int, m: int, b: int) -> dict[int, int]:
    """Nonzero digits of the unique finite expansion of the integer n."""
    top = m - 1 - b
    digits = {}
    e = 0
    while n:
        d = n % m
        if d > top:
            d -= m
        if d:
            digits[e] = d
        n = (n - d) // m
        e += 1
    return digits


def rational_digits(v: Fraction, m: int, b: int) -> dict[int, int]:
    """Nonzero digits of a value whose denominator is a power of m."""
    k = 0
    while v.denominator != 1:
        v *= m
        k += 1
    return {e - k: d for e, d in int_digits(v.numerator, m, b).items()}


def numeral_text(digits: dict[int, int], m: int, b: int) -> str:
    """The bracketed text format: interior zeros explicit, '[0]' for zero."""
    top = max(max(digits, default=0), 0)
    tokens = [str(digits.get(e, 0)) for e in range(top, -1, -1)]
    bottom = min(digits, default=0)
    if bottom < 0:
        tokens.append(".")
        tokens.extend(str(digits.get(e, 0)) for e in range(-1, bottom - 1, -1))
    return "[{}]@{}b{}".format(" ".join(tokens), m, b)


def numeral_value(digits: dict[int, int], m: int) -> Fraction:
    return sum((Fraction(m) ** e * d for e, d in digits.items()), Fraction(0))


# --- membership ------------------------------------------------------------

def _forced_digit(num: int, den: int, m: int, b: int) -> tuple[int, int]:
    """Next digit of num/den and the numerator of what remains.

    The digit d must leave m*num/den - d inside [-b/(m-1), (m-1-b)/(m-1)],
    written here in integers.  Exactly one alphabet digit qualifies unless
    a remainder sits on an interval end.
    """
    span = m - 1
    t = m * num
    d_lo = max(-b, -((-(span * t - (span - b) * den)) // (span * den)))
    d_hi = min(span - b, (span * t + b * den) // (span * den))
    if d_lo != d_hi:
        raise OraclePremiseError(f"{num}/{den} has {d_hi - d_lo + 1} digit choices in base {m}")
    return d_lo, t - d_lo * den


def member_oracle(x: Fraction, y: Fraction, m: int, b: int) -> bool:
    """Membership of (x, y) for points whose expansions are unique.

    For a reduced denominator q that is a prime above m, every remainder
    keeps denominator q, so no remainder reaches an interval end and each
    coordinate has exactly one expansion.  Long division then walks the
    eventually periodic digit pair; the point is a member exactly when
    every digit sum along it stays in the alphabet.
    """
    lo, hi = Fraction(-b, m - 1), Fraction(m - 1 - b, m - 1)
    if not (lo <= x <= hi and lo <= y <= hi):
        return False
    nx, dx, ny, dy = x.numerator, x.denominator, y.numerator, y.denominator
    seen = set()
    while (nx, ny) not in seen:
        seen.add((nx, ny))
        ex, nx = _forced_digit(nx, dx, m, b)
        ey, ny = _forced_digit(ny, dy, m, b)
        if not -b <= ex + ey <= m - 1 - b:
            return False
    return True


# --- CLI outputs -----------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def exact_text(expected: str):
    """Check that the output is exactly one line holding `expected`."""
    want = (expected + "\n").encode("ascii")

    def check(data: bytes) -> str | None:
        if data != want:
            return f"expected {want[:80]!r}, got {data[:80]!r}"
        return None

    return check


def square_output(kind: str, m: int, b: int, n: int, golden: str):
    """Check an output of the depth-n (m, b) prefractal: its square count,
    then its SHA-256 against the `golden` value recorded for it."""
    count = lattice_size(m, b) ** n

    def semantic(data: bytes) -> str | None:
        if kind == "json":
            head = b'{"m":%d,"b":%d,"depth":%d,"count":%d,"squares":[' % (m, b, n, count)
            if not data.startswith(head) or not data.endswith(b"]]}\n"):
                return "JSON header or trailer differs"
            got = data.count(b"[") - 1
        elif kind == "text":
            got = data.count(b"\n")
        elif kind == "svg":
            got = data.count(b"<rect ")
        elif kind == "pbm":
            magic, size, body = data.split(b"\n", 2)
            w, h = (int(v) for v in size.split())
            if magic != b"P1" or body.count(b"\n") != h or len(body) != 2 * w * h:
                return "PBM header does not match its body"
            got = body.count(b"1")
        elif kind == "verify":
            want = b"equivalence: ok (%d squares)\n" % count
            return None if data == want else f"expected {want!r}, got {data[:80]!r}"
        elif kind == "dim":
            report = json.loads(data)
            if (report["m"], report["b"], report["depth"]) != (m, b, n):
                return f"dim report is for the wrong system: {data[:80]!r}"
            got = report["box_count"]
        else:
            raise ValueError(kind)
        return None if got == count else f"{got} squares, expected {count}"

    def check(data: bytes) -> str | None:
        fault = semantic(data)
        if fault is None and sha256(data) != golden:
            fault = f"SHA-256 {sha256(data)} differs from the recorded {golden}"
        return fault

    return check
