"""An independent check of the membership certificates that `member --witness` prints.

It shares no code with the decision: it sums digits exactly and applies
the two-expansion rule, and imports nothing from trihex.  A value r of
the interval [lo, hi] has two m-ary expansions exactly when lo < r < hi
and the reduced denominator of r - lo divides a power of m, else one.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["check_certificate"]


def check_certificate(x, y, system, cert) -> bool:
    """True when cert proves member(x, y, system), or proves that it fails.

    A member's lassos must sum to x and y, as P/m^k + C/(m^k (m^L - 1)),
    and their digit sums stay in the alphabet at every position.  A
    non-member's digit pairs must each be a prefix of expansions of x and
    y whose last sum, and only that one, leaves the alphabet; no two may
    start a common expansion pair, and together they must start all of
    them, counted by the two-expansion rule.
    """
    x, y = Fraction(x), Fraction(y)
    m, low = system.m, -system.b
    high = m - 1 + low
    lo, hi = Fraction(low, m - 1), Fraction(high, m - 1)
    inside = lo <= x <= hi and lo <= y <= hi
    if type(cert) is not dict:
        return False
    if cert == {"member": False, "outside": True}:
        return not inside
    if cert.keys() == {"member", "x", "y"} and cert["member"] is True:
        return inside and _lassos_ok(x, y, m, low, high, cert["x"], cert["y"])
    if cert.keys() == {"member", "pairs"} and cert["member"] is False:
        return inside and _pairs_ok(x, y, m, low, high, cert["pairs"])
    return False


def _digits_ok(digits, low: int, high: int) -> bool:
    return type(digits) is list and all(type(d) is int and low <= d <= high for d in digits)


def _horner(m: int, digits: list[int]) -> int:
    """The integer with these base-m digits, most significant first."""
    n = 0
    for d in digits:
        n = n * m + d
    return n


def _lassos_ok(x, y, m, low, high, lasso_x, lasso_y) -> bool:
    lassos = []
    for r, lasso in ((x, lasso_x), (y, lasso_y)):
        if type(lasso) is not dict or lasso.keys() != {"prefix", "cycle"}:
            return False
        prefix, cycle = lasso["prefix"], lasso["cycle"]
        if not (_digits_ok(prefix, low, high) and _digits_ok(cycle, low, high) and cycle):
            return False
        k, n = len(prefix), len(cycle)
        if Fraction(_horner(m, prefix), m**k) + \
                Fraction(_horner(m, cycle), m**k * (m**n - 1)) != r:
            return False
        lassos.append((prefix, cycle))

    def digit(i, prefix, cycle):
        return prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]

    # past the longer prefix, the sums repeat with the lcm of the cycle lengths
    (px, cx), (py, cy) = lassos
    span = max(len(px), len(py)) + math.lcm(len(cx), len(cy))
    return all(low <= digit(i, px, cx) + digit(i, py, cy) <= high for i in range(span))


def _expansions(r: Fraction, lo: Fraction, hi: Fraction, m: int) -> int:
    """How many expansions r in [lo, hi] has: the two-expansion rule."""
    if not lo < r < hi:
        return 1
    d = (r - lo).denominator
    while (g := math.gcd(d, m)) > 1:
        d //= g
    return 2 if d == 1 else 1


def _pairs_ok(x, y, m, low, high, pairs) -> bool:
    lo, hi = Fraction(low, m - 1), Fraction(high, m - 1)
    if type(pairs) is not list:
        return False
    covered = 0
    for pair in pairs:
        if type(pair) is not dict or pair.keys() != {"x", "y"}:
            return False
        dx, dy = pair["x"], pair["y"]
        if not (_digits_ok(dx, low, high) and _digits_ok(dy, low, high)):
            return False
        n = len(dx)
        sums = [a + c for a, c in zip(dx, dy)]
        if not n or len(dy) != n or low <= sums[-1] <= high:
            return False
        if not all(low <= s <= high for s in sums[:-1]):
            return False
        # a prefix starts an expansion exactly when what remains is in [lo, hi]
        rx, ry = x * m**n - _horner(m, dx), y * m**n - _horner(m, dy)
        if not (lo <= rx <= hi and lo <= ry <= hi):
            return False
        covered += _expansions(rx, lo, hi, m) * _expansions(ry, lo, hi, m)
    for i, one in enumerate(pairs):
        for other in pairs[i + 1:]:
            if not any(a[:len(c)] != c[:len(a)]
                       for a, c in ((one["x"], other["x"]), (one["y"], other["y"]))):
                return False  # both prefixes comparable: they start a common pair
    # disjoint, so they start every expansion pair exactly when the counts agree
    return covered == _expansions(x, lo, hi, m) * _expansions(y, lo, hi, m)
