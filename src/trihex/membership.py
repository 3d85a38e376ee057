"""Exact membership of a rational point in the limit set.

A point is a member exactly when some pair of the m-ary expansions of
its coordinates adds without leaving the alphabet at any position.
Each coordinate has one or two expansions, each eventually periodic,
so `member` walks the expansion pairs in lockstep, stopping at the
first digit sum outside the alphabet and accepting when a remainder
pair repeats; `_certificate` turns the walk into the certificate that
`member --witness` prints.  `trihex.automaton` decides the same question
by searching the whole state graph, as an independent second decision.
Only Python integers and `fractions.Fraction` are used, so the
membership and numeral commands run without numpy.
"""

from __future__ import annotations

import math

from .errors import DomainError, ResourceError
from .radix import DigitSystem, _digit_window, _rational

__all__ = ["member"]


def _walk(x, y, system: DigitSystem, max_states):
    """The lockstep walk of (x, y)'s expansion pairs, or None outside the interval.

    Returns (q, before, ends, loop).  A state is the pair of remainder
    numerators over q = lcm of the denominators; before maps each visited
    state to the one it was reached from (the root to None); ends lists
    the states where some digit pair leaves the alphabet; loop is
    (state, repeated successor) for a member, else None.  A step takes
    each coordinate's one digit inline, by _digit_window's divmod; only a
    remainder on a window edge strictly inside the interval has two, and
    calls _digit_window.  Both branches land on an interval end, whose
    digit repeats forever: so at most four paths, which never meet.
    """
    x, y = _rational(x), _rational(y)
    if type(max_states) is not int:  # bool is no cap
        raise DomainError(f"max_states must be an integer, got {max_states!r}")
    iv = system.interval()
    if not (iv.contains(x) and iv.contains(y)):
        return None
    m, b = system.m, system.b
    top = m - 1 - b
    q = math.lcm(x.denominator, y.denominator)
    scale, shift, den = (m - 1) * m, b * q, (m - 1) * q
    cap = max(max_states, 1)  # the root is always visited, as in MembershipAutomaton
    before, ends = {}, []
    todo = [((x.numerator * (q // x.denominator), y.numerator * (q // y.denominator)), None)]
    while todo:
        state, prev = todo.pop()
        while True:
            if state in before:
                return q, before, ends, (prev, state)
            if len(before) >= cap:
                raise ResourceError(f"membership search exceeded {max_states} states")
            before[state] = prev
            ax, ay = state
            fx, rx = divmod(scale * ax + shift, den)
            fy, ry = divmod(scale * ay + shift, den)
            # f is the one digit, unless its remainder sits on a window edge: at lo it
            # still is, at hi the digit is f - 1 = m-1-b, and between them there are two
            if (rx or fx == -b or fx > top) and (ry or fy == -b or fy > top):
                if fx > top:
                    fx = top
                if fy > top:
                    fy = top
                if not -b <= fx + fy <= top:
                    ends.append(state)
                    break
                prev, state = state, (m * ax - fx * q, m * ay - fy * q)
                continue
            wx, wy = _digit_window(ax, q, system), _digit_window(ay, q, system)
            nexts = [(nx, ny) for dx, nx in wx for dy, ny in wy if -b <= dx + dy <= top]
            if len(nexts) < len(wx) * len(wy):
                ends.append(state)
            if len(nexts) != 1:  # a dead end, or a branch: walk them from the stack
                todo += [(t, state) for t in nexts]
                break
            prev, state = state, nexts[0]
    return q, before, ends, None


def member(x, y, system: DigitSystem, max_states: int = 10**6) -> bool:
    """Exact membership of the rational point (x, y) in the limit set.

    ResourceError when the walk visits more than max_states remainder pairs.
    """
    walk = _walk(x, y, system, max_states)
    return walk is not None and walk[3] is not None


def _path(before, state) -> list:
    """The states from the root to state, following before."""
    path = []
    while state is not None:
        path.append(state)
        state = before[state]
    return path[::-1]


def _digits(system: DigitSystem, q: int, states) -> tuple[list[int], list[int]]:
    """The x and y digits taken between consecutive states: d = m*a - a' over q."""
    m = system.m
    steps = list(zip(states, states[1:]))
    return ([(m * a - n) // q for (a, _), (n, _) in steps],
            [(m * c - n) // q for (_, c), (_, n) in steps])


def _certificate(x, y, system: DigitSystem, max_states: int = 10**6) -> dict:
    """member's answer with a certificate that `trihex.certify.check_certificate` checks.

    A member: {"member": true, "x": lasso, "y": lasso}, each lasso
    {"prefix": digits, "cycle": digits} from exponent -1 down; both
    cycles have the length of the repeated remainder pair's cycle.
    A non-member: {"member": false, "outside": true} when a coordinate is
    outside the value interval, else {"member": false, "pairs": [...]}
    with one {"x": digits, "y": digits} per digit pair that leaves the
    alphabet, its last position the first whose sum does.  Together the
    pairs start every expansion pair of (x, y).
    """
    walk = _walk(x, y, system, max_states)
    if walk is None:
        return {"member": False, "outside": True}
    q, before, ends, loop = walk
    if loop is not None:
        last, first = loop
        path = _path(before, last)
        k = path.index(first)
        xs, ys = _digits(system, q, path + [first])
        return {"member": True,
                "x": {"prefix": xs[:k], "cycle": xs[k:]},
                "y": {"prefix": ys[:k], "cycle": ys[k:]}}
    pairs = []
    for end in ends:
        xs, ys = _digits(system, q, _path(before, end))
        ax, ay = end
        pairs += [{"x": xs + [dx], "y": ys + [dy]}
                  for dx, _ in _digit_window(ax, q, system)
                  for dy, _ in _digit_window(ay, q, system) if not system.has_digit(dx + dy)]
    return {"member": False, "pairs": pairs}
