"""The membership decision by searching the whole graph of remainder pairs.

`member` walks the expansion pairs instead; this search is kept as a
second, independent decision that tests compare it with, and its
`states()` labels every state it visited.  Numpy-free, like
`trihex.membership`; `trihex.fractal` re-exports it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ResourceError
from .radix import DigitSystem, _checked, _digit_window, _rational

__all__ = ["MembershipAutomaton"]


class MembershipAutomaton:
    """Memoized search over remainder pairs deciding limit-set membership.

    From state (rx, ry), a digit pair (dx, dy) with dx + dy inside the
    alphabet leads to (m*rx - dx, m*ry - dy); both remainders must stay
    in the value interval.  The start point belongs to the limit set
    exactly when an infinite digit path exists, i.e. when its state can
    reach a cycle of the finite reachable graph.  Every remainder keeps
    the denominator q = lcm of the inputs' denominators, so a state is
    the integer triple (a, c, q) for (a/q, c/q), in lowest terms so that
    equal points share one memo entry.  Decided by collecting the
    reachable states, then peeling dead ends: a state with no live
    successor dies, and what survives can walk forever.
    """

    def __init__(self, system: DigitSystem, max_states: int = 10**6):
        self.system = system
        self.max_states = max_states
        self._alive: dict[tuple[int, int, int], bool] = {}

    def states(self) -> dict[tuple[Fraction, Fraction], str]:
        """Visited remainder pairs mapped to 'alive' or 'dead'."""
        return {
            (Fraction(a, q), Fraction(c, q)): ("alive" if ok else "dead")
            for (a, c, q), ok in self._alive.items()
        }

    def _successors(self, state) -> list[tuple[int, int, int]]:
        a, c, q = state
        return [
            (nx // (g := math.gcd(nx, ny, q)), ny // g, q // g)
            for dx, nx in _digit_window(a, q, self.system)
            for dy, ny in _digit_window(c, q, self.system)
            if self.system.has_digit(dx + dy)
        ]

    def decide(self, x, y) -> bool:
        """Exact membership of the rational point (x, y)."""
        x, y = _rational(x), _rational(y)
        iv = _checked(self.system).interval()
        if not (iv.contains(x) and iv.contains(y)):
            return False
        q = math.lcm(x.denominator, y.denominator)
        root = (x.numerator * (q // x.denominator), y.numerator * (q // y.denominator), q)
        alive = self._alive
        if root in alive:
            return alive[root]
        # collect the undecided reachable states with their predecessors,
        # and for each the count of its successors not known dead
        preds = {root: []}
        live = {}
        todo = [root]
        while todo:
            state = todo.pop()
            nexts = [t for t in self._successors(state) if alive.get(t, True)]
            live[state] = len(nexts)
            for t in nexts:
                if t in alive:
                    continue
                if t not in preds:
                    if len(alive) + len(preds) >= self.max_states:
                        raise ResourceError(f"membership search exceeded {self.max_states} states")
                    preds[t] = []
                    todo.append(t)
                preds[t].append(state)
        # peel dead ends: a state whose live count reaches 0 dies
        dead = [s for s, n in live.items() if not n]
        for s in dead:
            for p in preds[s]:
                live[p] -= 1
                if not live[p]:
                    dead.append(p)
        for s, n in live.items():
            alive[s] = n > 0
        return alive[root]
