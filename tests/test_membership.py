"""The lockstep membership walk against the state-graph search, and its certificates."""

import ast
import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from conftest import legal_systems
from hypothesis import given, settings
from hypothesis import strategies as st

import trihex
from trihex import (
    DigitSystem,
    DomainError,
    MembershipAutomaton,
    covers_point,
    ifs_prefractal,
    member,
)
from trihex.cli import run
from trihex.membership import _certificate, _walk
from trihex.radix import _digit_window

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
SYSTEMS = list(legal_systems(7))


def two_expansions(r, system):
    """The rule: lo < r < hi and the reduced denominator of r - lo divides a power of m."""
    iv = system.interval()
    d = (r - iv.lo).denominator
    return iv.lo < r < iv.hi and system.m ** d.bit_length() % d == 0


def window_successors(state, q, system):
    ax, ay = state
    return {(nx, ny) for dx, nx in _digit_window(ax, q, system)
            for dy, ny in _digit_window(ay, q, system) if system.has_digit(dx + dy)}


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_lockstep_equals_the_automaton(system):
    iv = system.interval()
    m = system.m
    # lo + j/m^2 has two expansions strictly inside; lo and hi are the corners
    values = {iv.lo + Fraction(j, m * m) for j in range(m * m + 1)}
    values |= {Fraction(a, q) for q in (5, 6, 7, 12) for a in range(-q, q + 1)}
    values = sorted(values | {iv.lo - Fraction(1, 7), iv.hi + Fraction(1, 7)})
    assert sum(two_expansions(v, system) for v in values) >= m * m - 1
    got = {(x, y): member(x, y, system) for x, y in product(values, repeat=2)}
    auto = MembershipAutomaton(system)
    assert got == {(x, y): auto.decide(x, y) for x, y in got}
    assert any(got.values()) and not all(got.values())
    # corner digit sums: -2b at (lo, lo), m-1-2b at (lo, hi), 2(m-1-b) at (hi, hi)
    assert got[iv.lo, iv.hi] and got[iv.hi, iv.lo] and not got[iv.hi, iv.hi]
    assert got[iv.lo, iv.lo] == (system.b == 0)


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_every_step_of_the_walk_is_a_digit_window_step(system):
    # (x, lo + hi - x) adds every digit to its mirror m-1-2b, so the walk follows
    # x's expansion through a whole cycle: the inlined step meets every a/q, q <= 60
    iv = system.interval()
    for q in range(1, 61):
        for a in range(-q, q + 1):
            x = Fraction(a, q)
            if x.denominator != q or not iv.contains(x):
                continue
            for y in (iv.lo + iv.hi - x, x):
                den, before, ends, loop = _walk(x, y, system, 10**6)
                assert (loop is not None) == member(x, y, system)
                edges = [(s, t) for t, s in before.items() if s is not None]
                edges += [loop] if loop else []
                for s, t in edges:
                    assert t in window_successors(s, den, system), (system, x, y, s)
                for s in ends:  # some digit pair there leaves the alphabet
                    ax, ay = s
                    pairs = len(_digit_window(ax, den, system)) * len(_digit_window(ay, den, system))
                    assert len(window_successors(s, den, system)) < pairs, (system, x, y, s)
            assert member(x, iv.lo + iv.hi - x, system)


def test_non_member_fails_at_its_first_bad_position():
    # the cycle of 400000/1000003 in base 3 is long; a whole-cycle walk would exceed the cap
    x = Fraction(400000, 1000003)
    assert member(x, x, DigitSystem(3, 1), max_states=100) is False


@pytest.mark.parametrize("cap", ["a", 1.5, True, None])
def test_max_states_must_be_an_int(cap):
    with pytest.raises(DomainError, match="^max_states must be an integer"):
        member(Fraction(1, 3), 0, DigitSystem(3, 1), max_states=cap)


def test_int_caps_keep_their_meaning():
    # the root is always visited, so a cap of 0 or 1 still decides a fixed point
    for cap in (-1, 0, 1):
        assert member(0, 0, DigitSystem(2, 0), max_states=cap)
    assert member(Fraction(1, 7), Fraction(1, 7), DigitSystem(2, 0), max_states=3) is False


@st.composite
def points(draw):
    system = draw(st.sampled_from(SYSTEMS))
    iv = system.interval()
    q = draw(st.sampled_from([1, 2, 3, 5, 7, 11, 12, 25, system.m, system.m**2,
                              system.m**3, (system.m - 1) * system.m**2]))

    def coordinate():
        k = draw(st.integers(-1, q + 1))  # one step past either end is outside
        return iv.lo + Fraction(k, q) * (iv.hi - iv.lo)

    return coordinate(), coordinate(), system


@PROPERTY
@given(points(), st.data())
def test_certificates_check_and_their_breaks_do_not(point, data):
    x, y, system = point
    cert = _certificate(x, y, system)
    assert cert["member"] == member(x, y, system)
    assert json.loads(json.dumps(cert)) == cert
    assert trihex.check_certificate(x, y, system, cert)
    if cert.get("outside"):
        assert not trihex.check_certificate(x, y, system, {"member": False, "pairs": []})
        return
    # one digit changed, anywhere, to another digit of the alphabet
    broken = copy.deepcopy(cert)
    if cert["member"]:
        lasso = broken[data.draw(st.sampled_from("xy"))]
        digits = lasso[data.draw(st.sampled_from(["prefix", "cycle"] if lasso["prefix"]
                                                 else ["cycle"]))]
    else:
        digits = data.draw(st.sampled_from(broken["pairs"]))[data.draw(st.sampled_from("xy"))]
    spot = data.draw(st.integers(0, len(digits) - 1))
    digits[spot] = data.draw(st.sampled_from([d for d in system.digits() if d != digits[spot]]))
    assert not trihex.check_certificate(x, y, system, broken)
    if cert["member"]:
        # a cycle one digit short: x's, unless only y's cycle has two distinct digits,
        # as a constant cycle one shorter can still repeat the same digits
        shorter = copy.deepcopy(cert)
        c = "y" if len(set(cert["x"]["cycle"])) == 1 < len(set(cert["y"]["cycle"])) else "x"
        del shorter[c]["cycle"][-1]
        assert not trihex.check_certificate(x, y, system, shorter)
        assert not trihex.check_certificate(x, y, system, {"member": False, "outside": True})
    else:
        # a pair dropped, or put in place of another, so that some expansion pair is unstarted
        dropped = copy.deepcopy(cert)
        spot = data.draw(st.integers(0, len(cert["pairs"]) - 1))
        del dropped["pairs"][spot]
        assert not trihex.check_certificate(x, y, system, dropped)
        if dropped["pairs"]:
            dropped["pairs"].insert(spot, data.draw(st.sampled_from(dropped["pairs"])))
            assert not trihex.check_certificate(x, y, system, dropped)
        # true expansions of x and y, from the members (x, lo + hi - x) and (lo + hi - y, y),
        # claimed as a member: some digit sum must leave the alphabet
        iv = system.interval()
        lassos = {"x": _certificate(x, iv.lo + iv.hi - x, system)["x"],
                  "y": _certificate(iv.lo + iv.hi - y, y, system)["y"]}
        assert not trihex.check_certificate(x, y, system, {"member": True, **lassos})


def test_a_sum_that_leaves_the_alphabet_at_the_last_position_is_seen():
    # 1/3 = 0.(01) in base 2: the sums are 0, 2, so only the cycle's last position fails
    lasso = {"prefix": [], "cycle": [0, 1]}
    third = Fraction(1, 3)
    assert not trihex.check_certificate(third, third, DigitSystem(2, 0),
                                        {"member": True, "x": lasso, "y": lasso})
    assert trihex.check_certificate(third, 1 - third, DigitSystem(2, 0),
                                    {"member": True, "x": lasso,
                                     "y": {"prefix": [], "cycle": [1, 0]}})


def test_certificates_of_the_readme_points():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert _certificate(half, half, DigitSystem(2, 0)) == {
        "member": True, "x": {"prefix": [1], "cycle": [0]}, "y": {"prefix": [0], "cycle": [1]}}
    assert _certificate(-third, third, DigitSystem(3, 1)) == {
        "member": True, "x": {"prefix": [-1], "cycle": [0]}, "y": {"prefix": [1], "cycle": [0]}}
    # 3/4 has two expansions, 0.11000... and 0.10111...; both start with 1
    assert _certificate(Fraction(3, 4), Fraction(3, 4), DigitSystem(2, 0)) == {
        "member": False, "pairs": [{"x": [1], "y": [1]}]}
    assert _certificate(2, 0, DigitSystem(2, 0)) == {"member": False, "outside": True}


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_member_certificates_map_under_the_triangle_group(system):
    # the symmetries act on a member's lassos digit by digit: (y, x) swaps them;
    # (c/(m-1) - x - y, y) has the digits c - x_t - y_t, c = m-1-2b, whose sum with
    # y_t is c - x_t, again a digit; and (-x, -y), when c = 0, negates every digit
    m, c = system.m, system.m - 1 - 2 * system.b
    iv = system.interval()
    values = {iv.lo + Fraction(k, q) * (iv.hi - iv.lo)
              for q in (1, 2, 3, 4, 5, 6, m, m * m) for k in range(q + 1)}
    members = 0
    for x, y in product(values, repeat=2):
        cert = _certificate(x, y, system)
        if not cert["member"]:
            continue  # a non-member's last digit pair leaves the alphabet, so its pairs do not map
        members += 1
        lx, ly = cert["x"], cert["y"]
        assert [len(lx[part]) for part in lx] == [len(ly[part]) for part in ly]

        def lasso(digit):
            return {part: [digit(a, b) for a, b in zip(lx[part], ly[part])] for part in lx}

        mapped = [((y, x), ly, lx),
                  ((Fraction(c, m - 1) - x - y, y), lasso(lambda a, b: c - a - b), ly)]
        if c == 0:
            mapped.append(((-x, -y), lasso(lambda a, b: -a), lasso(lambda a, b: -b)))
        for (u, v), lu, lv in mapped:
            assert trihex.check_certificate(u, v, system, {"member": True, "x": lu, "y": lv}), (
                system, x, y, u, v)
    assert members >= 2 * len(values)


def test_non_member_leaves_the_cover_standard_base():
    # for b = 0 the depth-n cover holds exactly the points with a carry-free pair of
    # n-digit expansion prefixes: a non-member whose expansion pairs have all failed
    # by position n leaves the cover at depth n, within the n + 1 that nesting allows
    for system in (DigitSystem(2, 0), DigitSystem(3, 0), DigitSystem(4, 0)):
        chain = [ifs_prefractal(system, n) for n in range(7 if system.m < 4 else 5)]
        seen = 0
        for q in range(1, 28):
            for a, c in product(range(q + 1), repeat=2):
                x, y = Fraction(a, q), Fraction(c, q)
                cert = _certificate(x, y, system)
                if cert["member"]:
                    continue
                n = max(len(pair["x"]) for pair in cert["pairs"])
                if n < len(chain):
                    covered = [covers_point(level, x, y) for level in chain[:n + 1]]
                    assert covered == [True] * n + [False], (system, x, y)
                    seen += 1
        assert seen > 100


def test_checker_shares_no_code_with_the_decision():
    source = Path(trihex.__file__).with_name("certify.py").read_text()
    imports = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [alias.name for node in imports if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in imports if isinstance(node, ast.ImportFrom)]
    assert all(isinstance(node, ast.Import) or node.level == 0 for node in imports)
    assert not [name for name in modules if name.startswith("trihex")], modules
    assert "_digit_window" not in source
    assert "check_certificate" not in trihex.__all__


@pytest.mark.parametrize("point, system", [
    ("1/2,1/2", ("2", "0")), ("-1/3,1/3", ("3", "1")), ("3/4,3/4", ("2", "0")),
    ("2,0", ("2", "0")), ("1/3,1/9", ("2", "0")),
])
def test_member_witness_prints_a_checked_certificate(capsys, point, system):
    argv = ["member", "--base", system[0], "--balance", system[1], f"--point={point}"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run([*argv, "--witness"]) == 0
    answer, line, rest = capsys.readouterr().out.split("\n")
    assert answer + "\n" == plain and rest == ""
    cert = json.loads(line)
    assert cert["member"] == (answer == "true")
    assert json.dumps(cert, separators=(",", ":")) == line
    x, y = (Fraction(t) for t in point.split(","))
    assert trihex.check_certificate(x, y, DigitSystem(*map(int, system)), cert)


def test_only_member_loads_the_membership_modules():
    # each child compiles what it imports, so member leaves json to --witness,
    # and the square-set commands load neither decision
    src = str(Path(trihex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import contextlib, io, sys\nfrom trihex import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.run(sys.argv[1:]) == 0\n"
              "print(sorted(m for m in sys.modules if m == 'json' or m.startswith('trihex.')))")
    loaded = [subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True).stdout.strip()
              for argv in (["member", "--base", "2", "--point", "1/3,1/5"],
                           ["member", "--base", "2", "--point", "1/3,1/5", "--witness"],
                           ["gen", "--base", "2", "--depth", "1", "--format", "text"],
                           ["convert", "--int", "0", "--base", "2"])]  # the benchmark's set-up
    assert loaded == [
        "['trihex.cli', 'trihex.errors', 'trihex.membership', 'trihex.radix']",
        "['json', 'trihex.cli', 'trihex.errors', 'trihex.membership', 'trihex.radix']",
        "['trihex.cli', 'trihex.errors', 'trihex.radix', 'trihex.routes']",
        "['trihex.cli', 'trihex.errors', 'trihex.radix']",
    ]
