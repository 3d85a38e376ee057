"""The benchmark's workloads: lists of `trihex` CLI commands with output checks.

`emit` and `construct` are fixed lists.  `query` is drawn from the seed.
Each command carries a check that decides, without trihex, whether its
output is right.  The first docstring line of each workload is the
reason it is in the benchmark, as BENCHMARK.json repeats it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from checks import (
    exact_text,
    int_digits,
    member_oracle,
    numeral_text,
    numeral_value,
    rational_digits,
    square_output,
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments and the check of what it prints.

    When `out` is set the command writes that file (a name under the work
    directory, passed as --out) and the check applies to the file; the
    command must then print nothing.
    """

    args: tuple[str, ...]
    check: Callable[[bytes], str | None]
    out: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.args)


# SHA-256 of every emit and construct output, recorded at the commit that
# added the benchmark.  A change that alters output bytes on purpose
# records the new values here and says so.
GOLDEN = {
    "gen --base 3 --balance 1 --depth 7":
        "40d13a922ad6a205d36dedbf4c20c93b62b054743fbdf178fdc3263978015e86",
    "gen --base 3 --balance 1 --depth 7 --format text":
        "af740c104a1563ba7a096f0da2613a6eec47292149f754d3b34fed20e703f4c4",
    "gen --base 3 --balance 1 --depth 7 --format svg":
        "79bade2d0bc41c331f06a4d48ca381d77109b169338aeddc01777fba55e8d17a",
    "render --base 3 --balance 1 --depth 7":
        "24594f5646e5a09bb1b08bc4da66c9b3f83f41b0b4c1042a85ebba14a60e9db8",
    "gen --base 2 --balance 0 --depth 12":
        "1f434460ccb32a5f91912e034ef1fa6bfeb0a108ff1cfdbb67bf7249f08eb127",
    "gen --base 2 --balance 0 --depth 12 --format text":
        "46628398079c4218773a9559d884ce5cf1b7b2d6608b9f2e9b94944b9b51381a",
    "gen --base 2 --balance 0 --depth 12 --format svg":
        "fb8a618d646a7d228de86be957f5d7e04e193a5fa166b337331c77e744d342a5",
    "render --base 2 --balance 0 --depth 12":
        "f11340e0d48dd038b27ef6500922e614321109ddf9cbb7d29471abd5a34da71d",
    "gen --base 5 --balance 2 --depth 4":
        "60bf9723e182d7f4fc1f562d4391e154c178afd88539a4613b112a4b6519986b",
    "gen --base 5 --balance 2 --depth 4 --format text":
        "89d1a09dcc94ac0d160aa9ccec2b8d34917d49e3286d5b30d50acee037021408",
    "gen --base 5 --balance 2 --depth 4 --format svg":
        "782877831cb0b3e803db48632dd931fc93cef96c5bc3152fb51caf3320a2ab9f",
    "render --base 5 --balance 2 --depth 4":
        "eb99747dac4b415eb0ee2f48e1a1d1b9d4af1f528676cbfdf497d91bdc7604da",
    "verify --base 3 --balance 1 --depth 7":
        "5f11b16180466cc44118dc245fbbc5165b8f4f31dd415866257e0a3bf579fd62",
    "verify --base 2 --balance 0 --depth 12":
        "6173c77d8b1acf9b92367ab1ec7f3d8c8b5bfc61a2cfd8526ba739ea373a1e66",
    "verify --base 5 --balance 2 --depth 4":
        "26fae399cdb29db4a14004e1d5af328cca6f0b1f365ac67d77e90577ed927cea",
    "verify --base 4 --balance 1 --depth 6":
        "bede4b3961b7d93c7cab66dedc55ae5035d105440af9b7132c45f91b9af87e26",
    "dim --base 3 --balance 1 --depth 8":
        "a8af445f48b250c9efed2d9566d6805e07d52ebc13f532fae15d88f9aeba8840",
    "dim --base 2 --balance 0 --depth 13":
        "f5f4618213670860d2c26ac3ab6457a2f92ad611f3ae2f3fd7eec34180dce5ea",
    "dim --base 4 --balance 1 --depth 6":
        "c78e8b0b0f8e3b10d66192d2c995d8f1b1df97036197458c20bcfe052a8399db",
}


def _system_args(m: int, b: int, n: int) -> tuple[str, ...]:
    return ("--base", str(m), "--balance", str(b), "--depth", str(n))


def _squares(kind: str, args: tuple[str, ...], m: int, b: int, n: int,
             out: str | None = None) -> Command:
    return Command(args, square_output(kind, m, b, n, GOLDEN[" ".join(args)]), out)


# (m, b, depth): 823,543, 531,441 and 130,321 squares.
EMIT_SYSTEMS = [(3, 1, 7), (2, 0, 12), (5, 2, 4)]


def emit(seed: int) -> list[Command]:
    """Writers and cli do most of the work, construction little; outputs of MBs to tens of MBs."""
    cmds = []
    for m, b, n in EMIT_SYSTEMS:
        sys_args = _system_args(m, b, n)
        cmds += [
            _squares("json", ("gen", *sys_args), m, b, n),
            _squares("text", ("gen", *sys_args, "--format", "text"), m, b, n),
            _squares("svg", ("gen", *sys_args, "--format", "svg"), m, b, n, out="emit.svg"),
            _squares("pbm", ("render", *sys_args), m, b, n, out="emit.pbm"),
        ]
    return cmds


def construct(seed: int) -> list[Command]:
    """Construction, canonicalisation and the digit scan do all the work; writers none."""
    cmds = [_squares("verify", ("verify", *_system_args(m, b, n)), m, b, n)
            for m, b, n in [(3, 1, 7), (2, 0, 12), (5, 2, 4), (4, 1, 6)]]
    # (3,1) d8 is 5,764,801 squares, about 92 MB of index pairs: the peak RSS.
    cmds += [_squares("dim", ("dim", *_system_args(m, b, n)), m, b, n)
             for m, b, n in [(3, 1, 8), (2, 0, 13), (4, 1, 6)]]
    return cmds


MEMBER_SYSTEMS = [(2, 0), (3, 1), (4, 1), (5, 2)]
PRIMES = [q for q in range(1000, 10000) if all(q % d for d in range(2, int(q**0.5) + 1))]
# Member points per system on the two long-cycle lines, one per band of
# rank in the cycle length ord_q(m): five short (the lower half of ranks)
# and five long (the top fifth).  Fixed bands keep the work alike across
# seeds, and the 20 long ones put a whole cluster, not one outlier, at p90.
LINE_BANDS = [(k / 10, (k + 1) / 10) for k in range(5)] + \
             [(0.8 + k / 25, 0.8 + (k + 1) / 25) for k in range(5)]
RANDOM_POINTS = 10   # uniform random points per system
NUMERAL_DIGITS = 300


def _order(m: int, q: int) -> int:
    """Multiplicative order of m modulo the prime q: the cycle length of a/q."""
    order, rest, p = q - 1, q - 1, 2
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while order % p == 0 and pow(m, order // p, q) == 1:
                order //= p
        p += 1
    return order


def _numerator(rng: random.Random, q: int, m: int, b: int) -> int:
    """Uniform a with a/q inside the value interval and a not divisible by q."""
    lo = -((b * q) // (m - 1))            # ceil(-b q / (m-1))
    hi = ((m - 1 - b) * q) // (m - 1)
    while True:
        a = rng.randint(lo, hi)
        if a % q:
            return a


def _member(m: int, b: int, x: Fraction, y: Fraction) -> Command:
    args = ("member", "--base", str(m), "--balance", str(b), f"--point={x},{y}")
    return Command(args, exact_text("true" if member_oracle(x, y, m, b) else "false"))


def _member_commands(rng: random.Random) -> list[Command]:
    cmds = []
    for m, b in MEMBER_SYSTEMS:
        lo, hi = Fraction(-b, m - 1), Fraction(m - 1 - b, m - 1)
        # Members on y = 0 and y = lo + hi - x visit about ord_q(m) states.
        ranked = sorted((o, q) for q in PRIMES if (o := _order(m, q)) >= 100)
        for k, (start, stop) in enumerate(LINE_BANDS):
            band = ranked[int(start * len(ranked)):int(stop * len(ranked))]
            q = rng.choice(band)[1]
            x = Fraction(_numerator(rng, q, m, b), q)
            cmds.append(_member(m, b, x, Fraction(0) if k % 2 else lo + hi - x))
        # Uniform points: almost all are rejected within about ten states.
        for _ in range(RANDOM_POINTS):
            q = rng.choice(PRIMES)
            cmds.append(_member(m, b, Fraction(_numerator(rng, q, m, b), q),
                                Fraction(_numerator(rng, q, m, b), q)))
    return cmds


def _random_digits(rng: random.Random, m: int, b: int, exps) -> dict[int, int]:
    return {e: d for e in exps if (d := rng.randint(-b, m - 1 - b))}


def _numeral_commands(rng: random.Random) -> list[Command]:
    cmds = []
    half = NUMERAL_DIGITS // 2
    for k in range(5):
        m, b = MEMBER_SYSTEMS[k % len(MEMBER_SYSTEMS)]
        # convert --int: an integer of NUMERAL_DIGITS digits, signed when balanced
        n = rng.randrange(m ** (NUMERAL_DIGITS - 1), m ** NUMERAL_DIGITS)
        n = -n if b and rng.random() < 0.5 else n
        cmds.append(Command(("convert", f"--int={n}", "--base", str(m), "--balance", str(b)),
                            exact_text(numeral_text(int_digits(n, m, b), m, b))))
        # convert --x, add: numerals with half their digits after the point
        x = _random_digits(rng, m, b, range(-half, half))
        y = _random_digits(rng, m, b, range(-half, half))
        tx, ty = numeral_text(x, m, b), numeral_text(y, m, b)
        vx, vy = numeral_value(x, m), numeral_value(y, m)
        cmds.append(Command(("convert", f"--x={tx}"), exact_text(str(vx))))
        cmds.append(Command(("add", f"--x={tx}", f"--y={ty}"),
                            exact_text(numeral_text(rational_digits(vx + vy, m, b), m, b))))
        # carryfree: on odd k, y is drawn so that no position carries
        if k % 2:
            y = {e: d for e in range(-half, half)
                 if (d := rng.randint(max(-b, -b - x.get(e, 0)),
                                      min(m - 1 - b, m - 1 - b - x.get(e, 0))))}
        free = all(-b <= x.get(e, 0) + y.get(e, 0) <= m - 1 - b for e in set(x) | set(y))
        cmds.append(Command(("carryfree", f"--x={tx}", f"--y={numeral_text(y, m, b)}"),
                            exact_text("true" if free else "false")))
    return cmds


def query(seed: int) -> list[Command]:
    """Only radix and membership work; short commands, so set-up and the latency tail show."""
    rng = random.Random(seed)
    cmds = _member_commands(rng) + _numeral_commands(rng)
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {"emit": emit, "construct": construct, "query": query}
