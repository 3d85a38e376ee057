import random

import numpy as np

from trihex import DigitString, DigitSystem


def rand_string(rng: random.Random, system: DigitSystem, span: int = 4,
                density: float = 0.6) -> DigitString:
    """Random finite digit string with exponents in [-span, span)."""
    alpha = list(system.digits())
    digits = {}
    for e in range(-span, span):
        if rng.random() < density:
            digits[e] = rng.choice(alpha)
    return DigitString(system, digits)


def legal_systems(max_m: int):
    """All (m, b) digit systems with 2 <= m <= max_m."""
    for m in range(2, max_m + 1):
        yield DigitSystem(m, 0)
        if m > 2:
            for b in range(1, m // 2 + 1):
                yield DigitSystem(m, b)


def block_keys(blocks, size):
    """The keys set in a stream of int blocks of `size` cells: bit t of block p is key p*size + t.

    Read through each block's binary numeral, not its bytes; a block past
    `size` bits fails.
    """
    keys = [np.zeros(0, np.int64)]
    for p, block in enumerate(blocks):
        numeral = format(block, f"0{size}b")
        assert len(numeral) == size, (p, size)
        lowest_first = np.frombuffer(numeral[::-1].encode("ascii"), np.uint8)
        keys.append(np.flatnonzero(lowest_first == ord("1")) + p * size)
    return np.concatenate(keys)
