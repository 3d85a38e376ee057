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


def row_keys(rows, width):
    """The keys set in a stream of scan rows of `width` cells: bit c of row i is key i*width + c.

    Read through each row's binary numeral, not its bytes; a row past
    `width` bits fails.
    """
    keys = [np.zeros(0, np.int64)]
    for i, row in enumerate(rows):
        numeral = format(row, f"0{width}b")
        assert len(numeral) == width, (i, width)
        lowest_first = np.frombuffer(numeral[::-1].encode("ascii"), np.uint8)
        keys.append(np.flatnonzero(lowest_first == ord("1")) + i * width)
    return np.concatenate(keys)
