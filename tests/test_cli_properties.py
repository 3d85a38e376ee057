"""Arbitrary text through the CLI: every call exits 0, 1 or 2 and never raises."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from trihex.cli import run

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# free text, near-grammar numerals so the parser's inner branches run too, and
# all-nines numerals whose values pass Python's 4300-digit int/str limit
numerals = st.one_of(
    st.text(),
    st.builds(
        "[{}]@{}b{}".format,
        st.lists(st.sampled_from(["0", "1", "-1", "2", "7", ".", "x", "٣"]), max_size=8).map(" ".join),
        st.integers(-1, 12),
        st.integers(-1, 6),
    ),
    st.integers(4200, 4400).map(lambda n: "[{}]@10b0".format(" 9" * n)),
)

# free text at most 8 long keeps any denominator below 10^4, so member stays
# fast; a long all-ones integer is rejected before any search
rational = st.one_of(
    st.text(max_size=8),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(0, 30)),
    st.integers(-3, 3).map(str),
    st.integers(4200, 4400).map(lambda n: "1" * n),
)
points = st.one_of(st.text(max_size=8), st.builds("{},{}".format, rational, rational))


def exit_code(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(list(argv))


@PROPERTY
@given(numerals)
def test_convert_numeral(text):
    assert exit_code("convert", f"--x={text}") in (0, 1, 2)


@PROPERTY
@given(numerals, numerals)
def test_add(x, y):
    assert exit_code("add", f"--x={x}", f"--y={y}") in (0, 1, 2)


@PROPERTY
@given(numerals, numerals)
def test_carryfree(x, y):
    assert exit_code("carryfree", f"--x={x}", f"--y={y}") in (0, 1, 2)


@PROPERTY
@given(st.integers(-1, 6), st.integers(-1, 3), points)
def test_member(m, b, point):
    assert exit_code("member", "--base", str(m), "--balance", str(b),
                     f"--point={point}") in (0, 1, 2)
