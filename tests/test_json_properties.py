"""Arbitrary text through prefractal_from_json: a Prefractal or DomainError, nothing else."""

from hypothesis import given, settings
from hypothesis import strategies as st

from trihex import DomainError, Prefractal, prefractal_from_json

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def array(items: list[str]) -> str:
    return "[" + ",".join(items) + "]"


# JSON values as text, so that integers past Python's 4300-digit int/str
# limit can be written: small and int64-edge integers, non-integer
# scalars, objects, ragged or nested lists, and nesting past the
# parser's recursion limit
overlong = st.integers(4301, 4400).map(lambda n: "9" * n)
wide = st.one_of(st.integers(2**63 - 2, 2**64 + 2), st.integers(-(2**64 + 2), -(2**63 - 2)))
other = st.sampled_from(["true", "false", "null", "0.5", "1e3", "-0.0", '"1"', '""', "{}",
                         '{"":0}'])
values = st.recursive(
    st.one_of(st.integers(-3, 40).map(str), wide.map(str), overlong, other),
    lambda inner: st.lists(inner, max_size=4).map(array),
    max_leaves=12,
)
pairs = st.lists(st.builds("[{},{}]".format, st.integers(-9, 40), st.integers(-9, 40)),
                 max_size=6).map(array)
nested = st.integers(1, 3000).map(lambda n: "[" * n + "]" * n)


@st.composite
def near_grammar(draw) -> str:
    """A valid export with up to two fields replaced by malformed values or dropped."""
    m = draw(st.integers(2, 7))
    b = draw(st.integers(0, m // 2 if m > 2 else 0))
    depth = draw(st.integers(0, 3))
    g = (m**depth - 1) // (m - 1)
    index = st.integers(-b * g, (m - 1 - b) * g)
    squares = draw(st.lists(st.tuples(index, index), unique=True, max_size=6))
    fields = {"m": str(m), "b": str(b), "depth": str(depth), "count": str(len(squares)),
              "squares": array([f"[{i},{j}]" for i, j in squares])}
    bad = {
        "m": values,
        "b": values,
        # no depth past int64, and 10^8 only with a one-digit radix (below):
        # code that builds m^depth before rejecting it then takes seconds
        # and tens of MB, not hours
        "depth": st.one_of(st.sampled_from(["-1", "32", "100000000"]), overlong, other,
                           st.lists(values, max_size=3).map(array)),
        "count": values,
        "squares": st.one_of(pairs, values, nested),
    }
    for key in draw(st.sets(st.sampled_from(sorted(fields)), max_size=2)):
        fields[key] = draw(st.one_of(st.none(), bad[key]))
    if fields["depth"] == "100000000" and len(fields["m"] or "") > 1:
        fields["depth"] = "32"
    return "{" + ",".join(f'"{k}":{v}' for k, v in fields.items() if v is not None) + "}"


@PROPERTY
@given(st.one_of(st.text(), values, nested, st.integers(1, 200000).map("[".__mul__),
                 near_grammar()))
def test_from_json_returns_prefractal_or_domain_error(text):
    try:
        assert isinstance(prefractal_from_json(text), Prefractal)
    except DomainError:
        pass
