import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from conftest import legal_systems, rand_string

from trihex import (
    DigitString,
    DigitSystem,
    DimensionReport,
    DomainError,
    GeneratorLattice,
    RasterSpec,
    ValueInterval,
    add,
    carry_free,
    digits_to_rational,
    expansions,
    format_numeral,
    frac_digit_choices,
    int_to_digits,
    lattice,
    parse_numeral,
    radix,
)

BT = DigitSystem(3, 1)  # balanced ternary


class TestDigitSystem:
    def test_legal(self):
        DigitSystem(2, 0)
        DigitSystem(3, 1)
        DigitSystem(4, 2)
        DigitSystem(5, 2)
        DigitSystem(12, 6)

    @pytest.mark.parametrize("m,b", [(1, 0), (0, 0), (2, 1), (3, 2), (4, 3), (3, -1), (5, 3),
                                     (3, True)])
    def test_illegal(self, m, b):
        with pytest.raises(DomainError):
            DigitSystem(m, b)

    def test_alphabet(self):
        assert list(DigitSystem(3, 0).digits()) == [0, 1, 2]
        assert list(BT.digits()) == [-1, 0, 1]
        assert list(DigitSystem(5, 2).digits()) == [-2, -1, 0, 1, 2]
        for system in legal_systems(12):
            assert len(list(system.digits())) == system.m

    def test_digit_for_is_congruent(self):
        for system in legal_systems(8):
            for n in range(-50, 50):
                d = system.digit_for(n)
                assert system.has_digit(d)
                assert (n - d) % system.m == 0

    def test_interval(self):
        assert DigitSystem(2, 0).interval() == ValueInterval(Fraction(0), Fraction(1))
        assert BT.interval() == ValueInterval(Fraction(-1, 2), Fraction(1, 2))
        assert DigitSystem(5, 2).interval() == ValueInterval(Fraction(-1, 2), Fraction(1, 2))


HALF = ValueInterval(Fraction(-1, 2), Fraction(1, 2))


class TestRecords:
    """DigitSystem and ValueInterval keep the contract of the frozen dataclasses they were."""

    def test_construction(self):
        assert DigitSystem(m=3, b=1) == DigitSystem(3, 1) == DigitSystem(3, b=1)
        assert DigitSystem(5) == DigitSystem(m=5) == DigitSystem(5, 0)
        assert ValueInterval(lo=Fraction(-1, 2), hi=Fraction(1, 2)) == HALF
        with pytest.raises(TypeError):
            DigitSystem(3, 1, 0)
        with pytest.raises(TypeError):
            DigitSystem(3, c=1)

    @pytest.mark.parametrize("m,b,message", [
        ("3", 0, "radix and balance must be integers"),
        (3, None, "radix and balance must be integers"),
        (1, 5, "radix must be at least 2, got m=1"),  # the radix is checked before the balance
        (2, 1, "balance must be 0, or 1 <= b <= m/2 with m > 2; got m=2, b=1"),
        (7, 4, "balance must be 0, or 1 <= b <= m/2 with m > 2; got m=7, b=4"),
    ])
    def test_validation_messages(self, m, b, message):
        with pytest.raises(DomainError) as err:
            DigitSystem(m, b)
        assert str(err.value) == message

    def test_equality_and_hash(self):
        assert DigitSystem(3, 1) != (3, 1) and (3, 1) != DigitSystem(3, 1)
        assert DigitSystem(3, 1) != DigitSystem(3, 0)
        assert HALF != (HALF.lo, HALF.hi) and ValueInterval(3, 1) != DigitSystem(3, 1)
        assert DigitSystem(3, 1).__eq__((3, 1)) is NotImplemented
        assert hash(DigitSystem(3, 1)) == hash((3, 1))
        assert hash(HALF) == hash((Fraction(-1, 2), Fraction(1, 2)))
        assert len({DigitSystem(3, 1), DigitSystem(3, 1), BT}) == 1

    def test_text(self):
        assert repr(BT) == "DigitSystem(m=3, b=1)" and str(BT) == "3b1"
        assert repr(HALF) == str(HALF) == "ValueInterval(lo=Fraction(-1, 2), hi=Fraction(1, 2))"
        assert str(DigitSystem(12)) == "12b0"

    @pytest.mark.parametrize("record", [BT, HALF], ids=["DigitSystem", "ValueInterval"])
    def test_frozen_without_dict(self, record):
        for name in ("m", "b", "lo", "hi", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")
        assert record == copy.copy(record)  # unchanged by the attempts above

    @pytest.mark.parametrize("record", [BT, HALF], ids=["DigitSystem", "ValueInterval"])
    def test_copies(self, record):
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(record) and twin == record
            assert repr(twin) == repr(record) and hash(twin) == hash(record)


RESULTS = [  # (record, its field tuple, its repr)
    (lattice(2, 0), (DigitSystem(2, 0), ((0, 0), (0, 1), (1, 0))),
     "GeneratorLattice(system=DigitSystem(m=2, b=0), points=((0, 0), (0, 1), (1, 0)))"),
    (RasterSpec((-4, -4), 9, 9), ((-4, -4), 9, 9),
     "RasterSpec(origin=(-4, -4), width=9, height=9)"),
    (DimensionReport(3, 1, 2, 49, 1.5, 1.75, 0.25), (3, 1, 2, 49, 1.5, 1.75, 0.25),
     "DimensionReport(m=3, b=1, depth=2, box_count=49, estimate=1.5, closed_form=1.75, "
     "abs_error=0.25)"),
]
each_result = pytest.mark.parametrize("record,fields,text", RESULTS,
                                      ids=["GeneratorLattice", "RasterSpec", "DimensionReport"])


class TestResultRecords:
    """The other three records keep the contract of the frozen dataclasses they were."""

    @each_result
    def test_repr(self, record, fields, text):
        assert repr(record) == text

    @each_result
    def test_equality_and_hash(self, record, fields, text):
        assert record != fields and fields != record and record.__eq__(fields) is NotImplemented
        assert record == type(record)(*fields)
        assert hash(record) == hash(fields)

    @each_result
    def test_frozen_without_dict(self, record, fields, text):
        for name in record.__slots__ + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")
        assert record == type(record)(*fields)  # unchanged by the attempts above

    @each_result
    def test_copies(self, record, fields, text):
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(record) and twin == record
            assert repr(twin) == repr(record) and hash(twin) == hash(record)

    @each_result
    def test_wrong_field_count(self, record, fields, text):
        for wrong in (fields[:-1], fields + (0,)):
            with pytest.raises(TypeError, match=f"^{type(record).__name__}"):
                type(record)(*wrong)

    def test_field_count_message(self):
        with pytest.raises(TypeError, match="^DimensionReport takes 7 fields, got 2$"):
            DimensionReport(3, 1)

    def test_unpickling_checks_a_lattice_again(self):
        bad = object.__new__(GeneratorLattice)
        for name, value in zip(bad.__slots__, (BT, ((5, 5),))):
            object.__setattr__(bad, name, value)
        with pytest.raises(DomainError, match="lattice point outside the alphabet of base 3b1"):
            pickle.loads(pickle.dumps(bad))


class TestDigitString:
    def test_canonical_drops_zeros(self):
        x = DigitString(BT, {3: 1, 2: 0, 1: -1, 0: 0})
        assert x.exponents() == [1, 3]
        assert x == DigitString(BT, {3: 1, 1: -1})
        assert hash(x) == hash(DigitString(BT, {3: 1, 1: -1}))

    def test_rejects_foreign_digits(self):
        with pytest.raises(DomainError):
            DigitString(DigitSystem(2, 0), {0: 2})
        with pytest.raises(DomainError):
            DigitString(BT, {0: -2})
        for bools in ({0: True}, {True: 1}):  # would print as [True]@2b0, which no parser takes
            with pytest.raises(DomainError):
                DigitString(DigitSystem(2, 0), bools)

    def test_zero(self):
        z = DigitString(BT)
        assert z.is_zero
        assert z.min_exponent is None and z.max_exponent is None
        assert z.value() == 0


class TestIntToDigits:
    def test_balanced_ternary_14(self):
        assert int_to_digits(14, BT) == parse_numeral("[1 -1 -1 -1]@3b1")

    def test_balanced_ternary_minus_14(self):
        assert int_to_digits(-14, BT) == parse_numeral("[-1 1 1 1]@3b1")

    def test_zero_is_empty(self):
        for system in (DigitSystem(2, 0), BT, DigitSystem(5, 2)):
            assert int_to_digits(0, system).is_zero

    def test_negative_rejected_in_standard_base(self):
        for n in (-5, True):  # bool is not an integer here
            with pytest.raises(DomainError):
                int_to_digits(n, DigitSystem(3, 0))

    def test_leading_digit_nonzero(self):
        for system in legal_systems(6):
            lo = 0 if system.b == 0 else -300
            for n in range(lo, 301):
                x = int_to_digits(n, system)
                if n:
                    assert x.digit(x.max_exponent) != 0

    def test_round_trip_exhaustive(self):
        # every |n| <= 10^4, all systems with m <= 10
        for system in legal_systems(10):
            lo = 0 if system.b == 0 else -(10**4)
            for n in range(lo, 10**4 + 1):
                assert digits_to_rational(int_to_digits(n, system)) == n


class TestDigitsToRational:
    def test_paper_round_trip(self):
        assert digits_to_rational(parse_numeral("[1 -1 -1 -1]@3b1")) == 14

    def test_fractional(self):
        assert digits_to_rational(parse_numeral("[1 0 . 2]@3b0")) == Fraction(11, 3)

    def test_empty(self):
        assert digits_to_rational(DigitString(BT)) == 0


class TestAdd:
    def test_standard_worked_sum(self):
        x = parse_numeral("[1 0 . 2]@3b0")
        y = parse_numeral("[2 1 . 1]@3b0")
        assert add(x, y) == parse_numeral("[1 0 2]@3b0")

    def test_balanced_worked_sum(self):
        x = parse_numeral("[2 . -1 -2]@5b2")
        y = parse_numeral("[1 2 . 1 -2]@5b2")
        assert add(x, y) == parse_numeral("[2 -1 . -1 1]@5b2")

    def test_identity(self):
        x = parse_numeral("[1 -1 . 1]@3b1")
        zero = DigitString(BT)
        assert add(x, zero) == x
        assert add(zero, x) == x
        assert add(zero, zero) == zero

    def test_mismatched_systems(self):
        with pytest.raises(DomainError):
            add(DigitString(DigitSystem(3, 0)), DigitString(BT))

    def test_soundness_fuzz(self):
        rng = random.Random(0xADD)
        for system in legal_systems(6):
            for _ in range(1500):
                x = rand_string(rng, system)
                y = rand_string(rng, system)
                s = add(x, y)
                assert digits_to_rational(s) == digits_to_rational(x) + digits_to_rational(y)
                assert all(system.has_digit(s.digit(e)) for e in s.exponents())


def exact_sum_add(x, y):
    """Reference: int_to_digits on the exact sum scaled to an integer, as add once ran.

    Scaled by m**-low, low the lowest exponent (or 0), x + y is an integer;
    its digits shift back down by low.
    """
    low = min(0, x.min_exponent or 0, y.min_exponent or 0)
    n = (x.value() + y.value()) * x.system.m**-low
    digits = int_to_digits(n.numerator, x.system)._digits
    return DigitString(x.system, {e + low: d for e, d in digits.items()})


class TestAddMatchesCarryLoop:
    @pytest.mark.parametrize("span,count", [(3, 60), (10, 30), (150, 6)])
    def test_random_sums(self, span, count):
        rng = random.Random(0xCA11 + span)

        def numeral(system):
            # shifted so that some numerals sit wholly above or below the radix point
            shift, x = rng.randint(-span, span), rand_string(rng, system, span)
            return DigitString(system, {e + shift: x.digit(e) for e in x.exponents()})

        for system in legal_systems(9):
            zero = DigitString(system)
            pairs = [(zero, zero)]
            for _ in range(count):
                x, y = numeral(system), numeral(system)
                pairs += [(x, y), (x, zero), (zero, y), (x, x)]
            for x, y in pairs:
                assert add(x, y) == exact_sum_add(x, y), (x, y)

    def test_add_is_digitwise(self, monkeypatch):
        # pinned to the carry over pointwise digit sums: no exact value, no integer expansion
        rng = random.Random(0xD161)
        cases = []
        for system in legal_systems(6):
            for _ in range(20):
                x, y = rand_string(rng, system, 8), rand_string(rng, system, 8)
                cases.append((x, y, exact_sum_add(x, y)))

        def no_exact_sum(*args):
            raise AssertionError("add left the digits")

        monkeypatch.setattr(radix, "int_to_digits", no_exact_sum)
        monkeypatch.setattr(DigitString, "value", no_exact_sum)
        for x, y, want in cases:
            assert add(x, y) == want, (x, y)

    def test_sixty_thousand_digits(self):
        rng = random.Random(0x60000)
        system = DigitSystem(2, 0)
        x, y = (DigitString(system, {e: rng.randint(0, 1) for e in range(-30_000, 30_000)})
                for _ in range(2))
        assert add(x, y) == exact_sum_add(x, y)


class TestCarryFree:
    def test_disjoint_positions(self):
        b2 = DigitSystem(2, 0)
        assert carry_free(DigitString(b2, {-1: 1}), DigitString(b2, {-2: 1}))

    def test_colliding_ones(self):
        b2 = DigitSystem(2, 0)
        assert not carry_free(DigitString(b2, {-1: 1}), DigitString(b2, {-1: 1}))

    def test_balanced_worked_pair_carries(self):
        # position -2 sums to -4, below the alphabet floor -2
        x = parse_numeral("[2 . -1 -2]@5b2")
        y = parse_numeral("[1 2 . 1 -2]@5b2")
        assert not carry_free(x, y)

    def test_mismatched_systems(self):
        with pytest.raises(DomainError):
            carry_free(DigitString(DigitSystem(3, 0)), DigitString(BT))

    @pytest.mark.parametrize("system", [DigitSystem(3, 0), DigitSystem(3, 1)])
    def test_characterization_fuzz(self, system):
        # carry-free <=> add() is the plain pointwise digit sum
        rng = random.Random(0xCF + system.b)
        for _ in range(10**5):
            x = rand_string(rng, system, span=3)
            y = rand_string(rng, system, span=3)
            spots = set(x.exponents()) | set(y.exponents())
            if carry_free(x, y):
                pointwise = DigitString(system, {e: x.digit(e) + y.digit(e) for e in spots})
                assert add(x, y) == pointwise
            else:
                assert any(not system.has_digit(x.digit(e) + y.digit(e)) for e in spots)


class TestFracDigitChoices:
    def test_half_in_base_two(self):
        assert frac_digit_choices(Fraction(1, 2), DigitSystem(2, 0)) == [
            (0, Fraction(1)),
            (1, Fraction(0)),
        ]

    def test_third_in_balanced_ternary(self):
        assert frac_digit_choices(Fraction(1, 3), BT) == [(1, Fraction(0))]

    def test_zero_self_loop(self):
        for system in (DigitSystem(2, 0), BT, DigitSystem(5, 2)):
            assert frac_digit_choices(Fraction(0), system) == [(0, Fraction(0))]

    def test_outside_interval(self):
        with pytest.raises(DomainError):
            frac_digit_choices(Fraction(3, 2), DigitSystem(2, 0))
        with pytest.raises(DomainError):
            frac_digit_choices(Fraction(2, 3), BT)

    def test_at_most_two_branches(self):
        rng = random.Random(0xBEEF)
        for system in legal_systems(7):
            iv = system.interval()
            for _ in range(400):
                q = rng.randint(1, 200)
                r = iv.lo + Fraction(rng.randint(0, q), q) * (iv.hi - iv.lo)
                choices = frac_digit_choices(r, system)
                assert 1 <= len(choices) <= 2
                for d, rem in choices:
                    assert system.has_digit(d)
                    assert iv.contains(rem)
                    assert system.m * r - d == rem
                if len(choices) == 2:
                    rems = {rem for _, rem in choices}
                    assert rems == {iv.lo, iv.hi}


def expansions_reference(r, system, depth):
    """Reference: each level copies every prefix tuple, so the walk is quadratic in depth."""
    a, q = radix._remainder(r, system)
    prefixes = [((), a)]  # (digits from exponent -1 down, remainder numerator over q)
    for _ in range(radix._depth(depth)):
        prefixes = [(ds + (d,), nxt) for ds, num in prefixes
                    for d, nxt in radix._digit_window(num, q, system)]
    return [DigitString(system, zip(range(-1, -depth - 1, -1), ds)) for ds, _ in prefixes]


class TestExpansions:
    def test_half_base_two(self):
        got = expansions(Fraction(1, 2), DigitSystem(2, 0), 3)
        assert got == [
            parse_numeral("[0 . 0 1 1]@2b0"),
            parse_numeral("[0 . 1]@2b0"),
        ]

    def test_one_is_all_max_digits(self):
        assert expansions(1, DigitSystem(2, 0), 2) == [parse_numeral("[0 . 1 1]@2b0")]

    def test_zero(self):
        for system in (DigitSystem(2, 0), BT):
            assert expansions(0, system, 4) == [DigitString(system)]

    def test_negative_depth(self):
        with pytest.raises(DomainError):
            expansions(0, BT, -1)

    def test_deep_expansions(self):
        # one digit per step, not one stack frame: far past the recursion limit
        (third,) = expansions(Fraction(1, 3), DigitSystem(2, 0), 5000)
        assert third.min_exponent >= -5000
        assert abs(third.value() - Fraction(1, 3)) <= Fraction(1, 2**5000)
        assert len(expansions(Fraction(1, 2), DigitSystem(2, 0), 3000)) == 2

    @pytest.mark.parametrize("system", list(legal_systems(7)), ids=str)
    def test_matches_reference(self, system):
        rng = random.Random(0xE4 + system.m * 10 + system.b)
        iv = system.interval()
        # the endpoints, the m-adic points (two expansions each), and random rationals
        rs = [iv.lo, iv.hi, Fraction(0)]
        rs += [iv.lo + Fraction(k, system.m**j) * (iv.hi - iv.lo) for j in (1, 2, 3)
               for k in range(1, system.m**j)]
        rs += [iv.lo + Fraction(rng.randint(0, q), q) * (iv.hi - iv.lo)
               for q in (rng.randint(1, 500) for _ in range(40))]
        for r in rs:
            for depth in (0, 1, 2, 5, 17):
                assert expansions(r, system, depth) == expansions_reference(r, system, depth), r
        assert len(expansions(Fraction(1, 2), DigitSystem(2, 0), 9)) == 2

    def test_deep_matches_reference(self):
        r = Fraction(5, 16)  # two expansions, 0.0101 and 0.0100111..., that split at digit 4
        got = expansions(r, DigitSystem(2, 0), 20_000)
        assert len(got) == 2
        assert got == expansions_reference(r, DigitSystem(2, 0), 20_000)

    def test_prefix_accuracy(self):
        rng = random.Random(0xE)
        for system in (DigitSystem(2, 0), BT, DigitSystem(4, 2)):
            iv = system.interval()
            for _ in range(60):
                q = rng.randint(1, 100)
                r = iv.lo + Fraction(rng.randint(0, q), q) * (iv.hi - iv.lo)
                for depth in (1, 3, 5):
                    ps = expansions(r, system, depth)
                    assert len(set(ps)) == len(ps)
                    for p in ps:
                        assert p.min_exponent is None or p.min_exponent >= -depth
                        assert abs(r - p.value()) <= Fraction(1, system.m**depth)

    def test_extremal_strings_approach_endpoints(self):
        for system in (DigitSystem(2, 0), BT, DigitSystem(5, 2)):
            iv = system.interval()
            prev_hi, prev_lo = Fraction(0), Fraction(0)
            for depth in range(1, 12):
                top = DigitString(system, {-e: system.max_digit for e in range(1, depth + 1)})
                bot = DigitString(system, {-e: system.min_digit for e in range(1, depth + 1)})
                hi_val, lo_val = top.value(), bot.value()
                assert prev_hi < hi_val < iv.hi or (system.b == system.m - 1)
                assert iv.lo < lo_val < prev_lo or system.b == 0
                assert iv.hi - hi_val == (iv.hi - 0) * Fraction(1, system.m**depth)
                prev_hi, prev_lo = hi_val, lo_val

    def test_pure_fractional_values_stay_in_interval(self):
        rng = random.Random(0xF00D)
        for system in legal_systems(7):
            iv = system.interval()
            for _ in range(300):
                digits = {-e: rng.choice(list(system.digits())) for e in range(1, 9)}
                assert iv.contains(DigitString(system, digits).value())


BAD_NUMERALS = [
    "",
    "[1 2]",
    "1 2@3b0",
    "[1 2]@3",
    "[1 2]@b0",
    "[3]@3b0",
    "[-2]@3b1",
    "[1 . 2 . 3]@4b0",
    "[x]@3b0",
    "[1.5]@3b0",
    "[1]@1b0",
    "[1]@3b2",
    "[\u0663 \u0661]@\u0665b0",
    "[\u0661]@3b0",
]


class TestNumeralText:
    def test_format_examples(self):
        assert format_numeral(int_to_digits(14, BT)) == "[1 -1 -1 -1]@3b1"
        assert format_numeral(parse_numeral("[1 0 . 2]@3b0")) == "[1 0 . 2]@3b0"
        assert format_numeral(DigitString(BT)) == "[0]@3b1"
        assert format_numeral(DigitString(DigitSystem(2, 0), {-2: 1})) == "[0 . 0 1]@2b0"

    def test_round_trip_fuzz(self):
        rng = random.Random(0x7E)
        for system in legal_systems(8):
            for _ in range(300):
                x = rand_string(rng, system)
                assert parse_numeral(format_numeral(x)) == x

    @pytest.mark.parametrize("bad", BAD_NUMERALS)
    def test_parse_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_numeral(bad)



# The numeral layer as it was before add and carry_free shared one pointwise
# sum, the text format was walked once each way and value() summed in halves.
_NUMERAL_RE = re.compile(r"\A\s*\[([^\[\]@]*)\]@([0-9]+)b([0-9]+)\s*\Z")
_TOKEN_RE = re.compile(r"\A-?[0-9]+\Z")


def value_reference(x):
    """Reference: one power of m per digit, quadratic in the number of digits."""
    if not x._digits:
        return Fraction(0)
    m = x.system.m
    low = min(x._digits)
    scaled = sum(d * m ** (e - low) for e, d in x._digits.items())
    if low >= 0:
        return Fraction(scaled * m**low)
    return Fraction(scaled, m**-low)


def carry_free_reference(x, y):
    """Reference: its own system check and its own pointwise sums."""
    if x.system != y.system:
        raise DomainError(f"mismatched digit systems: {x.system} vs {y.system}")
    system = x.system
    spots = set(x.exponents()) | set(y.exponents())
    return all(system.has_digit(x.digit(e) + y.digit(e)) for e in spots)


def format_reference(x):
    """Reference: the integer part and the fraction part in two walks."""
    top = x.max_exponent
    start = max(top if top is not None else 0, 0)
    tokens = [str(x.digit(e)) for e in range(start, -1, -1)]
    bottom = x.min_exponent
    if bottom is not None and bottom < 0:
        tokens.append(".")
        tokens.extend(str(x.digit(e)) for e in range(-1, bottom - 1, -1))
    return "[{}]@{}".format(" ".join(tokens), x.system)


def parse_reference(text):
    """Reference: the integer part and the fraction part in two loops."""
    m = _NUMERAL_RE.match(text)
    if not m:
        raise DomainError(f"malformed numeral: {text!r}")
    body, radix, balance = m.groups()
    system = DigitSystem(int(radix), int(balance))
    tokens = body.split()
    if tokens.count(".") > 1:
        raise DomainError(f"more than one radix point in numeral: {text!r}")
    point = tokens.index(".") if "." in tokens else len(tokens)
    digits = {}

    def put(tok, e):
        if not _TOKEN_RE.match(tok):
            raise DomainError(f"bad digit token {tok!r} in numeral: {text!r}")
        digits[e] = int(tok)

    ipart, fpart = tokens[:point], tokens[point + 1 :]
    for spot, tok in enumerate(ipart):
        put(tok, len(ipart) - 1 - spot)
    for spot, tok in enumerate(fpart):
        put(tok, -(spot + 1))
    return DigitString(system, digits)


def reference_numerals(rng, system):
    """The zero numeral, then random ones: dense, wholly above or below 0, sparse with gaps."""
    alpha = list(system.digits())
    yield DigitString(system)
    for _ in range(25):
        span = rng.choice([1, 3, 12, 40, 120])
        for lo in (-span, 0, 1, -2 * span):  # straddling, from 0 up, above 0, below 0
            yield DigitString(system, {e: rng.choice(alpha) for e in range(lo, lo + span)})
        gaps = rng.sample(range(-5 * span, 5 * span), min(span, 6))  # sparse
        yield DigitString(system, {e: rng.choice(alpha) for e in gaps})


def reference_texts(rng, x):
    """x's numeral text, and variants with padding zeros, loose spaces and '-0' digits."""
    text = format_reference(x)
    yield text
    body, tail = text[1:].split("]")
    tokens = ["0"] * rng.randint(0, 3) + body.split()
    if "." not in tokens:
        tokens.append(".")
    tokens += ["-0"] * rng.randint(0, 2)
    yield "  [{}]{} ".format("   ".join(tokens), tail)
    yield "[{}]{}".format(" ".join(tok.replace("1", "01") for tok in tokens), tail)


class TestNumeralLayerMatchesReference:
    @pytest.mark.parametrize("system", list(legal_systems(9)), ids=str)
    def test_random_numerals(self, system):
        rng = random.Random(0x4EF + system.m * 10 + system.b)
        xs = list(reference_numerals(rng, system))
        for x in xs:
            assert x.value() == value_reference(x), x
            assert format_numeral(x) == format_reference(x)
            for text in reference_texts(rng, x):
                assert parse_numeral(text) == parse_reference(text), text
        for x, y in zip(xs, xs[1:] + xs[:1]):
            assert add(x, y) == exact_sum_add(x, y), (x, y)
            assert carry_free(x, y) == carry_free_reference(x, y), (x, y)
            assert carry_free(x, x) == carry_free_reference(x, x), x

    def test_twenty_thousand_digits(self):
        rng = random.Random(0x20000)
        x = DigitString(BT, {e: rng.choice((-1, 0, 1)) for e in range(-12_000, 8_000)})
        assert x.value() == value_reference(x)
        text = format_numeral(x)
        assert text == format_reference(x)
        assert parse_numeral(text) == parse_reference(text) == x

    @pytest.mark.parametrize("bad", BAD_NUMERALS + ["[1 -]@3b0", "[. 1 x]@3b0"])
    def test_parse_error_texts(self, bad):
        with pytest.raises(DomainError) as want:
            parse_reference(bad)
        with pytest.raises(DomainError) as got:
            parse_numeral(bad)
        assert str(got.value) == str(want.value)

    def test_mismatched_systems_text(self):
        x, y = DigitString(DigitSystem(3, 0), {0: 1}), DigitString(BT, {0: 1})
        with pytest.raises(DomainError) as want:
            carry_free_reference(x, y)
        for op in (add, carry_free):
            with pytest.raises(DomainError) as got:
                op(x, y)
            assert str(got.value) == str(want.value)
