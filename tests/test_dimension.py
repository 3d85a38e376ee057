import math
from fractions import Fraction

import pytest
from conftest import legal_systems

from trihex import (
    DigitSystem,
    DomainError,
    box_count_estimate,
    closed_form_dim,
    ifs_prefractal,
    lattice_cardinality,
    lebesgue_measure,
    report_to_json,
)


class TestClosedForm:
    def test_sierpinski_value(self):
        assert closed_form_dim(2, 0) == math.log(3) / math.log(2)
        assert round(closed_form_dim(2, 0), 6) == 1.584963

    def test_base_three(self):
        assert closed_form_dim(3, 0) == pytest.approx(math.log(6) / math.log(3))
        assert round(closed_form_dim(3, 0), 6) == 1.630930

    def test_balanced_ternary(self):
        assert closed_form_dim(3, 1) == pytest.approx(math.log(7) / math.log(3))
        assert round(closed_form_dim(3, 1), 6) == 1.771244

    def test_illegal_system(self):
        with pytest.raises(DomainError):
            closed_form_dim(1, 0)
        with pytest.raises(DomainError):
            closed_form_dim(4, 3)

    def test_strictly_between_one_and_two(self):
        for system in legal_systems(12):
            d = closed_form_dim(system.m, system.b)
            assert 1 < d < 2

    def test_increases_with_balance(self):
        for m in (5, 6, 9, 12):
            top = (m - 1) // 2
            dims = [closed_form_dim(m, b) for b in range(top + 1)]
            assert all(a < b for a, b in zip(dims, dims[1:]))


class TestBoxCount:
    def test_base_two_depth_five(self):
        r = box_count_estimate(DigitSystem(2, 0), 5)
        assert r.box_count == 243
        assert r.estimate == pytest.approx(math.log(3) / math.log(2), rel=1e-15)

    def test_balanced_ternary_depth_three(self):
        r = box_count_estimate(DigitSystem(3, 1), 3)
        assert r.box_count == 343
        assert r.estimate == pytest.approx(math.log(7) / math.log(3), rel=1e-15)

    def test_depth_one_coincides_with_closed_form(self):
        for system in legal_systems(6):
            r = box_count_estimate(system, 1)
            assert r.estimate == r.closed_form
            assert r.abs_error == 0.0

    def test_count_consistency_with_geometry(self):
        # the count is the closed form; the construction it stands for is the reference
        for system in legal_systems(7):
            ell = lattice_cardinality(system.m, system.b)
            for n in range(1, 11):  # l >= 3, so l^11 > 10^5
                if ell**n > 10**5:
                    break
                r = box_count_estimate(system, n)
                assert r.box_count == len(ifs_prefractal(system, n))
                assert r.box_count == lattice_cardinality(system.m, system.b) ** n

    def test_report_fields(self):
        r = box_count_estimate(DigitSystem(3, 1), 2)
        assert (r.m, r.b, r.depth) == (3, 1, 2)
        assert r.abs_error == abs(r.estimate - r.closed_form)

    def test_depth_zero_rejected(self):
        with pytest.raises(DomainError):
            box_count_estimate(DigitSystem(2, 0), 0)

    def test_json_line(self):
        line = report_to_json(box_count_estimate(DigitSystem(3, 1), 3))
        assert line == (
            '{"m":3,"b":1,"depth":3,"box_count":343,'
            '"estimate":1.77124374916,"closed_form":1.77124374916,"abs_error":0}'
        )


class TestLebesgueMeasure:
    def test_base_two_depth_one(self):
        assert lebesgue_measure(DigitSystem(2, 0), 1) == Fraction(3, 4)

    def test_depth_zero_is_unit(self):
        for system in legal_systems(6):
            assert lebesgue_measure(system, 0) == 1

    def test_balanced_ternary_depth_two(self):
        assert lebesgue_measure(DigitSystem(3, 1), 2) == Fraction(49, 81)

    def test_strict_decay(self):
        for system in (DigitSystem(2, 0), DigitSystem(3, 1), DigitSystem(6, 3)):
            values = [lebesgue_measure(system, n) for n in range(21)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_standard_base_closed_form(self):
        for m in range(2, 7):
            system = DigitSystem(m, 0)
            for n in range(6):
                assert lebesgue_measure(system, n) == (Fraction(1, 2) + Fraction(1, 2 * m)) ** n


class TestLimitTable:
    def test_standard_base_values(self):
        dims = [closed_form_dim(m, 0) for m in (2, 10, 100)]
        assert dims[0] == pytest.approx(1.584963, abs=5e-7)
        assert dims[1] == pytest.approx(1.740363, abs=5e-7)
        assert dims[2] == pytest.approx(1.851646, abs=5e-7)
        assert all(a < b for a, b in zip(dims, dims[1:]))
        assert all(d < 2 for d in dims)

    def test_balanced_series(self):
        dims = [closed_form_dim(m, 1) for m in (3, 9, 99)]
        assert all(a < b for a, b in zip(dims, dims[1:]))
        assert all(1 < d < 2 for d in dims)
