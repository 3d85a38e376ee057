import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import legal_systems

from trihex import (
    DigitSystem,
    DomainError,
    MembershipAutomaton,
    Prefractal,
    ResourceError,
    box_count_estimate,
    carry_free,
    covers_point,
    equivalence_check,
    expansions,
    frac_digit_choices,
    fractal,
    ifs_prefractal,
    index_bounds,
    iterate,
    lattice,
    lattice_cardinality,
    lebesgue_measure,
    member,
    prefractal_by_digits,
    prefractal_from_json,
    prefractal_to_json,
    radix,
    rasterize,
    unit_square,
    write_svg,
)

BT = DigitSystem(3, 1)


def scan_reference(system, n):
    """Reference: the per-digit scan the digit route once ran, all W x W pairs in blocks."""
    width = system.m**n
    m, b, u = system.m, system.b, np.arange(width)
    dtype = np.min_scalar_type(2 * (m - 1))  # holds every digit sum, so none wraps
    digits = [(u // m**t % m).astype(dtype) for t in range(n)]
    keys = []
    block = max(1, 2**22 // width)  # rows of the pair mask, about 4M entries
    for start in range(0, width, block):
        ok = np.ones((min(block, width - start), width), dtype=bool)
        for d in digits:
            s = d[start : start + block, None] + d
            ok &= (b <= s) & (s <= m - 1 + b)
        # the flat mask index is (i - lo - start) * W + (j - lo)
        keys.append(np.flatnonzero(ok) + start * width)
    return Prefractal._from_keys(system, n, np.concatenate(keys))


def brute_force_lattice(m, b):
    lo, hi = -b, m - 1 - b
    return {
        (k, h)
        for k in range(lo, hi + 1)
        for h in range(lo, hi + 1)
        if lo <= k + h <= hi
    }


class TestLattice:
    def test_base_two(self):
        assert set(lattice(2, 0).points) == {(0, 0), (1, 0), (0, 1)}

    def test_base_three_standard(self):
        assert len(lattice(3, 0)) == 6

    def test_balanced_ternary(self):
        assert lattice(3, 1).points == (
            (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0),
        )

    def test_cardinality_examples(self):
        assert lattice_cardinality(2, 0) == 3
        assert lattice_cardinality(3, 1) == 7
        for m in range(2, 13):
            assert lattice_cardinality(m, 0) == m * (m + 1) // 2

    def test_cardinality_matches_enumeration(self):
        for system in legal_systems(12):
            m, b = system.m, system.b
            pts = brute_force_lattice(m, b)
            assert set(lattice(m, b).points) == pts
            assert lattice_cardinality(m, b) == len(pts)

    def test_illegal_system(self):
        with pytest.raises(DomainError):
            lattice(1, 0)
        with pytest.raises(DomainError):
            lattice_cardinality(2, 1)

    def test_sorted_deterministic(self):
        for system in legal_systems(6):
            pts = lattice(system.m, system.b).points
            assert list(pts) == sorted(pts)


class TestPrefractal:
    def test_unit_square(self):
        for system in (DigitSystem(2, 0), BT, DigitSystem(5, 2)):
            p = unit_square(system)
            assert p.depth == 0 and list(p) == [(0, 0)]

    def test_constructor_sorts(self):
        p = Prefractal(DigitSystem(2, 0), 1, [(1, 0), (0, 1), (0, 0)])
        assert list(p) == [(0, 0), (0, 1), (1, 0)]

    def test_constructor_rejects_duplicates(self):
        with pytest.raises(DomainError):
            Prefractal(DigitSystem(2, 0), 1, [(0, 0), (0, 0)])

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Prefractal(DigitSystem(2, 0), 1, [(2, 0)])
        with pytest.raises(DomainError):
            Prefractal(DigitSystem(2, 0), 1, [(-1, 0)])
        Prefractal(BT, 1, [(-1, 1)])  # negative indices fine when balanced

    def test_constructor_empty_only_as_no_pairs(self):
        for empty in ([], (), np.empty((0, 2), dtype=np.int64)):
            assert len(Prefractal(DigitSystem(2, 0), 1, empty)) == 0
        for bad in ([[], []], np.empty((2, 0), dtype=np.int64), np.empty((0, 3), dtype=np.int64)):
            with pytest.raises(DomainError):
                Prefractal(DigitSystem(2, 0), 1, bad)

    def test_numpy_integers_in_rows(self):
        p = ifs_prefractal(BT, 3)
        for rows in (list(p.squares), [tuple(row) for row in p.squares],
                     [(np.int8(i), j) for i, j in p]):
            assert Prefractal(BT, 3, rows) == p
        for bad in (True, np.True_, np.float64(1), 0.0):
            for row in ((bad, 0), (0, bad)):
                with pytest.raises(DomainError, match="^square indices must be integers$"):
                    Prefractal(DigitSystem(2, 0), 1, [(0, 1), row])
        with pytest.raises(DomainError, match="^square index does not fit in int64$"):
            Prefractal(DigitSystem(2, 0), 1, [(np.uint64(2**63), 0)])

    def test_numpy_unsigned_arrays(self):
        p = ifs_prefractal(DigitSystem(2, 0), 3)
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
            assert Prefractal(p.system, 3, p.squares.astype(dtype)) == p
        assert len(Prefractal(p.system, 1, np.array([[0, 1]], dtype=np.uint64))) == 1
        assert len(Prefractal(p.system, 1, np.empty((0, 2), dtype=np.uint64))) == 0
        for big in (2**63, 2**64 - 1):  # past int64, where the cast would wrap to a negative
            with pytest.raises(DomainError, match="^square index does not fit in int64$"):
                Prefractal(p.system, 1, np.array([[big, 0]], np.uint64))

    def test_index_bounds(self):
        assert index_bounds(DigitSystem(2, 0), 3) == (0, 7)
        assert index_bounds(BT, 2) == (-4, 4)
        assert index_bounds(DigitSystem(5, 2), 2) == (-12, 12)

    def test_has_square(self):
        p = ifs_prefractal(BT, 2)
        assert p.has_square(-4, 3)
        assert not p.has_square(4, 4)
        # out-of-range indices would alias the keys of (1, 0) and (0, 1)
        q = ifs_prefractal(DigitSystem(2, 0), 2)
        assert not q.has_square(0, 4)
        assert not q.has_square(1, -3)
        # indices are exact integers, numpy's included; an answer is a Python bool
        r = ifs_prefractal(DigitSystem(2, 0), 1)
        assert r.has_square(np.int64(1), 0) is True and r.has_square(1, 1) is False
        assert all(r.has_square(*row) for row in r.squares)
        # unsigned and narrow numpy indices go through i - lo exactly, with no wrap or overflow
        assert p.has_square(np.uint64(1), 0) is True and p.has_square(np.uint8(1), np.int8(-1))
        assert p.has_square(np.int8(-4), np.uint8(3)) and not p.has_square(np.uint64(4), 4)
        for bad in (0.5, True, np.True_, "1", None, Fraction(1)):
            for i, j in ((bad, 0), (0, bad)):
                with pytest.raises(DomainError, match="square indices must be integers"):
                    r.has_square(i, j)

    def test_key_overflow_rejected(self):
        # a key of i * 2^32 + j wraps here, sorting (0, 1) last and finding (0, 0)
        with pytest.raises(DomainError):
            Prefractal(DigitSystem(2, 0), 40, [(2**35, 0), (2**35 - 8, 5), (0, 1)])

    def test_deepest_base_two_keeps_lex_order(self):
        top = 2**31 - 1
        p = Prefractal(DigitSystem(2, 0), 31, [(top, 0), (top - 8, top), (0, 1), (top, top)])
        assert list(p) == [(0, 1), (top - 8, top), (top, 0), (top, top)]
        assert p.has_square(top, top) and not p.has_square(0, 0)

    @pytest.mark.parametrize("system,limit", [(DigitSystem(2, 0), 31), (BT, 19),
                                              (DigitSystem(5, 2), 13)])
    def test_key_depth_limit(self, system, limit):
        assert list(Prefractal(system, limit, [(0, 0)])) == [(0, 0)]
        with pytest.raises(DomainError):
            Prefractal(system, limit + 1, [(0, 0)])


class TestIterate:
    def test_depth_one_base_two(self):
        p = iterate(unit_square(DigitSystem(2, 0)), lattice(2, 0))
        assert list(p) == [(0, 0), (0, 1), (1, 0)]

    def test_depth_two_base_two_exact(self):
        p = ifs_prefractal(DigitSystem(2, 0), 2)
        assert set(p) == {
            (0, 0), (1, 0), (0, 1), (2, 0), (3, 0), (2, 1), (0, 2), (1, 2), (0, 3),
        }
        assert not p.has_square(3, 1)

    def test_depth_one_balanced(self):
        p = iterate(unit_square(BT), lattice(3, 1))
        assert len(p) == 7
        assert p.has_square(-1, 0) and p.has_square(1, -1)

    def test_mismatched_system(self):
        with pytest.raises(DomainError):
            iterate(unit_square(BT), lattice(3, 0))

    @pytest.mark.parametrize("points", [((5, 5),), ((1, 1),), ((0, 0), (-2, 1)), ((2**70, 0),),
                                        ((0.5, 0.9),), ((True, 0),), ((1, -1, 0), (0, 0, 1)),
                                        ((1,),), (5,), ((np.int64(2**62), np.int64(2**62)),),
                                        ((0, 0), (0,)), np.array([[0, 0, 0]]),
                                        ((np.uint64(2**64 - 1), 0),)])
    def test_lattice_points_outside_the_alphabet(self, points, monkeypatch):
        # each set has a point that is not a pair of integers, or has k, h or k + h
        # outside the alphabet [-1, 1]; k + h on numpy scalars would also warn of overflow,
        # which pytest makes an error
        def no_keys(*args):
            raise AssertionError("keys built")

        p = unit_square(BT)
        monkeypatch.setattr(Prefractal, "_from_keys", no_keys)
        with pytest.raises(DomainError, match="lattice point outside the alphabet of base 3b1"):
            iterate(p, fractal.GeneratorLattice(BT, points))
        with pytest.raises(DomainError, match="lattice point outside the alphabet of base 3b1"):
            fractal.GeneratorLattice(BT, points)

    def test_numpy_integer_lattice_points_kept_as_checked(self):
        points = [(np.int64(k), np.int64(h)) for k, h in lattice(3, 1).points]
        lat = fractal.GeneratorLattice(BT, points)
        points.append((5, 5))  # the lattice holds the copy it checked
        assert lat.points == lattice(3, 1).points
        assert iterate(unit_square(BT), lat) == ifs_prefractal(BT, 1)

    def test_lattice_through_the_pair_gate(self):
        # the shared gate takes an N x 2 array as rows, and no points as the empty lattice
        lat = fractal.GeneratorLattice(BT, np.array(lattice(3, 1).points))
        assert lat == lattice(3, 1)
        assert iterate(unit_square(BT), lat) == ifs_prefractal(BT, 1)
        assert len(fractal.GeneratorLattice(BT, [])) == 0

    @pytest.mark.parametrize("points", [((0, 0), (0, 0), (1, 0)), np.array([[1, -1], [1, -1]]),
                                        ((np.int64(0), 1), (0, np.int64(1)))])
    def test_repeated_lattice_point_rejected(self, points):
        # a lattice is a set: a repeat is refused where it enters, so iterate never sees one
        with pytest.raises(DomainError, match="repeated lattice point in base 3b1"):
            fractal.GeneratorLattice(BT, points)

    def test_resource_cap(self):
        p = ifs_prefractal(DigitSystem(2, 0), 4)
        with pytest.raises(ResourceError) as err:
            iterate(p, lattice(2, 0), max_squares=100)
        assert str(err.value) == "depth 5 needs 243 squares, over the cap 100"

    def test_cardinality_law(self):
        for system in (DigitSystem(2, 0), DigitSystem(4, 1), DigitSystem(5, 2)):
            ell = lattice_cardinality(system.m, system.b)
            lat = lattice(system.m, system.b)
            p = unit_square(system)
            for n in range(1, 5):
                p = iterate(p, lat)
                assert len(p) == ell**n


class TestEntryGates:
    def test_depth_must_be_a_nonnegative_int(self):
        builds = (ifs_prefractal, prefractal_by_digits, box_count_estimate,
                  lambda system, depth: Prefractal(system, depth, []),
                  lambda system, depth: expansions(0, system, depth),
                  lebesgue_measure, index_bounds)
        for depth in (2.0, True, -1, "a", None):
            for build in builds:
                with pytest.raises(DomainError):
                    build(DigitSystem(2, 0), depth)

    def test_over_cap_rejected_before_any_square(self, monkeypatch):
        def no_iterate(*args):
            raise AssertionError("iterate called past the cap")

        def no_lattice(*args):
            raise AssertionError("lattice built past the cap")

        monkeypatch.setattr(fractal, "iterate", no_iterate)
        monkeypatch.setattr(fractal, "lattice", no_lattice)
        with pytest.raises(ResourceError, match="depth 20 needs 3486784401 squares"):
            ifs_prefractal(DigitSystem(2, 0), 20)
        with pytest.raises(ResourceError, match="depth 10 "):
            ifs_prefractal(DigitSystem(2, 0), 10, max_squares=100)
        for build in (ifs_prefractal, prefractal_by_digits, box_count_estimate):
            with pytest.raises(ResourceError,
                               match="depth 1 needs 4501500 squares, over the cap 10"):
                build(DigitSystem(3000, 0), 1, max_squares=10)
        for build in (ifs_prefractal, prefractal_by_digits):  # box counting needs depth >= 1
            with pytest.raises(ResourceError, match="depth 0 needs 1 squares, over the cap 0"):
                build(DigitSystem(2, 0), 0, max_squares=0)
        # depth 0 needs no lattice, however large the base
        huge = DigitSystem(10**30, 0)
        assert ifs_prefractal(huge, 0) == unit_square(huge)
        assert prefractal_by_digits(huge, 0) == unit_square(huge)  # nor the digit rule
        assert equivalence_check(huge, 0)

    def test_cap_must_be_an_int_or_none(self):
        builds = (ifs_prefractal, prefractal_by_digits, box_count_estimate, equivalence_check,
                  lambda system, n, cap: iterate(unit_square(system), lattice(3, 1), cap))
        for cap in ("x", True, False, 1.5, 10**6 + 0.5, np.int64(10**6), Fraction(10**6)):
            for build in builds:
                with pytest.raises(DomainError, match="max_squares must be an integer or None"):
                    build(BT, 2, cap)
        for build in builds:  # None and ints pass the rule
            build(BT, 2, None)
            build(BT, 2, 10**6)

    def test_non_rational_coordinates_are_domain_errors(self):
        system = DigitSystem(2, 0)
        square = unit_square(system)
        entries = (lambda t: member(t, 0, system), lambda t: member(0, t, system),
                   lambda t: covers_point(square, t, 0), lambda t: covers_point(square, 0, t),
                   lambda t: frac_digit_choices(t, system), lambda t: expansions(t, system, 1))
        for t in (float("nan"), float("inf"), float("-inf"), "abc", None, "1/0"):
            for entry in entries:
                with pytest.raises(DomainError, match="not a rational number"):
                    entry(t)
        assert member("1/2", "1/4", system)


class TestDigitConstruction:
    def test_depth_zero(self):
        for system in (DigitSystem(2, 0), BT):
            assert prefractal_by_digits(system, 0) == unit_square(system)

    def test_depth_one_base_two(self):
        assert list(prefractal_by_digits(DigitSystem(2, 0), 1)) == [(0, 0), (0, 1), (1, 0)]

    def test_depth_one_balanced_matches_lattice(self):
        assert prefractal_by_digits(BT, 1) == ifs_prefractal(BT, 1)

    def test_resource_cap(self):
        with pytest.raises(ResourceError):
            prefractal_by_digits(DigitSystem(2, 0), 10, max_squares=100)
        # 3^13 squares pass the cap, but the 4^13 pairs of the scan do not
        with pytest.raises(ResourceError, match="digit scan at depth 13 exceeds the cap 1600000"):
            prefractal_by_digits(DigitSystem(2, 0), 13, 1_600_000)

    def test_equivalence_examples(self):
        assert equivalence_check(DigitSystem(2, 0), 4)
        assert len(ifs_prefractal(DigitSystem(2, 0), 4)) == 81
        assert equivalence_check(BT, 3)
        assert len(ifs_prefractal(BT, 3)) == 343
        assert equivalence_check(DigitSystem(5, 2), 2)
        assert len(ifs_prefractal(DigitSystem(5, 2), 2)) == 361
        # digit sums reach 2(m - 1), past int8 from m = 129 on
        for m, b in ((129, 0), (200, 0), (255, 127), (1000, 0)):
            assert equivalence_check(DigitSystem(m, b), 1)

    def test_no_library_path_builds_the_pairs(self, monkeypatch):
        def no_pairs(self):
            raise AssertionError("Prefractal.squares built")

        monkeypatch.setattr(Prefractal, "squares", property(no_pairs))
        p = ifs_prefractal(BT, 4)
        assert p == prefractal_by_digits(BT, 4)
        assert equivalence_check(BT, 4)
        assert prefractal_to_json(p).startswith('{"m":3,"b":1,"depth":4,"count":2401,')
        assert write_svg(p).count(b"<rect") == 2401
        assert int(rasterize(p)[1].sum()) == 2401

    def test_digit_scan_memory(self):
        tracemalloc.start()
        try:
            prefractal_by_digits(DigitSystem(2, 0), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_kronecker_power_matches_scan(self):
        cases = [(system, n) for system in legal_systems(6) for n in range(17)
                 if lattice_cardinality(system.m, system.b) ** n <= 10**5]
        # digit sums past int8 at depth 1, and depths with more than one block of m^k rows
        cases += [(DigitSystem(m, b), 1) for m, b in ((129, 0), (200, 0), (255, 127))]
        cases += [(DigitSystem(2, 0), 12), (DigitSystem(5, 2), 5)]
        for system, n in cases:
            p, ref = prefractal_by_digits(system, n), scan_reference(system, n)
            assert p == ref and p._keys.tobytes() == ref._keys.tobytes(), (system, n)

    @pytest.mark.parametrize("cells", [1, 5, 13, 50, 300])
    def test_small_blocks_stream_the_same_keys(self, cells, monkeypatch):
        # one-row blocks, and blocks of m^k rows that stop inside a group of the top digits
        monkeypatch.setattr(fractal, "_SCAN_CELLS", cells)
        for system in legal_systems(7):
            for n in range(4 if system.m < 7 else 3):
                width = system.m**n
                blocks = [b.copy() for b in fractal._digit_blocks(system, n, None)]
                rows = blocks[0].shape[0]  # whole scan rows, the same number in every block
                assert all(b.shape == (rows, width) for b in blocks), (system, n, cells)
                assert rows * len(blocks) == width and rows * width <= max(cells, width)
                keys = np.flatnonzero(np.concatenate(blocks))  # the W x W scan, row by row
                assert np.array_equal(keys, scan_reference(system, n)._keys), (system, n, cells)
                assert np.array_equal(keys, ifs_prefractal(system, n)._keys), (system, n, cells)
                assert equivalence_check(system, n), (system, n, cells)

    @pytest.mark.parametrize("cells", [1, 5, 13, 50, 300])
    def test_small_blocks_of_the_geometric_route(self, cells, monkeypatch):
        monkeypatch.setattr(fractal, "_SCAN_CELLS", cells)
        for system in legal_systems(7):
            for n in range(4):
                blocks = [b.copy() for b in fractal._geometric_blocks(system, n)]
                digit_blocks = [b.copy() for b in fractal._digit_blocks(system, n, None)]
                assert len(blocks) == len(digit_blocks), (system, n, cells)
                for block, digit_block in zip(blocks, digit_blocks):
                    assert block.dtype == bool, (system, n, cells)
                    # the same rows of i - lo, each over every j - lo
                    assert block.shape == digit_block.shape, (system, n)
                keys = np.flatnonzero(np.concatenate(blocks))
                assert np.array_equal(keys, ifs_prefractal(system, n)._keys), (system, n)
                assert np.array_equal(keys, scan_reference(system, n)._keys), (system, n)

    @pytest.mark.parametrize("system", [DigitSystem(600, 0), DigitSystem(515, 257)], ids=str)
    def test_one_row_blocks_at_the_default_size(self, system):
        # m rows of m cells are over _SCAN_CELLS, so k = 0 and P_(n-k) is the whole of P_1
        assert system.m**2 > fractal._SCAN_CELLS and fractal._low_digits(system, 1) == 0
        blocks = [b.copy() for b in fractal._geometric_blocks(system, 1)]
        assert len(blocks) == system.m and all(b.shape == (1, system.m) for b in blocks)
        cells = np.concatenate(blocks)
        assert np.array_equal(np.flatnonzero(cells), ifs_prefractal(system, 1)._keys)
        digit_blocks = [b.copy() for b in fractal._digit_blocks(system, 1, None)]
        assert np.array_equal(cells, np.concatenate(digit_blocks))
        assert equivalence_check(system, 1)

    @pytest.mark.parametrize("cells", [1, 5, 13, 50, 300])
    def test_mask_comparator_against_the_references(self, cells, monkeypatch):
        monkeypatch.setattr(fractal, "_SCAN_CELLS", cells)
        digit_blocks, rng = fractal._digit_blocks, random.Random(cells)
        for system in legal_systems(7):
            for n in range(4):
                geometric, scan = ifs_prefractal(system, n), scan_reference(system, n)
                expected = (geometric == scan, len(geometric), len(scan))
                assert fractal._matches_digit_route(system, n, None) == expected, (system, n)

                # one cell of the scan flipped: the verdict turns, and the digit count moves by 1
                cell = rng.randrange(system.m ** (2 * n))

                def flipped(system, n, max_squares, cell=cell):
                    for p, mask in enumerate(digit_blocks(system, n, max_squares)):
                        if p == cell // mask.size:
                            mask = mask.copy()
                            mask.flat[cell % mask.size] ^= True
                        yield mask

                monkeypatch.setattr(fractal, "_digit_blocks", flipped)
                moved = -1 if np.isin(cell, scan._keys) else 1
                expected = (False, len(geometric), len(scan) + moved)
                assert fractal._matches_digit_route(system, n, None) == expected, (system, n)
                monkeypatch.setattr(fractal, "_digit_blocks", digit_blocks)

    @pytest.mark.parametrize("system, n", [(DigitSystem(4, 1), 6), (DigitSystem(2, 0), 12)],
                             ids=str)
    def test_verify_holds_a_few_block_masks(self, system, n):
        # a byte per cell of a block: the two routes' masks, one pair, compared in place
        tracemalloc.start()
        try:
            assert fractal._matches_digit_route(system, n, None)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * fractal._SCAN_CELLS, peak

    def test_digit_stream_builds_the_top_factor_a_row_at_a_time(self):
        # at (65, 0) d2 a block is one scan row (k = 0); the whole m^2 x m^2 top factor,
        # 17 MiB, was once built before the first block
        system, block = DigitSystem(65, 0), 65**2
        assert fractal._low_digits(system, 2) == 0
        for _ in fractal._digit_blocks(system, 2, 10**7):  # numpy's first-call allocations
            pass
        tracemalloc.start()
        try:
            rows = sum(1 for _ in fractal._digit_blocks(system, 2, 10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == block
        # the m x m rule is itself a block here, and numpy's ufunc buffers add a few more
        assert peak < 32 * block, peak

    def test_geometric_blocks_out_of_order_rejected(self, monkeypatch):
        monkeypatch.setattr(fractal, "_SCAN_CELLS", 4)  # one row of the 4 x 4 frame per block
        blocks = fractal._geometric_blocks

        def reversed_blocks(system, n):  # every column's cells put in another column's rows
            return reversed([b.copy() for b in blocks(system, n)])

        # a block mask's rows are its place in the stream, so the comparison sees the swap
        monkeypatch.setattr(fractal, "_geometric_blocks", reversed_blocks)
        assert fractal._matches_digit_route(DigitSystem(2, 0), 2, None) == (False, 9, 9)
        assert not equivalence_check(DigitSystem(2, 0), 2)


class TestNesting:
    def test_floor_division_nesting_standard_base(self):
        # children of a b=0 prefractal stay inside their floor-division parent
        for system in (DigitSystem(2, 0), DigitSystem(3, 0)):
            lat = lattice(system.m, system.b)
            p = unit_square(system)
            for _ in range(4):
                child = iterate(p, lat)
                for i, j in child:
                    assert p.has_square(i // system.m, j // system.m)
                p = child

    def test_floor_division_nesting_fails_when_balanced(self):
        # balanced children can overhang the previous depth: square (-4, 3)
        # of depth 2 pokes left of every depth-1 square
        h1 = ifs_prefractal(BT, 1)
        h2 = ifs_prefractal(BT, 2)
        assert h2.has_square(-4, 3)
        assert not h1.has_square(-4 // 3, 3 // 3)
        assert not covers_point(h1, Fraction(-4, 9), Fraction(3, 9) + Fraction(1, 18))

    def test_digit_parent_recursion_all_systems(self):
        # stripping the lowest digit of each index lands on a parent square
        for system in (DigitSystem(2, 0), BT, DigitSystem(4, 2), DigitSystem(5, 1)):
            parent = ifs_prefractal(system, 2)
            child = ifs_prefractal(system, 3)
            for i, j in child:
                pi = (i - system.digit_for(i)) // system.m
                pj = (j - system.digit_for(j)) // system.m
                assert parent.has_square(pi, pj)


class TestSymmetry:
    def test_square_sets_diagonal_symmetric(self):
        for system in (DigitSystem(2, 0), BT, DigitSystem(5, 2)):
            p = ifs_prefractal(system, 3)
            flipped = Prefractal(system, 3, p.squares[:, ::-1])
            assert p == flipped

    def test_member_symmetric(self):
        rng = random.Random(0x5)
        for system in (DigitSystem(2, 0), BT):
            iv = system.interval()
            for _ in range(150):
                q = rng.randint(1, 300)
                x = iv.lo + Fraction(rng.randint(0, q), q) * (iv.hi - iv.lo)
                y = iv.lo + Fraction(rng.randint(0, q), q) * (iv.hi - iv.lo)
                assert member(x, y, system) == member(y, x, system)

    # With c = m-1-2b, the digits of i, j and K - i - j sum to c at every position, K the
    # n-digit numeral of c's, so each permutation of the three maps P_n onto itself: the
    # triangle's group S3.  When c = 0 (a symmetric alphabet), so does (i, j) -> (-i, -j),
    # and the group has order 12, the hexagon's.
    def test_triangle_group_maps_every_set_onto_itself(self):
        for system in legal_systems(7):
            m, c = system.m, system.m - 1 - 2 * system.b
            ell, n = lattice_cardinality(m, system.b), 0
            while ell**n <= 2 * 10**5:
                p = ifs_prefractal(system, n)
                i, j = p.squares.T
                k = c * (m**n - 1) // (m - 1) - i - j
                for image in [(j, i), (k, j)] + [(-i, -j)] * (c == 0):
                    assert Prefractal(system, n, np.stack(image, axis=1)) == p, (system, n)
                n += 1

    def test_member_under_the_triangle_group(self):
        rng, answers = random.Random(0x20), []
        for system in legal_systems(7):
            m, c, iv = system.m, system.m - 1 - 2 * system.b, system.interval()
            for _ in range(150):
                q = rng.randint(1, 300)
                x = iv.lo + Fraction(rng.randint(0, q), q) * (iv.hi - iv.lo)
                y = iv.lo + Fraction(rng.randint(0, q), q) * (iv.hi - iv.lo)
                answers.append(member(x, y, system))
                for u, v in [(y, x), (Fraction(c, m - 1) - x - y, y)] + [(-x, -y)] * (c == 0):
                    assert member(u, v, system) == answers[-1], (system, x, y, u, v)
        assert 0 < sum(answers) < len(answers)  # members and non-members both mapped


class TestMembership:
    def test_origin_everywhere(self):
        for system in (DigitSystem(2, 0), BT, DigitSystem(5, 2)):
            assert member(0, 0, system)

    def test_half_half_base_two(self):
        assert member(Fraction(1, 2), Fraction(1, 2), DigitSystem(2, 0))

    def test_three_quarters_excluded(self):
        assert not member(Fraction(3, 4), Fraction(3, 4), DigitSystem(2, 0))

    def test_balanced_ternary_split(self):
        assert member(Fraction(1, 3), Fraction(-1, 3), BT)
        assert not member(Fraction(1, 3), Fraction(1, 3), BT)

    def test_outside_attractor_box(self):
        assert not member(Fraction(2), Fraction(0), DigitSystem(2, 0))
        assert not member(Fraction(2, 3), Fraction(0), BT)

    def test_state_cap(self):
        with pytest.raises(ResourceError):
            member(Fraction(1, 7), Fraction(1, 7), DigitSystem(2, 0), max_states=2)

    def test_memo_shared_across_denominators(self):
        # 1/6 walks through 1/3 and 2/3 under q = 6; in lowest terms a later
        # root 1/3 is already decided, so the cap of 3 states is not hit
        auto = MembershipAutomaton(DigitSystem(2, 0), max_states=3)
        assert auto.decide(Fraction(1, 6), 0)
        assert len(auto.states()) == 3
        assert auto.decide(Fraction(1, 3), 0)

    def test_automaton_memoizes_and_reports_states(self):
        auto = MembershipAutomaton(DigitSystem(2, 0))
        assert auto.decide(Fraction(1, 2), Fraction(1, 2))
        states = auto.states()
        assert states[(Fraction(1, 2), Fraction(1, 2))] == "alive"
        assert all(v in ("alive", "dead") for v in states.values())
        # second query on the same automaton reuses the memo
        assert auto.decide(Fraction(1, 2), Fraction(1, 2))

    def test_automaton_matches_fresh_member_calls(self):
        # one automaton shares its memo across denominators, repeats and
        # an out-of-interval point, and answers as a fresh search would
        points = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(3, 4)),
                  (Fraction(1, 7), Fraction(2, 7)), (Fraction(1, 4), Fraction(1, 8)),
                  (Fraction(2), Fraction(0)), (Fraction(1, 7), Fraction(2, 7)),
                  (Fraction(5, 12), Fraction(1, 3)), (Fraction(3, 4), Fraction(3, 4)),
                  (Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1, 9)),
                  # the second of each pair reaches states the first decided alive
                  (Fraction(0), Fraction(1, 4)), (Fraction(0), Fraction(3, 4)),
                  (Fraction(-1, 2), Fraction(1, 6)), (Fraction(-1, 6), Fraction(1, 2)),
                  (Fraction(-1, 2), Fraction(1, 10)), (Fraction(-1, 2), Fraction(3, 10))]
        for system in (DigitSystem(2, 0), BT, DigitSystem(5, 2)):
            auto = MembershipAutomaton(system)
            got = [auto.decide(x, y) for x, y in points]
            assert got == [member(x, y, system) for x, y in points]
            assert any(got) and not all(got)

    def test_alive_states_have_a_live_successor(self):
        rng = random.Random(0xC2)
        for system in legal_systems(5):
            iv = system.interval()
            auto = MembershipAutomaton(system)
            for _ in range(20):
                q = rng.randint(1, 40)
                auto.decide(iv.lo + Fraction(rng.randint(0, q), q),
                            iv.lo + Fraction(rng.randint(0, q), q))
            states = auto.states()
            assert "alive" in states.values() and "dead" in states.values()
            for (rx, ry), label in states.items():
                labels = [
                    states[(nx, ny)]
                    for dx, nx in frac_digit_choices(rx, system)
                    for dy, ny in frac_digit_choices(ry, system)
                    if system.has_digit(dx + dy) and (nx, ny) in states
                ]
                assert ("alive" in labels) == (label == "alive"), (system, rx, ry)

    def test_denominator_ten_thousand_terminates(self):
        auto = MembershipAutomaton(BT, max_states=10**6)
        auto.decide(Fraction(4999, 10000), Fraction(-3333, 10000))
        auto2 = MembershipAutomaton(DigitSystem(2, 0), max_states=10**6)
        assert auto2.decide(Fraction(9999, 10000), Fraction(1, 10000))

    def test_member_implies_cover_standard_base(self):
        # for b = 0 the limit set sits inside every finite depth
        rng = random.Random(0xC0)
        for system in (DigitSystem(2, 0), DigitSystem(3, 0)):
            lat = lattice(system.m, system.b)
            chain = []
            p = unit_square(system)
            for _ in range(6):
                p = iterate(p, lat)
                chain.append(p)
            for _ in range(120):
                q = rng.choice([rng.randint(1, 729), system.m ** rng.randint(1, 6)])
                x = Fraction(rng.randint(0, q), q)
                y = Fraction(rng.randint(0, q), q)
                if member(x, y, system):
                    for level in chain:
                        assert covers_point(level, x, y)

    def test_balanced_member_within_tail_padding_of_cover(self):
        # balanced prefractals overhang: a member point sits within the
        # value-interval tail of some depth-n square, not always inside it
        rng = random.Random(0xC1)
        iv = BT.interval()
        chain = []
        p = unit_square(BT)
        lat = lattice(3, 1)
        for _ in range(5):
            p = iterate(p, lat)
            chain.append(p)

        def witness(level, x, y):
            scale = 3**level.depth
            found = []
            for t in (x, y):
                t = Fraction(t) * scale
                lo = math.ceil(t - iv.hi)
                found.append([i for i in range(lo, lo + 2) if iv.lo <= t - i <= iv.hi])
            return any(level.has_square(i, j) for i in found[0] for j in found[1])

        # the attractor-box corner is a member but escapes the depth-1 cover
        corner = (Fraction(-1, 2), Fraction(1, 2))
        assert member(*corner, BT)
        assert not covers_point(chain[0], *corner)
        assert all(witness(level, *corner) for level in chain)
        for _ in range(80):
            q = rng.randint(1, 500)
            x = iv.lo + Fraction(rng.randint(0, q), q)
            y = iv.lo + Fraction(rng.randint(0, q), q)
            if member(x, y, BT):
                for level in chain:
                    assert witness(level, x, y)

    def test_carry_free_bridge(self):
        # finite-expansion points belong iff some expansion pair adds carry-free
        for m, k in ((2, 4), (3, 2), (5, 1)):
            system = DigitSystem(m, 0)
            q = m**k
            for a, c in product(range(q + 1), repeat=2):
                x, y = Fraction(a, q), Fraction(c, q)
                ex = expansions(x, system, k + 1)
                ey = expansions(y, system, k + 1)
                bridged = any(carry_free(px, py) for px, py in product(ex, ey))
                assert member(x, y, system) == bridged


class TestCoversPoint:
    def test_boundary_point_in_two_squares(self):
        p = ifs_prefractal(DigitSystem(2, 0), 1)
        assert covers_point(p, Fraction(1, 2), Fraction(1, 2))
        assert covers_point(p, Fraction(1, 2), Fraction(0))
        assert not covers_point(p, Fraction(3, 4), Fraction(3, 4))

    def test_depth_zero(self):
        p = unit_square(DigitSystem(2, 0))
        assert covers_point(p, Fraction(1, 2), Fraction(1, 2))
        assert not covers_point(p, Fraction(3, 2), Fraction(1, 2))


class TestJson:
    def test_golden_format(self):
        p = ifs_prefractal(DigitSystem(2, 0), 1)
        assert (
            prefractal_to_json(p)
            == '{"m":2,"b":0,"depth":1,"count":3,"squares":[[0,0],[0,1],[1,0]]}'
        )

    def test_round_trip(self):
        for system in (DigitSystem(2, 0), BT, DigitSystem(5, 2)):
            p = ifs_prefractal(system, 2)
            assert prefractal_from_json(prefractal_to_json(p)) == p

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            "[]",
            '{"m":2,"b":0,"depth":1,"count":2,"squares":[[0,0],[0,1],[1,0]]}',
            '{"m":2,"b":0,"depth":1,"count":2,"squares":[[0,0],[0,0]]}',
            '{"m":2,"b":0,"depth":1,"count":1,"squares":[[5,0]]}',
            '{"m":2,"b":0,"count":3,"squares":[[0,0],[0,1],[1,0]]}',
            '{"m":2,"b":0,"depth":1,"count":1,"squares":[[0.7,0]]}',
            '{"m":2,"b":0,"depth":true,"count":1,"squares":[[0,0]]}',
            '{"m":2,"b":0,"depth":1,"count":true,"squares":[[0,0]]}',
            '{"m":2,"b":0,"depth":1,"count":2,"squares":[[0,0],[true,0]]}',
            '{"m":2,"b":0,"depth":1,"count":1,"squares":[[36893488147419103232,0]]}',
            '{"m":3,"b":true,"depth":1,"count":1,"squares":[[0,0]]}',
            '{"m":2,"b":0,"depth":1,"count":1,"squares":[5]}',
            '{"m":2,"b":0,"depth":1,"count":0,"squares":{}}',
            '{"m":2,"b":0,"depth":1,"count":0,"squares":[[]]}',
            '{"m":2,"b":0,"depth":1,"count":0,"squares":[[],[]]}',
            pytest.param("[" * 100000, id="nested-past-recursion-limit"),
            pytest.param('{"m":1%s,"b":0,"depth":1,"count":0,"squares":[]}' % ("0" * 4400),
                         id="radix-past-4300-digits"),
        ],
    )
    def test_rejects_tampered(self, bad):
        with pytest.raises(DomainError):
            prefractal_from_json(bad)

    def test_deep_depth_rejected_before_the_power(self, monkeypatch):
        # W = m^depth >= 2^depth overflows past depth 31 whatever m is, so
        # m^depth, which grows with the depth, is never built
        monkeypatch.setattr(radix, "index_bounds", None)  # where _key_frame reads it
        for depth in (32, 10**8, 10**30):
            with pytest.raises(DomainError):
                prefractal_from_json(
                    '{"m":2,"b":0,"depth":%d,"count":0,"squares":[]}' % depth)
            for build in (ifs_prefractal, prefractal_by_digits, box_count_estimate):
                with pytest.raises(DomainError):
                    build(DigitSystem(2, 0), depth)

    def test_squares_are_plain_ints(self):
        text = prefractal_to_json(ifs_prefractal(BT, 1))
        assert "numpy" not in text and "." not in text.split("squares")[1]
