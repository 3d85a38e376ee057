import pytest

from trihex import (
    DigitSystem,
    DomainError,
    Prefractal,
    ifs_prefractal,
    rasterize,
    write_pbm,
    write_svg,
)

B2 = DigitSystem(2, 0)
BT = DigitSystem(3, 1)


class TestRasterize:
    def test_depth_one_base_two(self):
        spec, bitmap = rasterize(ifs_prefractal(B2, 1))
        assert (spec.origin, spec.width, spec.height) == ((0, 0), 2, 2)
        assert bitmap.tolist() == [[1, 0], [1, 1]]

    def test_depth_zero(self):
        spec, bitmap = rasterize(ifs_prefractal(B2, 0))
        assert bitmap.tolist() == [[1]]

    def test_depth_one_balanced(self):
        spec, bitmap = rasterize(ifs_prefractal(BT, 1))
        assert (spec.origin, spec.width, spec.height) == ((-1, -1), 3, 3)
        assert bitmap.tolist() == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            rasterize(Prefractal(B2, 1, []))

    def test_pixel_count_equals_square_count(self):
        for system in (B2, BT, DigitSystem(5, 2)):
            for n in range(4):
                p = ifs_prefractal(system, n)
                _, bitmap = rasterize(p)
                assert int(bitmap.sum()) == len(p)

    def test_orientation_missing_square_is_top_right(self):
        _, bitmap = rasterize(ifs_prefractal(B2, 1))
        assert bitmap[0][-1] == 0  # top-right clear, everything else set
        assert bitmap[0][0] == bitmap[1][0] == bitmap[1][1] == 1


class TestPbm:
    def test_single_pixel(self):
        assert write_pbm([[1]]) == b"P1\n1 1\n1\n"

    def test_depth_one_base_two_golden(self):
        _, bitmap = rasterize(ifs_prefractal(B2, 1))
        assert write_pbm(bitmap) == b"P1\n2 2\n1 0\n1 1\n"

    def test_depth_one_balanced_seven_pixels(self):
        _, bitmap = rasterize(ifs_prefractal(BT, 1))
        data = write_pbm(bitmap)
        assert data == b"P1\n3 3\n1 1 0\n1 1 1\n0 1 1\n"
        body = data.split(b"\n", 2)[2]
        assert body.count(b"1") == 7

    def test_deterministic(self):
        p = ifs_prefractal(BT, 3)
        assert write_pbm(rasterize(p)[1]) == write_pbm(rasterize(p)[1])

    def test_rejects_non_2d(self):
        with pytest.raises(DomainError):
            write_pbm([1, 0, 1])

    def test_rejects_ragged_rows(self):
        with pytest.raises(DomainError):
            write_pbm([[1], [1, 0]])


class TestSvg:
    def test_depth_zero_single_rect(self):
        data = write_svg(ifs_prefractal(B2, 0))
        assert data.count(b"<rect") == 1
        assert b'<rect x="0" y="-1" width="1" height="1"/>' in data

    def test_depth_two_base_two(self):
        data = write_svg(ifs_prefractal(B2, 2))
        assert data.count(b"<rect") == 9
        assert b'viewBox="0 -4 4 4"' in data

    def test_depth_two_balanced_negative_coordinates(self):
        data = write_svg(ifs_prefractal(BT, 2))
        assert data.count(b"<rect") == 49
        assert b'x="-4"' in data
        assert b'viewBox="-4 -5 9 9"' in data

    def test_only_svg_and_rect_elements(self):
        data = write_svg(ifs_prefractal(BT, 1)).decode("ascii")
        for line in data.splitlines()[1:]:
            assert line.startswith(("<svg", "<rect", "</svg>"))

    def test_deterministic(self):
        assert write_svg(ifs_prefractal(BT, 2)) == write_svg(ifs_prefractal(BT, 2))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            write_svg(Prefractal(B2, 1, []))

    def test_flip_puts_largest_j_on_top(self):
        # square (0, 1) must sit above square (0, 0) after the y flip
        data = write_svg(ifs_prefractal(B2, 1)).decode("ascii")
        y_of = {}
        for line in data.splitlines():
            if line.startswith("<rect"):
                attrs = dict(part.split("=") for part in line[6:-2].split())
                y_of[(attrs["x"], attrs["y"])] = int(attrs["y"].strip('"'))
        assert y_of[('"0"', '"-2"')] < y_of[('"0"', '"-1"')]
