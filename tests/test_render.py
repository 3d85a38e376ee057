import tracemalloc

import pytest
from conftest import legal_systems

from trihex import (
    DEFAULT_MAX_SQUARES,
    DigitSystem,
    DomainError,
    Prefractal,
    ResourceError,
    fractal,
    ifs_prefractal,
    lattice_cardinality,
    rasterize,
    render,
    write_pbm,
    write_svg,
)
from trihex.cli import run

B2 = DigitSystem(2, 0)
BT = DigitSystem(3, 1)


def cli_pbm(capsys, tmp_path, *argv):
    """The PBM bytes of argv on stdout, checked equal to those written to --out."""
    assert run(list(argv)) == 0
    stdout = capsys.readouterr().out.encode("ascii")
    target = tmp_path / "out.pbm"
    assert run([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout, argv
    return stdout


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

    def test_pixel_cap_before_the_bitmap(self, monkeypatch):
        # a 2^31 x 2^31 box once asked numpy for 4 EiB
        def no_bitmap(*args, **kwargs):
            raise AssertionError("bitmap allocated past the pixel cap")

        corners = Prefractal(B2, 31, [(0, 0), (2**31 - 1, 2**31 - 1)])
        square = Prefractal(B2, 15, [(0, 0), (17888, 17888)])  # 17889^2 > 32 * 10^7 pixels
        monkeypatch.setattr(render.np, "zeros", no_bitmap)
        with pytest.raises(ResourceError, match="raster of 2147483648 x 2147483648 pixels"):
            rasterize(corners)
        with pytest.raises(ResourceError, match=f"exceeds the cap {32 * DEFAULT_MAX_SQUARES}"):
            rasterize(square)
        monkeypatch.undo()
        row = Prefractal(B2, 15, [(0, 0), (17888, 0)])  # as wide, one pixel high
        assert rasterize(row)[1].shape == (1, 17889)


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


def stream_cases():
    """Every legal system with m <= 7, at each depth with at most 2 * 10^5 squares.

    Then depth 0 at two bases whose m x m digit rule could not be allocated.
    """
    for system in legal_systems(7):
        n = 0
        while lattice_cardinality(system.m, system.b) ** n <= 2 * 10**5:
            yield system, n
            n += 1
    yield DigitSystem(10**6, 0), 0
    yield DigitSystem(10**30, 0), 0


class TestPbmStream:
    """render and gen --format pbm stream the digit route's rows, top row first."""

    def test_bytes_match_the_library_raster(self, capsys, tmp_path):
        for system, n in stream_cases():
            expected = write_pbm(rasterize(ifs_prefractal(system, n))[1])
            flags = ["--base", str(system.m), "--balance", str(system.b), "--depth", str(n)]
            assert cli_pbm(capsys, tmp_path, "render", *flags) == expected, (system, n)
            assert cli_pbm(capsys, tmp_path, "gen", *flags, "--format", "pbm") == expected

    @pytest.mark.parametrize("block", [1, 3, 20])
    @pytest.mark.parametrize("cells", [1, 5, 13, 50])
    def test_block_seams(self, cells, block, capsys, tmp_path, monkeypatch):
        # one-row blocks, and blocks of m^k rows, split into chunks of one row or of several
        monkeypatch.setattr(fractal, "_SCAN_CELLS", cells)
        monkeypatch.setattr(fractal, "_BLOCK", block)
        for system in legal_systems(5):
            for n in range(4):
                expected = write_pbm(rasterize(ifs_prefractal(system, n))[1])
                flags = ["--base", str(system.m), "--balance", str(system.b), "--depth", str(n)]
                assert cli_pbm(capsys, tmp_path, "render", *flags) == expected, (system, n)

    def test_builds_no_prefractal(self, capsys, tmp_path, monkeypatch):
        def no_set(*args):
            raise AssertionError("square set built")

        expected = write_pbm(rasterize(ifs_prefractal(BT, 3))[1])
        for name in ("ifs_prefractal", "iterate", "prefractal_by_digits"):
            monkeypatch.setattr(fractal, name, no_set)
        monkeypatch.setattr(render, "rasterize", no_set)
        for command in (["render"], ["gen", "--format", "pbm"]):
            assert cli_pbm(capsys, tmp_path, *command, "--base", "3", "--balance", "1",
                           "--depth", "3") == expected

    def test_memory_is_a_few_blocks(self, tmp_path):
        # a digit block and a chunk of text; the 4096 x 4096 bitmap alone was 64 _SCAN_CELLS
        argv = ["render", "--base", "2", "--depth", "12", "--out", str(tmp_path / "out.pbm")]
        assert run(argv) == 0  # numpy's first-call allocations
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * fractal._SCAN_CELLS, peak

    def test_scan_cap_refuses_what_the_bitmap_once_passed(self, capsys):
        # 3^13 squares are within the cap, but the 4^13 cells of the scan are not
        for command in (["render"], ["gen", "--format", "pbm"]):
            code = run([*command, "--base", "2", "--depth", "13", "--max-squares", "1594323"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, ""), command
            assert captured.err == "error: digit scan at depth 13 exceeds the cap 1594323\n"
        code = run(["render", "--base", "2", "--depth", "13", "--max-squares", "1000"])
        assert (code, capsys.readouterr().err) == (
            1, "error: depth 13 needs 1594323 squares, over the cap 1000\n")

    def test_default_cap_refuses_no_set_the_square_cap_passes(self):
        # m^(2n) scan cells against l^n squares, l = m(m+1)/2 + b(m-1-b) least at b = 0
        for m in range(2, 20000):
            n = 0
            while lattice_cardinality(m) ** n <= DEFAULT_MAX_SQUARES:
                assert m ** (2 * n) <= 32 * DEFAULT_MAX_SQUARES, (m, n)
                n += 1

    @pytest.mark.parametrize("command", [
        *(["gen", "--format", f] for f in ("json", "text", "svg", "pbm")),
        *(["render", "--format", f] for f in ("pbm", "svg")),
    ], ids=" ".join)
    def test_refused_render_leaves_the_out_file(self, capsys, tmp_path, command):
        # every format runs its gates before --out is opened
        target = tmp_path / "kept.out"
        target.write_bytes(b"old bytes")
        caps = ("1000", "1594323") if "pbm" in command else ("1000",)  # square, then scan cap
        for flags in (*(["--depth", "13", "--max-squares", cap] for cap in caps), ["--depth", "40"]):
            assert run([*command, "--base", "2", *flags, "--out", str(target)]) == 1, flags
            assert capsys.readouterr().err.startswith("error:")
            assert target.read_bytes() == b"old bytes"
