"""The square writers against plain per-square and per-pixel reference formatters."""

import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from trihex import (
    DigitSystem,
    DomainError,
    Prefractal,
    cli,
    ifs_prefractal,
    index_bounds,
    rasterize,
    write_pbm,
)
from trihex.fractal import _rows


def rows_reference(template, *columns):
    """Reference: the per-square formatter the writers once ran, `template % row` in Python."""
    return b"".join(map(template.__mod__, zip(*(c.tolist() for c in columns))))


def ref_json(p):
    payload = {"m": p.system.m, "b": p.system.b, "depth": p.depth, "count": len(p),
               "squares": [list(s) for s in p]}
    return json.dumps(payload, separators=(",", ":"))


def ref_text(p):
    return "".join(f"{i} {j}\n" for i, j in p)


def ref_svg(p):
    squares = list(p)
    i_min, i_max = min(i for i, _ in squares), max(i for i, _ in squares)
    j_min, j_max = min(j for _, j in squares), max(j for _, j in squares)
    width, height = i_max - i_min + 1, j_max - j_min + 1
    parts = [
        b'<?xml version="1.0" encoding="UTF-8"?>',
        (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'viewBox="{i_min} {-(j_min + height)} {width} {height}" '
         f'width="{width}" height="{height}">').encode("ascii"),
    ]
    parts.extend(f'<rect x="{a}" y="{-(c + 1)}" width="1" height="1"/>'.encode("ascii")
                 for a, c in squares)
    parts.append(b"</svg>")
    return b"\n".join(parts) + b"\n"


def ref_pbm(bitmap):
    bitmap = np.asarray(bitmap)
    h, w = bitmap.shape
    lines = [b"P1", f"{w} {h}".encode("ascii")]
    lines.extend(" ".join("1" if v else "0" for v in row).encode("ascii")
                 for row in bitmap.tolist())
    return b"\n".join(lines) + b"\n"


def subsets():
    """Random square subsets, with negative indices in the balanced systems,
    single squares and empty sets among them."""
    rng = random.Random(0x5EED)
    for system, n in ((DigitSystem(2, 0), 4), (DigitSystem(3, 1), 4), (DigitSystem(5, 2), 3),
                      (DigitSystem(4, 1), 3), (DigitSystem(3, 0), 0)):
        full = list(ifs_prefractal(system, n))
        for k in (0, 1, 2, len(full) // 3, len(full)):
            yield Prefractal(system, n, rng.sample(full, min(k, len(full))))


REFERENCE = {
    "json": lambda p: (ref_json(p) + "\n").encode("ascii"),
    "text": lambda p: ref_text(p).encode("ascii"),
    "pbm": lambda p: ref_pbm(rasterize(p)[1]),
    "svg": ref_svg,
}


def extreme_sets():
    """Corner squares of the widest key frames, where indices have the most digits."""
    for system, n in ((DigitSystem(2, 0), 31), (DigitSystem(3, 1), 19),
                      (DigitSystem(3037000499, 0), 1)):
        lo, hi = index_bounds(system, n)
        yield Prefractal(system, n, [(lo, lo), (lo, hi), (hi, lo), (hi, hi)])


@pytest.mark.parametrize("fmt", sorted(REFERENCE))
@pytest.mark.parametrize("p", list(subsets()), ids=repr)
def test_gen_matches_reference_on_stdout_and_out_file(p, fmt, capsys, tmp_path, monkeypatch):
    assert_gen_matches_reference(p, fmt, capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("fmt", ["json", "text", "svg"])  # a PBM raster would be 2^31 wide
@pytest.mark.parametrize("p", list(extreme_sets()), ids=repr)
def test_gen_matches_reference_at_extreme_indices(p, fmt, capsys, tmp_path, monkeypatch):
    assert_gen_matches_reference(p, fmt, capsys, tmp_path, monkeypatch)


def assert_gen_matches_reference(p, fmt, capsys, tmp_path, monkeypatch):
    if fmt == "pbm":  # gen streams a constructed set's digit rows: a library set is rasterized
        return assert_library_pbm_matches_reference(p)
    monkeypatch.setattr("trihex.fractal.ifs_prefractal", lambda system, n, cap: p)
    argv = ["gen", "--base", str(p.system.m), "--balance", str(p.system.b),
            "--depth", str(p.depth), "--format", fmt]
    if not len(p) and fmt in ("pbm", "svg"):
        assert cli.run(argv) == 1
        return
    assert cli.run(argv) == 0
    stdout = capsys.readouterr().out.encode("ascii")
    target = tmp_path / "out"
    assert cli.run([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert stdout == target.read_bytes() == REFERENCE[fmt](p)


def assert_library_pbm_matches_reference(p):
    if not len(p):
        with pytest.raises(DomainError):
            rasterize(p)
        return
    assert write_pbm(rasterize(p)[1]) == REFERENCE["pbm"](p), p


BOUND = 3_037_000_499  # the widest key frame, W = floor(sqrt(2^63)), holds |i|, |j| < W
EDGES = [0, -1, BOUND, -BOUND] + [s * v for k in range(1, 11) for v in (10**k - 1, 10**k)
                                  for s in (1, -1)]


@pytest.mark.parametrize("template", [b",[%d,%d]", b"%d %d\n",
                                      b'<rect x="%d" y="%d" width="1" height="1"/>\n'])
def test_rows_match_reference(template):
    rng = np.random.default_rng(11)
    edges = np.array(EDGES, dtype=np.int64)
    columns = [(edges, edges[::-1]), (edges[:0], edges[:0]), (edges[:1], edges[-1:])]
    for n in (1, 2, 7, 1000):
        columns += [tuple(rng.integers(-BOUND, BOUND + 1, size=(2, n)))]
    # one digit count per column, so each field's width is set by one value
    columns += [(np.full(3, v), np.full(3, -v)) for v in EDGES]
    for i, j in columns:
        assert _rows(template, i, j) == rows_reference(template, i, j), (i, j)


def test_pbm_matches_reference_on_any_values_and_shapes():
    rng = np.random.default_rng(7)
    bitmaps = [np.zeros((2, 0)), np.zeros((0, 3)), np.zeros((0, 0), dtype=np.uint8), [[1]],
               [[-0.0, np.nan, np.inf]], [[1j, 0j]], np.array([[True], [False]]),
               np.array([[None, 0, "a", "", 2]], dtype=object), np.array([["a", ""]])]
    bitmaps += [rng.integers(-2, 4, size=shape).astype(dtype)
                for shape in ((1, 7), (5, 1), (6, 9))
                for dtype in (np.int8, np.uint8, np.int64, np.float32)]
    for bitmap in bitmaps:
        assert write_pbm(bitmap) == ref_pbm(bitmap), bitmap
    assert write_pbm(np.zeros((2, 0))) == b"P1\n0 2\n\n\n"
    assert write_pbm(np.zeros((0, 3))) == b"P1\n3 0\n"


def seam_sets():
    """Nonempty subsets, and one column of squares, whose PBM blocks hold several rows."""
    yield from (p for p in subsets() if len(p))
    full = ifs_prefractal(DigitSystem(2, 0), 4)
    yield Prefractal(full.system, full.depth, [s for s in full if s[0] == 0])


@pytest.mark.parametrize("fmt", sorted(REFERENCE))
@pytest.mark.parametrize("block", (1, 2, 3))
def test_chunk_seams_match_reference(block, fmt, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("trihex.fractal._BLOCK", block)
    target = tmp_path / "out"
    for p in seam_sets():
        if fmt == "pbm":  # write_pbm's chunks of rows; test_render covers the streamed rows
            assert_library_pbm_matches_reference(p)
            continue
        monkeypatch.setattr("trihex.fractal.ifs_prefractal", lambda system, n, cap, p=p: p)
        argv = ["gen", "--base", str(p.system.m), "--balance", str(p.system.b),
                "--depth", str(p.depth), "--format", fmt]
        assert cli.run(argv) == 0
        stdout = capsys.readouterr().out.encode("ascii")
        assert cli.run([*argv, "--out", str(target)]) == 0
        assert stdout == target.read_bytes() == REFERENCE[fmt](p), p


# SHA-256 of the full-size outputs, copied from GOLDEN in perfbench/workloads.py: each set
# spans several blocks of the default _BLOCK, so the chunk seams of every writer show
EMIT_GOLDEN = {
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
}


@pytest.mark.parametrize("command", sorted(EMIT_GOLDEN))
def test_full_size_outputs_match_golden_hashes(command, tmp_path):
    target = tmp_path / "out"
    assert cli.run([*command.split(), "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == EMIT_GOLDEN[command]


def traced_peak(work):
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "text", "svg"])
def test_writer_memory_stays_near_the_square_set(fmt, tmp_path, monkeypatch):
    """Writing costs about what building the set costs: no copy of the whole output."""
    monkeypatch.setattr("trihex.fractal._BLOCK", 1024)
    build = traced_peak(lambda: ifs_prefractal(DigitSystem(3, 1), 6))
    argv = ["gen", "--base", "3", "--balance", "1", "--depth", "6", "--format", fmt,
            "--out", str(tmp_path / "out")]
    write = traced_peak(lambda: cli.run(argv))
    assert write <= 1.5 * build, (write, build)


def test_verify_memory_stays_near_the_square_set(capsys):
    """verify holds no more than building the geometric set does: no full key array twice."""
    build = traced_peak(lambda: ifs_prefractal(DigitSystem(2, 0), 12))
    check = traced_peak(lambda: cli.run(["verify", "--base", "2", "--depth", "12"]))
    assert capsys.readouterr().out == "equivalence: ok (531441 squares)\n"
    assert check <= 1.2 * build, (check, build)


def test_verify_holds_one_block_per_route(capsys):
    """verify holds a block of each route at a time, never the whole square set."""
    build = traced_peak(lambda: ifs_prefractal(DigitSystem(4, 1), 6))
    argv = ["verify", "--base", "4", "--balance", "1", "--depth", "6"]
    check = traced_peak(lambda: cli.run(argv))
    assert capsys.readouterr().out == "equivalence: ok (2985984 squares)\n"
    assert check <= 0.25 * build, (check, build)
