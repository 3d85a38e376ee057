import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trihex
from trihex import prefractal_from_json, ifs_prefractal, DigitSystem, routes
from trihex.cli import run


def _src_path():
    """PYTHONPATH for a child `python -m trihex.cli`, with this checkout's trihex first."""
    src = str(Path(trihex.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenExamples:
    def test_convert_balanced_fourteen(self, capsys):
        code, out, _ = invoke(capsys, "convert", "--int", "14", "--base", "3", "--balance", "1")
        assert code == 0
        assert out == "[1 -1 -1 -1]@3b1\n"

    def test_convert_negative_fourteen(self, capsys):
        code, out, _ = invoke(capsys, "convert", "--int", "-14", "--base", "3", "--balance", "1")
        assert code == 0
        assert out == "[-1 1 1 1]@3b1\n"

    def test_member_half_half(self, capsys):
        code, out, _ = invoke(capsys, "member", "--base", "2", "--balance", "0",
                              "--point", "1/2,1/2")
        assert code == 0
        assert out == "true\n"

    def test_member_negative_coordinate(self, capsys):
        # argparse needs the '=' form for values opening with '-'
        code, out, _ = invoke(capsys, "member", "--base", "3", "--balance", "1",
                              "--point=-1/3,1/3")
        assert (code, out) == (0, "true\n")
        code, out, _ = invoke(capsys, "member", "--base", "3", "--balance", "1",
                              "--point=1/3,1/3")
        assert (code, out) == (0, "false\n")

    def test_dim_balanced_ternary(self, capsys):
        code, out, _ = invoke(capsys, "dim", "--base", "3", "--balance", "1", "--depth", "3")
        assert code == 0
        assert out == (
            '{"m":3,"b":1,"depth":3,"box_count":343,'
            '"estimate":1.77124374916,"closed_form":1.77124374916,"abs_error":0}\n'
        )
        payload = json.loads(out)
        assert payload["box_count"] == 343
        assert round(payload["estimate"], 6) == 1.771244

    def test_verify_five_balanced_two(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--base", "5", "--balance", "2", "--depth", "2")
        assert code == 0
        assert out == "equivalence: ok (361 squares)\n"


class TestNumeralCommands:
    def test_add_standard(self, capsys):
        code, out, _ = invoke(capsys, "add", "--x", "[1 0 . 2]@3b0", "--y", "[2 1 . 1]@3b0")
        assert code == 0
        assert out == "[1 0 2]@3b0\n"

    def test_add_balanced(self, capsys):
        code, out, _ = invoke(capsys, "add", "--x", "[2 . -1 -2]@5b2", "--y", "[1 2 . 1 -2]@5b2")
        assert code == 0
        assert out == "[2 -1 . -1 1]@5b2\n"

    def test_carryfree(self, capsys):
        code, out, _ = invoke(capsys, "carryfree", "--x", "[0 . 1]@2b0", "--y", "[0 . 0 1]@2b0")
        assert (code, out) == (0, "true\n")
        code, out, _ = invoke(capsys, "carryfree", "--x", "[0 . 1]@2b0", "--y", "[0 . 1]@2b0")
        assert (code, out) == (0, "false\n")

    def test_convert_numeral_to_rational(self, capsys):
        code, out, _ = invoke(capsys, "convert", "--x", "[1 0 . 2]@3b0")
        assert (code, out) == (0, "11/3\n")
        code, out, _ = invoke(capsys, "convert", "--x", "[1 -1 -1 -1]@3b1")
        assert (code, out) == (0, "14\n")

    def test_add_mismatched_systems_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "add", "--x", "[1]@3b0", "--y", "[1]@3b1")
        assert code == 1
        assert "error:" in err


class TestGen:
    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "gen", "--base", "3", "--balance", "1", "--depth", "2")
        assert code == 0
        assert prefractal_from_json(out.strip()) == ifs_prefractal(DigitSystem(3, 1), 2)

    def test_json_golden(self, capsys):
        code, out, _ = invoke(capsys, "gen", "--base", "2", "--balance", "0", "--depth", "1")
        assert code == 0
        assert out == '{"m":2,"b":0,"depth":1,"count":3,"squares":[[0,0],[0,1],[1,0]]}\n'

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "gen", "--base", "2", "--balance", "0", "--depth", "1",
                              "--format", "text")
        assert code == 0
        assert out == "0 0\n0 1\n1 0\n"

    def test_pbm_format_matches_render(self, capsys):
        code, out, _ = invoke(capsys, "gen", "--base", "2", "--balance", "0", "--depth", "1",
                              "--format", "pbm")
        assert (code, out) == (0, "P1\n2 2\n1 0\n1 1\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "h.json"
        code, out, _ = invoke(capsys, "gen", "--base", "3", "--balance", "1", "--depth", "1",
                              "--out", str(target))
        assert code == 0 and out == ""
        assert prefractal_from_json(target.read_text()) == ifs_prefractal(DigitSystem(3, 1), 1)

    def test_unwritable_out_is_one_line_error(self, capsys, tmp_path):
        for target in (str(tmp_path / "missing" / "x"), ""):
            for command in ("gen", "render"):
                code, out, err = invoke(capsys, command, "--base", "2", "--depth", "1",
                                        "--out", target)
                assert (code, out) == (1, "")
                assert err.startswith("error:") and err.count("\n") == 1

    def test_closed_stdout_is_one_line_error(self):
        # the reader stops after one line of a multi-block output, larger than a pipe holds;
        # unbuffered (python -u), stdout is a raw file whose writes may stop short silently
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        for depth, extra in (("12", {}), ("10", {"PYTHONUNBUFFERED": "1"})):
            with subprocess.Popen(
                [sys.executable, "-m", "trihex.cli", "gen", "--base", "2", "--depth", depth,
                 "--format", "text"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**env, **extra, "PYTHONPATH": _src_path()},
            ) as proc:
                assert proc.stdout.readline() == b"0 0\n"
                proc.stdout.close()
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == 1
            assert err == b"error: [Errno 32] Broken pipe\n"

    def test_stdout_closed_at_start(self, tmp_path):
        def closed_stdout(*argv):
            return subprocess.run(
                [sys.executable, "-m", "trihex.cli", *argv], stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": _src_path()},
                preexec_fn=lambda: os.close(1), timeout=60,
            )

        for argv in (("gen", "--base", "2", "--depth", "1"),
                     ("member", "--base", "2", "--point", "1/2,1/2"),
                     ("convert", "--int", "5", "--base", "2")):
            proc = closed_stdout(*argv)
            assert proc.returncode == 1
            assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1
        target = tmp_path / "h.txt"
        proc = closed_stdout("gen", "--base", "2", "--depth", "1", "--format", "text",
                             "--out", str(target))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert target.read_text() == "0 0\n0 1\n1 0\n"

    def test_max_squares_cap(self, capsys):
        code, _, err = invoke(capsys, "gen", "--base", "2", "--balance", "0", "--depth", "10",
                              "--max-squares", "100")
        assert code == 1
        assert "error:" in err


class TestRender:
    def test_pbm_golden(self, capsys):
        code, out, _ = invoke(capsys, "render", "--base", "2", "--balance", "0", "--depth", "1")
        assert (code, out) == (0, "P1\n2 2\n1 0\n1 1\n")

    def test_svg_to_file(self, capsys, tmp_path):
        target = tmp_path / "h.svg"
        code, out, _ = invoke(capsys, "render", "--base", "3", "--balance", "1", "--depth", "2",
                              "--format", "svg", "--out", str(target))
        assert code == 0 and out == ""
        data = target.read_bytes()
        assert data.count(b"<rect") == 49
        assert data.startswith(b'<?xml version="1.0"')


class TestVerify:
    def test_ok_line(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--base", "2", "--balance", "0", "--depth", "4")
        assert (code, out) == (0, "equivalence: ok (81 squares)\n")
        code, out, _ = invoke(capsys, "verify", "--base", "200", "--balance", "0", "--depth", "1")
        assert (code, out) == (0, "equivalence: ok (20100 squares)\n")

    def test_cap_exceeded(self, capsys):
        code, _, err = invoke(capsys, "verify", "--base", "2", "--balance", "0", "--depth", "9",
                              "--max-squares", "1000")
        assert code == 1
        assert "error:" in err

    def test_digit_scan_cap(self, capsys):
        code, out, err = invoke(capsys, "verify", "--base", "2", "--depth", "13",
                                "--max-squares", "1600000")
        assert (code, out) == (1, "")
        assert err == "error: digit scan at depth 13 exceeds the cap 1600000\n"

    def test_square_cap_before_digit_scan_cap(self, capsys):
        # 3^9 squares and 4^9 scan cells are both over a cap of 1000: the square cap speaks
        code, out, err = invoke(capsys, "verify", "--base", "2", "--depth", "9",
                                "--max-squares", "1000")
        assert (code, out) == (1, "")
        assert err == "error: depth 9 needs 19683 squares, over the cap 1000\n"

    @staticmethod
    def drop_first_cell(row):
        """A row without its first set cell, the lowest set bit."""
        return row & (row - 1)

    @staticmethod
    def keys(rows):
        """The keys of the 4-cell rows of the 4 x 4 frame, row by row."""
        return [[i * 4 + t for t in range(4) if row >> t & 1] for i, row in enumerate(rows)]

    @staticmethod
    def edit_digit_rows(monkeypatch, edit):
        """Make verify compare against the digit route's rows as edited."""
        rows = routes._digit_rows

        def edited(system, n, max_squares):
            return edit(list(rows(system, n, max_squares)))

        monkeypatch.setattr(routes, "_digit_rows", edited)

    def test_mismatch_line(self, capsys, monkeypatch):
        self.edit_digit_rows(monkeypatch, lambda rows: [self.drop_first_cell(rows[0]), *rows[1:]])
        code, out, err = invoke(capsys, "verify", "--base", "2", "--depth", "2")
        assert (code, out) == (1, "")
        assert err == "equivalence: MISMATCH at depth 2 (9 geometric vs 8 digit squares)\n"

    def test_mismatch_line_extra_key_after_the_last_row(self, capsys, monkeypatch):
        self.edit_digit_rows(monkeypatch, lambda rows: [*rows, 1])  # cell 0 of one more
        code, out, err = invoke(capsys, "verify", "--base", "2", "--depth", "2")
        assert (code, out) == (1, "")
        assert err == "equivalence: MISMATCH at depth 2 (9 geometric vs 10 digit squares)\n"

    def test_mismatch_line_key_changed_in_a_middle_row(self, capsys, monkeypatch):
        def shift_last_key_of_row_one(rows):
            assert self.keys(rows) == [[0, 1, 2, 3], [4, 6], [8, 9], [12]]
            return [rows[0], 0b1001, *rows[2:]]  # keys 4 and 7

        self.edit_digit_rows(monkeypatch, shift_last_key_of_row_one)
        code, out, err = invoke(capsys, "verify", "--base", "2", "--depth", "2")
        assert (code, out) == (1, "")
        assert err == "equivalence: MISMATCH at depth 2 (9 geometric vs 9 digit squares)\n"

    def test_mismatch_line_key_dropped_from_a_middle_geometric_row(self, capsys, monkeypatch):
        rows = routes._geometric_rows

        def drop_first_key_of_row_one(system, n):
            got = list(rows(system, n))
            assert self.keys(got) == [[0, 1, 2, 3], [4, 6], [8, 9], [12]]
            return [got[0], self.drop_first_cell(got[1]), *got[2:]]

        monkeypatch.setattr(routes, "_geometric_rows", drop_first_key_of_row_one)
        code, out, err = invoke(capsys, "verify", "--base", "2", "--depth", "2")
        assert (code, out) == (1, "")
        assert err == "equivalence: MISMATCH at depth 2 (8 geometric vs 9 digit squares)\n"

    def test_depth_zero_cap_is_one_rule_for_gen_and_verify(self, capsys):
        for command in ("gen", "verify"):
            code, out, err = invoke(capsys, command, "--base", "2", "--depth", "0",
                                    "--max-squares", "0")
            assert (code, out) == (1, ""), command
            assert err == "error: depth 0 needs 1 squares, over the cap 0\n", command

    def test_depth_zero_with_a_huge_base(self, capsys):
        # one square at depth 0, built without the m x m digit rule
        assert invoke(capsys, "verify", "--base", str(10**30), "--depth", "0") == (
            0, "equivalence: ok (1 squares)\n", "")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "gen", "--base", "2")
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "dim", "--base", "2", "--depth", "1", "--wat", "1")
        assert code == 2

    def test_malformed_integer_flag_is_usage_error(self, capsys):
        for argv in (("member", "--base", "abc", "--point", "0,0"),
                     ("member", "--base", "\u0663", "--balance", "\u0661", "--point", "0,0"),
                     ("convert", "--int=1_0", "--base", "2"),
                     ("gen", "--base", "2", "--depth", " 1 ", "--format", "text"),
                     ("dim", "--base", "2", "--depth", "1", "--max-squares", "1\u0660")):
            code, out, _ = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv

    def test_convert_needs_exactly_one_input(self, capsys):
        code, _, err = invoke(capsys, "convert", "--base", "3")
        assert code == 2 and "usage error" in err
        code, _, err = invoke(capsys, "convert", "--int", "1", "--x", "[1]@3b0", "--base", "3")
        assert code == 2 and "usage error" in err

    @pytest.mark.parametrize("flags", [("--base", "5"), ("--balance", "0"), ("--balance", "1"),
                                       ("--base", "3", "--balance", "0")])
    def test_convert_x_takes_no_system_flags(self, capsys, flags):
        # the numeral names its own system, so these flags would be silently ignored
        code, out, err = invoke(capsys, "convert", "--x", "[1 0 . 2]@3b0", *flags)
        assert (code, out) == (2, "") and "usage error" in err
        assert invoke(capsys, "convert", "--x", "[1 0 . 2]@3b0") == (0, "11/3\n", "")

    def test_convert_int_balance_defaults_to_zero(self, capsys):
        for flags, want in [((), "[1 1 2]@3b0\n"), (("--balance", "0"), "[1 1 2]@3b0\n"),
                            (("--balance", "1"), "[1 -1 -1 -1]@3b1\n")]:
            assert invoke(capsys, "convert", "--int", "14", "--base", "3", *flags) == (0, want, "")

    def test_convert_int_needs_base(self, capsys):
        code, _, err = invoke(capsys, "convert", "--int", "14")
        assert code == 2 and "usage error" in err

    def test_illegal_system_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "gen", "--base", "1", "--balance", "0", "--depth", "1")
        assert code == 1 and "error:" in err
        code, _, err = invoke(capsys, "member", "--base", "2", "--balance", "1",
                              "--point", "0,0")
        assert code == 1 and "error:" in err

    def test_malformed_rational_is_domain_error(self, capsys):
        for point in ("abc", "1/2", "1/2,1/2,1/2", "0.5,0.5", "1/0,0",
                      "1/" + "1" * 4400 + ",0", "\u0661/\u0663,0"):
            code, _, err = invoke(capsys, "member", "--base", "2", "--balance", "0",
                                  "--point", point)
            assert code == 1, point
            assert "error:" in err

    def test_zero_denominator_line(self, capsys):
        code, out, err = invoke(capsys, "member", "--base", "2", "--point", "1/0,0")
        assert (code, out, err) == (1, "", "error: not a rational number: '1/0'\n")

    def test_out_of_memory_is_one_line_error(self, capsys, monkeypatch):
        # a cap raised past the machine's memory; faked, since a real one allocates
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.setattr(routes, "_set_chunks", out_of_memory)
        code, out, err = invoke(capsys, "gen", "--base", "2", "--depth", "30",
                                "--max-squares", str(10**18))
        assert (code, out, err) == (1, "", "error: Unable to allocate 64.0 GiB\n")

    def test_malformed_numeral_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "convert", "--x", "[9]@3b0")
        assert code == 1 and "error:" in err

    def test_numeral_too_long_to_print_is_one_line_error(self, capsys):
        code, out, err = invoke(capsys, "convert", "--x", "[{}]@10b0".format(" 1" * 4400))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_int_in_standard_base_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "convert", "--int", "-5", "--base", "3")
        assert code == 1 and "error:" in err
