import csv
import functools
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from catent import cli, metric, randgen
from catent.cli import MAX_JOINT, MAX_RANDOM, MAX_SAMPLES, main
from catent.entropy import check_conditional_entropy_laws
from catent.ingest import INDISCERNIBLES, INTERNSHIP, fixture_path
from catent.metric import MAX_DEMO_STEPS
from catent.model import Dataset, induced_partition
from catent.randgen import MAX_ALPHABET, MAX_CELLS, MAX_COLUMNS, MAX_ROWS

ROOT = Path(__file__).resolve().parents[1]

FIXTURE = str(fixture_path(INTERNSHIP))

# the three-row dataset whose middle column breaks the triangle inequality
COUNTEREXAMPLE_CSV = "pair_02,finest,pair_12\na,p,u\nb,q,v\na,r,v\n"


# check-monoid stdout, byte for byte: the route inside a validator may
# change, what it prints may not
MONOID_STDOUT_INTERNSHIP = """\
[PASS] associativity: instances=216 worst_slack=0.000e+00
[PASS] commutativity: instances=36 worst_slack=0.000e+00
[PASS] identity_element: instances=6 worst_slack=0.000e+00
[PASS] well_definedness: instances=36 worst_slack=0.000e+00
[PASS] contractivity: instances=1296 worst_slack=0.000e+00
overall: PASS
"""

MONOID_STDOUT_INDISCERNIBLES = """\
[PASS] associativity: instances=8 worst_slack=0.000e+00
[PASS] commutativity: instances=4 worst_slack=0.000e+00
[PASS] identity_element: instances=2 worst_slack=0.000e+00
[PASS] well_definedness: instances=4 worst_slack=0.000e+00
[PASS] contractivity: instances=16 worst_slack=0.000e+00
overall: PASS
"""

MONOID_STDOUT_RANDOM_100 = """\
[PASS] associativity: instances=6400 worst_slack=0.000e+00
[PASS] commutativity: instances=1600 worst_slack=0.000e+00
[PASS] identity_element: instances=400 worst_slack=0.000e+00
[PASS] well_definedness: instances=1600 worst_slack=0.000e+00
[PASS] contractivity: instances=25600 worst_slack=-2.220e-16
overall: PASS
"""

# generated datasets of 100-300 rows and 10-30 symbols: their cell keys need
# 2- and 4-byte fields, where the fixtures' 20 rows fit in one
WIDE_KEYS = ["--random", "3", "--rows", "100", "300", "--alphabet", "10", "30",
             "--columns", "4"]

MONOID_STDOUT_WIDE_KEYS = """\
[PASS] associativity: instances=192 worst_slack=0.000e+00
[PASS] commutativity: instances=48 worst_slack=0.000e+00
[PASS] identity_element: instances=12 worst_slack=0.000e+00
[PASS] well_definedness: instances=48 worst_slack=0.000e+00
[PASS] contractivity: instances=600 worst_slack=-2.220e-16
overall: PASS
"""

LEMMA2_STDOUT_WIDE_KEYS = """\
chain_rule            checked=192 nonvacuous=192 failures=0
coarsening_monotone   checked=192 nonvacuous=88 failures=0
zero_iff_coarser      checked=192 nonvacuous=88 failures=0
join_raises_entropy   checked=192 nonvacuous=192 failures=0
conditioning_reduces  checked=192 nonvacuous=192 failures=0
overall: PASS
"""

METRIC_STDOUT_WIDE_KEYS = """\
[PASS] symmetry: instances=48 worst_slack=-2.220e-16
[PASS] self_similarity_nonnegative: instances=12 worst_slack=1.000e+00
[PASS] self_similarity_dominates: instances=48 worst_slack=0.000e+00
[FAIL] triangle_bound: instances=192 worst_slack=-6.190e-02 witness=c0,c3,c1 lhs=1.3046625743055598 rhs=1.242758820844629
[PASS] value_range: instances=48 worst_slack=0.000e+00
[PASS] max_on_indiscernible: instances=16 worst_slack=-0.000e+00
[PASS] max_only_on_indiscernible: instances=32 worst_slack=4.231e-03
[PASS] nonnegativity: instances=18 worst_slack=0.000e+00
[PASS] bounded_by_one: instances=18 worst_slack=0.000e+00
[PASS] zero_diagonal: instances=12 worst_slack=-0.000e+00
[FAIL] triangle_inequality: instances=192 worst_slack=-6.190e-02 witness=c0,c3,c1 lhs=0.757241179155371 rhs=0.6953374256944402
[PASS] zero_on_indiscernible: instances=2 worst_slack=-0.000e+00
[PASS] zero_only_on_indiscernible: instances=16 worst_slack=4.231e-03
violation in dataset[seed=0] triangle_bound: witness=c0,c3,c1 lhs=1.3046625743055598 rhs=1.242758820844629
violation in dataset[seed=0] triangle_inequality: witness=c0,c3,c1 lhs=0.757241179155371 rhs=0.6953374256944402
overall: FAIL
"""


def src_env():
    """The caller's environment, importing catent from this checkout's ``src``."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def counterexample_csv(tmp_path):
    p = tmp_path / "triangle.csv"
    p.write_text(COUNTEREXAMPLE_CSV, encoding="utf-8")
    return str(p)


class TestSu:
    def test_reference_pair(self, capsys):
        code, out, _ = run_cli(capsys, "su", FIXTURE, "Creativity", "GotHired")
        assert code == 0
        assert "SU" in out and "0.4627" in out
        assert "distance" in out and "0.5373" in out
        assert "entropic_ratio" in out and "0.7687" in out
        assert "H(Creativity|GotHired)" in out and "0.9537" in out

    def test_full_precision(self, capsys):
        code, out, _ = run_cli(capsys, "su", FIXTURE, "Creativity", "GotHired", "--full")
        assert code == 0
        assert "0.4626893775538470" in out

    def test_undefined_ratio(self, capsys, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("a,b\nk,m\nk,m\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "su", str(p), "a", "b")
        assert code == 0
        assert "entropic_ratio" in out and "undefined" in out
        assert "1.0000" in out  # SU of two constants

    @pytest.mark.parametrize("rows", ["x,y\nz,w\n", "k,y\nk,w\n"],
                             ids=["indiscernible", "constant"])
    def test_zero_entropies_print_unsigned(self, capsys, tmp_path, rows):
        p = tmp_path / "zero.csv"
        p.write_text("a,b\n" + rows, encoding="utf-8")
        for full in ((), ("--full",)):
            code, out, _ = run_cli(capsys, "su", str(p), "a", "b", *full)
            assert code == 0
            assert "-0" not in out

    def test_unknown_column(self, capsys):
        code, _, err = run_cli(capsys, "su", FIXTURE, "Creativity", "Nope")
        assert code == 2
        assert "unknown column" in err

    def test_oversized_field_is_bad_input(self, capsys, tmp_path):
        p = tmp_path / "wide_field.csv"
        p.write_text("a,b\n" + "x" * 200_000 + ",y\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "su", str(p), "a", "b")
        assert code == 2
        assert out == ""
        assert "field larger than field limit" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "su", "/no/such/file.csv", "a", "b")
        assert code == 2
        assert err.startswith("error:")

    def test_stdin_source(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("a,b\nx,p\ny,q\nx,p\n"))
        code, out, _ = run_cli(capsys, "su", "-", "a", "b")
        assert code == 0
        assert "SU" in out

    @staticmethod
    def byte_stdin(monkeypatch, data: bytes):
        # stdin as the interpreter opens it without a locale: undecodable
        # bytes would pass through as surrogates if read as text
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        return stdin

    def test_stdin_bom_is_dropped_as_from_a_path(self, capsys, monkeypatch):
        stdin = self.byte_stdin(monkeypatch, b"\xef\xbb\xbfa,b\nx,y\nz,w\n")
        code, out, err = run_cli(capsys, "su", "-", "a", "b")
        assert (code, err) == (0, "")
        assert out.startswith("SU  ")
        assert not stdin.closed

    def test_stdin_invalid_byte_is_bad_input_as_from_a_path(self, capsys, monkeypatch, tmp_path):
        data = b"a,b\nx,\xff\nz,w\n"
        path = tmp_path / "invalid.csv"
        path.write_bytes(data)
        from_path = run_cli(capsys, "classes", str(path))
        stdin = self.byte_stdin(monkeypatch, data)
        code, out, err = run_cli(capsys, "classes", "-")
        assert (code, out, err) == from_path
        assert code == 2 and "can't decode byte 0xff" in err
        assert not stdin.closed


class TestRank:
    def test_order_and_ties(self, capsys):
        code, out, _ = run_cli(capsys, "rank", FIXTURE, "GotHired")
        assert code == 0
        names = [line.split("\t")[0] for line in out.strip().splitlines()]
        # ties (the three relabeled columns) break alphabetically
        assert names == [
            "Creativity",
            "IQuotient",
            "Neatness",
            "Punctuality",
            "AttentionType",
        ]
        first = out.strip().splitlines()[0]
        assert first == "Creativity\t0.4627"

    def test_single_column_dataset_rejected(self, capsys, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("only\nx\ny\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "rank", str(p), "only")
        assert code == 2
        assert "no feature columns" in err


class TestDist:
    def test_tsv_default_four_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "dist", FIXTURE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "\t" + "\t".join(
            ("Neatness", "Creativity", "Punctuality", "IQuotient",
             "AttentionType", "GotHired")
        )
        assert len(lines) == 7
        assert "\t0.5373\t" in out
        assert "0.53731062" not in out

    def test_full_precision_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", FIXTURE, "Creativity", "GotHired", "--full"
        )
        assert code == 0
        assert "0.5373106224461530" in out

    def test_subset_order_respected(self, capsys):
        code, out, _ = run_cli(capsys, "dist", FIXTURE, "GotHired", "Neatness")
        assert code == 0
        assert out.splitlines()[0] == "\tGotHired\tNeatness"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", FIXTURE, "Creativity", "GotHired", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["names"] == ["Creativity", "GotHired"]
        assert payload["values"][0][0] == 0.0

    def test_out_file_keeps_full_precision(self, capsys, tmp_path):
        target = tmp_path / "m.tsv"
        code, out, _ = run_cli(capsys, "dist", FIXTURE, "--out", str(target))
        assert code == 0
        assert out == ""
        assert "0.5373106224461530" in target.read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_out_file_is_full_stdout(self, capsys, tmp_path, fmt):
        target = tmp_path / f"m.{fmt}"
        code, out, _ = run_cli(capsys, "dist", FIXTURE, "--format", fmt, "--out", str(target))
        assert code == 0 and out == ""
        code, full, _ = run_cli(capsys, "dist", FIXTURE, "--format", fmt, "--full")
        assert code == 0
        assert target.read_bytes() == full.encode("utf-8")

    def test_unknown_subset_column(self, capsys):
        code, _, err = run_cli(capsys, "dist", FIXTURE, "Nope")
        assert code == 2
        assert "unknown column" in err

    def test_duplicate_column_is_bad_input(self, capsys, tmp_path):
        # the file would hold two rows under one name, which load_matrix refuses
        target = tmp_path / "m.tsv"
        code, out, err = run_cli(
            capsys, "dist", FIXTURE, "Creativity", "Creativity", "GotHired",
            "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "duplicate" in err
        assert not target.exists()

    def test_header_name_with_a_tab_is_bad_input_for_tsv(self, capsys, tmp_path):
        data = tmp_path / "tab.csv"
        data.write_text('"a\tb",c,d\nx,1,p\ny,1,q\nx,2,q\ny,2,p\n', encoding="utf-8")
        out = tmp_path / "m.tsv"
        code, stdout, err = run_cli(capsys, "dist", str(data), "--out", str(out))
        assert code == 2
        assert stdout == "" and "tab or line break" in err
        assert not out.exists()
        code, stdout, _ = run_cli(capsys, "dist", str(data), "--format", "json")
        assert code == 0
        assert json.loads(stdout)["names"] == ["a\tb", "c", "d"]

    def test_unwritable_out_path(self, capsys):
        code, _, err = run_cli(
            capsys, "dist", FIXTURE, "--out", "/no/such/dir/m.tsv"
        )
        assert code == 2
        assert err.startswith("error:")


class TestJoint:
    def test_appends_pair_column(self, capsys):
        code, out, _ = run_cli(capsys, "joint", FIXTURE, "Neatness", "GotHired")
        assert code == 0
        header = out.splitlines()[0]
        assert header.endswith("(Neatness*GotHired)")
        assert '"(R,N)"' in out  # pair labels contain commas, so they are quoted

    def test_three_way_fold(self, capsys):
        code, out, _ = run_cli(
            capsys, "joint", FIXTURE, "Neatness", "Creativity", "GotHired"
        )
        assert code == 0
        assert "((Neatness*Creativity)*GotHired)" in out.splitlines()[0]

    def test_single_column_rejected(self, capsys):
        code, _, err = run_cli(capsys, "joint", FIXTURE, "Neatness")
        assert code == 2
        assert "at least two columns" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "aug.csv"
        code, out, _ = run_cli(
            capsys, "joint", FIXTURE, "Neatness", "GotHired", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert "(Neatness*GotHired)" in target.read_text(encoding="utf-8")
        code, printed, _ = run_cli(capsys, "joint", FIXTURE, "Neatness", "GotHired")
        assert code == 0
        # bytes: the CSV's \r\n record ends must reach the file as printed
        assert target.read_bytes() == printed.encode("utf-8")

    def test_joint_of_max_columns(self, capsys, tmp_path):
        # one nesting level per column; repeated rows compare equal nested labels
        names = [f"c{i}" for i in range(MAX_JOINT)]
        data = tmp_path / "wide.csv"
        data.write_text("\n".join([",".join(names), *[",".join(["x"] * MAX_JOINT)] * 3,
                                    ",".join(["y"] * MAX_JOINT)]) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "joint", str(data), *names)
        assert (code, err) == (0, "")
        nested = functools.reduce(lambda acc, name: f"({acc}*{name})", names)
        assert nested.startswith("(" * (MAX_JOINT - 1) + "c0*c1)")
        assert out.splitlines()[0] == ",".join([*names, nested])

    def test_joint_above_max_columns_is_refused_before_reading(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_csv", refuse)
        argv = ("joint", FIXTURE, *(f"c{i}" for i in range(MAX_JOINT + 1)))
        assert run_cli(capsys, *argv) == (
            2, "", f"error: joint takes at most {MAX_JOINT} columns\n"
        )

    def test_existing_column_is_not_overwritten(self, capsys, tmp_path):
        data = tmp_path / "c.csv"
        data.write_text("a,b,(a*b)\nx,p,keep1\ny,q,keep2\n", encoding="utf-8")
        target = tmp_path / "aug.csv"
        code, out, err = run_cli(capsys, "joint", str(data), "a", "b", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'(a*b)'" in err
        assert not target.exists()

    def test_quote_delimiter_is_bad_input(self, capsys, tmp_path):
        data = tmp_path / "q.csv"
        data.write_text('a"b\nx"p\ny"q\n', encoding="utf-8")
        target = tmp_path / "aug.csv"
        code, out, err = run_cli(
            capsys, "joint", str(data), "a", "b", "--delimiter", '"', "--out", str(target)
        )
        assert code == 2
        assert out == "" and "quote or a line break" in err
        assert not target.exists()

    def test_drop_na_and_delimiter_reach_the_written_csv(self, capsys, tmp_path):
        data = tmp_path / "semi.csv"
        data.write_text("a;b;c\nx;p;u\n;q;v\ny;;w\nx;q;u\ny;p;v\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "joint", str(data), "a", "b", "--delimiter", ";", "--drop-na"
        )
        assert (code, err) == (0, "")
        assert out == (
            "a;b;c;(a*b)\r\nx;p;u;(x,p)\r\nx;q;u;(x,q)\r\ny;p;v;(y,p)\r\n"
        )


class TestRefusals:
    """A refusal is one ``error:`` line on stderr, exit 2 and nothing on stdout."""

    @pytest.mark.parametrize("argv, message", [
        (["su", FIXTURE, "Creativity", "Nope"], "unknown column 'Nope'"),
        (["rank", FIXTURE, "Nope"], "unknown column 'Nope'"),
        (["rank", "{tmp}/one.csv", "a"], "dataset has no feature columns besides the class"),
        (["dist", FIXTURE, "Creativity", "Nope"], "unknown column 'Nope'"),
        (["joint", FIXTURE, "Nope", "Creativity"], "unknown column 'Nope'"),
        (["joint", FIXTURE, "Creativity"], "joint needs at least two columns"),
        (["joint", "{tmp}/taken.csv", "a", "b"], "column '(a*b)' already exists"),
    ])
    def test_stderr_is_pinned(self, capsys, tmp_path, argv, message):
        (tmp_path / "one.csv").write_text("a\nx\ny\n", encoding="utf-8")
        (tmp_path / "taken.csv").write_text("a,b,(a*b)\nx,p,k\ny,q,m\n", encoding="utf-8")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_internal_key_error_is_not_reported_as_a_column(self, capsys, monkeypatch):
        def broken(dataset):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "canonical_classes", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["classes", FIXTURE])


class TestColumnNamesAreNfc:
    NFC, NFD = "caf\u00e9", "cafe\u0301"

    @pytest.mark.parametrize("command", [
        ("su", "{}", "b"), ("rank", "{}"), ("dist", "{}", "b"), ("joint", "{}", "b"),
    ], ids=lambda c: c[0])
    def test_nfd_argument_names_the_nfc_header(self, capsys, tmp_path, command):
        data = tmp_path / "cafe.csv"
        data.write_text(f"{self.NFC},b\nx,p\ny,q\nx,q\n", encoding="utf-8")
        sub, *names = command
        nfc = run_cli(capsys, sub, str(data), *(n.format(self.NFC) for n in names))
        nfd = run_cli(capsys, sub, str(data), *(n.format(self.NFD) for n in names))
        assert nfc[0] == 0
        assert nfd == nfc


class TestClasses:
    def test_fixture_grouping(self, capsys):
        code, out, _ = run_cli(capsys, "classes", FIXTURE)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("0: Neatness Punctuality IQuotient")
        assert "[profile 1/2,1/4,1/4]" in lines[0]

    def test_indiscernibles_fixture(self, capsys):
        from catent.ingest import INDISCERNIBLES

        code, out, _ = run_cli(capsys, "classes", str(fixture_path(INDISCERNIBLES)))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("0: digits letters")
        assert "[profile 1/2,2/5,1/10]" in lines[0]


class TestSampleSize:
    @pytest.mark.parametrize("command", ["check-metric", "check-monoid", "check-lemma2"])
    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_triples_below_one_is_a_usage_error(self, capsys, command, size):
        code, out, err = run_cli(capsys, command, FIXTURE, "--triples", size)
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    def test_quadruples_below_one_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check-monoid", FIXTURE, "--quadruples", "-3")
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "load_csv", refuse)
        monkeypatch.setattr(metric, "_sampled", refuse)

    SAMPLE_FLAGS = [("check-metric", "--triples"), ("check-monoid", "--triples"),
                    ("check-lemma2", "--triples"), ("check-monoid", "--quadruples")]

    @pytest.mark.parametrize("command, flag", SAMPLE_FLAGS)
    def test_sample_above_cap_is_refused_before_any_work(self, capsys, no_work, command, flag):
        argv = (command, FIXTURE, flag, str(MAX_SAMPLES + 1))
        assert run_cli(capsys, *argv) == (
            2, "", f"error: {flag} must be at most {MAX_SAMPLES}\n"
        )

    @pytest.mark.parametrize("command, flag", SAMPLE_FLAGS)
    def test_sample_at_cap_is_accepted(self, capsys, no_work, command, flag):
        with pytest.raises(AssertionError, match="work started"):
            main([command, FIXTURE, flag, str(MAX_SAMPLES)])


class TestGenerationCaps:
    @pytest.mark.parametrize("command", ["check-metric", "check-monoid", "check-lemma2"])
    @pytest.mark.parametrize("flags", [
        ("--random", str(MAX_RANDOM + 1)),
        ("--random", "1", "--rows", "2", str(MAX_ROWS + 1)),
        ("--random", "1", "--alphabet", "1", str(MAX_ALPHABET + 1)),
        ("--random", "1", "--columns", str(MAX_COLUMNS + 1)),
        ("--random", "1", "--rows", "2", str(MAX_ROWS),
         "--columns", str(MAX_CELLS // MAX_ROWS + 1)),
    ], ids=["random", "rows", "alphabet", "columns", "cells"])
    def test_oversized_generation_is_bad_input(self, capsys, monkeypatch, command, flags):
        def refuse(*args, **kwargs):
            raise AssertionError("generation started")

        monkeypatch.setattr(randgen, "SplitMix64", refuse)
        monkeypatch.setattr(Dataset, "from_columns", refuse)
        code, out, err = run_cli(capsys, command, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


CHECKS = ["check-metric", "check-monoid", "check-lemma2"]


class TestFlagsThatDoNotApply:
    """A check command refuses a flag its source of datasets would ignore:
    the generator's flags with DATA, the CSV flags with ``--random``."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "load_csv", refuse)
        monkeypatch.setattr(cli, "gen_dataset", refuse)

    @pytest.mark.parametrize("command", CHECKS)
    @pytest.mark.parametrize("flags", [
        ("--columns", "7"), ("--rows", "100", "200"), ("--alphabet", "5", "9"),
        ("--mode", "refined"), ("--mode", "refined", "--columns", "7"),
    ], ids=["columns", "rows", "alphabet", "mode", "mode-and-columns"])
    def test_generator_flag_with_data(self, capsys, no_work, command, flags):
        assert run_cli(capsys, command, FIXTURE, *flags) == (
            2, "", f"error: {flags[0]} applies only to --random\n"
        )

    @pytest.mark.parametrize("command", CHECKS)
    @pytest.mark.parametrize("flags", [("--delimiter", ";"), ("--drop-na",)],
                             ids=["delimiter", "drop-na"])
    def test_csv_flag_with_random(self, capsys, no_work, command, flags):
        assert run_cli(capsys, command, "--random", "2", *flags) == (
            2, "", "error: --delimiter and --drop-na apply only to DATA\n"
        )

    def test_both_sources_keep_their_message(self, capsys, no_work):
        argv = ("check-lemma2", FIXTURE, "--random", "2", "--rows", "3", "4", "--drop-na")
        assert run_cli(capsys, *argv) == (
            2, "", "error: give either DATA or --random, not both\n"
        )

    @pytest.mark.parametrize("command", CHECKS)
    def test_generator_defaults_are_the_config_defaults(self, capsys, command):
        spelled = ("--columns", "3", "--rows", "2", "12", "--alphabet", "1", "4",
                   "--mode", "arbitrary", "--delimiter", ",")
        implicit = run_cli(capsys, command, "--random", "5")
        assert implicit[0] in (0, 1) and implicit[2] == ""
        assert run_cli(capsys, command, "--random", "5", *spelled) == implicit

    def test_flags_that_apply_to_data_are_accepted(self, capsys, tmp_path):
        data = tmp_path / "semi.csv"
        data.write_text("a;b;c\nx;p;u\n;q;v\ny;p;w\nx;q;u\n", encoding="utf-8")
        argv = ("check-lemma2", str(data), "--delimiter", ";", "--drop-na", "--seed", "3")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.endswith("overall: PASS\n")


class TestCheckMetric:
    def test_fixture_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-metric", FIXTURE)
        assert code == 0
        assert "overall: PASS" in out
        assert "[PASS] triangle_bound" in out
        assert "[PASS] triangle_inequality" in out

    def test_counterexample_fails_with_witness(self, capsys, counterexample_csv):
        code, out, _ = run_cli(capsys, "check-metric", counterexample_csv)
        assert code == 1
        assert "overall: FAIL" in out
        assert "[FAIL] triangle_bound" in out
        assert "[FAIL] triangle_inequality" in out
        assert "violation in dataset[" in out
        assert "finest" in out

    def test_random_mode_is_deterministic(self, capsys):
        a = run_cli(capsys, "check-metric", "--random", "5", "--seed", "3")
        b = run_cli(capsys, "check-metric", "--random", "5", "--seed", "3")
        assert a == b
        assert a[0] in (0, 1)

    def test_data_and_random_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "check-metric", FIXTURE, "--random", "2")
        assert code == 2
        assert "not both" in err

    def test_requires_some_input(self, capsys):
        code, _, err = run_cli(capsys, "check-metric")
        assert code == 2
        assert "required" in err

    def test_random_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "check-metric", "--random", "0")
        assert code == 2
        assert "at least 1" in err

    def test_sampled_triples(self, capsys):
        code, out, _ = run_cli(capsys, "check-metric", FIXTURE, "--triples", "50")
        assert code == 0
        assert "instances=50" in out

    def test_reports_are_folded_as_they_arrive(self, capsys, monkeypatch):
        real, sizes = cli.merge_reports, []

        def recording(reports):
            reports = tuple(reports)
            sizes.append(len(reports))
            return real(reports)

        monkeypatch.setattr(cli, "merge_reports", recording)
        code, out, _ = run_cli(capsys, "check-metric", "--random", "50")
        assert code in (0, 1) and out.endswith(("overall: PASS\n", "overall: FAIL\n"))
        assert len(sizes) == 100  # two validators per dataset
        assert max(sizes) <= 2


class TestCheckMonoid:
    def test_fixture_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-monoid", FIXTURE)
        assert code == 0
        assert "overall: PASS" in out
        for name in ("associativity", "commutativity", "identity_element",
                     "well_definedness", "contractivity"):
            assert f"[PASS] {name}" in out

    def test_counterexample_dataset_still_passes(self, capsys, counterexample_csv):
        # the triangle failure does not touch the algebraic laws
        code, out, _ = run_cli(capsys, "check-monoid", counterexample_csv)
        assert code == 0
        assert "overall: PASS" in out

    def test_random_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-monoid", "--random", "4", "--seed", "1",
            "--quadruples", "30",
        )
        assert code == 0
        assert "overall: PASS" in out

    @pytest.mark.parametrize("argv, pinned", [
        ([FIXTURE], MONOID_STDOUT_INTERNSHIP),
        ([str(fixture_path(INDISCERNIBLES))], MONOID_STDOUT_INDISCERNIBLES),
        (["--random", "100", "--columns", "4"], MONOID_STDOUT_RANDOM_100),
    ], ids=["internship", "indiscernibles", "random-100"])
    def test_stdout_is_pinned(self, capsys, argv, pinned):
        assert run_cli(capsys, "check-monoid", *argv) == (0, pinned, "")


class TestWideKeyStdout:
    # byte for byte, with the exit code: the route to the cells may change,
    # what the check commands print may not
    @pytest.mark.parametrize("argv, code, pinned", [
        (["check-monoid", *WIDE_KEYS, "--quadruples", "200"], 0, MONOID_STDOUT_WIDE_KEYS),
        (["check-lemma2", *WIDE_KEYS], 0, LEMMA2_STDOUT_WIDE_KEYS),
        (["check-metric", *WIDE_KEYS], 1, METRIC_STDOUT_WIDE_KEYS),
    ], ids=["check-monoid", "check-lemma2", "check-metric"])
    def test_stdout_is_pinned(self, capsys, argv, code, pinned):
        assert run_cli(capsys, *argv) == (code, pinned, "")


def write_tall_csv(path: Path) -> str:
    # 4 096 rows x 10 columns, column i with i % 8 + 1 symbols (c0 and c8 constant)
    rng = random.Random(0)
    ks = [i % 8 + 1 for i in range(10)]
    rows = [[f"s{rng.randrange(k)}" for k in ks] for _ in range(4096)]
    path.write_text("\n".join(",".join(row) for row in [[f"c{i}" for i in range(10)], *rows])
                    + "\n", encoding="utf-8")
    return str(path)


def write_wide_csv(path: Path) -> str:
    # 500 rows x 10 columns of 100 symbols each, so most contingency cells of a
    # column pair hold one row; every fifth symbol holds the escaped characters
    # \ , ( ) and non-ASCII text
    rng = random.Random(0)
    symbols = [f"w{j}" if j % 5 else f"ž({j}),\\" for j in range(100)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([f"c{i}" for i in range(10)])
    writer.writerows([rng.choice(symbols) for _ in range(10)] for _ in range(500))
    path.write_text(buffer.getvalue(), encoding="utf-8")
    return str(path)


class TestStdoutDigests:
    # the sha256 of stdout, with the exit code, on runs too long to pin as text:
    # three-way cell keys at 16 384 rows, re-packed keys on a wide alphabet, the
    # default lemma2 population, a 10-column monoid run whose 100 ordered
    # pairs per dataset overflow the join store, the population-shaped
    # monoid run whose monoid and contractivity checks share their joins, and
    # two runs whose conditional entropies count cells from block bitmasks: a
    # tall few-symbol table, and the demo's datasets of 4 to 4 096 rows, which
    # cross the bitmask route's row bound; the CSV that joint writes for that
    # tall table, whose joint labels hold the delimiter, so every joint field is
    # quoted; and a wide 100-symbol table, whose tallied cells mostly hold one
    # row and whose joint labels escape \ , ( ) inside their parts
    @pytest.mark.parametrize("argv, digest", [
        (["check-lemma2", "--random", "1", "--rows", "16384", "16384", "--columns", "8"],
         "0d2f3db9bf65fc9a2c2e1f4f13a38adc4fd6e7d6b8123c8d376c3fd2c024be50"),
        (["check-lemma2", "--random", "100", "--rows", "12", "12", "--columns", "4",
          "--alphabet", "8", "12"],
         "552ddd0aeed2f4e574d54442240b1c440c1d27315e6114055c50e637e98a8e69"),
        (["check-lemma2", "--random", "200", "--columns", "5"],
         "77aa141591ac2ee473a77b5a1094538939fbf456bd03e596187763d17880457f"),
        (["check-monoid", "--random", "20", "--columns", "10"],
         "136eeec34d81314bfb31098314368d6c7ce48855ffd515db43dc8f6f6f97ba93"),
        (["check-monoid", "--random", "200", "--columns", "5"],
         "e1dcfd342c461efd0894c4eadf7ddcf3b3c3d39a03043b9d12d9ea4670796464"),
        (["dist", "--full", "TALL_CSV"],
         "9b35fc4120f2907e5961e9f76ac881d3e68ac2650b0c0c6ba01be40fab13ebc9"),
        (["joint", "TALL_CSV", "c1", "c2"],
         "3cd8ebef155509521f59da8e5e8722acad36e6041163649eeef8decfaa5a844d"),
        (["joint", "TALL_CSV", "c1", "c2", "c3"],
         "4d9f2f0bb2ae9dce3cb9718b06ae0b64595aa9b54291a82a7b5a8515a37bb590"),
        (["demo-nondiscrete", "--steps", "11", "--full"],
         "f0a3099244737a57bdaab6d68ec3132abc1a9aac1901de77b88722b07074d536"),
        (["dist", "--full", "WIDE_CSV"],
         "a523e5c38b3271ed8b042596036dcb74cbe5efc49786c29f4cef5ac99d2d5926"),
        (["joint", "WIDE_CSV", "c0", "c1"],
         "b0faca2dfda1b895928bcc9727f6537272c99bde9b2260761390909eeed767cf"),
    ], ids=["lemma2-16384-rows", "lemma2-wide-alphabet", "lemma2-random-200",
            "monoid-random-20-columns-10", "monoid-random-200", "dist-tall-4096-rows",
            "joint-tall-4096-rows", "joint-of-three-tall-4096-rows", "demo-nondiscrete-11-steps",
            "dist-wide-500-rows", "joint-wide-500-rows"])
    def test_stdout_digest_is_pinned(self, capsys, tmp_path, argv, digest):
        writers = {"TALL_CSV": write_tall_csv, "WIDE_CSV": write_wide_csv}
        argv = [writers[a](tmp_path / "table.csv") if a in writers else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


class TestCheckLemma2:
    def test_fixture_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-lemma2", FIXTURE)
        assert code == 0
        assert "overall: PASS" in out
        assert "chain_rule" in out
        assert "checked=216" in out
        assert "failures=0" in out

    def test_counterexample_dataset_passes(self, capsys, counterexample_csv):
        code, out, _ = run_cli(capsys, "check-lemma2", counterexample_csv)
        assert code == 0
        assert "overall: PASS" in out

    def test_broken_kernel_fails_with_witness_lines(self, capsys, monkeypatch, internship):
        # an offset on H(a | b) of two columns, for fine a, breaks the chain rule
        # on some triples; the dataset route takes its join-side entropies from
        # a three-way table, so only column pairs go through the patched kernel
        # on both routes; the package re-exports the function ``entropy`` under
        # the module's name
        entropy_module = importlib.import_module("catent.entropy")
        real = entropy_module.conditional_entropy

        def skewed(a, b):
            columns = a._pairs is not None and b._pairs is not None
            return real(a, b) + (0.5 if columns and a.n_blocks > 3 else 0.0)

        monkeypatch.setattr(entropy_module, "conditional_entropy", skewed)
        monkeypatch.setattr(importlib.import_module("catent.metric"),
                            "conditional_entropy", skewed)
        parts = {nm: induced_partition(internship[nm], internship) for nm in internship.names}
        failing = sum(
            not check_conditional_entropy_laws(*(parts[nm] for nm in triple))
            .clause("chain_rule").passed
            for triple in itertools.product(internship.names, repeat=3)
        )
        assert 0 < failing < 216

        code, out, _ = run_cli(capsys, "check-lemma2", FIXTURE)
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "overall: FAIL"
        assert f"chain_rule            checked=216 nonvacuous=216 failures={failing}" in lines
        assert any(
            line.startswith(f"violation in dataset[{FIXTURE}] chain_rule: witness=")
            for line in lines
        )

    def test_refined_mode_exercises_coarsening(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-lemma2", "--random", "4", "--mode", "refined"
        )
        assert code == 0
        line = next(
            ln for ln in out.splitlines() if ln.startswith("coarsening_monotone")
        )
        nonvacuous = int(line.split("nonvacuous=")[1].split()[0])
        assert nonvacuous > 0


class TestDemoNondiscrete:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(capsys, "demo-nondiscrete", "--steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n\tepsilon\tdistance"
        assert lines[1] == "4\t0.2500\t0.6563"
        assert lines[2] == "8\t0.1250\t0.4384"
        assert lines[3].startswith("16\t")

    def test_full_precision(self, capsys):
        code, out, _ = run_cli(capsys, "demo-nondiscrete", "--steps", "1", "--full")
        assert code == 0
        assert "0.656288981514549" in out

    def test_invalid_steps(self, capsys):
        code, _, err = run_cli(capsys, "demo-nondiscrete", "--steps", "0")
        assert code == 2
        assert err.startswith("error:")

    def test_steps_above_cap_is_bad_input(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(Dataset, "from_columns", refuse)
        code, out, err = run_cli(
            capsys, "demo-nondiscrete", "--steps", str(MAX_DEMO_STEPS + 1)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


# one valid invocation of every subcommand
INVOCATIONS = {
    "su": ["su", FIXTURE, "Creativity", "GotHired"],
    "rank": ["rank", FIXTURE, "GotHired"],
    "dist": ["dist", FIXTURE],
    "demo-nondiscrete": ["demo-nondiscrete", "--steps", "1"],
    "joint": ["joint", FIXTURE, "Neatness", "GotHired"],
    "classes": ["classes", FIXTURE],
    "check-metric": ["check-metric", FIXTURE],
    "check-monoid": ["check-monoid", FIXTURE],
    "check-lemma2": ["check-lemma2", FIXTURE],
}
PRINTS_FLOATS = ("su", "rank", "dist", "demo-nondiscrete")


class TestFullFlag:
    @pytest.mark.parametrize("command", sorted(INVOCATIONS))
    def test_only_commands_that_print_floats_take_it(self, capsys, command):
        code, out, err = run_cli(capsys, *INVOCATIONS[command], "--full")
        if command in PRINTS_FLOATS:
            assert code == 0 and out
        else:
            assert code == 2
            assert out == "" and "unrecognized arguments: --full" in err


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "su" in out and "check-metric" in out

    def test_line_break_delimiter_is_bad_input(self, capsys, tmp_path):
        p = tmp_path / "ab.csv"
        p.write_text("a\nb\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "dist", str(p), "--delimiter", "\n")
        assert code == 2
        assert out == "" and "quote or a line break" in err

    def test_drop_na_and_delimiter_flags(self, capsys, tmp_path):
        p = tmp_path / "semi.csv"
        p.write_text("a;b\nx;p\n;q\nx;p\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "su", str(p), "a", "b", "--delimiter", ";", "--drop-na"
        )
        assert code == 0
        assert "SU" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "catent.cli",
             "su", FIXTURE, "Creativity", "GotHired"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 0
        assert "0.4627" in proc.stdout

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_neither_error_nor_violation(self, unbuffered):
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "catent.cli",
                 "check-lemma2", "--random", "3", "--columns", "3"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode not in (0, 1, 2)

    def test_cli_import_leaves_numpy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, catent.cli; print(sorted(sys.modules))"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "'catent.cli'" in proc.stdout
        assert "'numpy'" not in proc.stdout

    def test_cli_import_leaves_slow_stdlib_modules_unloaded(self):
        # -S: no site hook may preload one of them and so mask catent's import;
        # PYTHONPATH still puts src first on sys.path
        proc = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, catent.cli; print(sorted(sys.modules))"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "'catent.cli'" in proc.stdout
        for module in ("dataclasses", "inspect", "json", "importlib.resources"):
            assert f"'{module}'" not in proc.stdout, module

    def test_no_runtime_dependency_declared(self):
        tomllib = pytest.importorskip("tomllib")
        with (ROOT / "pyproject.toml").open("rb") as fh:
            assert tomllib.load(fh)["project"].get("dependencies", []) == []

    def test_console_script_declared(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = ROOT / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["catent"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main

    @pytest.mark.skipif(
        shutil.which("catent") is None,
        reason="the catent console script is not installed on PATH",
    )
    def test_console_script_installed(self):
        proc = subprocess.run(
            ["catent", "demo-nondiscrete", "--steps", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n\tepsilon\tdistance")
