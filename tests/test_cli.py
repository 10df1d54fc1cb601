import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import CoarseContext, EpsilonGrowth, parse_rational
from coarsesum import cli
from coarsesum.cli import _read_values, build_parser, main


def stdin_of(text):
    """A stand-in for ``sys.stdin`` that reads ``text``: a text stream over bytes that, as
    stdin does, ends a line at ``\\n`` alone until it is reconfigured."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="\n")


def run(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", stdin_of(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- partition

FIB_TABLE = """\
cell  interval  rep  margin+  margin-
1     {0}       0    0        0
2     {1}       1    0        0
3     {2..3}    2    1        0
4     {4..6}    5    1        1
5     {7..11}   9    2        2
6     {12..19}  15   4        3
"""

EPS10_TABLE = """\
cell  interval    rep   margin+  margin-
1     [0, 0.5]    0.25  0.25     0.25
2     (0.5, 0.7]  0.6   0.1      0.1
3     (0.7, 1]    0.85  0.15     0.15
"""


def test_partition_table_fibonacci(capsys):
    code, out, _ = run(["partition", "--fibonacci", "--cells", "6"], capsys)
    assert code == 0
    assert out == FIB_TABLE


def test_partition_table_eps(capsys):
    code, out, _ = run(["partition", "--eps", "10", "--cells", "3"], capsys)
    assert code == 0
    assert out == EPS10_TABLE


def test_partition_table_fixed_width(capsys):
    code, out, _ = run(["partition", "--width", "3", "--cells", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["1", "{0..2}", "1", "1", "1"]
    assert lines[4].split() == ["4", "{9..11}", "10", "1", "1"]


def test_partition_table_grid(capsys):
    code, out, _ = run(["partition", "--grid", "1/2", "--cells", "3"], capsys)
    assert code == 0
    assert "[0.5, 0.5]" in out and "margin+" in out


def test_partition_rep_policy_flag(capsys):
    code, out, _ = run(["partition", "--fibonacci", "--cells", "6", "--rep", "max"],
                       capsys)
    assert code == 0
    row6 = out.splitlines()[6].split()
    assert row6 == ["6", "{12..19}", "19", "0", "7"]


def test_partition_json(capsys):
    code, out, _ = run(["partition", "--eps", "10", "--cells", "3", "--format", "json"],
                       capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 3
    assert rows[0] == {"index": 1, "lower": "0/1", "upper": "1/2",
                       "lower_closed": True, "upper_closed": True,
                       "rep": "1/4", "margin_pos": "1/4", "margin_neg": "1/4"}
    assert rows[1]["lower_closed"] is False


def test_partition_csv(capsys):
    code, out, _ = run(["partition", "--fibonacci", "--cells", "4", "--format", "csv"],
                       capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,lower,upper,lower_closed,upper_closed,rep,margin_pos,margin_neg"
    assert lines[1] == "1,0/1,0/1,true,true,0/1,0/1,0/1"
    assert lines[3] == "3,2/1,3/1,true,true,2/1,1/1,0/1"


def test_partition_bounds_with_domain(capsys):
    code, out, _ = run(["partition", "--bounds", "0,3,6,17", "--cells", "3"], capsys)
    assert code == 0
    assert "{6..16}" in out
    code, out, _ = run(["partition", "--bounds", "0,1/2,2", "--domain", "real",
                        "--cells", "2"], capsys)
    assert code == 0
    assert "(0.5, 2]" in out


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_partition_prints_all_of_a_layout_shorter_than_cells(fmt, capsys):
    code, out, err = run(["partition", "--bounds", "0,3,6", "--format", fmt], capsys)
    _, full, _ = run(["partition", "--bounds", "0,3,6", "--cells", "2", "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out == full
    if fmt == "table":
        assert out == ("cell  interval  rep  margin+  margin-\n"
                       "1     {0..2}    1    1        1\n"
                       "2     {3..5}    4    1        1\n")


FAMILY_FLAGS = {
    "width": ["--width", "3"], "fibonacci": ["--fibonacci"], "eps": ["--eps", "1/3"],
    "bounds": ["--bounds", "-4,1,2,9,30"],
    "bounds-real": ["--bounds", "0,1/2,1,7/3,10", "--domain", "real"], "grid": ["--grid", "3/4"],
}
#: Min is refused on the families whose cells are open below, and accepted on the rest.
OPEN_BELOW = {"eps": "EpsilonGrowth", "bounds-real": "ExplicitBounds"}


@pytest.mark.parametrize("family, rep", [
    pytest.param(family, rep, id=f"{family}-{rep}") for rep in ("median", "min", "max")
    for family in FAMILY_FLAGS if not (rep == "min" and family in OPEN_BELOW)])
def test_partition_csv_and_json_agree_cell_by_cell(family, rep, capsys,
                                                   assert_csv_matches_json):
    argv = ["partition", *FAMILY_FLAGS[family], "--rep", rep, "--cells", "4", "--format"]
    _, csv_out, _ = run(argv + ["csv"], capsys)
    _, json_out, _ = run(argv + ["json"], capsys)
    assert_csv_matches_json(csv_out, json_out)


@pytest.mark.parametrize("command", [["partition"], ["fold"], ["inert", "--const", "3/5"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("family, name", [
    (["--eps", "10"], "EpsilonGrowth"),
    *((FAMILY_FLAGS[family], name) for family, name in OPEN_BELOW.items())],
    ids=["eps-10", *OPEN_BELOW])
def test_min_is_refused_where_cells_are_open_below(command, family, name, capsys, monkeypatch):
    code, out, err = run([command[0], *family, "--rep", "min", *command[1:]], capsys,
                         monkeypatch, stdin_text="3/5\n3/5\n3/10\n")
    assert (code, out) == (1, "")
    assert err == (f"error: policy: min is refused on {name}, whose cells are open below: "
                   "a cell's infimum lies in the cell below\n")


@pytest.mark.parametrize("argv, error", [
    (["partition", "--eps", "abc"], "epsilon: not a rational number: 'abc'"),
    (["partition", "--grid", "1/0"], "step: not a rational number: '1/0'"),
    (["partition", "--bounds", "0,1,x"], "bounds: not a rational number: 'x'"),
    (["stpete", "--eps", "abc"], "epsilon: not a rational number: 'abc'"),
    (["stpete", "--eps", "abc", "--trials", "3"], "epsilon: not a rational number: 'abc'"),
    (["partition", "--width", "abc"], "width: must be a positive integer, got 'abc'"),
    (["partition", "--width", "3/1"], "width: must be a positive integer, got '3/1'"),
    (["inert", "--eps", "10", "--const", "abc"], "constant: not a rational number: 'abc'"),
    (["inert", "--eps", "10", "--harmonic", "--bound", "abc"],
     "increment_bound: not a rational number: 'abc'"),
    (["inert", "--eps", "10", "--geometric", "1", "abc"], "ratio: not a rational number: 'abc'"),
    (["inert", "--eps", "10", "--geometric", "abc", "1/2"],
     "coefficient: not a rational number: 'abc'")],
    ids=["eps", "grid", "bounds", "stpete", "stpete-trials", "width", "width-ratio", "const",
         "bound", "geometric-ratio", "geometric-coefficient"])
def test_bad_family_flag_text_names_its_field(argv, error, capsys):
    assert run(argv, capsys) == (1, "", f"error: {error}\n")


# --------------------------------------------------------------------- fold

FOLD_TABLE = """\
n  x  x_cell  s   s_cell  absorbed
1  4  2       4   2       no
2  4  2       11  3       no
3  4  2       11  3       yes
4  4  2       11  3       yes
"""


def test_fold_from_stdin(capsys, monkeypatch):
    code, out, _ = run(["fold", "--bounds", "0,3,6,17"], capsys, monkeypatch,
                       stdin_text="4\n4\n4\n4\n")
    assert code == 0
    assert out == FOLD_TABLE


def test_fold_from_file_with_comments(tmp_path, capsys):
    f = tmp_path / "values.txt"
    f.write_text("# a comment\n\n4\n  4\n\n# trailing\n4\n4\n")
    code, out, _ = run(["fold", "--bounds", "0,3,6,17", "--input", str(f)], capsys)
    assert code == 0
    assert out == FOLD_TABLE


def test_fold_json_round_trips(tmp_path, capsys, assert_json_rows_match_steps):
    f = tmp_path / "values.txt"
    f.write_text("1/2\n1/3\n1/7\n")
    code, out, _ = run(["fold", "--eps", "10", "--input", str(f), "--format", "json"],
                       capsys)
    assert code == 0
    trace = CoarseContext(EpsilonGrowth(10)).fold([F(1, 2), F(1, 3), F(1, 7)])
    assert_json_rows_match_steps(out.strip(), trace)
    # every operand collapses to 1/4 before adding, and each sum 1/2 re-collapses
    assert [s.s for s in trace] == [F(1, 2), F(1, 4), F(1, 4)]
    code, csv_out, _ = run(["fold", "--eps", "10", "--input", str(f),
                            "--format", "csv"], capsys)
    assert code == 0
    assert csv_out.strip() == trace.to_csv().strip()


def test_fold_parse_error_names_the_line(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("1\nnot-a-number\n")
    code, out, err = run(["fold", "--fibonacci", "--input", str(f)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2:")


def test_fold_empty_input_is_an_error(capsys, monkeypatch):
    code, _, err = run(["fold", "--fibonacci"], capsys, monkeypatch,
                       stdin_text="# only comments\n\n")
    assert code == 1
    assert "no numbers in input" in err


def test_fold_missing_file_is_an_error(capsys):
    code, _, err = run(["fold", "--fibonacci", "--input", "/nonexistent/x.txt"],
                       capsys)
    assert code == 1
    assert err.startswith("error:")


def test_fold_out_of_range_reports_the_step(capsys, monkeypatch):
    code, _, err = run(["fold", "--bounds", "0,3,6,17"], capsys, monkeypatch,
                       stdin_text="10\n10\n10\n")
    assert code == 1
    assert "step 2" in err


def test_fold_below_the_origin_reports_the_step(capsys, monkeypatch):
    code, _, err = run(["fold", "--bounds=-4,1,2,9,30", "--rep", "min"], capsys, monkeypatch,
                       stdin_text="-4\n-4\n")
    assert code == 1
    assert err == "error: step 2: -8 is below the partition origin -4\n"


def test_fold_below_a_real_origin_is_an_error(capsys, monkeypatch):
    code, out, err = run(["fold", "--bounds", "0,1,2", "--domain", "real"], capsys, monkeypatch,
                         stdin_text="-1/10\n")
    assert (code, out) == (1, "")
    assert err == "error: step 1: -1/10 is below the partition origin 0\n"


@pytest.mark.parametrize("flags, value, shown", [
    (["--grid", "1/3"], f"{10**400}/3", "3.33333e+399"),                      # above floats
    (["--bounds", "-1,1", "--domain", "real"], f"-1/{3**700}", "-1.03543e-334"),  # below them
], ids=["huge", "tiny-negative"])
def test_fold_table_renders_values_past_float_range(flags, value, shown, capsys, monkeypatch):
    code, out, err = run(["fold", *flags], capsys, monkeypatch, stdin_text=value + "\n")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split()[1] == shown


def test_fold_into_a_closed_pipe_ends_quietly(tmp_path):
    # far more rows than a pipe buffers, so the writer is still writing when
    # the reader leaves
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{i}\n" for i in range(1, 20001)))
    proc = subprocess.Popen([sys.executable, "-m", "coarsesum.cli", "fold", "--width", "7",
                             "--input", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().split()[0] == b"n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def reference_read(text):
    """The numbers of an input text, each line parsed on its own, or the error text."""
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            try:
                values.append(parse_rational(stripped))
            except ValueError as exc:
                return f"line {lineno}: {exc}"
    return values or "no numbers in input"


LINES = ["1/2", " 1/2", "0.5", "3", "3 ", "007", "2/4", "", "   ", "# note", "#1/2",
         "x", "1/0", "-4"]


@settings(max_examples=300)
@given(lines=st.lists(st.sampled_from(LINES), max_size=30))
def test_read_values_parses_each_text_once_with_the_same_values(lines):
    text = "\n".join(lines)
    with mock.patch.object(sys, "stdin", stdin_of(text)):
        try:
            got = _read_values("-")
        except ValueError as exc:
            got = str(exc)
    assert got == reference_read(text)
    if isinstance(got, list):
        assert all(type(v) is F for v in got)
        kept = [t for t in map(str.strip, lines) if t and not t.startswith("#")]
        by_text = {}   # a repeated text reads back as one object
        for line, value in zip(kept, got):
            assert by_text.setdefault(line, value) is value


def test_a_repeated_bad_line_names_its_first_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1\nx\n2\nx\n")
    code, _, err = run(["fold", "--width", "3", "--input", str(path)], capsys)
    assert code == 1
    assert err == "error: line 2: not a rational number: 'x'\n"


# -------------------------------------------------------------------- inert

def test_inert_certified_json(capsys):
    code, out, _ = run(["inert", "--eps", "10", "--const", "1/2", "--bound", "1/2"],
                       capsys)
    # the fold's own verdict: 1/4 + 1/4 stays in cell 1 = c*(1/2) from step 2
    assert code == 0
    assert json.loads(out) == {"outcome": "inert", "N": 2, "cell": 1,
                               "value": "1/4", "horizon": 1000, "certified": True}


def test_inert_observed_without_bound(capsys):
    code, out, _ = run(["inert", "--eps", "10", "--const", "1/2"], capsys)
    assert code == 0
    assert json.loads(out) == {"outcome": "inert", "N": 2, "cell": 1,
                               "value": "1/4", "horizon": 1000, "certified": False}


def test_inert_table_format(capsys):
    code, out, _ = run(["inert", "--eps", "10", "--const", "1/2", "--bound", "1/2",
                        "--format", "table"], capsys)
    assert code == 0
    assert out == "inert at cell 1 from step 2, value 0.25 (certified)\n"


def test_inert_no_verdict_exits_three(capsys):
    code, out, _ = run(["inert", "--grid", "1/2", "--const", "1/2",
                        "--horizon", "50"], capsys)
    assert code == 3
    d = json.loads(out)
    assert d["outcome"] == "no_verdict" and d["horizon"] == 50


def test_inert_no_verdict_table(capsys):
    code, out, _ = run(["inert", "--grid", "1", "--const", "1", "--horizon", "9",
                        "--format", "table"], capsys)
    assert code == 3
    assert out == "no verdict after 9 steps\n"


def test_inert_harmonic(capsys):
    code, out, _ = run(["inert", "--eps", "4", "--harmonic", "--horizon", "100"],
                       capsys)
    assert code == 0
    d = json.loads(out)
    assert (d["N"], d["cell"], d["value"]) == (2, 2, "3/4")


def test_inert_geometric_with_bound(capsys):
    code, out, _ = run(["inert", "--eps", "10", "--geometric", "1", "1/2",
                        "--bound", "1/2"], capsys)
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_inert_from_file_clamps_horizon(tmp_path, capsys):
    f = tmp_path / "stream.txt"
    f.write_text("4\n4\n4\n4\n4\n")
    code, out, _ = run(["inert", "--bounds", "0,3,6,17", "--from-file", str(f)],
                       capsys)
    assert code == 0
    d = json.loads(out)
    assert (d["N"], d["cell"], d["value"], d["horizon"]) == (2, 3, "11/1", 5)


@pytest.mark.parametrize("tail", ["", "not a number\n", "# a comment\n\n1/0\n"],
                         ids=["whole", "malformed", "comment-then-malformed"])
def test_inert_from_file_parses_no_line_past_the_horizon(tail, tmp_path, capsys):
    # The verdict is that of the fold of the first two values, judged to a horizon of 2;
    # no line after the second value is parsed, so a malformed one there fails nothing.
    from coarsesum import detect_inert_trace
    path = tmp_path / "stream.txt"
    path.write_text("# two values, then the tail\n1/4\n\n1/4\n" + tail)
    code, out, err = run(["inert", "--eps", "10", "--from-file", str(path),
                          "--horizon", "2"], capsys)
    want = detect_inert_trace(CoarseContext(EpsilonGrowth(10)).fold([F(1, 4)] * 2))
    assert (code, err, json.loads(out)) == (0, "", want.to_json_dict())
    assert want.n_stable == 1
    assert _read_values(str(path), 2) == [F(1, 4)] * 2
    if tail:  # read to its end, the file fails at its malformed line
        with pytest.raises(ValueError, match="line (5|7): not a rational"):
            _read_values(str(path))


def test_inert_from_file_reads_no_line_past_the_horizon(tmp_path, capsys):
    # two values, then more than 64 KB of valid lines, then a byte that is not UTF-8:
    # the file is read as its lines are asked for, so the bad byte is never decoded
    from coarsesum import detect_inert_trace
    path = tmp_path / "stream.txt"
    path.write_bytes(b"1/4\n1/4\n" + b"1/3\n" * 20_000 + b"\xff\n")
    argv = ["inert", "--eps", "10", "--from-file", str(path)]
    code, out, err = run([*argv, "--horizon", "2"], capsys)
    want = detect_inert_trace(CoarseContext(EpsilonGrowth(10)).fold([F(1, 4)] * 2))
    assert (code, err, json.loads(out)) == (0, "", want.to_json_dict())
    code, out, err = run([*argv, "--horizon", "30000"], capsys)   # read to the bad byte
    assert (code, out) == (1, "") and "can't decode byte 0xff" in err


def test_inert_from_stdin_reads_to_its_horizon_and_leaves_stdin_open(capsys, monkeypatch):
    stream = stdin_of("1/4\n1/4\n5\n")
    monkeypatch.setattr(sys, "stdin", stream)
    code, out, _ = run(["inert", "--eps", "10", "--from-file", "-", "--horizon", "2"], capsys)
    assert (code, json.loads(out)["horizon"]) == (0, 2)
    assert not stream.closed and stream.read() == "5\n"
    # a stand-in stream that cannot be reconfigured is read as it is
    monkeypatch.setattr(sys, "stdin", io.StringIO("1/4\n1/4\n"))
    code, out, _ = run(["inert", "--eps", "10", "--from-file", "-"], capsys)
    assert (code, json.loads(out)["N"]) == (0, 1)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_line_ends_at_lf_crlf_or_cr_in_a_file_and_on_stdin(newline, tmp_path, monkeypatch):
    text = newline.join(["1/2", "", "# a comment", " 3 ", "x"]) + newline
    path = tmp_path / "values.txt"
    path.write_bytes(text.encode())
    for source in (str(path), "-"):
        monkeypatch.setattr(sys, "stdin", stdin_of(text))
        assert _read_values(source, 2) == [F(1, 2), F(3)]
        monkeypatch.setattr(sys, "stdin", stdin_of(text))
        with pytest.raises(ValueError, match="^line 5: not a rational"):
            _read_values(source)


@pytest.mark.parametrize("lines, bound", [
    (["1/2", "1/2", "5", "1/2"], F(5)),      # the largest value comes after the sum stood still
    (["0", "0"], F(0)),
    (["1/2", "-1/3", "1/2"], None),          # a value below 0: no mark, read to the horizon
], ids=["late-maximum", "zeros", "negative"])
def test_inert_marks_a_file_of_values_at_or_above_zero_with_its_largest(
        lines, bound, tmp_path, capsys, monkeypatch):
    from coarsesum import inertness
    marks, judge = [], inertness.detect_inert_stream
    monkeypatch.setattr(inertness, "detect_inert_stream", lambda ctx, gen, *args, **kw: (
        marks.append(getattr(gen, "bound", None)) or judge(ctx, gen, *args, **kw)))
    path = tmp_path / "stream.txt"
    path.write_text("".join(f"{line}\n" for line in lines))
    code, out, _ = run(["inert", "--bounds", "-1,1,3,60", "--domain", "real",
                        "--from-file", str(path)], capsys)
    assert marks == [bound]
    ctx = CoarseContext(cli.partitions.ExplicitBounds(["-1", "1", "3", "60"], "real"))
    verdict = inertness.detect_inert_trace(ctx.fold(list(map(parse_rational, lines))))
    assert (code, json.loads(out)) == (0 if verdict.inert else 3, verdict.to_json_dict())


def test_inert_domain_error_exits_one(capsys):
    code, _, err = run(["inert", "--fibonacci", "--const", "-1", "--horizon", "5"],
                       capsys)
    assert code == 1
    assert err.startswith("error:")


# A certificate promises where the sums stay, so --bound must hold for every
# value the stream gives; these streams leave [0, B] somewhere.
@pytest.mark.parametrize("stream, bound", [
    (["--const", "5"], "1/2"),                # above the bound
    (["--const=-1"], "1/2"),                  # below 0
    (["--const", "1/2"], "-1"),               # a bound below 0 holds for nothing
    (["--harmonic"], "1/2"),                  # the first value, 1, is above it
    (["--geometric", "1", "1/2"], "1/3"),     # the first value, 1/2, is above it
    (["--geometric", "1", "2"], "1"),         # climbs past any bound
    (["--geometric", "1", "-1"], "1"),        # the first value is negative
    (["--geometric", "-1", "-1"], "1"),       # the second value is negative
    (["--geometric", "-1", "1/2"], "1"),      # every value is negative
    (["--from-file", "hundreds"], "1/2"),     # a file of 100s
    (["--from-file", "late"], "1/2"),         # the second line, 100, is above it
], ids=["const-above", "const-negative", "bound-negative", "harmonic", "geometric-above",
        "geometric-climbing", "geometric-ratio-negative", "geometric-alternating",
        "geometric-negative", "file", "file-late"])
def test_inert_refuses_a_bound_the_stream_breaks(stream, bound, tmp_path, capsys):
    (tmp_path / "hundreds").write_text("100\n100\n100\n")
    (tmp_path / "late").write_text("1/2\n100\n")
    if stream[0] == "--from-file":
        stream = ["--from-file", str(tmp_path / stream[1])]
    code, out, err = run(["inert", "--eps", "10", *stream, f"--bound={bound}",
                          "--format", "table"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: increment bound {bound} does not hold for this stream\n"


@pytest.mark.parametrize("stream, bound", [
    (["--const", "1/2"], "1/2"),
    (["--harmonic"], "1"),
    (["--geometric", "1", "1/2"], "1/2"),
    (["--geometric", "0", "3"], "0"),
    (["--from-file", "late", "--horizon", "2"], "1/2"),  # the 100 lies past the horizon
], ids=["const", "harmonic", "geometric", "geometric-zero", "file-horizon"])
def test_inert_certifies_a_bound_that_holds_at_its_edge(stream, bound, tmp_path, capsys):
    (tmp_path / "late").write_text("1/2\n1/2\n100\n")
    if stream[0] == "--from-file":
        stream = ["--from-file", str(tmp_path / stream[1]), *stream[2:]]
    code, out, err = run(["inert", "--eps", "10", *stream, "--bound", bound], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["certified"] is True


def test_inert_checks_a_files_bound_on_its_values_up_to_the_horizon(tmp_path, capsys):
    path = tmp_path / "late.txt"
    path.write_text("1/2\n1/2\n5\n" + "1/2\n" * 20)
    argv = ["inert", "--eps", "10", "--from-file", str(path), "--bound", "1/2"]
    code, out, err = run([*argv, "--horizon", "2"], capsys)
    assert (code, err) == (0, "")   # the 5 lies past the horizon
    # step 2's sum lies in c*(1/2) = cell 1: a proof at the horizon's own step certifies
    assert json.loads(out) == {"outcome": "inert", "N": 2, "cell": 1, "value": "1/4",
                               "horizon": 2, "certified": True}
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: increment bound 1/2 does not hold for this stream\n"


@pytest.mark.parametrize("family", [["--width", "100"], ["--fibonacci"]], ids=["width", "fib"])
def test_a_bound_never_hides_a_step_that_fails(family, capsys):
    # an integer family is read on past any proof: the 1/2 of step 7 lies in no cell
    stream = ["inert", *family, "--geometric", "64", "1/2"]
    for bound in ([], ["--bound", "64"]):
        assert run([*stream, *bound], capsys) == (1, "", "error: step 7: 1/2 is not an integer\n")


@pytest.mark.parametrize("values, first", [(["1", "-1/2"], "-1/2"), (["-1/2", "1/2"], "-1/4")],
                         ids=["ratio", "coefficient"])
def test_either_geometric_value_may_be_a_negative_rational(values, first, capsys):
    code, out, err = run(["inert", "--eps", "10", "--geometric", *values], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: step 1: {first} is below the partition origin 0\n"


def cli_process(*argv) -> subprocess.CompletedProcess:
    """``python -m coarsesum.cli`` with ``argv``, which fails if it runs past 10 s."""
    return subprocess.run([sys.executable, "-m", "coarsesum.cli", *argv], capture_output=True,
                          text=True, timeout=10)


# One rule ends each run: the fold stops at the first step after step 1 that proves every
# later sum, and with --bound that step certifies the fold's own N, cell and value.  A
# constant stream, a constant geometric one included, stops at its fixed point, whatever
# its bound: --const 1/2 --bound 100000 at step 2, and --const 1000 --bound 1000 after
# climbing 15366 steps.  A stream that states its top is checked against --bound by that
# value alone, and stops at its first absorbed step (here on EpsilonGrowth, with and
# without --bound).
@pytest.mark.parametrize("stream", [
    "--eps 10 --const 1/2", "--width 3 --geometric 1 1", "--eps 10 --harmonic --bound 1",
    "--eps 10 --const 1/2 --bound 1/2", "--eps 10 --geometric 1 1/2 --bound 1/2",
    "--width 3 --const 1 --bound 1", "--grid 1/2 --const 0 --bound 1/2", "--eps 10 --harmonic",
    "--eps 10 --geometric 5 1/2", "--eps 10 --const 1/2 --bound 100000",
    "--eps 10 --const 1000 --bound 1000"])
def test_a_horizon_of_1e9_steps_ends_at_once_with_the_verdict_of_20000(stream):
    long, short = (cli_process("inert", *stream.split(), "--horizon", horizon)
                   for horizon in ("1000000000", "20000"))
    assert (long.returncode, short.returncode) == (0, 0)
    long, short = json.loads(long.stdout), json.loads(short.stdout)
    assert (long.pop("horizon"), short.pop("horizon")) == (10**9, 20000)
    assert long == short


def test_a_file_of_1e5_values_stops_where_its_sum_cell_absorbs_its_largest(tmp_path):
    # values in (0, 1/2]: the whole file prints the N, cell and value of its own fold; at
    # --horizon 2 only its first two values are parsed, so a malformed third line
    # changes nothing, exit code included
    from coarsesum import detect_inert_trace
    r = random.Random(1)
    lines = [f"{r.randint(1, q // 2)}/{q}" for q in (r.randint(2, 9) for _ in range(100_000))]
    good, bad = tmp_path / "small.txt", tmp_path / "malformed.txt"
    good.write_text("".join(line + "\n" for line in lines))
    bad.write_text("".join(line + "\n" for line in [*lines[:2], "not a number", *lines[3:]]))
    ctx = CoarseContext(EpsilonGrowth(10))
    runs = {}
    for horizon, path in (("1000000000", good), ("2", good), ("2", bad)):
        proc = runs[horizon, path] = cli_process("inert", "--eps", "10", "--from-file", str(path),
                                                 "--horizon", horizon)
        values = list(map(parse_rational, lines[:int(horizon)]))
        want = detect_inert_trace(ctx.fold(values)).to_json_dict()
        got = json.loads(proc.stdout)
        assert proc.returncode == 0 and want["N"], horizon
        assert [got[k] for k in ("N", "cell", "value", "horizon")] == \
            [want[k] for k in ("N", "cell", "value", "horizon")], horizon
    assert runs["2", bad].stdout == runs["2", good].stdout


# ------------------------------------------------------------------- stpete

def test_stpete_table(capsys):
    code, out, _ = run(["stpete", "--eps", "10", "--depth", "100"], capsys)
    assert code == 0
    assert "doubling-gamble valuation  (eps = 10, depth = 100)" in out
    assert "classical sum of expected increments : 50" in out
    assert "absorbing cell (closed form)         : 6" in out
    assert "absorbing cell (margin scan)         : 6" in out
    assert "agreement                            : yes" in out
    assert "inert at cell 1 from step 2, value 0.25 (certified)" in out


def test_stpete_json(capsys):
    code, out, _ = run(["stpete", "--eps", "10", "--depth", "100",
                        "--format", "json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["cell_from_formula"] == d["cell_from_scan"] == 6 and d["agreement"] is True
    assert (d["verdict"]["N"], d["verdict"]["cell"], d["verdict"]["value"]) == (2, 1, "1/4")


def test_stpete_small_eps_reports_the_disagreement(capsys):
    # below 2 the report runs, and says that the closed form and the scan disagree
    code, out, err = run(["stpete", "--eps", "1"], capsys)
    assert (code, err) == (0, "")
    assert "absorbing cell (closed form)         : 1" in out
    assert "absorbing cell (margin scan)         : 2" in out
    assert "agreement                            : no" in out


@pytest.mark.parametrize("eps", ["0", "-1"])
def test_stpete_nonpositive_eps_gets_the_family_error(eps, capsys):
    assert run(["stpete", "--eps", eps], capsys) == (
        1, "", f"error: epsilon: must be positive, got {eps}\n")


@pytest.mark.parametrize("truncation", [16, 2])
def test_stpete_with_sampling(truncation, capsys):
    args = ["stpete", "--eps", "10", "--depth", "50", "--trials", "200",
            "--seed", "3", "--truncation", str(truncation)]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert "sampled payoffs: trials = 200, seed = 3, rng = numpy-philox4x64" in out
    assert f"truncation depth = {truncation}\n" in out
    counts = dict(pair.split(":") for pair in
                  re.search(r"round counts +: (.*)", out).group(1).split())
    assert {int(n) for n in counts} <= set(range(1, truncation + 1))
    assert sum(map(int, counts.values())) == 200
    assert "exact-addition control (singleton grid):" in out
    assert "no verdict after 50 steps" in out


def test_stpete_sampling_json(capsys):
    args = ["stpete", "--eps", "10", "--depth", "50", "--trials", "100",
            "--seed", "5", "--format", "json"]
    code, out, _ = run(args, capsys)
    assert code == 0
    d = json.loads(out)
    assert d["rng"] == "numpy-philox4x64"
    assert sum(d["sampled"]["round_counts"].values()) == 100
    assert d["classical"]["final_sum"] == "25/1"


def test_stpete_output_is_byte_deterministic(capsys):
    args = ["stpete", "--eps", "10", "--depth", "50", "--trials", "500",
            "--seed", "11"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


# ------------------------------------------------------------------ plumbing

def test_usage_errors_exit_two(capsys):
    for argv in (
        [],                                        # no subcommand
        ["partition"],                             # no partition flag
        ["partition", "--fibonacci", "--width", "3"],  # conflicting flags
        ["inert", "--fibonacci"],                  # no stream flag
        ["stpete"],                                # missing --eps
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize("argv, flag, value", [
    (["partition", "--width", "3", "--cells", "0"], "--cells", "'0'"),
    (["partition", "--width", "3", "--cells", "-2", "--format", "json"], "--cells", "'-2'"),
    (["stpete", "--eps", "10", "--depth", "0"], "--depth", "'0'"),
    (["stpete", "--eps", "10", "--depth", "-1", "--trials", "5"], "--depth", "'-1'"),
    (["inert", "--eps", "10", "--const", "1/2", "--horizon", "0"], "--horizon", "'0'"),
    (["inert", "--fibonacci", "--harmonic", "--horizon", "-3"], "--horizon", "'-3'"),
    (["inert", "--width", "3", "--const", "1", "--horizon", "1e3"], "--horizon", "'1e3'"),
    (["stpete", "--eps", "10", "--trials", "5", "--truncation", "0"], "--truncation", "'0'"),
    (["stpete", "--eps", "10", "--truncation", "x"], "--truncation", "'x'"),
])
def test_counts_below_one_are_usage_errors(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"argument {flag}: must be a positive integer, got {value}" in err


def test_negative_trials_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stpete", "--eps", "10", "--trials", "-5"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "argument --trials: must be a non-negative integer, got '-5'" in err
    # zero still skips sampling
    assert run(["stpete", "--eps", "10", "--trials", "0"], capsys) == run(
        ["stpete", "--eps", "10"], capsys)


@pytest.mark.parametrize("argv, flag, value, code", [
    (["fold"], "--bounds", "-4,1,2,9,30", 0),                   # a negative origin
    (["partition", "--domain", "real", "--cells", "2"], "--bounds", "-.5,1,2", 0),
    (["partition"], "--eps", "-1/2", 1),
    (["partition"], "--grid", "-1/3", 1),
    (["inert", "--bounds", "-4,1,2,9,30", "--horizon", "5"], "--const", "-1", 0),
    (["inert", "--width", "3"], "--const", "-1/2", 1),
    (["inert", "--eps", "10", "--const", "1/2"], "--bound", "-1", 1),
    (["stpete"], "--eps", "-1/2", 1),
])
def test_signed_flag_values_read_as_with_equals(argv, flag, value, code, capsys, monkeypatch):
    results = []
    for joined in ([flag, value], [f"{flag}={value}"]):
        monkeypatch.setattr(sys, "stdin", stdin_of("-4\n3\n3\n"))
        results.append(run([*argv, *joined], capsys))
    assert results[0] == results[1]
    assert results[0][0] == code


def test_parser_builds_all_subcommands():
    parser = build_parser()
    subactions = [a for a in parser._actions
                  if isinstance(a, pytest.importorskip("argparse")._SubParsersAction)]
    assert set(subactions[0].choices) == {"partition", "fold", "inert", "stpete"}


#: Flag values that argparse takes as values, as text flags take them: signed, ``-``, empty.
TEXT_VALUES = ["1/2", "-1/2", "-.5", "-", "3", "0", "-3", "", "abc", "-4,1,2", "0,3,6", "1 2"]
#: Values that some or all flags refuse, or that argparse reads as an option.
BAD_VALUES = ["-x", "-h", "--help", "--width", "--", "0", "-3", "x", "1e3", "xml", "-1 2"]
DAMAGE = [None, "value", "equals", "abbreviation", "repeat", "missing", "conflict", "unknown",
          "drop", "positional", "command"]


def valid_value(kw):
    if "choices" in kw:
        return st.sampled_from(kw["choices"])
    if kw.get("type") is int:
        return st.integers(-10**6, 10**6).map(str)
    if "type" in kw:  # a count: at least 1 passes every count flag
        return st.integers(1, 10**6).map(str) | st.sampled_from(["+7", " 7", "007", "1_0"])
    return st.sampled_from(TEXT_VALUES)


def flag_item(draw, flag, kw):
    """The flag and its values, each a valid one."""
    arity = 0 if "action" in kw else kw.get("nargs", 1)
    return [flag, *(draw(valid_value(kw)) for _ in range(arity))]


@st.composite
def command_argv(draw):
    """(argv, damage): a well-formed argv drawn from the flag table, then perhaps damaged."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[name][2]
    groups = {}
    for flag, group, kw in flags:
        groups.setdefault(group, []).append((flag, kw))
    chosen = [draw(st.sampled_from(members)) for group, members in groups.items() if group]
    chosen += [(f, kw) for f, kw in groups[None] if kw.get("required") or draw(st.booleans())]
    items = [flag_item(draw, f, kw) for f, kw in draw(st.permutations(chosen))]
    damage = draw(st.sampled_from(DAMAGE))
    table = {flag: kw for flag, _, kw in flags}
    at = draw(st.integers(0, len(items)))
    with_values = [item for item in items if len(item) > 1]
    if damage == "value" and with_values:
        item = draw(st.sampled_from(with_values))
        item[draw(st.integers(1, len(item) - 1))] = draw(st.sampled_from(BAD_VALUES))
    elif damage == "equals" and with_values:
        item = draw(st.sampled_from(with_values))
        item[:2] = [f"{item[0]}={item[1]}"]
    elif damage == "abbreviation":
        item = draw(st.sampled_from(items))
        item[0] = item[0][:draw(st.integers(3, len(item[0]) - 1))]
    elif damage == "repeat":
        flag = draw(st.sampled_from(items))[0]
        items.insert(at, flag_item(draw, flag, table[flag]))
    elif damage == "missing":
        flag = draw(st.sampled_from([f for f, kw in table.items() if "action" not in kw]))
        items.append(flag_item(draw, flag, table[flag])[:draw(st.integers(1, 2))])
    elif damage == "conflict" and len(groups) > 1:
        flag = draw(st.sampled_from([f for f, g, _ in flags if g]))
        items.insert(at, flag_item(draw, flag, table[flag]))
    elif damage == "unknown":
        items.insert(at, [draw(st.sampled_from(["--nope", "-h", "--help", "--", "-x"]))])
    elif damage == "drop":
        del items[draw(st.integers(0, len(items) - 1))]
    elif damage == "positional":
        items.insert(at, [draw(st.sampled_from(TEXT_VALUES))])
    elif damage == "command":
        name = draw(st.sampled_from(["", "nonsense", name[:3], "--help", *cli._COMMANDS]))
    argv = [name, *(token for item in items for token in item)]
    return (argv if name or damage != "command" else argv[1:]), damage


@settings(max_examples=600)
@given(case=command_argv())
def test_the_direct_reader_reads_argv_as_argparse_does(case):
    argv, damage = case
    got = cli._read_argv(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            want = vars(build_parser().parse_args(argv))
    except SystemExit:  # a usage error, or help: argparse's alone to print
        assert got is None
        return
    if damage is None:
        assert got is not None
    if got is not None:
        assert vars(got) == want


#: Runs ``python -m coarsesum.cli`` with the arguments that follow and prints, as the last
#: line of stderr, which modules of ``{watch}`` are loaded when it exits.  A command that
#: returns ends at ``os._exit``, which runs no atexit handler, so the probe prints at that
#: call, or at the ``SystemExit`` of help and usage errors.
LOADED_PROBE = """\
import os, runpy, sys
def loaded():
    print("loaded:", *sorted({watch!r} & set(sys.modules)), file=sys.stderr, flush=True)
exit_now = os._exit
os._exit = lambda code: (loaded(), exit_now(code))
try:
    runpy.run_module("coarsesum.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    loaded()
    raise
"""
ARGPARSE = {"argparse", "gettext"}
#: The module of each partition family, compiled only by a command that builds that family.
FAMILY_MODULES = {"FixedWidth": "coarsesum._fixed_width", "Fibonacci": "coarsesum._fibonacci",
                  "EpsilonGrowth": "coarsesum._epsilon_growth",
                  "ExplicitBounds": "coarsesum._explicit_bounds",
                  "SingletonGrid": "coarsesum._singleton_grid"}


def run_probe(*argv, watch=ARGPARSE):
    proc = subprocess.run([sys.executable, "-c", LOADED_PROBE.format(watch=set(watch)), *argv],
                          capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"})
    *err, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, "\n".join(err), loaded.split()[1:]


def test_well_formed_commands_never_load_argparse(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("1\n2\n3\n")
    for argv in (["partition", "--width", "3", "--cells", "1"],
                 ["fold", "--fibonacci", "--input", str(path), "--format", "json"],
                 ["inert", "--fibonacci", "--const", "3", "--bound", "3"],
                 ["stpete", "--eps", "10", "--depth", "20", "--trials", "30", "--format", "json"]):
        code, out, err, loaded = run_probe(*argv)
        assert (code, err, loaded) == (0, "", []), argv
        assert out


#: The module of the row writer, compiled only by the commands that write rows.
ROWS_MODULE = "coarsesum._rows"


def test_verdicts_and_reports_print_their_json_without_the_json_module_or_row_writer():
    for argv in (["inert", "--eps", "10", "--const", "1/2", "--format", "json"],
                 ["inert", "--eps", "10", "--const", "1/2", "--bound", "1/2"],
                 ["stpete", "--eps", "10", "--depth", "20", "--format", "json"],
                 ["stpete", "--eps", "10", "--depth", "20", "--trials", "30",
                  "--format", "json"]):
        code, out, err, loaded = run_probe(*argv, watch={"json", ROWS_MODULE})
        assert (code, err, loaded) == (0, "", []), argv
        assert json.loads(out)


def test_only_the_commands_that_write_rows_compile_the_row_writer(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("1\n2\n3\n")
    for argv in (["partition", "--width", "3", "--cells", "1"],
                 ["fold", "--fibonacci", "--input", str(path), "--format", "csv"]):
        code, out, err, loaded = run_probe(*argv, watch={ROWS_MODULE})
        assert (code, err, loaded) == (0, "", [ROWS_MODULE]), argv
    code, out, err, loaded = run_probe("inert", "--eps", "10", "--const", "1/2",
                                       "--format", "table", watch={ROWS_MODULE})
    assert (code, err, loaded) == (0, "", [])


def test_help_and_usage_errors_still_come_from_argparse(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_probe("--help") == (0, build_parser().format_help(), "", ["argparse", "gettext"])
    code, out, err, loaded = run_probe("partition", "--cells", "0", "--width", "3")
    assert (code, out, loaded) == (2, "", ["argparse", "gettext"])
    assert err.splitlines()[-1] == ("coarsesum partition: error: argument --cells: must be a "
                                    "positive integer, got '0'")


def test_a_command_compiles_its_own_family_alone_and_no_parser(tmp_path):
    import coarsesum
    assert {name: getattr(coarsesum, name).__module__ for name in FAMILY_MODULES} == FAMILY_MODULES
    path = tmp_path / "values.txt"
    path.write_text("1\n2\n3\n")
    watch = set(FAMILY_MODULES.values())
    for argv, family in ((["partition", "--width", "3", "--cells", "1"], "FixedWidth"),
                         (["partition", "--bounds", "0,2,5", "--format", "csv"], "ExplicitBounds"),
                         (["fold", "--fibonacci", "--input", str(path)], "Fibonacci"),
                         (["fold", "--grid", "1/2", "--input", str(path)], "SingletonGrid"),
                         (["inert", "--eps", "10", "--const", "3", "--bound", "3"],
                          "EpsilonGrowth"),
                         (["stpete", "--eps", "10", "--depth", "20"], "EpsilonGrowth")):
        code, out, err, loaded = run_probe(*argv, watch=watch)
        assert (code, err, loaded) == (0, "", [FAMILY_MODULES[family]]), argv
        assert out
    code, out, err, loaded = run_probe("partition", "--cells", "0", "--width", "3", watch=watch)
    assert (code, out, loaded) == (2, "", [])  # the parser is built in cli, with no family


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coarsesum.cli", "partition", "--fibonacci",
         "--cells", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].split() == ["1", "{0}", "0", "0", "0"]


def test_a_reader_that_leaves_early_ends_the_command_quietly(capsys):
    # 20000 rows are about 0.8 MB, far past a pipe's buffer, so a write meets the closed
    # pipe; what was still buffered is dropped, and the line the reader took is whole
    argv = ["partition", "--width", "3", "--cells", "20000"]
    proc = subprocess.Popen([sys.executable, "-m", "coarsesum.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")
    assert main(argv) == 0
    assert header.decode() == capsys.readouterr().out.splitlines(keepends=True)[0]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_freezes_nothing(enabled, tmp_path, capsys):
    # main leaves the collector as it found it, on or off; only run() freezes or turns it off
    path = tmp_path / "values.txt"
    path.write_text("1\n2\n")
    before, was = gc.get_freeze_count(), gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["partition", "--width", "3", "--cells", "1"]) == 0
        assert main(["fold", "--width", "3", "--input", str(path), "--format", "json"]) == 0
        assert main(["inert", "--eps", "4", "--harmonic"]) == 0
        assert main(["stpete", "--eps", "10", "--depth", "3"]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (before, enabled)
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_the_process_entry_freezes_the_import_heap():
    # the command ends at os._exit, so the probe reads the collector's state at that call;
    # the collector is off, and the freeze keeps the import heap out of the collection that
    # ends an exit through SystemExit
    probe = ("import gc, os, runpy, sys\n"
             "sys.argv = ['coarsesum', 'partition', '--width', '3', '--cells', '1']\n"
             "print('before', gc.isenabled(), gc.get_freeze_count(), file=sys.stderr)\n"
             "exit_now = os._exit\n"
             "def observe(code):\n"
             "    print('exit', code, 'enabled', gc.isenabled(), 'frozen',\n"
             "          gc.get_freeze_count(), file=sys.stderr, flush=True)\n"
             "    exit_now(code)\n"
             "os._exit = observe\n"
             "runpy.run_module('coarsesum.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert "before True 0\n" in proc.stderr
    assert int(re.search(r"^exit 0 enabled False frozen (\d+)$", proc.stderr, re.M).group(1)) > 0
    assert proc.stdout.splitlines()[1].split() == ["1", "{0..2}", "1", "1", "1"]


#: Every subcommand over every family and format, a stream read from a file, sampled
#: trials and a command that fails; ``{values}`` is a file of numbers.
_FAMILY_ARGS = [["--fibonacci"], ["--width", "3"], ["--eps", "10"], ["--grid", "1/2"],
                ["--bounds", "0,1,5,1000"], ["--bounds", "-1/2,1,5,1000", "--domain", "real"]]
_LEAK_ARGV = [
    *(["partition", *fam, "--cells", "30", "--format", fmt]
      for fam in _FAMILY_ARGS for fmt in ("table", "json", "csv")),
    *(["fold", *fam, "--input", "{values}", "--format", fmt]
      for fam in _FAMILY_ARGS for fmt in ("table", "json", "csv")),
    *(["inert", *fam, *stream, "--horizon", "50", "--format", fmt]
      for fam in _FAMILY_ARGS for fmt in ("json", "table")
      for stream in (["--const", "1"], ["--const", "1", "--bound", "1"])),
    ["inert", "--eps", "10", "--harmonic", "--bound", "1"],
    ["inert", "--eps", "10", "--from-file", "{values}"],
    *(["stpete", "--eps", "10", "--depth", "20", "--format", fmt] for fmt in ("table", "json")),
    ["stpete", "--eps", "10", "--depth", "20", "--trials", "200", "--seed", "3"],
    ["fold", "--eps", "abc", "--input", "{values}"]]


def test_main_leaves_no_cycle_for_the_collector(tmp_path):
    # run() turns the collector off, so a command must free all it builds by reference
    # counts: with the collector off, a collection after each command finds nothing.
    # A usage error is the one exception: argparse's parser tree holds cycles (each
    # action group refers to its container), 277 objects on CPython 3.11.  That path
    # ends the process at once, so they never pile up; the bound, with room for other
    # versions' argparse, keeps them to one parser's worth.
    values = tmp_path / "values.txt"
    values.write_text("".join(f"{i % 4}\n" for i in range(1, 60)))
    argvs = [[a.format(values=values) for a in argv] for argv in _LEAK_ARGV]
    code = ("import gc, io, json, sys\n"
            "from contextlib import redirect_stderr, redirect_stdout\n"
            "gc.disable()\n"
            "from coarsesum.cli import main\n"
            "gc.collect()\n"
            "def found(argv):\n"
            "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            main(argv)\n"
            "        except SystemExit:\n"
            "            pass\n"
            "    return gc.collect()\n"
            "argvs, usage = json.loads(sys.argv[1])\n"
            "print(json.dumps([[found(argv) for argv in argvs], found(usage)]))\n")
    usage = ["partition", "--cells", "0", "--width", "3"]
    proc = subprocess.run([sys.executable, "-c", code, json.dumps([argvs, usage])],
                          capture_output=True, text=True, check=True)
    counts, usage_count = json.loads(proc.stdout)
    assert dict(zip(map(" ".join, argvs), counts)) == {" ".join(a): 0 for a in argvs}
    assert usage_count <= 1000


def test_the_console_script_enters_through_run():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    entry = re.search(r'\[project\.scripts\]\ncoarsesum = "coarsesum\.cli:(\w+)"', text)
    assert getattr(cli, entry.group(1)) is cli.run
