import io
import json
import subprocess
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import FoldTrace, parse_rational
from coarsesum.cli import _read_values, build_parser, main


def run(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
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


@pytest.mark.parametrize("rep", ["median", "min", "max"])
@pytest.mark.parametrize("family", [
    ["--width", "3"], ["--fibonacci"], ["--eps", "1/3"], ["--bounds", "-4,1,2,9,30"],
    ["--bounds", "0,1/2,1,7/3,10", "--domain", "real"], ["--grid", "3/4"],
], ids=["width", "fibonacci", "eps", "bounds", "bounds-real", "grid"])
def test_partition_csv_and_json_agree_cell_by_cell(family, rep, capsys,
                                                   assert_csv_matches_json):
    argv = ["partition", *family, "--rep", rep, "--cells", "4", "--format"]
    _, csv_out, _ = run(argv + ["csv"], capsys)
    _, json_out, _ = run(argv + ["json"], capsys)
    assert_csv_matches_json(csv_out, json_out)


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


def test_fold_json_round_trips(tmp_path, capsys):
    f = tmp_path / "values.txt"
    f.write_text("1/2\n1/3\n1/7\n")
    code, out, _ = run(["fold", "--eps", "10", "--input", str(f), "--format", "json"],
                       capsys)
    assert code == 0
    trace = FoldTrace.from_json_lines(out)
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
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
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
    assert code == 0
    assert json.loads(out) == {"outcome": "inert", "N": 6, "cell": 6,
                               "value": "11/5", "horizon": 1000, "certified": True}


def test_inert_observed_without_bound(capsys):
    code, out, _ = run(["inert", "--eps", "10", "--const", "1/2"], capsys)
    assert code == 0
    assert json.loads(out) == {"outcome": "inert", "N": 2, "cell": 1,
                               "value": "1/4", "horizon": 1000, "certified": False}


def test_inert_table_format(capsys):
    code, out, _ = run(["inert", "--eps", "10", "--const", "1/2", "--bound", "1/2",
                        "--format", "table"], capsys)
    assert code == 0
    assert out == "inert at cell 6 from step 6, value 2.2 (certified)\n"


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


def test_inert_domain_error_exits_one(capsys):
    code, _, err = run(["inert", "--fibonacci", "--const", "-1", "--horizon", "5"],
                       capsys)
    assert code == 1
    assert err.startswith("error:")


# ------------------------------------------------------------------- stpete

def test_stpete_table(capsys):
    code, out, _ = run(["stpete", "--eps", "10", "--depth", "100"], capsys)
    assert code == 0
    assert "doubling-gamble valuation  (eps = 10, depth = 100)" in out
    assert "classical sum of expected increments : 50" in out
    assert "absorbing cell (closed form)         : 6" in out
    assert "absorbing cell (margin scan)         : 6" in out
    assert "agreement                            : yes" in out
    assert "inert at cell 6 from step 6, value 2.2 (certified)" in out


def test_stpete_json(capsys):
    code, out, _ = run(["stpete", "--eps", "10", "--depth", "100",
                        "--format", "json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["cell_from_formula"] == 6 and d["agreement"] is True
    assert d["verdict"]["value"] == "11/5"


def test_stpete_small_eps_guard(capsys):
    code, _, err = run(["stpete", "--eps", "1"], capsys)
    assert code == 1
    assert "--allow-small-eps" in err
    code, out, _ = run(["stpete", "--eps", "1", "--depth", "20",
                        "--allow-small-eps"], capsys)
    assert code == 0
    assert "agreement                            : no" in out


def test_stpete_with_sampling(capsys):
    args = ["stpete", "--eps", "10", "--depth", "50", "--trials", "200",
            "--seed", "3", "--truncation", "16"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert "sampled payoffs: trials = 200, seed = 3, rng = numpy-philox4x64" in out
    assert "round counts" in out
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
        monkeypatch.setattr(sys, "stdin", io.StringIO("-4\n3\n3\n"))
        results.append(run([*argv, *joined], capsys))
    assert results[0] == results[1]
    assert results[0][0] == code


def test_parser_builds_all_subcommands():
    parser = build_parser()
    subactions = [a for a in parser._actions
                  if isinstance(a, pytest.importorskip("argparse")._SubParsersAction)]
    assert set(subactions[0].choices) == {"partition", "fold", "inert", "stpete"}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coarsesum.cli", "partition", "--fibonacci",
         "--cells", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].split() == ["1", "{0}", "0", "0", "0"]
