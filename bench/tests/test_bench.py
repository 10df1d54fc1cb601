"""Tests of the benchmark itself: the reference checker, the inputs and the tracer."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from bench import reference, run, tracing, workloads
from coarsesum import cli


def _main(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_reference_reproduces_the_worked_examples():
    fib = reference.FibonacciLayout()
    assert [reference.interval(fib, i) for i in range(1, 7)] == [
        "{0}", "{1}", "{2..3}", "{4..6}", "{7..11}", "{12..19}"]
    assert [reference.rep(fib, i) for i in range(1, 7)] == [0, 1, 2, 5, 9, 15]
    rows = reference.fold(reference.ExplicitLayout([0, 3, 6, 17]), [4, 4, 4, 4])
    assert [(r.s, r.s_cell, r.absorbed) for r in rows] == [
        (4, 2, False), (11, 3, False), (11, 3, True), (11, 3, True)]
    assert reference.observed_verdict(rows)["N"] == 2
    eps = reference.EpsilonLayout(10)
    assert reference.interval(eps, 2) == "(0.5, 0.7]"
    assert [eps.index(Fraction(v)) for v in ("1/2", "0.51", "0.7", "0.71")] == [1, 2, 2, 3]


def _corrupt_last_row(fmt, out):
    """Move the last row's sum into the next cell, keeping the format readable."""
    lines = out.rstrip("\n").split("\n")
    if fmt == "json":
        row = json.loads(lines[-1])
        row["s_cell"] += 1
        lines[-1] = json.dumps(row)
    else:
        sep = "," if fmt == "csv" else "  "
        fields = lines[-1].split(sep) if fmt == "csv" else lines[-1].split()
        fields[4] = str(int(fields[4]) + 1)
        lines[-1] = sep.join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_checker_rejects_a_corrupted_fold_row(fmt, tmp_path, capsys):
    values = [3, 9, 1, 30, 30, 2, 2]
    path = tmp_path / "values.txt"
    path.write_text("".join(f"{v}\n" for v in values))
    code, out = _main(["fold", "--fibonacci", "--input", str(path), "--format", fmt], capsys)
    rows = reference.fold(reference.FibonacciLayout(), values)
    assert reference.check_fold(rows, fmt, code, out) == []
    assert reference.check_fold(rows, fmt, code, _corrupt_last_row(fmt, out))


def test_checker_rejects_a_corrupted_stpete_mean(capsys):
    argv = ["stpete", "--eps", "10", "--depth", "50", "--trials", "300", "--seed", "7"]
    ref = reference.gamble_reference(10, 50, trials=300, seed=7)

    code, out = _main(argv + ["--format", "json"], capsys)
    assert reference.check_stpete(ref, "json", code, out, seed=7) == []
    report = json.loads(out)
    mean = Fraction(report["sampled"]["mean"]) + 1
    report["sampled"]["mean"] = f"{mean.numerator}/{mean.denominator}"
    assert reference.check_stpete(ref, "json", code, json.dumps(report), seed=7)

    code, out = _main(argv, capsys)
    assert reference.check_stpete(ref, "table", code, out, seed=7) == []
    mean_line = next(line for line in out.splitlines() if "mean payoff" in line)
    corrupted = out.replace(mean_line, mean_line.rstrip() + "1")
    assert reference.check_stpete(ref, "table", code, corrupted, seed=7)


def _inputs(workload, seed, work):
    """What a workload hands the program: arguments, with input files read back."""
    work.mkdir()
    return [tuple(Path(a).read_text() if a.startswith(str(work)) else a for a in inv.argv)
            for inv in workloads.build(workload, seed, work)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload, tmp_path):
    first = _inputs(workload, 1, tmp_path / "a")
    assert first == _inputs(workload, 1, tmp_path / "b")
    assert first != _inputs(workload, 2, tmp_path / "c")


def test_tracer_wraps_every_binding_site_and_restores_them(tmp_path, capsys):
    from coarsesum import ops, representatives

    original = representatives.rep_of_value
    path = tmp_path / "values.txt"
    path.write_text("1\n2\n3\n")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert ops.rep_of_value is not original and cli.format_decimal.__wrapped__
        cli.main(["fold", "--width", "3", "--input", str(path)])
    capsys.readouterr()
    assert ops.rep_of_value is original and not hasattr(cli.format_decimal, "__wrapped__")
    assert tracer.calls["representatives.rep_of_value"] > 0   # reached through ops
    assert tracer.calls["rationals.format_decimal"] > 0       # reached through cli
    assert tracer.calls["partitions.index_of.FixedWidth"] == tracer.calls["partitions.index_of"]
    assert tracer.counters()["ops.fold.steps"] == (3, "count")


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "cli-quick", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cmd_p50_s", "cmd_tail_s", "steps_per_s", "cpu_s", "peak_rss_mb"}
