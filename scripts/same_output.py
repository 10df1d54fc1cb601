"""Check that two or more source trees print the same bytes for every benchmark command.

Usage::

    python scripts/same_output.py --src parent=/path/to/old/src --src change=src --seeds 1 2

Each ``--src [LABEL=]PATH`` names a source tree holding the ``coarsesum``
package.  For every seed, the invocations of all four workloads are built
through ``bench.workloads`` (their input files go to a temporary directory),
and each one is run as ``python -m coarsesum.cli`` once per tree, with that
tree first on ``PYTHONPATH``.  No workload passes ``--rep``, so a fixed list of
extra commands follows: ``partition``, ``fold`` and ``inert`` in every
``--format`` each accepts, under ``--rep max`` on every family and under
``--rep min`` on the families whose cells all hold their lower bound, so that
the row writer is compared under every policy; then ``inert`` in both formats
on the streams no workload reaches: a geometric stream that settles with and
without ``--bound``, a constant geometric one, a growing one, the two
constant streams with ``--bound`` on families whose cells all have the same
margins, which stop at their fixed point, the harmonic stream on real
``--bounds`` whose cell of 0 has a negative representative, the harmonic and
a geometric stream on real ``--bounds`` from 0, where a stream that states its
top stops early, the two ``--bound`` streams on ``--bounds`` below 0 that only
their fixed point certifies: ``--bounds=-20,-4,0,3,6,9,12,15,18,21 --const 1
--bound 1``, where the paper's strict cell lies below the cell of 0, and
``--bounds=-53/2,-7,3/2,41/3,23,27 --domain real --const 2 --bound 2``, where 0
collapses below 0, streams whose top lies outside the family, which fail at
step 1 (a top of 1/2 on ``--width``, 1 past real ``--bounds 0,1/2``), and
``--geometric 64 1/2 --bound 64`` on ``--width 100`` and ``--fibonacci``, which
fail at step 7 on 1/2, as they do without ``--bound``;
then ``stpete`` at an ``--eps`` of 1 (also with sampling),
0 and -1, below the 2 under which the closed form and the margin scan
disagree, where no workload reaches; then ``stpete`` at ``--eps 10`` sampling
with ``--truncation 1`` as a table and ``--truncation 3`` as JSON: every workload
samples at the default truncation 64, where a draw reaches the cap with
probability 2**-63, so only these runs compare capped payoffs; then ``stpete
--eps 10 --depth 20`` sampling in both formats at ``--trials`` of 1, 4, 5,
4*4096 - 1, 4*4096, 4*4096 + 1 and 4*8192 + 3, around the edges of the
sampler's batches of at most 4096 blocks of four words (the last ends just
inside the third batch), and once with ``--seed`` 2**128 + 5, whose five 32-bit
entropy words are one more than the seed pool holds; then flag text
that is not a number, which the families, the streams and the bound parse, so
that each error names its field: ``partition`` with ``--eps abc``,
``--grid 1/0``, ``--bounds 0,1,x`` and ``--width abc``, ``stpete --eps abc``,
and ``inert`` with ``--const abc``, ``--harmonic --bound abc``,
``--geometric 1 abc`` and ``--geometric abc 1/2``; then ``--bounds`` given as
signed, padded, ``p/q`` and decimal text in both domains, and the errors it
names (not ascending, not an integer in the int domain, a sum below the origin
or past the last bound), and ``fold`` over ``p/q`` lines with signs, zeros,
padding and non-ASCII digits, and over a line that is not a number; then
``inert --from-file`` in both formats on the files of ``FILES``, none of which a
workload reaches: the largest value after the sum first stood still (on ``--eps``,
also under ``--rep max``, and on real ``--bounds`` from 0 and from below 0), a value
below 0, a value past the last real bound, which errors at its step, and files on
``--grid`` and ``--width``, where a file's stream is read on; then ``fold`` in every
format over the files of ``FOLDS``: on ``--eps``, a file whose constant input pins the
sum and one whose alternating input does; a Fibonacci climb of powers of two, whose
inputs often land in the sum's cell; and a sum that moves down and back up through the
same cells on every step (inputs below 0 on real ``--bounds`` from -16); last, the argv
that the CLI leaves to argparse: ``--help``, ``fold --help``, the usage error
``partition --cells 0 --width 3`` (exit 2), the ``=`` form ``inert --eps 10
--const 1/2 --bound=1/2``, the abbreviation ``partition --fib --cells 3``, and the
abbreviation ``partition --bou -4,-1/2,3 --domain real --cells 3 --format csv``, whose
value argparse reads as a value, though it starts with ``-4``, only by the CLI's rule.
Every later tree's stdout, stderr and exit code are compared with the first
tree's.  One line names each command that differs; the last line counts them.
The exit code is 1 if any command differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.workloads import WORKLOADS, build  # noqa: E402

#: One flag set per family, and the ones whose cells are all closed, where min is accepted.
FAMILIES = {
    "width": ("--width", "3"), "fibonacci": ("--fibonacci",),
    "bounds": ("--bounds", "0,3,6,17,60"), "grid": ("--grid", "1/2"), "eps": ("--eps", "10"),
    "bounds-real": ("--bounds", "0,1/2,1,7/3,10,50", "--domain", "real"),
}
CLOSED = ("width", "fibonacci", "bounds", "grid")
#: ``inert`` streams no workload reaches: the geometric settling and growing paths,
#: fixed points under a bound on families whose cells all have the same margins,
#: streams with a top on real explicit cells, where 0's cell collapses below 0 (the
#: fold falls again at step 6, so it must not stop at its first absorbed step) or to 0,
#: bounds whose strict cell lies below every sum, or below 0, tops outside the family,
#: and bounds on integer families, which are read on to a later value that fails.
INERT = (("--eps", "10", "--geometric", "1", "1/2", "--bound", "1/2"),
         ("--eps", "10", "--geometric", "5", "1/2"), ("--width", "3", "--geometric", "1", "1"),
         ("--eps", "10", "--geometric", "2", "3"), ("--width", "3", "--const", "1", "--bound", "1"),
         ("--grid", "1/2", "--const", "0", "--bound", "1/2"),
         ("--bounds=-19/3,-73/12,1/6,5/3,3,15/2", "--domain", "real", "--harmonic",
          "--horizon", "32"),
         (*FAMILIES["bounds-real"], "--harmonic"),
         (*FAMILIES["bounds-real"], "--geometric", "5", "1/2"),
         ("--bounds=-20,-4,0,3,6,9,12,15,18,21", "--const", "1", "--bound", "1"),
         ("--bounds=-53/2,-7,3/2,41/3,23,27", "--domain", "real", "--const", "2",
          "--bound", "2"),
         ("--width", "3", "--geometric", "1", "1/2"),
         ("--bounds", "0,1/2", "--domain", "real", "--harmonic"),
         ("--width", "100", "--geometric", "64", "1/2", "--bound", "64"),
         ("--fibonacci", "--geometric", "64", "1/2", "--bound", "64"))
#: Trial counts around the sampler's batch edges: a batch holds at most 4096 blocks of
#: four words, so draws end one word before, at and one word after one full batch, and
#: just past two.
SAMPLED_TRIALS = (1, 4, 5, 4 * 4096 - 1, 4 * 4096, 4 * 4096 + 1, 4 * 8192 + 3)
STPETE = (("--eps", "1"), ("--eps", "1", "--depth", "20", "--trials", "50"),
          ("--eps", "0"), ("--eps", "-1"), ("--eps", "abc"),
          ("--eps", "10", "--depth", "20", "--trials", "50", "--truncation", "1"),
          ("--eps", "10", "--depth", "20", "--trials", "50", "--truncation", "3",
           "--format", "json"),
          *(("--eps", "10", "--depth", "20", "--trials", str(trials), "--format", fmt)
            for trials in SAMPLED_TRIALS for fmt in ("table", "json")),
          ("--eps", "10", "--depth", "20", "--trials", "50", "--seed", str(2**128 + 5)))
#: Flag text that is not a number: each error names its field.
BAD_TEXT = (("partition", "--eps", "abc"), ("partition", "--grid", "1/0"),
            ("partition", "--bounds", "0,1,x"), ("partition", "--width", "abc"),
            ("inert", "--eps", "10", "--const", "abc"),
            ("inert", "--eps", "10", "--harmonic", "--bound", "abc"),
            ("inert", "--eps", "10", "--geometric", "1", "abc"),
            ("inert", "--eps", "10", "--geometric", "abc", "1/2"))

#: ``--bounds`` text and the errors it names; ``{values}`` and ``{pq}`` are the input files.
BOUNDS_TEXT = (("partition", "--bounds=-7,+2, 5,21/3,9.0,12", "--cells", "6"),
               ("partition", "--bounds=-1/2,0.25,3/4,2", "--domain", "real"),
               ("partition", "--bounds", "0,5,3"), ("partition", "--bounds", "0,1.5,3"),
               ("fold", "--bounds", "0,2", "--rep", "max", "--input", "{values}"),
               ("fold", "--bounds", "1,3,9", "--input", "{values}"),
               ("fold", "--bounds=-1/2,1/3,5/2", "--domain", "real", "--input", "{values}"),
               ("fold", "--eps", "10", "--input", "{pq}", "--format", "json"),
               ("fold", "--bounds=-3,0,2,11,40", "--domain", "real", "--input", "{pq}",
                "--format", "csv"),
               ("fold", "--eps", "10", "--input", "{bad}"))

#: Files of ``inert --from-file`` and ``fold`` that no workload reaches: the largest value
#: after the sum first stood still, a value below 0, a value past the last bound, values on
#: a grid and ints, a sum pinned by constant or alternating input, inputs that land in
#: a climbing sum's cell, and a sum that swings down and back up.
FILES = {"late": ["1/2", "1/2", "5"] + ["1/2"] * 20, "negative": ["1/2", "-1/2", "1/2", "1/2"],
         "past": ["1/2", "1/2", "60", "1/2"], "halves": ["1/2", "0", "0", "1", "0", "0"],
         "ints": ["1", "1", "2", "1", "1"], "pinned": ["1/2"] * 30,
         "alternating": ["1/2", "1/3"] * 15, "powers": [str(2**t) for t in range(1, 121)],
         "swing": ["2"] + ["-6", "-6", "10", "10"] * 8}
#: ``fold`` files, each in every format, and the family each is folded on.
FOLDS = ((("--eps", "10"), "pinned"), (("--eps", "10"), "alternating"),
         (("--fibonacci",), "powers"),
         (("--bounds=-16,-12,-8,-4,0,4,8,12", "--domain", "real"), "swing"))
#: ``inert --from-file`` streams, each in both formats: a file of values >= 0 stops where its
#: sum cell absorbs the largest value on real families that hold 0 with a representative
#: >= 0 and are not grids, here ``--eps`` (under median and max) and ``--bounds`` from below 0;
#: elsewhere, or with a value below 0 or past the last bound, the stream is read on.
FROM_FILE = ((("--eps", "10"), "late"), (("--eps", "10", "--rep", "max"), "late"),
             (("--eps", "10"), "negative"),
             (("--bounds=-1,1,3,9", "--domain", "real"), "negative"),
             (("--bounds=-1,1,3,9,30", "--domain", "real"), "late"),
             (("--bounds=-19/3,-73/12,1/6,5/3,3,15/2", "--domain", "real"), "late"),
             (("--bounds=-19/3,-73/12,1/6,5/3,3,15/2", "--domain", "real"), "negative"),
             ((*FAMILIES["bounds-real"],), "past"), ((*FAMILIES["bounds-real"],), "late"),
             (("--grid", "1/2"), "halves"), (("--width", "3"), "ints"))

#: Argv that the CLI's direct reader leaves to argparse: help, a usage error, an ``=`` form
#: and two abbreviations, one with a value that starts with ``-`` and a digit.
ARGPARSE = (("--help",), ("fold", "--help"), ("partition", "--cells", "0", "--width", "3"),
            ("inert", "--eps", "10", "--const", "1/2", "--bound=1/2"),
            ("partition", "--fib", "--cells", "3"),
            ("partition", "--bou", "-4,-1/2,3", "--domain", "real", "--cells", "3",
             "--format", "csv"))


def extra_commands(work: Path) -> list:
    """(name, argv) of each extra command; ``fold`` reads files written to ``work``."""
    values = work / "values.txt"
    values.write_text("1\n1\n0\n0\n", encoding="utf-8")  # max climbs, but stays in range
    files = {"values": values, "pq": work / "pq.txt", "bad": work / "bad.txt"}
    files["pq"].write_text("-0/7\n 6/3 \n+1/2\n1/2\n\u0663/\u0664\n3/1\n9/2\n",
                           encoding="utf-8")
    files["bad"].write_text("1/2\n1/-2\n", encoding="utf-8")
    for name, lines in FILES.items():
        files[name] = work / f"{name}.txt"
        files[name].write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    tails = {"partition": ("--cells", "6"), "fold": ("--input", str(values)),
             "inert": ("--const", "1", "--horizon", "50")}
    formats = {"partition": ("table", "json", "csv"), "fold": ("table", "json", "csv"),
               "inert": ("json", "table")}
    return [(f"{command} {family} --rep {rep} --format {fmt}",
             (command, *FAMILIES[family], "--rep", rep, *tail, "--format", fmt))
            for rep, families in (("max", FAMILIES), ("min", CLOSED))
            for family in families for command, tail in tails.items()
            for fmt in formats[command]] + [
        (f"inert {' '.join(args)} --format {fmt}", ("inert", *args, "--format", fmt))
        for args in INERT for fmt in formats["inert"]] + [
        ("stpete " + " ".join(args), ("stpete", *args)) for args in STPETE] + [
        (" ".join(argv), argv) for argv in BAD_TEXT] + [
        (" ".join(argv), tuple(arg.format(**files) for arg in argv)) for argv in BOUNDS_TEXT] + [
        (f"inert {' '.join(flags)} --from-file {{{name}}} --format {fmt}",
         ("inert", *flags, "--from-file", str(files[name]), "--format", fmt))
        for flags, name in FROM_FILE for fmt in formats["inert"]] + [
        (f"fold {' '.join(flags)} --input {{{name}}} --format {fmt}",
         ("fold", *flags, "--input", str(files[name]), "--format", fmt))
        for flags, name in FOLDS for fmt in formats["fold"]] + [
        (" ".join(argv), argv) for argv in ARGPARSE]


def run(src: str, argv: tuple) -> tuple:
    """(exit code, stdout, stderr) of ``python -m coarsesum.cli argv`` on tree ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave no __pycache__ in the trees
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "coarsesum.cli", *argv], env=env, cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], metavar="[LABEL=]PATH",
                        help="source tree holding the coarsesum package (give two or more)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], metavar="S",
                        help="workload seeds (default: 1)")
    args = parser.parse_args(argv)
    if len(args.src) < 2:
        parser.error("give at least two --src")
    trees = {}
    for item in args.src:
        label, _, path = item.rpartition("=")
        trees[label or path] = os.path.abspath(path)
    (first, base), *others = trees.items()
    total = differing = 0

    def compare(name: str, argv: tuple) -> None:
        nonlocal total, differing
        total += 1
        expected = run(base, argv)
        diffs = []
        for label, src in others:
            got = run(src, argv)
            diffs += [f"{label} {part}" for part, a, b
                      in zip(("exit code", "stdout", "stderr"), expected, got) if a != b]
        if diffs:
            differing += 1
            print(f"{name}: {', '.join(diffs)} differs from {first}")

    for seed in args.seeds:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory(prefix="same-output-") as work:
                for inv in build(workload, seed, Path(work)):
                    compare(f"seed {seed} {workload} {inv.name}", inv.argv)
    with tempfile.TemporaryDirectory(prefix="same-output-") as work:
        for name, argv in extra_commands(Path(work)):
            compare(name, argv)
    print(f"{differing} of {total} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
