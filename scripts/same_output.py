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
the row writer is compared under every policy; then ``stpete`` at an ``--eps``
of 1 (also with sampling), 0 and -1, below the 2 under which the closed form
and the margin scan disagree, where no workload reaches.  Every later tree's
stdout, stderr and exit code are compared with the first tree's.  One line
names each command that differs; the last line counts them.  The exit code is
1 if any command differs, else 0.
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
STPETE = (("--eps", "1"), ("--eps", "1", "--depth", "20", "--trials", "50"),
          ("--eps", "0"), ("--eps", "-1"))


def extra_commands(work: Path) -> list:
    """(name, argv) of each extra command; ``fold`` reads a file written to ``work``."""
    values = work / "values.txt"
    values.write_text("1\n1\n0\n0\n", encoding="utf-8")  # max climbs, but stays in range
    tails = {"partition": ("--cells", "6"), "fold": ("--input", str(values)),
             "inert": ("--const", "1", "--horizon", "50")}
    formats = {"partition": ("table", "json", "csv"), "fold": ("table", "json", "csv"),
               "inert": ("json", "table")}
    return [(f"{command} {family} --rep {rep} --format {fmt}",
             (command, *FAMILIES[family], "--rep", rep, *tail, "--format", fmt))
            for rep, families in (("max", FAMILIES), ("min", CLOSED))
            for family in families for command, tail in tails.items()
            for fmt in formats[command]] + [
        ("stpete " + " ".join(args), ("stpete", *args)) for args in STPETE]


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
