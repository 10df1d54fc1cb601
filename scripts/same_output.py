"""Check that two or more source trees print the same bytes for every benchmark command.

Usage::

    python scripts/same_output.py --src parent=/path/to/old/src --src change=src --seeds 1 2

Each ``--src [LABEL=]PATH`` names a source tree holding the ``coarsesum``
package.  For every seed, the invocations of all four workloads are built
through ``bench.workloads`` (their input files go to a temporary directory),
and each one is run as ``python -m coarsesum.cli`` once per tree, with that
tree first on ``PYTHONPATH``.  Every later tree's stdout, stderr and exit code
are compared with the first tree's.  One line names each command that
differs; the last line counts them.  The exit code is 1 if any command
differs, else 0.
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


def run(src: str, argv: tuple) -> tuple:
    """(exit code, stdout, stderr) of ``python -m coarsesum.cli argv`` on tree ``src``."""
    env = dict(os.environ)
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
    for seed in args.seeds:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory(prefix="same-output-") as work:
                for inv in build(workload, seed, Path(work)):
                    total += 1
                    expected = run(base, inv.argv)
                    diffs = []
                    for label, src in others:
                        got = run(src, inv.argv)
                        diffs += [f"{label} {part}" for part, a, b
                                  in zip(("exit code", "stdout", "stderr"), expected, got)
                                  if a != b]
                    if diffs:
                        differing += 1
                        print(f"seed {seed} {workload} {inv.name}: {', '.join(diffs)} "
                              f"differs from {first}")
    print(f"{differing} of {total} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
