"""Per-layer timings of coarsesum: the CLI import, and per family fold steps, lookup, collapse.

Usage::

    python scripts/bench_layers.py --src parent=/path/to/old/src --src change=src \\
        --out BENCH.json

Each ``--src [LABEL=]PATH`` names a source tree holding the ``coarsesum``
package.  Every tree is timed in its own fresh interpreter, and the trees take
turns for ``--rounds`` rounds so that drift on a shared machine hits them
alike; each entry keeps its minimum over all rounds.  For every partition
family the entries are, in microseconds:

* ``fold_step_pinned_us``   -- ``CoarseContext.fold`` per step, on a stream
  whose sum stays in one cell;
* ``fold_step_climbing_us`` -- per step, on a stream whose sum enters a new
  cell on every step;
* ``index_of_us``, ``cell_at_us``, ``rep_of_value_us`` -- per call, over the
  inputs and cells of the climbing stream.

The import layer, entry ``import coarsesum.cli``, times that import alone
(``min_us`` and ``median_us``), each sample in a fresh interpreter started
with the caller's environment and the tree first on ``PYTHONPATH``; the trees
take turns, ``IMPORT_RUNS`` samples per tree and round.  Start-up depends on
bytecode caching, so delete ``__pycache__`` in every tree and set
``PYTHONDONTWRITEBYTECODE=1`` to time what each command of the benchmark pays.

The output JSON holds the machine, the Python version, every tree's entries
and, with two or more trees, each later tree's entries divided by the first's.
Only the standard library is used (``timeit``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import timeit
from fractions import Fraction as F

FOLD_REPEAT = 5
CALL_REPEAT = 7
IMPORT_RUNS = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import coarsesum.cli; "
                "print(time.perf_counter() - t)")


def cases():
    """(family name, spec, pinned stream, climbing stream) for each family."""
    from coarsesum import (Domain, EpsilonGrowth, ExplicitBounds, Fibonacci, FixedWidth,
                           SingletonGrid)
    rng = random.Random(5)
    n = 2000
    out = [
        ("FixedWidth(7)", FixedWidth(7), [1] * n, [rng.randint(7, 27) for _ in range(n)]),
        # 1 + 1 stays in {2, 3}; powers of two outgrow the 1.6x Fibonacci cells
        ("Fibonacci", Fibonacci(), [1] * n, [2**t for t in range(1, 401)]),
        ("EpsilonGrowth(10)", EpsilonGrowth(F(10)), [F(1, 2)] * n,
         [F(rng.randint(2000 * q, 4000 * q), q) for q in (rng.randint(2, 9) for _ in range(n))]),
        # cells of width 1000: 1 stays in [0, 999]; 1000 moves up one cell a step
        ("ExplicitBounds(1000-wide)", ExplicitBounds(tuple(range(0, 1000 * (n + 3), 1000)),
                                                     Domain.INTEGERS),
         [1] * n, [1000] * n),
        ("SingletonGrid(1/2)", SingletonGrid(F(1, 2)), [0] * n, [F(1, 2)] * n),
    ]
    # streams hold Fractions, as the CLI reads them
    return [(name, spec, [F(v) for v in pinned], [F(v) for v in climbing])
            for name, spec, pinned, climbing in out]


def per_call(fn, args) -> float:
    """Microseconds per call of ``fn`` over ``args``, the minimum of the repeats."""
    def run():
        for a in args:
            fn(a)
    return min(timeit.repeat(run, number=1, repeat=CALL_REPEAT)) / len(args) * 1e6


def per_step(ctx, values) -> float:
    return min(timeit.repeat(lambda: ctx.fold(values), number=1,
                             repeat=FOLD_REPEAT)) / len(values) * 1e6


def measure() -> dict:
    """Entries for every family, timed in this interpreter's ``coarsesum``."""
    from coarsesum import CoarseContext, build_partition, rep_of_value
    out = {}
    for name, spec, pinned, climbing in cases():
        partition = build_partition(spec)
        ctx = CoarseContext(partition)
        trace = ctx.fold(climbing)
        inputs = climbing[:500]
        cells = [step.s_cell for step in trace][:500]
        out[name] = {
            "fold_step_pinned_us": per_step(ctx, pinned),
            "fold_step_climbing_us": per_step(ctx, climbing),
            "index_of_us": per_call(partition.index_of, inputs),
            "cell_at_us": per_call(partition.cell_at, cells),
            "rep_of_value_us": per_call(lambda x: rep_of_value(partition, x), inputs),
            "climbing_new_cell_share": sum(not s.absorbed for s in trace) / len(trace),
        }
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), None)
    except OSError:
        return None


def worker(src: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--worker", src],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def import_seconds(src: str) -> float:
    """``import coarsesum.cli`` from ``src``, timed in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], metavar="[LABEL=]PATH",
                        help="source tree holding the coarsesum package (repeatable)")
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="interpreters per tree, taken in turns (default: 3)")
    parser.add_argument("--worker", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path.insert(0, os.path.abspath(args.worker))
        print(json.dumps(measure()))
        return 0
    if not args.src:
        parser.error("give at least one --src")
    trees = {}
    for item in args.src:
        label, _, path = item.rpartition("=")
        trees[label or path] = os.path.abspath(path)
    best = {label: None for label in trees}
    imports = {label: [] for label in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for _ in range(IMPORT_RUNS):
            for label in order:
                imports[label].append(import_seconds(trees[label]))
        for label in order:
            got = worker(trees[label])
            if best[label] is None:
                best[label] = got
                continue
            for family, entries in got.items():
                for key, value in entries.items():
                    best[label][family][key] = min(best[label][family][key], value)
    for label, samples in imports.items():
        best[label]["import coarsesum.cli"] = {"min_us": min(samples) * 1e6,
                                               "median_us": statistics.median(samples) * 1e6}
    report = {
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "processor": cpu_model() or platform.processor() or None, "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "method": f"minimum over {args.rounds} interpreters per tree, taken in turns; "
                  f"fold steps: min of {FOLD_REPEAT} folds / steps; calls: min of "
                  f"{CALL_REPEAT} passes / calls; import: {IMPORT_RUNS} interpreters per "
                  f"tree and round, taken in turns",
        "env": {k: v for k, v in os.environ.items() if k.startswith("PYTHON")},
        "trees": best,
    }
    labels = list(trees)
    if len(labels) > 1:
        base = best[labels[0]]
        report[f"ratio_to_{labels[0]}"] = {
            label: {family: {key: round(value / base[family][key], 3)
                             for key, value in entries.items() if key.endswith("_us")}
                    for family, entries in best[label].items()}
            for label in labels[1:]}
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
