"""Per-layer timings of coarsesum: the CLI import, and per family fold steps, lookup, collapse
and the certificate scan.

Usage::

    python scripts/bench_layers.py --src parent=/path/to/old/src --src change=src \\
        --out BENCH.json

Each ``--src [LABEL=]PATH`` names a source tree holding the ``coarsesum``
package.  Every tree is timed in its own fresh interpreter, and the trees take
turns for ``--rounds`` rounds so that drift on a shared machine hits them
alike.  Each entry gives its spread over the rounds -- ``min``, ``q1``,
``median`` and ``q3`` -- so a ratio can be read against the noise.  For every
partition family the entries are, in microseconds:

* ``fold_step_pinned_us``   -- ``CoarseContext.fold`` per step, on a stream
  of one repeated value (one object, as the CLI reads a repeated line) whose
  sum stays in one cell;
* ``fold_step_climbing_us`` -- per step, on a stream whose sum enters a new
  cell on every step;
* ``inert_stream_pinned_us`` -- ``detect_inert_stream`` per step, on a
  stream with no period mark whose values take turns (the grid's only value
  that keeps its sum still is 0) and whose sum stays in one cell, so the
  stream is folded and judged to the horizon;
* ``index_of_us``, ``cell_at_us``, ``rep_of_value_us`` -- per call, over the
  inputs and cells of the climbing stream;
* ``absorbing_scan_us`` -- ``first_absorbing_cell`` under the median policy,
  per cell it visits, for the families whose scan visits many cells:
  ``Fibonacci``, ``EpsilonGrowth(10)`` and ``ExplicitBounds(1000-wide)``
  (see ``SCAN_INCREMENTS``).

The import layer, entry ``import coarsesum.cli``, times that import alone
(``import_us``), each sample in a fresh interpreter started with the caller's
environment and the tree first on ``PYTHONPATH``; the trees take turns,
``IMPORT_RUNS`` samples per tree and round, and its spread is over all
samples.  Start-up depends on bytecode caching, so delete ``__pycache__`` in
every tree and set ``PYTHONDONTWRITEBYTECODE=1`` to time what each command
of the benchmark pays.

The output JSON holds the machine, the Python version, every tree's entries
and, with two or more trees, each later tree's medians and minimums divided
by the first's.  Only the standard library is used (``timeit``).
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
#: Increment per family for ``absorbing_scan_us``: Fibonacci settles in cell 436,
#: EpsilonGrowth(10) in cell 2001, and no 1000-wide cell beats its own margin of 500.
SCAN_INCREMENTS = {"Fibonacci": 2**300, "EpsilonGrowth(10)": 100,
                   "ExplicitBounds(1000-wide)": 500}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import coarsesum.cli; "
                "print(time.perf_counter() - t)")


def cases():
    """(family name, spec, pinned stream, climbing stream, turns) for each family.

    ``turns`` are values that keep the sum in one cell when they take turns.
    """
    from coarsesum import (Domain, EpsilonGrowth, ExplicitBounds, Fibonacci, FixedWidth,
                           SingletonGrid)
    rng = random.Random(5)
    n = 2000
    out = [
        # {0..6} collapses to 3, and 3 + 3 stays there
        ("FixedWidth(7)", FixedWidth(7), [1] * n, [rng.randint(7, 27) for _ in range(n)],
         (0, 1, 2)),
        # 1 + 1 stays in {2, 3}; powers of two outgrow the 1.6x Fibonacci cells
        ("Fibonacci", Fibonacci(), [1] * n, [2**t for t in range(1, 401)], (0, 1)),
        ("EpsilonGrowth(10)", EpsilonGrowth(F(10)), [F(1, 2)] * n,
         [F(rng.randint(2000 * q, 4000 * q), q) for q in (rng.randint(2, 9) for _ in range(n))],
         (F(1, 2), F(1, 3), F(1, 5))),
        # cells of width 1000: 1 stays in [0, 999]; 1000 moves up one cell a step
        ("ExplicitBounds(1000-wide)", ExplicitBounds(tuple(range(0, 1000 * (n + 3), 1000)),
                                                     Domain.INTEGERS),
         [1] * n, [1000] * n, (1, 2, 3)),
        ("SingletonGrid(1/2)", SingletonGrid(F(1, 2)), [0] * n, [F(1, 2)] * n, (0,)),
    ]
    # streams hold Fractions, as the CLI reads them: one object per distinct line text
    def read(values):
        seen = {}
        return [seen.setdefault(v, F(v)) for v in values]
    return [(name, spec, read(pinned), read(climbing),
             read(turns[t % len(turns)] for t in range(n)))
            for name, spec, pinned, climbing, turns in out]


def per_call(fn, args) -> float:
    """Microseconds per call of ``fn`` over ``args``, the minimum of the repeats."""
    def run():
        for a in args:
            fn(a)
    return min(timeit.repeat(run, number=1, repeat=CALL_REPEAT)) / len(args) * 1e6


def per_step(ctx, values) -> float:
    return min(timeit.repeat(lambda: ctx.fold(values), number=1,
                             repeat=FOLD_REPEAT)) / len(values) * 1e6


def per_verdict_step(ctx, values) -> float:
    from coarsesum import detect_inert_stream
    gen = lambda t: values[t - 1]  # no period mark: judged to the horizon
    return min(timeit.repeat(lambda: detect_inert_stream(ctx, gen, len(values)), number=1,
                             repeat=FOLD_REPEAT)) / len(values) * 1e6


def per_cell_scanned(partition, increment) -> float:
    from coarsesum import Policy, first_absorbing_cell
    scan = lambda: first_absorbing_cell(partition, Policy.MEDIAN_LOWER, increment)
    visited = scan() or partition.max_index
    return min(timeit.repeat(scan, number=1, repeat=CALL_REPEAT)) / visited * 1e6


def measure() -> dict:
    """Entries for every family, timed in this interpreter's ``coarsesum``."""
    from coarsesum import CoarseContext, build_partition, rep_of_value
    out = {}
    for name, spec, pinned, climbing, turns in cases():
        partition = build_partition(spec)
        ctx = CoarseContext(partition)
        trace = ctx.fold(climbing)
        inputs = climbing[:500]
        cells = [step.s_cell for step in trace][:500]
        out[name] = {
            "fold_step_pinned_us": per_step(ctx, pinned),
            "fold_step_climbing_us": per_step(ctx, climbing),
            "inert_stream_pinned_us": per_verdict_step(ctx, turns),
            "index_of_us": per_call(partition.index_of, inputs),
            "cell_at_us": per_call(partition.cell_at, cells),
            "rep_of_value_us": per_call(lambda x: rep_of_value(partition, x), inputs),
            "climbing_new_cell_share": sum(not s.absorbed for s in trace) / len(trace),
        }
        if name in SCAN_INCREMENTS:
            out[name]["absorbing_scan_us"] = per_cell_scanned(partition, SCAN_INCREMENTS[name])
    return out


def spread(values) -> dict:
    """Minimum, quartiles and median of one entry's samples."""
    ordered = sorted(values)
    q1, median, q3 = (statistics.quantiles(ordered, n=4, method="inclusive")
                      if len(ordered) > 1 else ordered * 3)
    return {"min": ordered[0], "q1": q1, "median": median, "q3": q3}


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
    parser.add_argument("--rounds", type=int, default=5,
                        help="interpreters per tree, taken in turns (default: 5)")
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
    samples = {label: {} for label in trees}  # label -> family -> key -> per-round values
    imports = {label: [] for label in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for _ in range(IMPORT_RUNS):
            for label in order:
                imports[label].append(import_seconds(trees[label]) * 1e6)
        for label in order:
            for family, entries in worker(trees[label]).items():
                for key, value in entries.items():
                    samples[label].setdefault(family, {}).setdefault(key, []).append(value)
    for label, values in imports.items():
        samples[label]["import coarsesum.cli"] = {"import_us": values}
    result = {label: {family: {key: spread(values) if key.endswith("_us") else values[0]
                               for key, values in entries.items()}
                      for family, entries in families.items()}
              for label, families in samples.items()}
    report = {
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "processor": cpu_model() or platform.processor() or None, "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "method": f"spread over {args.rounds} interpreters per tree, taken in turns; "
                  f"fold steps: min of {FOLD_REPEAT} folds / steps; calls: min of "
                  f"{CALL_REPEAT} passes / calls; import: {IMPORT_RUNS} interpreters per "
                  f"tree and round, taken in turns",
        "env": {k: v for k, v in os.environ.items() if k.startswith("PYTHON")},
        "trees": result,
    }
    labels = list(trees)
    if len(labels) > 1:
        base = result[labels[0]]
        report[f"ratio_to_{labels[0]}"] = {
            label: {family: {key: {stat: round(value[stat] / base[family][key][stat], 3)
                                   for stat in ("median", "min")}
                             for key, value in entries.items() if key.endswith("_us")}
                    for family, entries in result[label].items()}
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
