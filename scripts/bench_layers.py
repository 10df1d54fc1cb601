"""Per-layer timings of coarsesum: the CLI import, and per family fold steps, lookup, collapse
and the certificate scan.

Usage::

    python scripts/bench_layers.py --src parent=/path/to/old/src --src change=src \\
        --out BENCH.json

Each ``--src [LABEL=]PATH`` names a source tree holding the ``coarsesum``
package.  Every tree is timed in fresh interpreters of its own, one per part of
``PARTS``: one per partition family, and one for the sampler and text entries, so
that an entry timed late in an interpreter picks up no drift from the parts before
it.  The trees take turns on each part for ``--rounds`` rounds (10 by default: ten
alternating pairs) so that drift on a shared machine hits them alike.  Each entry
gives its spread over the rounds -- ``min``, ``q1``, ``median`` and ``q3`` -- so a
ratio can be read against the noise.  For every partition family the entries are, in
microseconds:

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
* ``render_row_json_us``, ``render_row_csv_us``, ``render_row_table_us`` -- the
  row writer per row of the climbing fold's trace, in each output format;
* ``absorbing_scan_us`` -- ``first_absorbing_cell`` under the median policy,
  per cell it visits, for the families whose scan visits many cells:
  ``Fibonacci``, ``EpsilonGrowth(10)`` and ``ExplicitBounds(1000-wide)``
  (see ``SCAN_INCREMENTS``);
* ``fold_step_sampled_us`` -- for ``EpsilonGrowth(10)`` alone, per step, on the
  payoffs of ``sample_gamble`` under ``SAMPLED``: 1500 ints of a dozen distinct
  values.

The climbing stream of ``EpsilonGrowth(10)`` is drawn as the benchmark's climbing
``--eps 10`` file is (``climbing_rationals``); ``climbing_input_cells`` counts the
cells its inputs fall in, about 80.  The sampler's entry, ``sample_gamble``, gives
``sample_trial_us``: one ``sample_gamble`` call under ``SAMPLED`` per trial it draws.
The text entries time what turns flag and file text into values: ``explicit_build_us``,
``ExplicitBounds`` built from the 3,200 integer texts of ``climbing_bounds``, per
bound, and ``parse_pq_us``, ``parse_rational`` per call on the ``p/q`` texts of the
climbing ``EpsilonGrowth(10)`` stream.

The import layer, entry ``import coarsesum.cli``, times that import alone
(``import_us``), each sample in a fresh interpreter started with the caller's
environment and the tree first on ``PYTHONPATH``; the trees take turns,
``IMPORT_RUNS`` samples per tree and round, and its spread is over all
samples.  The whole-process entries, ``cli_run_us``, one per command of
``CLI_RUNS``, are timed the same way from outside: the wall time of one
``python -m coarsesum.cli <command>`` from interpreter start to exit, so it also
holds what the process spends after its work, at exit.  Next to it,
``cli_peak_rss_kb`` is the command's own peak resident set, from one more,
untimed run per tree and round: the process runs the module through ``runpy``
and reads its ``VmHWM`` from ``/proc/self/status`` at exit, at the ``os._exit`` that
ends a command or at the usual exit of help and usage errors (so this entry needs
Linux).  The child's ``ru_maxrss`` would not do, since exec carries the
spawner's high-water mark into it.  A shift in heap layout alone can raise ``VmHWM``,
so with two or more trees each command whose ``cli_peak_rss_kb`` has ``risen`` (see
below) runs once more per tree under ``tracemalloc``, and its peak of traced Python
memory is written beside it as ``cli_peak_traced_kb``, with its ratio.  The trees take
turns on each run; the start-up commands, one short command per subcommand and one
usage error, which argparse answers, run ``IMPORT_RUNS`` times per tree and round, the
long ones once; each sample is one process.  A command's ``{name}`` fields name the
seeded files and flag text of ``fold_inputs``.  One long command folds the ``{swing}``
file, 7 and -7 in turn, on real ``--bounds`` cut every 4 from -60 to 60: its sum leaves
its cell on every step and comes back to the cells it left, so the fold kernel reads a
sum's representative off its cell's span on every step: the one input class where a
memo of sum cells would pay.
Every run of a command must print the stdout of its first run on the first tree; the
run names each command that differs, and exits 1.  Start-up depends on bytecode
caching, so every child runs with ``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs
each command; delete ``__pycache__`` in every tree to time what each command of the
benchmark pays.

The output JSON holds the machine, the Python version, every tree's entries
and, with two or more trees, each later tree's medians and minimums divided
by the first's, next to the quartiles of the ratio taken sample by sample
(``paired``: each later tree's sample over the first tree's sample taken beside
it in the same round).  Drift between two trees' interpreters moves whole
rounds, so one tree's spread understates it, and on a busy machine a whole run of
rounds can drift too.  So a ``_us`` row whose paired q1 is above ``RISEN_FLOOR`` is
timed again: its worker part, the import or its command, once for all of its rows,
in ``2 * --rounds`` more samples per tree, the trees taking turns.  Its ratio
gains ``again``, the quartiles of the re-run's paired ratios, and the row has
``risen`` only if their median is above ``RISEN_FLOOR`` too (see :func:`risen`).
A ``_kb`` row has risen on its paired q1 alone.  The run lists the rows that have
risen; the list gates nothing: the exit code depends only on differing stdout.
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
import tempfile
import time
import timeit
from fractions import Fraction as F

FOLD_REPEAT = 5
CALL_REPEAT = 7
IMPORT_RUNS = 10
#: The paired q1 above which a row has ``risen``.  In ``BENCH_33.json`` an unchanged copy
#: of the parent tree rose on 7 rows, by up to +1.4% (paired q1 up to 1.009): drift
#: between two interpreters, not a change in the code.
RISEN_FLOOR = 1.02
#: Increment per family for ``absorbing_scan_us``: Fibonacci settles in cell 436,
#: EpsilonGrowth(10) in cell 2001, and no 1000-wide cell beats its own margin of 500.
SCAN_INCREMENTS = {"Fibonacci": 2**300, "EpsilonGrowth(10)": 100,
                   "ExplicitBounds(1000-wide)": 500}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import coarsesum.cli; "
                "print(time.perf_counter() - t)")
#: Whole-process commands, and their runs per tree and round: start-up, a short command
#: of each subcommand (the ``{short}`` file holds 20 lines) and a usage error, then the
#: long ``inert`` streams that stop at their first absorbed step, a constant under a
#: large ``--bound``, which stops at its fixed point and scans for no cell, and a
#: climbing fold to the horizon, sampling, as the benchmark's stpete-sampled workload
#: does and at 1e5 trials, 1e5 partition rows, and long folds, one of them a sum that
#: swings about 0.
CLI_RUNS = {
    "partition --width 3 --cells 1": IMPORT_RUNS,
    "fold --fibonacci --input {short}": IMPORT_RUNS,
    "inert --fibonacci --const 3 --bound 3": IMPORT_RUNS,
    "stpete --eps 10 --format json": IMPORT_RUNS,
    "partition --cells 0 --width 3": IMPORT_RUNS,
    "inert --eps 4 --harmonic --horizon 8000": 1,
    "inert --eps 10 --harmonic --horizon 100000": 1,
    "inert --eps 10 --geometric 5 1/2 --horizon 10000": 1,
    "inert --eps 10 --const 1/2 --bound 30000": 1,
    "inert --width 3 --const 3 --horizon 100000": 1,
    "stpete --eps 10 --trials 1500 --seed 7": 1,
    "stpete --eps 10 --depth 10 --trials 100000 --seed 7": 1,
    "partition --width 3 --cells 100000": 1,
    # folds of seeded files, as fold-climbing's epsilon and explicit commands at scale
    "fold --eps 10 --input {pq} --format csv": 1,
    "fold --eps 10 --input {pq} --format json": 1,
    "fold --bounds {bounds} --input {ints} --format csv": 1,
    "fold --bounds {bounds} --input {ints} --format json": 1,
    # a file whose sum pins in cell 1 at step 2, as fold-absorbing's inert file at scale:
    # folded in every format, and judged as a stream that stops where its sum cell
    # absorbs the file's largest value
    "fold --eps 10 --input {small} --format csv": 1,
    "fold --eps 10 --input {small} --format json": 1,
    "fold --eps 10 --input {small} --format table": 1,
    "inert --eps 10 --from-file {small} --horizon 100000": 1,
    # the same file checked against --bound by its largest value alone, then certified
    "inert --eps 10 --from-file {small} --horizon 100000 --bound 1/2": 1,
    # a sum that leaves its cell on every step and comes back to the cells it left: the
    # {swing} file's 7 and -7 on real cells 4 wide from -60 to 60
    "fold --bounds " + ",".join(map(str, range(-60, 61, 4))) + " --domain real --input {swing}"
    " --format csv": 1,
}
#: Lines of the ``{pq}``, ``{small}`` and ``{swing}`` files of the whole-run folds.
FOLD_LINES = 100_000
#: Runs ``python -m coarsesum.cli`` and, at exit, writes the process's own peak in KiB
#: as the last line of stderr: at the ``os._exit`` that ends a command, which runs no
#: atexit handler, or at the atexit of any other exit.  ``TRACED`` picks the peak: the
#: resident set's ``VmHWM``, or the peak of the Python memory that ``tracemalloc`` traces;
#: only the latter imports ``tracemalloc``, so the resident peak counts what the command loads.
PEAK_PROBE = """\
import atexit, os, runpy, sys
def peak():
    if TRACED:
        print(tracemalloc.get_traced_memory()[1] // 1024, file=sys.stderr, flush=True)
        return
    with open("/proc/self/status", encoding="ascii") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")),
              file=sys.stderr, flush=True)
exit_now = os._exit
os._exit = lambda code: (peak(), exit_now(code))
atexit.register(peak)
if TRACED:
    import tracemalloc
    tracemalloc.start()
runpy.run_module("coarsesum.cli", run_name="__main__", alter_sys=True)
"""
#: The probe of each peak entry.
PEAKS = {"cli_peak_rss_kb": "TRACED = False\n" + PEAK_PROBE,
         "cli_peak_traced_kb": "TRACED = True\n" + PEAK_PROBE}
CLI_FAMILY = "python -m coarsesum.cli "  # the prefix of a whole-process entry's name
IMPORT_ROW = "import coarsesum.cli"
#: The sampled stream of ``sample_trial_us`` and ``fold_step_sampled_us``: the CLI's
#: default truncation, and the trials of the stpete-sampled workload.
SAMPLED = {"truncation_depth": 64, "trials": 1500, "seed": 7}
#: What each worker interpreter times: the sampler and text entries, then those of each
#: family of ``cases()`` in its own part.
PARTS = ("sample_gamble and text", "FixedWidth(7)", "Fibonacci", "EpsilonGrowth(10)",
         "ExplicitBounds(1000-wide)", "SingletonGrid(1/2)")
SPREAD_KEYS = ("_us", "_kb")  # entries given as a spread; the rest are one value
FORMATS = ("json", "csv", "table")


def climbing_rationals(rng, n):
    """n rationals p/q in [2000, 4000] with q in 2..9, as the benchmark's climbing
    ``--eps 10`` file holds them: on ``EpsilonGrowth(10)`` they fall in about 80 cells."""
    return [F(rng.randint(2000 * q, 4000 * q), q) for q in (rng.randint(2, 9) for _ in range(n))]


def climbing_bounds(rng):
    """3,200 ascending integer bounds, as the benchmark's climbing ``--bounds``: 40 unit
    cells, then cells of width 20..40."""
    bounds = list(range(41))
    while len(bounds) < 3_200:
        bounds.append(bounds[-1] + rng.randint(20, 40))
    return bounds


def fold_inputs(work: str) -> dict:
    """The ``{name}`` fields of ``CLI_RUNS``, seeded: ``pq``, a file of ``FOLD_LINES``
    climbing rationals; ``bounds``, the text of ``climbing_bounds``; ``ints``, a file of
    2,000 ints of 25..45, which climb about a cell a step through those bounds; ``short``,
    a file of 20 ints of 0..9; ``small``, a file of ``FOLD_LINES`` rationals p/q in
    (0, 1/2] with q in 2..9, drawn as fold-absorbing's inert file is; ``swing``, a file
    of ``FOLD_LINES`` ints, 7 and -7 in turn."""
    rng = random.Random(33)
    files = {"pq": climbing_rationals(rng, FOLD_LINES),
             "ints": [rng.randint(25, 45) for _ in range(2_000)]}
    fields = {"bounds": ",".join(map(str, climbing_bounds(rng)))}
    files["short"] = [rng.randint(0, 9) for _ in range(20)]
    files["small"] = [F(rng.randint(1, q // 2), q)
                      for q in (rng.randint(2, 9) for _ in range(FOLD_LINES))]
    files["swing"] = [7, -7] * (FOLD_LINES // 2)
    for name, values in files.items():
        fields[name] = os.path.join(work, f"{name}.txt")
        with open(fields[name], "w", encoding="utf-8") as fh:
            fh.write("".join(f"{v}\n" for v in values))
    return fields


def cases():
    """(family name, family, pinned stream, climbing stream, turns) for each family.

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
        ("EpsilonGrowth(10)", EpsilonGrowth(F(10)), [F(1, 2)] * n, climbing_rationals(rng, n),
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
    return [(name, family, read(pinned), read(climbing),
             read(turns[t % len(turns)] for t in range(n)))
            for name, family, pinned, climbing, turns in out]


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


def per_row(trace, fmt) -> float:
    from coarsesum import FoldStep
    from coarsesum.rationals import write_rows
    return min(timeit.repeat(lambda: write_rows(FoldStep._fields, trace, fmt), number=1,
                             repeat=CALL_REPEAT)) / len(trace) * 1e6


def per_cell_scanned(partition, increment) -> float:
    from coarsesum import Policy, first_absorbing_cell
    scan = lambda: first_absorbing_cell(partition, Policy.MEDIAN_LOWER, increment)
    visited = scan() or partition.max_index
    return min(timeit.repeat(scan, number=1, repeat=CALL_REPEAT)) / visited * 1e6


def measure(part: str) -> dict:
    """The entries of one part of ``PARTS``, timed in this interpreter's ``coarsesum``."""
    from coarsesum import CoarseContext, ExplicitBounds, parse_rational, rep_of_value, sample_gamble
    families = {name: case for name, *case in cases()}
    assert list(families) == list(PARTS[1:]), "a part for each family"
    sample = lambda: sample_gamble(**SAMPLED)
    if part == PARTS[0]:
        bound_texts = list(map(str, climbing_bounds(random.Random(33))))
        texts = [f"{x.numerator}/{x.denominator}" for x in families["EpsilonGrowth(10)"][2]]
        sample_s = min(timeit.repeat(sample, number=1, repeat=CALL_REPEAT))
        return {"sample_gamble": {"sample_trial_us": sample_s / SAMPLED["trials"] * 1e6},
                "ExplicitBounds(3200 texts)": {"explicit_build_us": per_call(
                    ExplicitBounds, [bound_texts]) / len(bound_texts)},
                "parse_rational": {"parse_pq_us": per_call(parse_rational, texts)}}
    partition, pinned, climbing, turns = families[part]
    ctx = CoarseContext(partition)
    trace = ctx.fold(climbing)
    inputs = climbing[:500]
    cells = [step.s_cell for step in trace][:500]
    out = {
        "fold_step_pinned_us": per_step(ctx, pinned),
        "fold_step_climbing_us": per_step(ctx, climbing),
        "inert_stream_pinned_us": per_verdict_step(ctx, turns),
        "index_of_us": per_call(partition.index_of, inputs),
        "cell_at_us": per_call(partition.cell_at, cells),
        "rep_of_value_us": per_call(lambda x: rep_of_value(partition, x), inputs),
        **{f"render_row_{fmt}_us": per_row(trace, fmt) for fmt in FORMATS},
        "climbing_new_cell_share": sum(not s.absorbed for s in trace) / len(trace),
    }
    if part in SCAN_INCREMENTS:
        out["absorbing_scan_us"] = per_cell_scanned(partition, SCAN_INCREMENTS[part])
    if part == "EpsilonGrowth(10)":
        out["fold_step_sampled_us"] = per_step(ctx, sample())
        out["climbing_input_cells"] = len(set(map(partition.index_of, climbing)))
    return {part: out}


def risen(paired, again=None) -> bool:
    """Whether a row has risen: the q1 of its paired ratios is above ``RISEN_FLOOR``, and
    so is the median of ``again``, the paired ratios of its re-run, when it has one."""
    return (spread(paired)["q1"] > RISEN_FLOOR
            and (again is None or spread(again)["median"] > RISEN_FLOOR))


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


def worker(src: str, part: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--worker", src, part],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def tree_env(src: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    return env


def import_seconds(src: str) -> float:
    """``import coarsesum.cli`` from ``src``, timed in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=tree_env(src),
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def cli_run(src: str, command: str, peak: str | None = None) -> tuple:
    """(entry, value, stdout) of one whole ``python -m coarsesum.cli command`` process
    from ``src``: its ``cli_run_us`` from interpreter start to exit, or the ``peak``
    entry of ``PEAKS``, read under ``PEAK_PROBE``."""
    entry = ("-c", PEAKS[peak]) if peak else ("-m", "coarsesum.cli")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *entry, *command.split()], env=tree_env(src),
                          capture_output=True)
    seconds = time.perf_counter() - start
    if proc.returncode not in (0, 2, 3):  # a usage error and a no-verdict answer are expected
        proc.check_returncode()
    if peak:
        return peak, int(proc.stderr.splitlines()[-1]), proc.stdout
    return "cli_run_us", seconds * 1e6, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], metavar="[LABEL=]PATH",
                        help="source tree holding the coarsesum package (repeatable)")
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="interpreters per tree, taken in turns (default: 10)")
    parser.add_argument("--worker", nargs=2, metavar=("PATH", "PART"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path.insert(0, os.path.abspath(args.worker[0]))
        print(json.dumps(measure(args.worker[1])))
        return 0
    if not args.src:
        parser.error("give at least one --src")
    trees = {}
    for item in args.src:
        label, _, path = item.rpartition("=")
        trees[label or path] = os.path.abspath(path)
    labels = list(trees)
    samples = {label: {} for label in trees}  # label -> family -> key -> per-round values
    stdout, differing = {}, set()  # command -> the first run's stdout; (command, label)
    source_of = {}  # family -> the source of ``take`` that times its rows
    work = tempfile.TemporaryDirectory()
    fields = fold_inputs(work.name)

    def take(source, label, into):
        """One sample of each row of ``source`` from tree ``label``, added to ``into``: a
        part of ``PARTS``, ``IMPORT_ROW`` or a command of ``CLI_RUNS``."""
        if source in PARTS:
            taken = worker(trees[label], source)
        elif source == IMPORT_ROW:
            taken = {IMPORT_ROW: {"import_us": import_seconds(trees[label]) * 1e6}}
        else:
            key, value, out = cli_run(trees[label], source.format(**fields))
            if stdout.setdefault(source, out) != out:
                differing.add((source, label))
            taken = {CLI_FAMILY + source: {key: value}}
        for family, entries in taken.items():
            source_of[family] = source
            for key, value in entries.items():
                into.setdefault(family, {}).setdefault(key, []).append(value)

    for r in range(args.rounds):
        order = labels if r % 2 == 0 else labels[::-1]
        for _ in range(IMPORT_RUNS):
            for label in order:
                take(IMPORT_ROW, label, samples[label])
        for command, count in CLI_RUNS.items():
            for _ in range(count):
                for label in order:
                    take(command, label, samples[label])
            for label in order:  # one more, untimed run for the peak
                key, value, out = cli_run(trees[label], command.format(**fields),
                                          "cli_peak_rss_kb")
                samples[label][CLI_FAMILY + command].setdefault(key, []).append(value)
                if stdout[command] != out:
                    differing.add((command, label))
        for part in PARTS:
            for label in order:
                take(part, label, samples[label])
    result = {label: {family: {key: spread(values) if key.endswith(SPREAD_KEYS) else values[0]
                               for key, values in entries.items()}
                      for family, entries in families.items()}
              for label, families in samples.items()}
    report = {
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "processor": cpu_model() or platform.processor() or None, "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "method": f"spread over {args.rounds} rounds of one interpreter per tree and part, "
                  f"taken in turns; "
                  f"fold steps: min of {FOLD_REPEAT} folds / steps; calls: min of "
                  f"{CALL_REPEAT} passes / calls (rows: / rows); import: {IMPORT_RUNS} "
                  f"interpreters per tree and round, taken in turns; cli runs: {IMPORT_RUNS} "
                  f"per tree and round for each start-up command, 1 for each long command, "
                  f"taken in turns, each sample one process, and 1 more untimed run of each "
                  f"for its peak RSS; a _us row whose paired q1 is above {RISEN_FLOOR}: its "
                  f"part, import or command timed {2 * args.rounds} more times per tree, taken "
                  f"in turns; a command whose peak RSS has risen: 1 more run per tree for its "
                  f"tracemalloc peak",
        "env": {k: v for k, v in os.environ.items() if k.startswith("PYTHON")},
        "trees": result,
    }
    risen_rows, retrace = [], set()  # rows that have risen; their commands' risen peaks
    if len(labels) > 1:
        first = labels[0]
        ratios = report[f"ratio_to_{first}"] = {label: {} for label in labels[1:]}
        flagged = []  # (label, family, key, paired ratios) of each _us row to time again
        for label in labels[1:]:
            for family, entries in result[label].items():
                for key, value in entries.items():
                    if not key.endswith(SPREAD_KEYS):
                        continue
                    base = result[first][family][key]
                    paired = [a / b for a, b in zip(samples[label][family][key],
                                                    samples[first][family][key])]
                    ratios[label].setdefault(family, {})[key] = {
                        **{stat: round(value[stat] / base[stat], 3) for stat in ("median", "min")},
                        "paired": {stat: round(spread(paired)[stat], 3)
                                   for stat in ("q1", "median", "q3")}}
                    if not risen(paired):
                        continue
                    if key.endswith("_us"):
                        flagged.append((label, family, key, paired))
                    else:
                        risen_rows.append(f"{label}: {family}: {key}")
                        if key == "cli_peak_rss_kb":
                            retrace.add(family)
        again = {label: {} for label in labels}  # label -> family -> key -> re-run values
        sources = dict.fromkeys(source_of[family] for _, family, _, _ in flagged)
        for source in sources:  # each once, for all of its flagged rows
            for r in range(2 * args.rounds):
                for label in labels if r % 2 == 0 else labels[::-1]:
                    take(source, label, again[label])
        for label, family, key, paired in flagged:
            rerun = [a / b for a, b in zip(again[label][family][key], again[first][family][key])]
            ratios[label][family][key]["again"] = {stat: round(spread(rerun)[stat], 3)
                                                   for stat in ("q1", "median", "q3")}
            if risen(paired, rerun):
                risen_rows.append(f"{label}: {family}: {key}")
        for family in sorted(retrace):  # one more run per tree, traced
            command = family[len(CLI_FAMILY):]
            for label in labels:
                key, value, out = cli_run(trees[label], command.format(**fields),
                                          "cli_peak_traced_kb")
                result[label][family][key] = value
                if stdout[command] != out:
                    differing.add((command, label))
            for label in labels[1:]:
                ratios[label][family][key] = round(result[label][family][key]
                                                   / result[first][family][key], 3)
        report["risen"] = risen_rows
    work.cleanup()
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for row in risen_rows:
        print(f"risen: {row}", file=sys.stderr)
    for command, label in sorted(differing):
        print(f"{command}: {label} prints other stdout", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
