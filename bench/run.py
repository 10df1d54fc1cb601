"""Whole-run benchmark of the coarsesum CLI.

    python3 -m bench.run --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times the CLI as a subprocess
(``python -m coarsesum.cli`` with ``src`` on ``PYTHONPATH``), one invocation at
a time -- a closed loop with one client -- and prints the end-to-end metrics.
With ``--trace 1`` it calls ``coarsesum.cli.main`` in-process on the same
inputs, once plainly and once under ``tracing.traced``, and prints the
per-layer metrics.  Every output of either run is checked against
``reference``.  The last line of stdout is the result object; the line before
it is a detail record (environment, sample counts, output digests, failures
and the full per-layer table).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter

from . import tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Bare-import subprocesses timed per run for ``setup_s`` and the import layer.
SETUP_REPEATS = 7

#: A fixed task that shares nothing with coarsesum: interpreter start, the
#: standard-library imports the CLI uses, and exact rational sums.  Other
#: tenants of a shared machine slow it down by 10-70% for seconds to minutes
#: at a time.  A reference run just before a command sees the same slowdown,
#: so each command's wall and CPU time is divided by the reference's and
#: quoted in seconds at the speed where the reference takes ``REFERENCE_S``.
REFERENCE = ("from fractions import Fraction\n"
             "import argparse, csv, json\n"
             "s = Fraction(0)\n"
             "for k in range(1, 3000):\n"
             "    s += Fraction(1, k % 50 + 1)\n")

#: Wall and CPU time of ``REFERENCE`` on an undisturbed 2-core Xeon VM (Python 3.11).
REFERENCE_S = 0.065

#: A new reference run precedes a command once this much command time has
#: passed since the last one, and precedes every ``setup_s`` sample.
REFERENCE_EVERY_S = 0.75

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120

#: Per-layer metrics printed in the result line of a traced run; the detail
#: line holds the full table.  Self times are listed only for functions that
#: every workload calls, so none of them reads zero on any workload.
PER_LAYER = (
    [(f"{name}.calls", "count") for name in tracing.layer_names()]
    + [(f"{name}.self_s", "s") for name in (
        "cli.main", "rationals.parse_rational", "rationals.format_rational",
        "rationals.format_decimal", "partitions.build_partition", "partitions.index_of",
        "partitions.cell_at", "partitions.cell_of", "partitions.index_of.EpsilonGrowth",
        "partitions.cell_at.EpsilonGrowth", "representatives.rep_of_cell",
        "representatives.rep_of_value", "ops.normalize", "ops.rep_add", "ops.fold")]
    + [(name, "s") for name in ("import.interpreter_s", "import.numpy_s",
                                "import.coarsesum_s", "trace.overhead_s")]
    + [("import.numpy_loaded", "count")]
    + [(name, unit) for name, (_, unit) in tracing.Tracer().counters().items()]
)


class Verifier:
    """Checks outputs once per distinct (invocation, exit code, stdout)."""

    def __init__(self):
        self.verified = {}    # invocation name -> digests already checked good
        self.digests = {}     # invocation name -> every stdout digest seen
        self.attempted = 0
        self.failures = []

    def __call__(self, inv, code, out):
        self.attempted += 1
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        seen = self.digests.setdefault(inv.name, [])
        if digest not in seen:
            seen.append(digest)
        key = f"{code}:{digest}"
        if key in self.verified.get(inv.name, ()):
            return
        try:
            problems = inv.check(code, out)
        except Exception as exc:  # unreadable output is a failed check, not a crash
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failures.append({"invocation": inv.name, "problems": problems[:3]})
        else:
            self.verified.setdefault(inv.name, set()).add(key)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                       if env.get("PYTHONPATH") else []))
    return env


def spawn(args, env, work):
    """Run ``python args`` to exit; return (code, stdout, wall, cpu, max RSS in KiB)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    return proc.returncode, text, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def time_imports(env, work):
    """The ``import`` layer, each a median over fresh interpreters."""
    probe = ("import sys, time; t = time.perf_counter(); import {m}; "
             "print(time.perf_counter() - t, int('numpy' in sys.modules))")
    interp, numpy_s, cli_s, loaded = [], [], [], 0
    for _ in range(SETUP_REPEATS):
        interp.append(spawn(["-c", "pass"], env, work)[2])
        numpy_s.append(float(spawn(["-c", probe.format(m="numpy")], env, work)[1].split()[0]))
        code, out, *_ = spawn(["-c", probe.format(m="coarsesum.cli")], env, work)
        cli_s.append(float(out.split()[0]))
        loaded = int(out.split()[1])
    return {"import.interpreter_s": statistics.median(interp),
            "import.numpy_s": statistics.median(numpy_s),
            "import.coarsesum_s": statistics.median(cli_s),
            "import.numpy_loaded": loaded}


def tail(values):
    """The highest percentile with at least 10 samples beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------- untraced

def run_untraced(invs, passes, env, work, verify):
    """Run every invocation ``passes`` times and reduce the samples to metrics.

    Every time is scaled by the reference run taken just before it (see
    ``REFERENCE``).  A command's time is its median over its repeats:
    ``wall_s`` and ``cpu_s`` sum them, and the median and tail are over the
    run's commands with those times.
    ``setup_s`` samples are spread evenly through the run and their median
    is taken.  Raw, unscaled figures go to the detail line.
    """
    setup_cmd = ["-c", "import coarsesum.cli"]
    spawn(setup_cmd, env, work)  # warm-up: byte-compiles the sources once
    total = passes * len(invs)
    setup_at = {total * k // SETUP_REPEATS for k in range(SETUP_REPEATS)}
    setup, wall, cpu, raw_wall, rss = [], [], [], [], []
    since_reference = REFERENCE_EVERY_S
    for p in range(passes):
        for i, inv in enumerate(invs):
            setup_here = p * len(invs) + i in setup_at
            if setup_here or since_reference >= REFERENCE_EVERY_S:
                _, _, ref_wall, ref_cpu, _ = spawn(["-c", REFERENCE], env, work)
                since_reference = 0.0
            if setup_here:
                setup.append(spawn(setup_cmd, env, work)[2] * REFERENCE_S / ref_wall)
            code, out, seconds, cpu_seconds, max_rss = spawn(
                ["-m", "coarsesum.cli", *inv.argv], env, work)
            verify(inv, code, out)
            since_reference += seconds
            raw_wall.append(seconds)
            wall.append(seconds * REFERENCE_S / ref_wall)
            cpu.append(cpu_seconds * REFERENCE_S / ref_cpu)
            rss.append(max_rss)
    n = len(invs)
    per_command = [statistics.median(wall[i::n]) for i in range(n)]
    wall_s = sum(per_command)
    tail_s, tail_pct = tail(per_command * passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "cmd_p50_s": (statistics.median(per_command), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "steps_per_s": (sum(inv.steps for inv in invs) / wall_s, "1/s"),
        "cpu_s": (sum(statistics.median(cpu[i::n]) for i in range(n)), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }
    raw = {"pass_wall_s": [sum(raw_wall[p * n:(p + 1) * n]) for p in range(passes)],
           "cmd_p50_s": statistics.median(raw_wall), "cmd_tail_s": tail(raw_wall)[0]}
    counts = {"setup_s": len(setup), "passes": passes, "invocations": len(wall),
              "cmd_tail_percentile": tail_pct, "raw": raw}
    return metrics, counts


# ------------------------------------------------------------------ traced

def _call_main(argv):
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = sys.modules["coarsesum.cli"].main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), perf_counter() - start


def _in_process_pass(invs, verify):
    wall = 0.0
    for inv in invs:
        code, out, seconds = _call_main(inv.argv)
        wall += seconds
        verify(inv, code, out)
    return wall


def run_traced(invs, seconds, env, work, verify):
    imports = time_imports(env, work)
    sys.path.insert(0, str(SRC))
    importlib.import_module("coarsesum.cli")
    plain, traced_walls, tracers = [], [], []
    start = perf_counter()
    while True:  # pairs of plain and traced passes, as many as fit in --seconds
        pair_start = perf_counter()
        plain.append(_in_process_pass(invs, verify))
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced_walls.append(_in_process_pass(invs, verify))
        tracers.append(tracer)
        now = perf_counter()
        if (now - start) + (now - pair_start) >= seconds:
            break
    last = tracers[-1]
    layers = {name: {"calls": last.calls[name],
                     "self_s": statistics.median(t.self_s[name] for t in tracers)}
              for name in tracing.layer_names()}
    values = {}
    for name, cell in layers.items():
        values[f"{name}.calls"] = (cell["calls"], "count")
        values[f"{name}.self_s"] = (cell["self_s"], "s")
    for name, value in imports.items():
        values[name] = (value, "count" if name == "import.numpy_loaded" else "s")
    values.update(last.counters())
    values["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain),
                                  "s")
    counts = {"pairs": len(tracers), "untraced_wall_s": statistics.median(plain),
              "traced_wall_s": statistics.median(traced_walls)}
    return values, counts


# -------------------------------------------------------------------- main

def environment():
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit,
            "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coarsesum" / "cli.py").is_file():
        print(f"error: no coarsesum sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = _child_env()
        invs = workloads.build(wl.name, args.seed, work)
        verify = Verifier()
        detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "environment": environment()}
        if args.trace:
            values, counts = run_traced(invs, args.seconds, env, work, verify)
            names = PER_LAYER
        else:
            # A fixed number of passes, sized to last about --seconds at the
            # baseline, keeps every sample count and the tail percentile the
            # same on both sides of a comparison.
            passes = max(wl.min_passes, round(args.seconds / wl.pass_s))
            values, counts = run_untraced(invs, passes, env, work, verify)
            names = [(name, unit) for name, (_, unit) in values.items()]
        failed = len(verify.failures)
        detail.update(samples=counts, attempted=verify.attempted, failed=failed,
                      error_rate=failed / verify.attempted, failures=verify.failures[:5],
                      digests=verify.digests,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in values.items()})
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0, "attempted": verify.attempted, "failed": failed,
            "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in names},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
