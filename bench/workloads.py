"""The four workloads: seeded inputs, the CLI invocations of one pass, and their checks.

A workload builds its inputs from a ``random.Random`` seeded with the workload
name and the run seed, writes any input files to a scratch directory, and
returns the invocations of one pass in a fixed order.  Every invocation
carries the number of coarse-addition steps its inputs ask for, counted from
the inputs and not from the program's output, and a check that judges the
exit code and stdout against ``reference``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import reference as ref

#: Default length of the expected-increment stream of ``stpete``.
STPETE_DEPTH = 10_000


@dataclass(frozen=True)
class Invocation:
    name: str                              # stable within a workload, names the output digest
    argv: tuple                            # arguments after ``python -m coarsesum.cli``
    steps: int                             # coarse-addition steps the inputs ask for
    check: Callable[[int, str], list]      # (exit code, stdout) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, Path], list]
    pass_s: float       # nominal wall time of one pass at the baseline commit
    min_passes: int = 3


def _write(work: Path, name: str, values) -> str:
    path = work / f"{name}.txt"
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    return str(path)


def _fold_invocations(work, name, flags, layout, values, formats):
    """``fold`` of one input file in each of ``formats``; the reference fold is shared."""
    path = _write(work, name, values)
    rows = functools.cache(lambda: ref.fold(layout, values))
    return [Invocation(f"fold/{name}/{fmt}",
                       ("fold", *flags, "--input", path, "--format", fmt), len(values),
                       lambda code, out, fmt=fmt: ref.check_fold(rows(), fmt, code, out))
            for fmt in formats]


def _inert_invocation(name, flags, stream, horizon, fmt, bound=None):
    """``inert`` over a generated stream; ``stream`` maps step t to its value."""
    argv = ("inert", *flags, "--horizon", str(horizon), "--format", fmt)
    layout = ref.layout_from_argv(argv)
    if bound is not None:
        argv += ("--bound", bound)
        rows = lambda: None  # certified: checked only for what the certificate promises
    else:
        rows = functools.cache(
            lambda: ref.fold(layout, [stream(t) for t in range(1, horizon + 1)]))
    return Invocation(f"inert/{name}/{fmt}", argv, horizon,
                      lambda code, out: ref.check_inert(layout, rows(), fmt, code, out))


def _rationals(rng, n, lo, hi):
    """n rationals p/q drawn evenly from [lo, hi], with q in 2..9."""
    out = []
    for _ in range(n):
        q = rng.randint(2, 9)
        out.append(Fraction(rng.randint(lo * q, hi * q), q))
    return out


# ----------------------------------------------------------- fold-climbing

def _climbing_fibonacci(rng, n):
    """Integers that lift a Fibonacci fold out of its cell on almost every step.

    Each value is drawn from 0.4..1.0 times the running coarse sum, more than
    the cell's upward margin, so the sum grows by a constant factor per step.
    """
    layout = ref.FibonacciLayout()
    values, cell = [], None
    for _ in range(n):
        s = 0 if cell is None else int(ref.rep(layout, cell))
        x = rng.randint(1, 10) if cell is None else rng.randint(max(1, 2 * s // 5), max(2, s))
        values.append(x)
        total = x if cell is None else s + ref.collapse(layout, x)
        cell = layout.index(total)
    return values


def fold_climbing(rng, work):
    formats = ["table", "json", "csv"]
    invs = []
    invs += _fold_invocations(work, "fixed-width", ("--width", "7"), ref.FixedWidthLayout(7),
                              [rng.randint(7, 27) for _ in range(2_000)], formats)
    invs += _fold_invocations(work, "fibonacci", ("--fibonacci",), ref.FibonacciLayout(),
                              _climbing_fibonacci(rng, 800), formats)
    # 40 unit cells keep small inputs exact; then 3.2k cells of width 20..40.
    # The 2k inputs of 25..45 advance the sum about one cell a step, and it
    # ends near 80% of the last bound, so no seed runs past it.
    bounds = list(range(41))
    while len(bounds) < 3_200:
        bounds.append(bounds[-1] + rng.randint(20, 40))
    invs += _fold_invocations(work, "explicit", ("--bounds", ",".join(map(str, bounds))),
                              ref.ExplicitLayout(bounds),
                              [rng.randint(25, 45) for _ in range(2_000)], formats)
    invs += _fold_invocations(work, "epsilon", ("--eps", "10"), ref.EpsilonLayout(10),
                              _rationals(rng, 2_000, 2000, 4000), formats)
    return invs


# ---------------------------------------------------------- fold-absorbing

def fold_absorbing(rng, work):
    horizon = 8_000
    c = rng.choice(["1/2", "1/3", "2/5", "3/7", "1/4"])
    k = str(rng.randint(1, 4))
    small = []
    for _ in range(horizon):  # values in (0, 1/2]
        q = rng.randint(2, 9)
        small.append(Fraction(rng.randint(1, q // 2), q))
    path = _write(work, "small", small)
    invs = [
        _inert_invocation("harmonic", ("--eps", "4", "--harmonic"),
                          lambda t: Fraction(1, t), horizon, "json"),
        _inert_invocation("const-eps", ("--eps", "10", "--const", c),
                          lambda t: Fraction(c), horizon, "json"),
        _inert_invocation("const-fib", ("--fibonacci", "--const", k),
                          lambda t: Fraction(k), horizon, "table"),
        _inert_invocation("file-eps", ("--eps", "10", "--from-file", path),
                          lambda t: small[t - 1], horizon, "json"),
        _inert_invocation("bound-eps", ("--eps", "10", "--const", c), None, horizon,
                          "table", bound="1/2"),
        _inert_invocation("bound-fib", ("--fibonacci", "--const", k), None, horizon,
                          "json", bound=k),
    ]
    invs += _fold_invocations(work, "const-eps", ("--eps", "10"), ref.EpsilonLayout(10),
                              [Fraction(c)] * horizon, ["table"])
    w = rng.randint(1, 3)
    invs += _fold_invocations(work, "const-width", ("--width", "7"), ref.FixedWidthLayout(7),
                              [w] * horizon, ["csv"])
    return invs


# ---------------------------------------------------------- stpete-sampled

def _stpete_invocation(eps, fmt, trials=0, seed=0):
    argv = ("stpete", "--eps", eps, "--format", fmt)
    if trials:
        argv += ("--trials", str(trials), "--seed", str(seed))
    reference = functools.cache(lambda: ref.gamble_reference(Fraction(eps), STPETE_DEPTH,
                                                             trials, seed))
    name = f"stpete/{eps}/{fmt}" + ("/trials" if trials else "")
    return Invocation(name, argv, STPETE_DEPTH + trials,
                      lambda code, out: ref.check_stpete(reference(), fmt, code, out, seed))


def stpete_sampled(rng, work):
    return [_stpete_invocation(eps, fmt, 1_500, rng.randrange(2**32))
            for eps in ("2", "10", "101/3") for fmt in ("table", "json")]


# ---------------------------------------------------------------- cli-quick

def _partition_invocations(name, flags, layout, cells):
    return [Invocation(f"partition/{name}/{fmt}",
                       ("partition", *flags, "--cells", str(cells), "--format", fmt), 0,
                       lambda code, out, fmt=fmt: ref.check_partition(layout, cells, fmt,
                                                                      code, out))
            for fmt in ("table", "json", "csv")]


def cli_quick(rng, work):
    cells = 40
    width = str(rng.randint(2, 9))
    eps = rng.choice(["2", "5/2", "7", "10", "101/3"])
    grid = rng.choice(["1/2", "1/3", "3/4", "2"])
    bounds = [0]
    for _ in range(cells):
        bounds.append(bounds[-1] + rng.randint(1, 9))
    bounds = ",".join(map(str, bounds))
    invs = []
    for name, flags in (("fixed-width", ("--width", width)), ("fibonacci", ("--fibonacci",)),
                        ("epsilon", ("--eps", eps)), ("explicit", ("--bounds", bounds)),
                        ("grid", ("--grid", grid))):
        invs += _partition_invocations(name, flags, ref.layout_from_argv(flags), cells)
    c = rng.choice(["1/2", "1/3", "3/8"])
    k = str(rng.randint(1, 9))
    invs += [
        _inert_invocation("bound-eps", ("--eps", eps, "--const", c), None, 1000, "json",
                          bound=c),
        _inert_invocation("bound-fib", ("--fibonacci", "--const", k), None, 1000, "table",
                          bound=k),
        _inert_invocation("bound-harmonic", ("--eps", "10", "--harmonic"), None, 1000,
                          "json", bound="1"),
        # climbs on every step, so no verdict: exit code 3 is the expected one
        _inert_invocation("climbing", ("--width", "7", "--const", "10"),
                          lambda t: Fraction(10), 200, "table"),
    ]
    invs += [_stpete_invocation(e, fmt) for e, fmt in
             ((eps, "table"), ("10", "json"), (rng.choice(["2", "4", "101/3"]), "table"))]
    invs += _fold_invocations(work, "short-fibonacci", ("--fibonacci",), ref.FibonacciLayout(),
                              [rng.randint(0, 30) for _ in range(20)], ["table"])
    invs += _fold_invocations(work, "short-epsilon", ("--eps", eps), ref.EpsilonLayout(eps),
                              _rationals(rng, 20, 0, 5), ["csv"])
    invs += _fold_invocations(work, "short-width", ("--width", width),
                              ref.FixedWidthLayout(int(width)),
                              [rng.randint(0, 40) for _ in range(20)], ["json"])
    return invs


WORKLOADS = {w.name: w for w in (
    Workload("fold-climbing",
             "rising sums: nearly every step lands in a new cell, stressing cell "
             "lookup, collapse, rep_add and row rendering with few absorbed steps",
             fold_climbing, pass_s=6.5),
    Workload("fold-absorbing",
             "pinned streams over long horizons: the same fold layer with most steps "
             "absorbed and states repeating, where early exit would pay",
             fold_absorbing, pass_s=6.5),
    Workload("stpete-sampled",
             "the paper's application: Philox-sampled bignum payoffs folded on "
             "EpsilonGrowth, plus the singleton-grid control fold",
             stpete_sampled, pass_s=6.5),
    Workload("cli-quick",
             "many short commands on every subcommand and family, where interpreter "
             "and import start-up dominate the wall time",
             cli_quick, pass_s=5.0, min_passes=4),
)}


def build(workload: str, seed: int, work: Path) -> list:
    """The invocations of one pass of ``workload`` for ``seed``; inputs go to ``work``."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"), work)
