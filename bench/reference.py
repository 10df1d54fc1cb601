"""Reference coarse arithmetic and output checks, written from the definitions.

Nothing here imports ``coarsesum``.  The benchmark judges every output of the
program against this independent implementation of the paper's definitions:

* cells -- ``FixedWidth(w)`` blocks, Fibonacci-sized blocks, ``EpsilonGrowth``
  real cells ``[0, 1/2]`` then ``(b, b + i/eps]``, explicit integer cells cut
  at given bounds, and one-point grid cells;
* the median representative (lower median of an integer cell, midpoint of a
  real one) and the upward and downward margins;
* the left fold: the first partial sum is the first raw input, and each later
  one is ``rep(rep(s) + rep(x))``;
* the observed verdict: the earliest step from which every partial sum equals
  the final one, over a constant suffix of at least two steps.

Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt

HALF = Fraction(1, 2)


class RefError(ValueError):
    """A value outside the layout: the reference refuses it."""


# ---------------------------------------------------------------- layouts
# A layout gives cell i as (lower, upper, lower_closed) and finds the index
# of the cell holding a value.  Upper bounds are always attained.

class FixedWidthLayout:
    integer = True

    def __init__(self, width: int):
        self.width = width

    def cell(self, i):
        return Fraction(self.width * (i - 1)), Fraction(self.width * i - 1), True

    def index(self, x):
        n = _as_int(x)
        return n // self.width + 1


class FibonacciLayout:
    """Cell k holds the integers from F(k+1) - 1 to F(k+2) - 2 (F(1) = F(2) = 1)."""

    integer = True

    def __init__(self):
        self._fib = [1, 2]  # F(2), F(3), ...

    def _grow_to(self, count: int) -> None:
        while len(self._fib) < count:
            self._fib.append(self._fib[-1] + self._fib[-2])

    def cell(self, i):
        self._grow_to(i + 1)
        return Fraction(self._fib[i - 1] - 1), Fraction(self._fib[i] - 2), True

    def index(self, x):
        n = _as_int(x)
        while self._fib[-1] <= n + 1:
            self._fib.append(self._fib[-1] + self._fib[-2])
        return bisect_right(self._fib, n + 1)


class EpsilonLayout:
    """Cell 1 is [0, 1/2]; cell i >= 2 is (B(i-1), B(i)] with B(i) = 1/2 + (T(i) - 1)/eps."""

    integer = False

    def __init__(self, eps):
        self.eps = Fraction(eps)

    def _bound(self, i):
        return HALF + Fraction(i * (i + 1) // 2 - 1) / self.eps

    def cell(self, i):
        if i == 1:
            return Fraction(0), HALF, True
        return self._bound(i - 1), self._bound(i), False

    def index(self, x):
        x = Fraction(x)
        if x < 0:
            raise RefError(f"{x} is below the origin")
        if x <= HALF:
            return 1
        # smallest i with T(i) = i(i+1)/2 >= y; the isqrt estimate never overshoots
        y = self.eps * (x - HALF) + 1
        i = (isqrt(floor(8 * y + 1)) - 1) // 2
        while i * (i + 1) // 2 < y:
            i += 1
        return i


class ExplicitLayout:
    """Integer cell i is [b(i-1), b(i) - 1]."""

    integer = True

    def __init__(self, bounds):
        self.bounds = [Fraction(b) for b in bounds]

    def cell(self, i):
        if i >= len(self.bounds):
            raise RefError(f"cell {i} is beyond the last explicit cell")
        return self.bounds[i - 1], self.bounds[i] - 1, True

    def index(self, x):
        n = _as_int(x)
        if not self.bounds[0] <= n < self.bounds[-1]:
            raise RefError(f"{n} is outside the explicit layout")
        return bisect_right(self.bounds, n)


class GridLayout:
    """Cell i is the single point (i - 1) * step."""

    integer = False

    def __init__(self, step):
        self.step = Fraction(step)

    def cell(self, i):
        v = (i - 1) * self.step
        return v, v, True

    def index(self, x):
        q = Fraction(x) / self.step
        if q.denominator != 1 or q < 0:
            raise RefError(f"{x} is not on the grid")
        return int(q) + 1


def _as_int(x) -> int:
    x = Fraction(x)
    if x.denominator != 1 or x < 0:
        raise RefError(f"{x} is not a nonnegative integer")
    return x.numerator


def layout_from_argv(argv) -> object:
    """The layout a CLI invocation selects with its partition flag."""
    args = list(argv)
    if "--fibonacci" in args:
        return FibonacciLayout()
    for flag, make in (("--width", lambda v: FixedWidthLayout(int(v))),
                       ("--eps", lambda v: EpsilonLayout(Fraction(v))),
                       ("--grid", lambda v: GridLayout(Fraction(v))),
                       ("--bounds", lambda v: ExplicitLayout(v.split(",")))):
        if flag in args:
            return make(args[args.index(flag) + 1])
    raise RefError(f"no partition flag in {args!r}")


# ------------------------------------------------- representatives and fold

def rep(layout, i):
    lo, hi, _ = layout.cell(i)
    if lo == hi:
        return lo
    if layout.integer:
        return lo + (hi - lo) // 2
    return (lo + hi) / 2


def collapse(layout, x):
    return rep(layout, layout.index(x))


@dataclass(frozen=True)
class Row:
    n: int
    x: Fraction
    x_cell: int
    s: Fraction
    s_cell: int
    absorbed: bool


def fold(layout, values) -> list:
    rows = []
    s = prev = None
    for n, x in enumerate(values, start=1):
        x = Fraction(x)
        x_cell = layout.index(x)
        s = x if n == 1 else collapse(layout, rep(layout, prev) + rep(layout, x_cell))
        s_cell = layout.index(s)
        rows.append(Row(n, x, x_cell, s, s_cell, s_cell == prev))
        prev = s_cell
    return rows


def observed_verdict(rows) -> dict:
    horizon = len(rows)
    final = rows[-1].s
    n = horizon
    while n > 1 and rows[n - 2].s == final:
        n -= 1
    if n < horizon:
        return {"outcome": "inert", "N": n, "cell": rows[-1].s_cell,
                "value": final, "horizon": horizon, "certified": False}
    return {"outcome": "no_verdict", "N": None, "cell": None, "value": None,
            "horizon": horizon, "certified": False}


def margin_scan(layout, increment) -> int:
    """First cell whose upward margin strictly exceeds a collapsed increment."""
    i = 1
    while layout.cell(i)[1] - rep(layout, i) <= increment:
        i += 1
    return i


# -------------------------------------------------------------- rendering

def decimal(v) -> str:
    """Exact digits for a terminating decimal, six significant digits otherwise (v >= 0)."""
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    rest, places = v.denominator, 0
    for p in (2, 5):
        k = 0
        while rest % p == 0:
            rest //= p
            k += 1
        places = max(places, k)
    if rest != 1:
        return f"{float(v):.6g}"
    digits = str(v.numerator * 10**places // v.denominator).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def interval(layout, i) -> str:
    lo, hi, lo_closed = layout.cell(i)
    if layout.integer:
        return f"{{{lo.numerator}}}" if lo == hi else f"{{{lo.numerator}..{hi.numerator}}}"
    return f"{'[' if lo_closed else '('}{decimal(lo)}, {decimal(hi)}]"


# ------------------------------------------------------------------ checks

def _equal(got, want) -> bool:
    """Text renderings from tables are compared with the reference's rendering."""
    if isinstance(got, str) and isinstance(want, Fraction):
        return got == decimal(want)
    return got == want


def _compare(problems, where, got, want):
    if not _equal(got, want):
        problems.append(f"{where}: got {got!r}, want {want!r}")


def _read_rows(fmt, out, header):
    """Parse fold or partition output into dicts of strings, by format."""
    if fmt == "json":
        return [json.loads(line) for line in out.splitlines() if line.strip()]
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(out))
        if reader.fieldnames is None or not set(header) <= set(reader.fieldnames):
            raise RefError(f"csv header {reader.fieldnames!r} lacks {header!r}")
        return list(reader)
    raise RefError(f"unknown format {fmt!r}")


def check_fold(rows, fmt, code, out) -> list:
    """Every row of a ``fold`` output against the reference fold ``rows``."""
    problems = []
    _compare(problems, "exit code", code, 0)
    if fmt == "table":
        lines = out.splitlines()
        _compare(problems, "header", lines[0].split() if lines else None,
                 ["n", "x", "x_cell", "s", "s_cell", "absorbed"])
        got = [line.split() for line in lines[1:]]
        want = [[str(r.n), decimal(r.x), str(r.x_cell), decimal(r.s), str(r.s_cell),
                 "yes" if r.absorbed else "no"] for r in rows]
    else:
        parsed = _read_rows(fmt, out, ["n", "x", "x_cell", "s", "s_cell", "absorbed"])
        truth = {"true": True, "false": False, True: True, False: False}
        got = [(int(d["n"]), Fraction(d["x"]), int(d["x_cell"]), Fraction(d["s"]),
                int(d["s_cell"]), truth.get(d["absorbed"])) for d in parsed]
        want = [(r.n, r.x, r.x_cell, r.s, r.s_cell, r.absorbed) for r in rows]
    _compare(problems, "row count", len(got), len(want))
    for g, w in zip(got, want):
        if g != w:
            _compare(problems, f"row {w[0]}", g, w)
            break
    return problems


def check_partition(layout, cells, fmt, code, out) -> list:
    problems = []
    _compare(problems, "exit code", code, 0)
    want = []
    for i in range(1, cells + 1):
        lo, hi, lo_closed = layout.cell(i)
        r = rep(layout, i)
        want.append((i, lo, hi, lo_closed, r, hi - r, r - lo))
    if fmt == "table":
        lines = out.splitlines()
        _compare(problems, "header", lines[0].split() if lines else None,
                 ["cell", "interval", "rep", "margin+", "margin-"])
        got = [line.split("  ") for line in lines[1:]]
        got = [[f.strip() for f in g if f.strip()] for g in got]
        want_text = [[str(i), interval(layout, i), decimal(r), decimal(mp), decimal(mn)]
                     for i, _, _, _, r, mp, mn in want]
        _compare(problems, "rows", got, want_text)
        return problems
    parsed = _read_rows(fmt, out, ["index", "lower", "upper", "lower_closed",
                                   "upper_closed", "rep", "margin_pos", "margin_neg"])
    got = [(int(d["index"]), Fraction(d["lower"]), Fraction(d["upper"]),
            str(d["lower_closed"]).lower() == "true", Fraction(d["rep"]),
            Fraction(d["margin_pos"]), Fraction(d["margin_neg"])) for d in parsed]
    _compare(problems, "rows", got, want)
    return problems


_VERDICT_TEXT = re.compile(
    r"inert at cell (\d+) from step (\d+), value (\S+) \((certified|observed)\)$"
    r"|no verdict after (\d+) steps$")


def _parse_verdict_text(text):
    m = _VERDICT_TEXT.match(text.strip())
    if m is None:
        raise RefError(f"unreadable verdict {text!r}")
    if m.group(5) is not None:
        return {"text": True, "outcome": "no_verdict", "horizon": int(m.group(5))}
    return {"text": True, "outcome": "inert", "cell": int(m.group(1)), "N": int(m.group(2)),
            "value": m.group(3), "certified": m.group(4) == "certified"}


def _check_verdict(problems, where, layout, got, want):
    """``want`` is a reference observed verdict, or None for a certified one.

    A certified verdict is held only to what its certificate must give: it is
    inert, certified, and its value is the representative of its cell.  A
    verdict read from a table carries its value as decimal text and no horizon
    when inert.
    """
    value = got.get("value")
    if value is not None and not got.get("text"):
        value = Fraction(value)
    if want is None:
        _compare(problems, f"{where} outcome", got.get("outcome"), "inert")
        _compare(problems, f"{where} certified", got.get("certified"), True)
        cell = got.get("cell")
        if isinstance(cell, int) and cell >= 1:
            _compare(problems, f"{where} value", value, rep(layout, cell))
        else:
            problems.append(f"{where}: no cell in {got!r}")
        return
    _compare(problems, f"{where} outcome", got.get("outcome"), want["outcome"])
    if want["outcome"] == "no_verdict":
        _compare(problems, f"{where} horizon", got.get("horizon"), want["horizon"])
        return
    _compare(problems, f"{where} value", value, want["value"])
    keys = ("N", "cell", "certified") if got.get("text") else ("N", "cell", "certified", "horizon")
    for key in keys:
        _compare(problems, f"{where} {key}", got.get(key), want[key])


def check_inert(layout, rows, fmt, code, out) -> list:
    """An ``inert`` verdict; ``rows`` is the reference fold, or None with ``--bound``."""
    problems = []
    want = None if rows is None else observed_verdict(rows)
    want_code = 0 if want is None or want["outcome"] == "inert" else 3
    _compare(problems, "exit code", code, want_code)
    got = _parse_verdict_text(out) if fmt == "table" else json.loads(out)
    _check_verdict(problems, "verdict", layout, got, want)
    return problems


# ------------------------------------------------------- doubling gamble

def sample_payoffs(trials: int, seed: int, truncation: int) -> list:
    """Payoffs 2**(n-1), n a geometric(1/2) round count from numpy's Philox."""
    import numpy as np

    rounds = np.random.Generator(np.random.Philox(seed)).geometric(0.5, size=trials)
    return [1 << (min(int(n), truncation) - 1) for n in rounds]


@dataclass
class GambleReference:
    eps: Fraction
    depth: int
    formula_cell: int
    scan_cell: int
    payoffs: list | None = None
    rows: list | None = None


def gamble_reference(eps, depth, trials=0, seed=0, truncation=64) -> GambleReference:
    layout = EpsilonLayout(eps)
    ref = GambleReference(Fraction(eps), depth, floor(Fraction(eps) / 2) + 1,
                          margin_scan(layout, collapse(layout, HALF)))
    if trials:
        ref.payoffs = sample_payoffs(trials, seed, truncation)
        ref.rows = fold(layout, ref.payoffs)
    return ref


def check_stpete(ref: GambleReference, fmt, code, out, seed=0, truncation=64) -> list:
    problems = []
    _compare(problems, "exit code", code, 0)
    layout = EpsilonLayout(ref.eps)
    got = _stpete_json(out) if fmt == "json" else _stpete_text(out)
    val = got["valuation"]
    _compare(problems, "epsilon", val["epsilon"], ref.eps)
    _compare(problems, "depth", val["depth"], ref.depth)
    _compare(problems, "classical sum", val["classical_sum"], Fraction(ref.depth, 2))
    _compare(problems, "formula cell", val["cell_from_formula"], ref.formula_cell)
    _compare(problems, "scan cell", val["cell_from_scan"], ref.scan_cell)
    _compare(problems, "agreement", val["agreement"], ref.formula_cell == ref.scan_cell)
    _check_verdict(problems, "valuation verdict", layout, val["verdict"], None)
    if ref.payoffs is None:
        if "sampled" in got:
            problems.append("sampled section without --trials")
        return problems
    trials = len(ref.payoffs)
    sampled, classical = got.get("sampled"), got.get("classical")
    if sampled is None or classical is None:
        return problems + ["missing sampled or classical section"]
    for key, want in (("trials", trials), ("seed", seed), ("truncation_depth", truncation)):
        _compare(problems, key, got.get(key), want)
    _compare(problems, "mean", sampled["mean"], Fraction(sum(ref.payoffs), trials))
    _compare(problems, "round counts", sampled["round_counts"],
             dict(Counter(p.bit_length() for p in ref.payoffs)))
    _compare(problems, "final sum", sampled["final_sum"], ref.rows[-1].s)
    _compare(problems, "final cell", sampled["final_cell"], ref.rows[-1].s_cell)
    _check_verdict(problems, "sampled verdict", layout, sampled["verdict"],
                   observed_verdict(ref.rows))
    _compare(problems, "classical final", classical["final_sum"], Fraction(ref.depth, 2))
    _compare(problems, "classical outcome", classical["verdict"].get("outcome"), "no_verdict")
    return problems


def _stpete_json(out) -> dict:
    d = json.loads(out)
    if "valuation" not in d:  # without --trials the valuation is the whole object
        d = {"valuation": d}
    val = d["valuation"]
    val["epsilon"] = Fraction(val["epsilon"])
    val["classical_sum"] = Fraction(val["classical_sum"])
    if "sampled" in d:
        s = d["sampled"]
        s["mean"] = Fraction(s["mean"])
        s["final_sum"] = Fraction(s["final_sum"])
        s["round_counts"] = {int(k): v for k, v in s["round_counts"].items()}
        d["classical"]["final_sum"] = Fraction(d["classical"]["final_sum"])
    return d


_HEAD = re.compile(r"doubling-gamble valuation  \(eps = (\S+), depth = (\d+)\)$")
_SAMPLED = re.compile(r"sampled payoffs: trials = (\d+), seed = (\d+), rng = \S+, "
                      r"truncation depth = (\d+)$")


def _stpete_text(out) -> dict:
    """Read the table form into the shape of the JSON form, values as decimal text."""
    lines = out.splitlines()
    head = _HEAD.match(lines[0]) if lines else None
    if head is None:
        raise RefError("missing valuation header")
    fields = [tuple(p.strip() for p in line.split(" : ", 1))
              for line in lines[1:] if " : " in line]
    by_label = {}
    for label, value in fields:
        by_label.setdefault(label, []).append(value)

    def one(label, i=0):
        return by_label[label][i]

    val = {"epsilon": head.group(1), "depth": int(head.group(2)),
           "classical_sum": one("classical sum of expected increments"),
           "cell_from_formula": int(one("absorbing cell (closed form)")),
           "cell_from_scan": int(one("absorbing cell (margin scan)")),
           "agreement": one("agreement") == "yes",
           "verdict": _parse_verdict_text(one("verdict"))}
    got = {"valuation": val}
    sampled_line = next((m for m in map(_SAMPLED.search, lines) if m), None)
    if sampled_line is None:
        return got
    final = re.match(r"(\S+) \(cell (\d+)\)$", one("coarse final sum"))
    got.update(trials=int(sampled_line.group(1)), seed=int(sampled_line.group(2)),
               truncation_depth=int(sampled_line.group(3)))
    got["sampled"] = {
        "mean": one("mean payoff"),
        "final_sum": final.group(1),
        "final_cell": int(final.group(2)),
        "verdict": _parse_verdict_text(one("verdict", 1)),
        "round_counts": {int(k): int(v) for k, v in
                         (pair.split(":") for pair in one("round counts").split())},
    }
    got["classical"] = {"verdict": _parse_verdict_text(one("verdict", 2)),
                        "final_sum": one("final sum")}
    return got
