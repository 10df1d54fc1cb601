"""An executable spec of ``coarsesum fold``, ``partition``, ``inert`` and ``stpete``, written
from the definitions alone.

Nothing here imports ``coarsesum``.  A family is named by a tuple and stated as the
sequence of its cells, each ``(lower, upper, closed_below)`` with exact bounds, the
upper one attained:

* ``("width", w)`` -- the integers ``{w(i-1) .. wi-1}``;
* ``("fibonacci",)`` -- integer blocks sized 1, 1, 2, 3, 5, ... from 0;
* ``("eps", e)`` -- real cells ``[0, 1/2]``, then ``(b, b + i/e]`` for cell i;
* ``("bounds", b, domain)`` -- cells cut at the ascending boundaries b, which may
  start below 0: integers ``{b[i-1] .. b[i]-1}``, or real ``[b0, b1]`` then
  ``(b[i-1], b[i]]``;
* ``("grid", step)`` -- the one-point cells ``{(i-1) * step}``.

A value lies in the one cell that holds it, or the family refuses it.  A policy
picks a cell's representative: the median is the midpoint of a real cell and the
lower of an integer cell's two central members; min picks the lower bound, and is
refused where cells are open below; max picks the upper bound.  Coarse addition is
x (+) y = rep(rep(x) + rep(y)), and the fold's first sum is its first input as
given: every step is folded afresh, with no memo.  Rows are written with
``json.dumps`` and ``csv``, where rationals print as ``p/q``, or as a table of
columns padded to their widest text, where rationals print as decimals.

``inert`` folds a stream to its horizon, or a file to its last number within it, and
judges the window: inert from step N < horizon if every sum from N on is the last one.
With a bound b, a stream with a value outside [0, b] is refused, and the verdict is
certified, from N = horizon too, where a step n >= 2 proves that no later sum moves: a
step whose sum stays in its cell, on a constant stream (a fixed point), or on a real
family other than a grid whose cell of 0 collapses to a value >= 0, on a stream that
never rises; else there, a sum in c*(b), the cell where the fold of the constant b is
first absorbed within the horizon, b being a file's largest value.

``stpete`` values the doubling gamble, which pays 2**(k-1) when the first tail comes on
toss k: see :func:`stpete_command`.
"""

import csv
import io
import json
from collections import Counter
from decimal import Context, Inexact
from fractions import Fraction
from itertools import count, islice

HEAD = ("n", "x", "x_cell", "s", "s_cell", "absorbed")
CELL_HEAD = ("index", "lower", "upper", "lower_closed", "upper_closed", "rep", "margin_pos",
             "margin_neg")
CELL_TABLE_HEAD = ("cell", "interval", "rep", "margin+", "margin-")


class Refused(ValueError):
    """The model's error: the command prints nothing on stdout and exits 1."""


def cells(family):
    """The cells of a family, in order, as ``(lower, upper, closed_below)``."""
    kind, *args = family
    if kind == "width":
        w = args[0]
        return ((Fraction(w * i), Fraction(w * i + w - 1), True) for i in count())
    if kind == "fibonacci":
        def fibonacci():
            lo, size, last = 0, 1, 0
            while True:
                yield Fraction(lo), Fraction(lo + size - 1), True
                lo, size, last = lo + size, size + last, size
        return fibonacci()
    if kind == "eps":
        def growth():
            lo = Fraction(1, 2)
            yield Fraction(0), lo, True
            for i in count(2):
                yield lo, lo + i / args[0], False
                lo += i / args[0]
        return growth()
    if kind == "bounds":
        b, real = args[0], args[1] == "real"
        if real:
            return ((lo, hi, i == 0) for i, (lo, hi) in enumerate(zip(b, b[1:])))
        return ((Fraction(lo), Fraction(hi - 1), True) for lo, hi in zip(b, b[1:]))
    return ((i * args[0], i * args[0], True) for i in count())  # the grid


def integer(family) -> bool:
    return family[0] in ("width", "fibonacci") or family[0] == "bounds" and family[2] == "int"


def locate(family, x: Fraction):
    """(index, cell) of the cell that holds x, or ``Refused``."""
    for i, (lo, hi, closed) in enumerate(cells(family), start=1):
        if lo > x:
            break
        if (lo < x or closed) and x <= hi and (x.denominator == 1 or not integer(family)):
            return i, (lo, hi)
    raise Refused(f"{x} lies in no cell")


def pick(family, policy: str, lo: Fraction, hi: Fraction) -> Fraction:
    """The representative of the cell from lo to hi."""
    if policy == "min":
        return lo
    if policy == "max":
        return hi
    return Fraction((lo + hi) // 2) if integer(family) else (lo + hi) / 2


def rep(family, policy: str, x: Fraction) -> Fraction:
    return pick(family, policy, *locate(family, x)[1])


def check_policy(family, policy: str) -> None:
    if policy == "min" and not all(closed for _, _, closed in islice(cells(family), 2)):
        raise Refused("min is refused where cells are open below")


def fold(family, policy: str, values: list) -> list:
    """The rows of the left fold: n, x, x's cell, the sum, its cell, and whether it stayed."""
    check_policy(family, policy)
    rows, s = [], None
    for n, x in enumerate(values, start=1):
        x_cell = locate(family, x)[0]
        s = x if n == 1 else rep(family, policy, rep(family, policy, s) + rep(family, policy, x))
        s_cell = locate(family, s)[0]
        rows.append((n, x, x_cell, s, s_cell, n > 1 and s_cell == rows[-1][4]))
    return rows


def text(v, fmt: str):
    """A field as the row's format writes it: a rational as ``p/q``, a bool in CSV in
    lower case, anything else as it is."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v).lower() if fmt == "csv" and isinstance(v, bool) else v


def decimal(v: Fraction) -> str:
    """A rational as a table prints it: its decimal when that ends, else its six
    significant digits in ``%g``'s layout, rounded exactly (a decimal that never ends
    never ties)."""
    n, d = v.numerator, v.denominator
    try:  # a decimal that ends has at most as many places as d has bits
        return f"{Context(len(str(n)) + d.bit_length(), traps=[Inexact]).divide(n, d):f}"
    except Inexact:
        pass
    e = 0  # the place of the leading digit: 10**e <= |v| < 10**(e + 1)
    while abs(v) >= 10 ** (e + 1):
        e += 1
    while abs(v) < Fraction(10) ** e:
        e -= 1
    unit = Fraction(10) ** (e - 5)
    return "%g" % float(round(v / unit) * unit)  # six digits survive the float


def table_text(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return decimal(v) if isinstance(v, Fraction) else str(v)


def write(head, rows: list, fmt: str) -> str:
    """Rows as JSON lines, as CSV under a header, or as a table under its header: each
    column padded to its widest text, two spaces apart, and each line cut of trailing
    spaces."""
    out = io.StringIO()
    if fmt == "table":
        lines = [head, *([table_text(v) for v in row] for row in rows)]
        widths = [max(map(len, column)) for column in zip(*lines)]
        out.writelines("  ".join(t.ljust(w) for t, w in zip(line, widths)).rstrip() + "\n"
                       for line in lines)
    elif fmt == "json":
        out.writelines(json.dumps(dict(zip(head, [text(v, fmt) for v in row]))) + "\n"
                       for row in rows)
    else:
        csv.writer(out, lineterminator="\n").writerows(
            [head, *([text(v, fmt) for v in row] for row in rows)])
    return out.getvalue()


def read(lines: list, limit=None) -> list:
    """The numbers of a file of ``lines``, each a number, ``p/q`` or an int, or blank, or a
    ``#`` comment, up to the first ``limit``: no line after that number is read."""
    values = []
    for line in map(str.strip, lines):
        if len(values) == limit:
            break
        if line and not line.startswith("#"):
            try:
                values.append(Fraction(line))
            except (ValueError, ZeroDivisionError):
                raise Refused(f"not a rational number: {line!r}") from None
    if not values:
        raise Refused("no numbers in input")
    return values


def fold_command(family, policy: str, lines: list, fmt: str) -> tuple:
    """(exit code, stdout) of ``fold`` on a file of ``lines``."""
    try:
        return 0, write(HEAD, fold(family, policy, read(lines)), fmt)
    except Refused:
        return 1, ""


def partition_command(family, policy: str, n: int, fmt: str) -> tuple:
    """(exit code, stdout) of ``partition``: the first n cells, or all of a finite layout,
    each with its bounds, its representative and the margins from it to either bound; a
    table writes a cell's interval as ``{lo..hi}`` (``{lo}`` for one integer) or as
    ``[lo, hi]``, ``(`` where the cell is open below."""
    try:
        check_policy(family, policy)
    except Refused:
        return 1, ""
    rows = []
    for i, (lo, hi, closed) in enumerate(islice(cells(family), n), start=1):
        r = pick(family, policy, lo, hi)
        if fmt != "table":
            rows.append((i, lo, hi, closed, True, r, hi - r, r - lo))
        elif integer(family):
            rows.append((i, "{%s}" % lo if lo == hi else "{%s..%s}" % (lo, hi), r, hi - r, r - lo))
        else:
            interval = f"{'[' if closed else '('}{decimal(lo)}, {decimal(hi)}]"
            rows.append((i, interval, r, hi - r, r - lo))
    return 0, write(CELL_TABLE_HEAD if fmt == "table" else CELL_HEAD, rows, fmt)


def stream(source: tuple, horizon: int) -> list:
    """The values of a stream up to its horizon: ``("const", c)``, ``("harmonic",)``, 1/t,
    ``("geometric", c, r)``, c * r**t, for t = 1, 2, ..., or ``("file", lines)``."""
    kind, *args = source
    if kind == "file":
        return read(args[0], horizon)
    if kind == "const":
        return [args[0]] * horizon
    if kind == "harmonic":
        return [Fraction(1, t) for t in range(1, horizon + 1)]
    return [args[0] * args[1] ** t for t in range(1, horizon + 1)]


def inert_verdict(family, policy: str, source: tuple, horizon: int, bound) -> tuple:
    """:func:`judge` of ``inert`` on a stream ``source`` (see :func:`stream`), with an
    upper bound ``bound`` on its values or None, or ``Refused``."""
    check_policy(family, policy)
    values = stream(source, horizon)
    if bound is not None and not all(0 <= v <= bound for v in values):
        raise Refused(f"a value lies outside [0, {bound}]")
    rows, horizon = fold(family, policy, values), len(values)
    certified = False
    if bound is not None:  # a step n >= 2 that proves every later sum certifies
        kind, *args = source
        constant = kind == "const" or kind == "geometric" and (args[0] == 0 or args[1] in (0, 1))
        falls = values[0] >= 0 and (kind == "harmonic" or constant  # and never rises
                                    or kind == "geometric" and 0 < args[1] < 1)
        try:
            real = family[0] == "eps" or family[0] == "bounds" and family[2] == "real"
            real = real and rep(family, policy, Fraction(0)) >= 0
        except Refused:  # 0 lies in no cell
            real = False
        target = None
        if real and not (constant or falls):
            b = max(values) if kind == "file" else bound
            try:  # c*(b)
                target = next((row[4] for row in fold(family, policy, [b] * horizon) if row[5]),
                              None)
            except Refused:
                pass
        certified = any(row[5] and (constant or real and falls) or row[4] == target
                        for row in rows[1:])
    return judge(rows, certified)


def judge(rows: list, certified: bool) -> tuple:
    """(the verdict as a JSON object, and as a line of text) on the rows of a fold: inert
    from the first step N from which every sum is the last one, where N is before the last
    step or the verdict is ``certified``; else no verdict."""
    horizon, sums = len(rows), [row[3] for row in rows]
    n = horizon
    while n > 1 and sums[n - 2] == sums[-1]:
        n -= 1
    if certified or n < horizon:
        verdict = dict(outcome="inert", N=n, cell=rows[-1][4], value=text(sums[-1], "json"),
                       horizon=horizon, certified=certified)
        return verdict, (f"inert at cell {rows[-1][4]} from step {n}, value {decimal(sums[-1])} "
                         f"({'certified' if certified else 'observed'})")
    return (dict(outcome="no_verdict", N=None, cell=None, value=None, horizon=horizon,
                 certified=False), f"no verdict after {horizon} steps")


def inert_command(family, policy: str, source: tuple, horizon: int, bound, fmt: str) -> tuple:
    """(exit code, stdout) of ``inert``: see :func:`inert_verdict`."""
    try:
        verdict, line = inert_verdict(family, policy, source, horizon, bound)
    except Refused:
        return 1, ""
    return (0 if verdict["N"] else 3), (json.dumps(verdict) if fmt == "json" else line) + "\n"


def philox_blocks(key: tuple):
    """The raw 64-bit words of Philox4x64-10 under ``key`` without end, one block of four at
    a time: a 256-bit counter, raised by one before each block, goes through ten rounds,
    the key raised by the Weyl constants before each round after the first."""
    m64 = (1 << 64) - 1
    k0, k1 = key
    keys = [((k0 + r * 0x9E3779B97F4A7C15) & m64, (k1 + r * 0xBB67AE8584CAA73B) & m64)
            for r in range(10)]
    for counter in count(1):
        c0, c1, c2, c3 = counter, 0, 0, 0
        for r0, r1 in keys:
            p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ r0, p1 & m64, p0 >> 64 ^ c3 ^ r1, p0 & m64
        yield from (c0, c1, c2, c3)


def rounds(key: tuple, trials: int, truncation: int) -> list:
    """The tosses of ``trials`` plays of the gamble cut at ``truncation``, as numpy's
    geometric(1/2) draws them, one word w each: the first k with (w >> 11) / 2**53 at most
    1 - 2**-k, the odds that the first tail comes by toss k; a play past the truncation
    counts as its last toss."""
    out = []
    for w in islice(philox_blocks(key), trials):
        u, k = Fraction(w >> 11, 2**53), 1
        while u > 1 - Fraction(1, 2**k):
            k += 1
        out.append(min(k, truncation))
    return out


def stpete_command(eps: Fraction, depth: int, trials: int, seed: int, truncation: int,
                   fmt: str, key: tuple) -> tuple:
    """(exit code, stdout) of ``stpete``.  Each toss adds 1/2 to the expectation, so on
    ``("eps", eps)`` under the median: the paper's absorbing cell floor(eps/2) + 1, the
    first cell whose upward margin strictly exceeds rep(1/2), and ``inert``'s verdict on the
    constant 1/2 under ``--bound 1/2`` to ``depth``.  With ``trials``, the payoffs of
    :func:`rounds` under ``key`` (numpy's ``SeedSequence(seed)`` state), folded and judged
    with no bound, and the increments folded on the grid of 1/2, where addition is exact."""
    family, half = ("eps", eps), Fraction(1, 2)
    classical = depth * half  # the exact sum of the increments
    scan = next(i for i, (lo, hi, _) in enumerate(cells(family), start=1)
                if hi - pick(family, "median", lo, hi) > rep(family, "median", half))
    verdict, line = inert_verdict(family, "median", ("const", half), depth, half)
    report = {"epsilon": eps, "depth": depth, "classical_sum": classical,
              "cell_from_formula": eps // 2 + 1, "cell_from_scan": scan,
              "agreement": scan == eps // 2 + 1}
    lines = [f"doubling-gamble valuation  (eps = {decimal(eps)}, depth = {depth})",
             *(f"  {label:36} : {table_text(report[key])}" for label, key in (
                 ("classical sum of expected increments", "classical_sum"),
                 ("absorbing cell (closed form)", "cell_from_formula"),
                 ("absorbing cell (margin scan)", "cell_from_scan"), ("agreement", "agreement"))),
             f"  {'verdict':36} : {line}"]
    report = {key: text(v, "json") for key, v in report.items()} | {"verdict": verdict}
    if trials:
        drawn = rounds(key, trials, truncation)
        rows = fold(family, "median", [Fraction(2 ** (k - 1)) for k in drawn])
        (sampled, sampled_line), (control, control_line) = judge(rows, False), judge(
            fold(("grid", half), "median", [half] * depth), False)
        mean, counts = sum(row[1] for row in rows) / trials, sorted(Counter(drawn).items())
        report = {"valuation": report, "trials": trials, "seed": seed, "rng": "numpy-philox4x64",
                  "truncation_depth": truncation,
                  "sampled": {"verdict": sampled, "final_sum": text(rows[-1][3], "json"),
                              "final_cell": rows[-1][4], "mean": text(mean, "json"),
                              "round_counts": {str(k): c for k, c in counts}},
                  "classical": {"verdict": control, "final_sum": text(classical, "json")}}
        lines += [f"  sampled payoffs: trials = {trials}, seed = {seed}, rng = numpy-philox4x64, "
                  f"truncation depth = {truncation}",
                  f"    mean payoff      : {decimal(mean)}",
                  f"    coarse final sum : {decimal(rows[-1][3])} (cell {rows[-1][4]})",
                  f"    verdict          : {sampled_line}",
                  f"    round counts     : {'  '.join(f'{k}:{c}' for k, c in counts)}",
                  "  exact-addition control (singleton grid):",
                  f"    verdict          : {control_line}",
                  f"    final sum        : {decimal(classical)}"]
    return 0, (json.dumps(report, indent=2) if fmt == "json" else "\n".join(lines)) + "\n"
