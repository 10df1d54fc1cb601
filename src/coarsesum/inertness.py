"""Detecting inert coarse partial-sum sequences.

A stream is inert when its left-associative coarse partial sums stop
changing: from some step N onward every partial sum is the same value in the
same cell.  Finite evidence can only certify "constant over the observed
window"; genuine stabilization is asserted only where a step of the fold
proves it, which needs an upper bound b on future increments.

One absorption rule gives that proof.  Collapsing is monotone and picks never
decrease from cell to cell, so where every input lies in [0, b] and 0 lies in
the family and collapses to a value >= 0, sums never fall below the cell of 0,
and c*(b), the least cell c at or above it with pick(c) + rep(b) <= hi(c),
keeps every later sum once one lies in it: a sum at or below c*(b) adds at
most rep(b) and never passes it, and in it every value of [0, b] is absorbed.
Below c*(b) the value b always moves the sum up, so the constant b climbs to
c*(b) and settles there, never behind another stream in [0, b].  The paper's
absorbing cell asks for a margin strictly above rep(b); an exact tie, as
1/4 + 1/4 = 1/2 on the first cell of ``EpsilonGrowth``, lets the fold settle
below it.  See ``detect_inert_stream``.
"""

from fractions import Fraction
from itertools import count, repeat
from typing import Callable, NamedTuple

from .ops import FoldTrace, _fold_steps
from .partitions import _REALS, CoarseError, Partition, _rational
from .rationals import format_decimal, format_rational
from .representatives import _MAX, CoarseContext, Policy, _pick


class InertVerdict(NamedTuple):
    """The result of an inertness check: inert exactly when it names a step N.

    No verdict claims divergence: a finite window cannot tell it from slow
    stabilization, so a verdict that is not inert carries growth evidence
    instead, ``increasing_run``: the length of the longest strictly climbing
    run of sum-cell indexes at the end of the window.  ``certified`` is True
    only where an increment bound was given and a step of the fold within the
    horizon proved every later one; N, cell and value are the fold's own and
    hold wherever the bound was checked (the whole stream if it states its
    largest value, else up to the horizon).  Observed verdicts describe only the window.
    """

    n_stable: int | None = None
    cell_index: int | None = None
    fixed_value: Fraction | None = None
    horizon: int | None = None
    certified: bool = False
    increasing_run: int | None = None

    @property
    def inert(self) -> bool:
        return self.n_stable is not None

    def to_json_dict(self) -> dict:
        return {
            "outcome": "inert" if self.inert else "no_verdict",
            "N": self.n_stable,
            "cell": self.cell_index,
            "value": None if self.fixed_value is None else format_rational(self.fixed_value),
            "horizon": self.horizon,
            "certified": self.certified,
        }

    def to_text(self) -> str:
        if self.inert:
            kind = "certified" if self.certified else "observed"
            return (f"inert at cell {self.cell_index} from step {self.n_stable}, "
                    f"value {format_decimal(self.fixed_value)} ({kind})")
        return f"no verdict after {self.horizon} steps"


def _json(value, indent: int | None = None, depth: int = 1) -> str:
    """``json.dumps(value, indent=indent)`` of what a ``to_json_dict()`` holds -- dicts, ints,
    bools, None and strs that need no escape -- without compiling the json module."""
    if isinstance(value, dict):
        pad = "" if indent is None else "\n" + " " * (indent * depth)
        items = [f'{pad}"{k}": {_json(v, indent, depth + 1)}' for k, v in value.items()]
        end = pad[:len(pad) - (indent or 0)]  # the closing brace's line
        return "{%s%s}" % (("," if pad else ", ").join(items), end) if items else "{}"
    if isinstance(value, str):
        return f'"{value}"'
    return "null" if value is None else str(value).lower()  # True and False as true and false


def detect_inert_trace(trace: FoldTrace) -> InertVerdict:
    """Judge a finished fold: find the earliest all-constant suffix.

    Returns an observed (uncertified) inert verdict with the smallest N such
    that every partial sum from step N to the end equals the final one; a
    single trailing sample is no evidence, so the constant suffix must have
    at least two steps.  Anything else is no verdict at the window length.
    """
    return _judge(trace, len(trace))


def _judge(steps, horizon: int, settles=False, target=None, certify=False) -> InertVerdict:
    """The one judge of fold steps, read once: see :func:`detect_inert_trace`.

    It keeps only the step where the current run of equal sums began and the
    length of the strictly climbing run of sum cells.  Reading stops at the first
    step n >= 2 that proves the rest: with ``settles``, an absorbed step, for either
    the inputs are one repeated value, so every later step repeats step n, or they
    never rise and collapse to values >= 0, so every later r + rep(x) lies between
    the sum r and r + rep(x_n), both in r's cell; or a sum in cell ``target``, a
    c*(b).  With ``certify`` a proof certifies the verdict, even from N = ``horizon``.
    """
    start = climb = 0
    s = cell = None
    certified = False
    for n, step in enumerate(steps, start=1):
        if step.s is not s and step.s != s:  # a kept representative is the same object
            start = n
        climb = climb + 1 if cell is not None and step.s_cell > cell else 1
        s, cell = step.s, step.s_cell
        if n > 1 and (settles and step.absorbed or cell == target):
            certified = certify
            break
    if not start:
        raise ValueError("cannot judge an empty trace")
    if start < horizon or certified:
        return InertVerdict(start, cell, s, horizon, certified)
    return InertVerdict(horizon=horizon, increasing_run=climb)


def first_absorbing_cell(partition: Partition, policy: Policy, increment_rep) -> int | None:
    """Smallest cell index whose upward margin strictly exceeds a collapsed increment.

    An exact tie never qualifies.  Returns None when no cell ever qualifies,
    which can only happen for bounded-margin families (fixed width, singleton
    grids, max policy, or finite explicit layouts).  It reads any policy on
    any partition; ``CoarseContext`` is where min on cells open below is refused.
    This is the paper's absorbing cell.  A fold settles by the non-strict rule, in
    c*(b) (see :func:`detect_inert_stream`), so on a tie it settles below this cell.
    """
    inc = Fraction(increment_rep)
    p, q = inc.as_integer_ratio()
    if p < 0:
        raise ValueError(f"increment representative must be >= 0, got {inc}")
    span, bar = partition.span, p * partition.scale

    def hit(i: int) -> bool:
        # margin (hi - pick)/scale against p/q, with both sides times scale*q
        lo, hi = span(i)
        return (hi - _pick(lo, hi, policy)) * q > bar

    last = partition.max_index
    if last is None and (partition.constant_margins or policy is _MAX):
        last = 1  # every cell has the same margin (zero under max)
    # with no last cell, cells grow without bound and under min or median the scan ends
    return next((i for i in (range(1, last + 1) if last else count(1)) if hit(i)), None)


def detect_inert_stream(ctx: CoarseContext, gen: Callable[[int], Fraction],
                        horizon: int, increment_bound=None) -> InertVerdict:
    """Judge a generated stream as it is folded, with no trace kept.

    The verdict, its N, cell and value, is the one :func:`detect_inert_trace`
    gives on the fold of ``gen(1) .. gen(horizon)``.  Reading stops at the
    first step n >= 2 that proves every later sum (see :func:`_judge`): a
    stream marked with period 1 (see :func:`constant`) stops at its fixed
    point, the first step whose sum stays in its cell.  So does a stream with
    a ``top`` on a real family other than a grid that holds 0 with a
    representative >= 0 (a negative one lets the sum fall again).  There any
    other stream with a largest value b, stated as ``bound`` (see the streams
    below) or else ``increment_bound``, stops once its sum lies in c*(b), the
    least cell c at or above the cell of 0 with pick(c) + rep(b) <= hi(c) on
    the family's scale (see the module docstring).  c*(b) is where the fold
    of the constant b settles, read to the horizon at most: a stream in
    [0, b] reaches no cell within the horizon that the constant b does not,
    and a scan of cells up to c*(b) would cost its index however short the
    stream.  Integer families and grids are read to the horizon, since a later
    value can still fail there, as is a b past a finite layout.

    With ``increment_bound`` b, every value must lie between 0 and b, and a
    stream that breaks that raises ``ValueError``: a stream that states its
    largest value is checked by that value alone, any other is read from step
    1 to the horizon.  The verdict is certified exactly when a proof fires
    within the horizon: the constant 1/2 on ``EpsilonGrowth(10)`` is certified
    at cell 1, value 1/4, from step 2.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    top, bound, p = getattr(gen, "top", None), getattr(gen, "bound", None), ctx.partition
    # Whether 0 lies in the family (the span test keeps the lookup from raising) and
    # collapses to a value >= 0: sums of values >= 0 then never fall below the cell of 0.
    zero = p.span(1)[0] <= 0 <= p.span(p.max_index or 1)[1] and ctx.normalize(0) >= 0
    most = bound if top is None else top  # the largest value, where the stream states it
    if increment_bound is not None:
        increment_bound = _rational("increment_bound", increment_bound)
        if not (most <= increment_bound if most is not None else
                all(0 <= gen(t) <= increment_bound for t in range(1, horizon + 1))):
            raise ValueError(f"increment bound {increment_bound} does not hold for this stream")
        most = increment_bound if most is None else most
    real = zero and p.domain is _REALS and not p.constant_margins  # and not a grid
    target, settles = None, getattr(gen, "period", None) == 1 or top is not None and real
    if real and most is not None and not settles:  # settling fires at most a step later
        try:  # c*(b) is where the constant b settles, within the horizon
            target = next((step.s_cell for step in _fold_steps(ctx, repeat(most, horizon))
                           if step.absorbed), None)
        except CoarseError:
            pass  # b lies past a finite layout, or its sums do: nothing to prove
    steps = _fold_steps(ctx, map(gen, range(1, horizon + 1)))
    return _judge(steps, horizon, settles, target, increment_bound is not None)


# ------------------------------------------------------------ input streams
# Streams are pure functions of the 1-based step index, so reruns and
# continued runs always see identical values.  A stream may carry three marks,
# which detect_inert_stream trusts:
# - ``period`` 1 promises that every step gives the same value, so the fold
#   may stop at its first fixed point and still give the verdict of the whole
#   horizon;
# - ``top`` promises that the values are nonnegative and never rise, so the
#   first value, ``top``, is the largest and an increment bound is checked
#   against it alone; on most real families the fold stops at its first
#   absorbed step;
# - ``bound`` promises that every value lies in [0, bound], in any order, so an
#   increment bound is checked against it alone where no ``top`` is stated; where
#   ``top`` stops the fold, the fold stops once its sum sits in a cell that
#   absorbs the bound (a late maximum can move a sum that has stood still).
# The factories below set the first two only where their values keep the
# promise, and ``inert --from-file`` sets ``bound`` on its values up to the horizon
# when they are all >= 0; an unmarked stream is read to the horizon.

def constant(value) -> Callable[[int], Fraction]:
    c = _rational("constant", value)
    stream = lambda t: c
    stream.period = 1
    if c >= 0:
        stream.top = c
    return stream


def harmonic() -> Callable[[int], Fraction]:
    stream = lambda t: Fraction(1, t)
    stream.top = Fraction(1)
    return stream


def geometric(coefficient, ratio) -> Callable[[int], Fraction]:
    """t -> coefficient * ratio**t for t = 1, 2, 3, ...; a constant one is :func:`constant`."""
    c = _rational("coefficient", coefficient)
    r = _rational("ratio", ratio)
    if c == 0 or r in (0, 1):
        return constant(c * r)
    stream = lambda t: c * r**t
    if c > 0 and 0 < r < 1:
        stream.top = c * r
    return stream
