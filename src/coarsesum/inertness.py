"""Detecting inert coarse partial-sum sequences.

A stream is inert when its left-associative coarse partial sums stop
changing: from some step N onward every partial sum is the same value in the
same cell.  Finite evidence can only certify "constant over the observed
window"; genuine stabilization is asserted only by the margin certificate,
which needs an upper bound on future increments.

The certificate: collapsing is monotone, so if every input lies in [0, b],
every collapsed increment is at most the representative of b's cell.  The
first cell whose upward margin strictly exceeds that representative absorbs
all further increments.  Where 0 lies in the family and collapses to a value
>= 0, no collapsed increment is negative, so sums never fall below the cell
of 0; if that first cell is at or above it, running sums can never jump past
the first cell (margins below it are too small to matter and its width is
larger than any increment), so they settle in it or below it.  Elsewhere an
increment can pull the sum down, or the first cell can lie below every sum,
and the certificate does not apply.  The strict inequality means the
certificate never fires on an exact boundary tie.  The certificate names a
cell the sums never pass, not the cell or step where the fold settles, which
can lie well below it.  See ``detect_inert_stream``.
"""

from fractions import Fraction
from itertools import count
from typing import Callable, NamedTuple

from .errors import OutOfRangeError
from .ops import FoldTrace, _fold_steps
from .partitions import _REALS, Partition, _rational
from .rationals import format_decimal, format_rational
from .representatives import _MAX, CoarseContext, Policy, _pick


class InertVerdict(NamedTuple):
    """The result of an inertness check: inert exactly when it names a step N.

    No verdict claims divergence: a finite window cannot tell it from slow
    stabilization, so a verdict that is not inert carries growth evidence
    instead, ``increasing_run``: the length of the longest strictly climbing
    run of sum-cell indexes at the end of the window.  ``certified`` is True
    only for margin-certificate verdicts, which hold for every step the
    increment bound was checked on: the entire infinite stream when the
    stream states its ``top``, else the steps up to the horizon; observed
    verdicts only describe the examined window.
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


def _judge(steps, horizon: int, settles: bool = False, absorbs=None) -> InertVerdict:
    """The one judge of fold steps, read once: see :func:`detect_inert_trace`.

    It keeps only the step where the current run of equal sums began and the
    length of the strictly climbing run of sum cells.  With ``settles``, the
    first absorbed step n >= 2 pins the sum, and reading stops there: either the
    inputs are one repeated value, so every later step repeats step n, or they
    never rise and collapse to values >= 0, so every later r + rep(x) lies
    between the sum r and r + rep(x_n), both in r's cell.  With ``absorbs``, a
    test of a sum cell asked again only when the cell moves, reading stops at
    the first step n >= 2 whose cell passes it: that cell keeps every later sum.
    """
    start = climb = 0
    s = cell = None
    held = False
    for n, step in enumerate(steps, start=1):
        if step.s is not s and step.s != s:  # a kept representative is the same object
            start = n
        if absorbs is not None and step.s_cell != cell:
            held = absorbs(step.s_cell)
        climb = climb + 1 if cell is not None and step.s_cell > cell else 1
        s, cell = step.s, step.s_cell
        if settles and step.absorbed or held and n > 1:
            break
    if not start:
        raise ValueError("cannot judge an empty trace")
    if start < horizon:
        return InertVerdict(n_stable=start, cell_index=cell, fixed_value=s, horizon=horizon)
    return InertVerdict(horizon=horizon, increasing_run=climb)


def first_absorbing_cell(partition: Partition, policy: Policy, increment_rep) -> int | None:
    """Smallest cell index whose upward margin strictly exceeds a collapsed increment.

    An exact tie never qualifies.  Returns None when no cell ever qualifies,
    which can only happen for bounded-margin families (fixed width, singleton
    grids, max policy, or finite explicit layouts).  It reads any policy on
    any partition; ``CoarseContext`` is where min on cells open below is refused.
    Sums of values in [0, increment] settle in it or below it only where 0 lies in
    the family with a representative >= 0, in it or in a cell below.
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
    """Judge a generated stream, optionally with the margin certificate.

    With ``increment_bound`` b, every value must lie between 0 and b, and a
    stream that breaks that raises ``ValueError``: a stream that states its
    largest value, as ``top`` or else ``bound`` (see the streams below), is
    checked by that value alone, any other is read from step 1 to the horizon.
    The certificate then applies before any folding, where 0 lies in the
    family and collapses to a value >= 0, and the first cell whose upward
    margin strictly exceeds b's collapsed representative is at or above the
    cell of 0: that cell absorbs the rest of the stream, and the verdict is
    certified with that cell and its representative, read off its span.  N is
    that cell's index, not a step, and can exceed the horizon; the fold may
    settle lower: the constant 1/2 on ``EpsilonGrowth(10)`` is certified at
    cell 6, value 11/5, but its fold pins at cell 1, value 1/4, from step 2.
    Fold without a bound to see where the sums settle.

    Without a bound, or where the certificate does not apply, the stream is
    folded and judged step by step, with no trace kept, to the verdict
    :func:`detect_inert_trace` gives on the fold of ``gen(1) .. gen(horizon)``.
    A stream marked with period 1 (see :func:`constant`) stops at its fixed
    point, the first step after step 1 whose sum stays in its cell.  So does a
    stream with a ``top`` on a real family other than a grid that holds 0 with
    a representative >= 0 (a negative one lets the sum fall again).  There a
    stream with a ``bound`` b stops at the first step after step 1 whose sum
    cell c absorbs b, pick(c) + rep(b) <= hi(c) on the family's scale: every
    later x in [0, b] has 0 <= rep(x) <= rep(b), so every later sum is c's
    representative again.  A bound past a finite layout stops nothing.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    top, bound, p = getattr(gen, "top", None), getattr(gen, "bound", None), ctx.partition
    # The cell of 0 where 0 lies in the family (the span test keeps the lookups from
    # raising) and collapses to a value >= 0, else False: sums of values >= 0 start at
    # or above that cell and never fall below it.
    zero = (p.span(1)[0] <= 0 <= p.span(p.max_index or 1)[1] and ctx.normalize(0) >= 0
            and p.index(0))
    if increment_bound is not None:
        increment_bound = _rational("increment_bound", increment_bound)
        most = bound if top is None else top  # the largest value, where the stream states it
        if not (most <= increment_bound if most is not None else
                all(0 <= gen(t) <= increment_bound for t in range(1, horizon + 1))):
            raise ValueError(f"increment bound {increment_bound} does not hold for this stream")
        target = zero and first_absorbing_cell(p, ctx.policy, ctx.normalize(increment_bound))
        if target and target >= zero:
            value = p.unscaled(_pick(*p.span(target), ctx.policy))
            return InertVerdict(n_stable=target, cell_index=target, fixed_value=value,
                                horizon=horizon, certified=True)
    real = zero and p.domain is _REALS and not p.constant_margins  # and not a grid
    settles, absorbs = getattr(gen, "period", None) == 1 or (top is not None and real), None
    if real and bound is not None:
        try:
            rep = _pick(*p.span(p.index(bound)), ctx.policy)  # rep(bound), scaled
        except OutOfRangeError:
            pass  # the bound lies past a finite layout: read on to where the fold fails
        else:  # cell c keeps a sum that adds any value of [0, bound]
            absorbs = lambda c: _pick(*(span := p.span(c)), ctx.policy) + rep <= span[1]
    return _judge(_fold_steps(ctx, map(gen, range(1, horizon + 1))), horizon, settles, absorbs)


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
