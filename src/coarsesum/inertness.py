"""Detecting inert coarse partial-sum sequences.

A stream is inert when its left-associative coarse partial sums stop
changing: from some step N onward every partial sum is the same value in the
same cell.  Finite evidence can only certify "constant over the observed
window"; genuine stabilization is asserted only by the margin certificate,
which needs an upper bound on future increments.

The certificate: collapsing is monotone, so if every input is at most b,
every collapsed increment is at most the representative of b's cell.  The
first cell whose upward margin strictly exceeds that representative absorbs
all further increments, and running sums can never jump past it (margins
below it are too small to matter and widths above it are larger than any
increment), so they settle in it or below it.  The strict inequality means
the certificate never fires on an exact boundary tie.  The certificate names
a cell the sums never pass, not the cell or step where the fold settles,
which can lie well below it.  See ``detect_inert_stream``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import count
from typing import Callable, NamedTuple

from .ops import CoarseContext, FoldTrace, _fold_steps
from .partitions import Partition
from .rationals import format_rational, parse_rational
from .representatives import _MAX, Policy, _pick


class Outcome(Enum):
    INERT = "inert"
    # No outcome claims divergence: a finite window cannot tell it from slow
    # stabilization, so NO_VERDICT carries growth evidence instead.
    NO_VERDICT = "no_verdict"


class InertVerdict(NamedTuple):
    """Outcome of an inertness check.

    ``certified`` is True only for margin-certificate verdicts, which hold
    for every step the increment bound was checked on: the entire infinite
    stream when the stream states its ``top``, else the steps up to the
    horizon; observed verdicts only describe the examined window.
    ``increasing_run`` (non-inert outcomes) is the length of the longest
    strictly climbing run of sum-cell indexes at the end of the window, as
    growth evidence.
    """

    outcome: Outcome
    n_stable: int | None = None
    cell_index: int | None = None
    fixed_value: Fraction | None = None
    horizon: int | None = None
    certified: bool = False
    increasing_run: int | None = None

    @property
    def inert(self) -> bool:
        return self.outcome is Outcome.INERT

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "N": self.n_stable,
            "cell": self.cell_index,
            "value": None if self.fixed_value is None else format_rational(self.fixed_value),
            "horizon": self.horizon,
            "certified": self.certified,
        }


def detect_inert_trace(trace: FoldTrace) -> InertVerdict:
    """Judge a finished fold: find the earliest all-constant suffix.

    Returns an observed (uncertified) inert verdict with the smallest N such
    that every partial sum from step N to the end equals the final one; a
    single trailing sample is no evidence, so the constant suffix must have
    at least two steps.  Anything else is NO_VERDICT at the window length.
    """
    return _judge(trace.steps, len(trace.steps))


def _judge(steps, horizon: int, settles: bool = False) -> InertVerdict:
    """The one judge of fold steps, read once: see :func:`detect_inert_trace`.

    It keeps only the step where the current run of equal sums began and the
    length of the strictly climbing run of sum cells.  With ``settles`` (the
    inputs are one repeated value), the first absorbed step is a fixed point:
    from step 2 on a step depends only on the previous sum's cell and the
    input's cell, so every later step repeats it, and reading stops there.
    """
    start = climb = 0
    s = cell = None
    for n, step in enumerate(steps, start=1):
        if step.s is not s and step.s != s:  # a kept representative is the same object
            start = n
        climb = climb + 1 if cell is not None and step.s_cell > cell else 1
        s, cell = step.s, step.s_cell
        if settles and step.absorbed:
            break
    if not start:
        raise ValueError("cannot judge an empty trace")
    if start < horizon:
        return InertVerdict(Outcome.INERT, n_stable=start, cell_index=cell,
                            fixed_value=s, horizon=horizon)
    return InertVerdict(Outcome.NO_VERDICT, horizon=horizon, increasing_run=climb)


def first_absorbing_cell(partition: Partition, policy: Policy, increment_rep) -> int | None:
    """Smallest cell index whose upward margin strictly exceeds a collapsed increment.

    An exact tie never qualifies.  Returns None when no cell ever qualifies,
    which can only happen for bounded-margin families (fixed width, singleton
    grids, max policy, or finite explicit layouts).  It reads any policy on
    any partition; ``CoarseContext`` is where min on cells open below is refused.
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
    stream that breaks that raises ``ValueError``: a stream with a ``top``
    (see the streams below) is checked by it alone, any other is read from
    step 1 to the horizon.  The certificate then applies before any folding:
    the first cell whose upward margin strictly exceeds b's collapsed
    representative absorbs the rest of the stream, and the verdict is
    certified with that cell and its representative, read off its span.  N
    is that cell's index, not a step, and can exceed the horizon; the fold
    may settle lower: the constant 1/2 on ``EpsilonGrowth(10)`` is certified
    at cell 6, value 11/5, but its fold pins at cell 1, value 1/4, from step
    2.  Fold without a bound to see where the sums settle.

    Without a bound (or when no cell qualifies), the stream is folded and
    judged step by step, with no trace kept, to the verdict
    :func:`detect_inert_trace` gives on the fold of ``gen(1) .. gen(horizon)``.
    A stream marked with period 1 (see :func:`constant`) stops at its fixed
    point, the first step after step 1 whose sum stays in its cell.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if increment_bound is not None:
        top = getattr(gen, "top", None)
        if not (top <= increment_bound if top is not None else
                all(0 <= gen(t) <= increment_bound for t in range(1, horizon + 1))):
            raise ValueError(f"increment bound {increment_bound} does not hold for this stream")
        rep_b = ctx.normalize(increment_bound)
        if rep_b < 0:
            raise ValueError(
                f"increment bound must collapse to a nonnegative value, got {rep_b}")
        target = first_absorbing_cell(ctx.partition, ctx.policy, rep_b)
        if target is not None:
            value = ctx.partition.unscaled(_pick(*ctx.partition.span(target), ctx.policy))
            return InertVerdict(Outcome.INERT, n_stable=target, cell_index=target,
                                fixed_value=value, horizon=horizon, certified=True)
    return _judge(_fold_steps(ctx, map(gen, range(1, horizon + 1))), horizon,
                  settles=getattr(gen, "period", None) == 1)


# ------------------------------------------------------------ input streams
# Streams are pure functions of the 1-based step index, so reruns and
# continued runs always see identical values.  A stream may carry two marks,
# which detect_inert_stream trusts:
# - ``period`` 1 promises that every step gives the same value, so the fold
#   may stop at its first fixed point and still give the verdict of the whole
#   horizon;
# - ``top`` promises that the values are nonnegative and never rise, so the
#   first value, ``top``, is the largest and an increment bound is checked
#   against it alone.
# The factories below set them only where their values keep the promise; an
# unmarked stream is read to the horizon.

def constant(value) -> Callable[[int], Fraction]:
    c = parse_rational(value)
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
    c = parse_rational(coefficient)
    r = parse_rational(ratio)
    if c == 0 or r in (0, 1):
        return constant(c * r)
    stream = lambda t: c * r**t
    if c > 0 and 0 < r < 1:
        stream.top = c * r
    return stream
