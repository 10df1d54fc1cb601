"""Detecting inert coarse partial-sum sequences.

A stream is inert when its left-associative coarse partial sums stop
changing: from some step N onward every partial sum is the same value in the
same cell.  Finite evidence can only certify "constant over the observed
window"; genuine stabilization is asserted only by the margin certificate,
which needs an upper bound on future increments.

The certificate: collapsing is monotone, so if every input is at most b,
every collapsed increment is at most the representative of b's cell.  The
first cell whose upward margin strictly exceeds that representative absorbs
all further increments, and running sums (which can never jump past it,
because margins below it are too small to matter and widths above it are
larger than any increment) settle there.  The strict inequality means the
certificate never fires on an exact boundary tie; membership-style folding
of a tied stream can therefore settle earlier than the certificate's cell,
and both answers are meaningful.  See ``detect_inert_stream``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .ops import CoarseContext, FoldTrace, _fold_steps
from .partitions import Partition
from .rationals import format_rational, parse_rational
from .representatives import Policy, _pick, rep_of_cell


class Outcome(Enum):
    INERT = "inert"
    # No outcome claims divergence: a finite window cannot tell it from slow
    # stabilization, so NO_VERDICT carries growth evidence instead.
    NO_VERDICT = "no_verdict"


class InertVerdict(NamedTuple):
    """Outcome of an inertness check.

    ``certified`` is True only for margin-certificate verdicts, which hold
    for the entire infinite stream; observed verdicts only describe the
    examined window.  ``increasing_run`` (non-inert outcomes) is the length
    of the longest strictly climbing run of sum-cell indexes at the end of
    the window, as growth evidence.
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


def first_absorbing_cell(partition: Partition, policy: Policy, increment_rep,
                         strict: bool = True) -> int | None:
    """Smallest cell index whose upward margin beats a collapsed increment.

    ``strict`` compares with ``>`` (never satisfied by an exact tie);
    non-strict uses ``>=``.  Returns None when no cell ever qualifies, which
    can only happen for bounded-margin families (fixed width, singleton
    grids, max policy, or finite explicit layouts).
    """
    inc = Fraction(increment_rep)
    p, q = inc.as_integer_ratio()
    if p < 0:
        raise ValueError(f"increment representative must be >= 0, got {inc}")
    span, bar = partition.span, p * partition.scale

    def hit(i: int) -> bool:
        # margin (hi - pick)/scale against p/q, with both sides times scale*q
        lo, hi = span(i)
        m = (hi - _pick(lo, hi, policy)) * q
        return m > bar if strict else m >= bar

    if partition.max_index is not None:
        return next((i for i in range(1, partition.max_index + 1) if hit(i)), None)
    if policy is Policy.MAX or partition.constant_margins:
        # every cell has the same margin (zero under max)
        return 1 if hit(1) else None
    # the other unbounded families grow cells without bound: under min or median the scan ends
    i = 1
    while not hit(i):
        i += 1
    return i


def detect_inert_stream(ctx: CoarseContext, gen: Callable[[int], Fraction],
                        horizon: int, increment_bound=None) -> InertVerdict:
    """Judge a generated stream, optionally with the margin certificate.

    With ``increment_bound`` b (every generated value is promised to be
    between 0 and b), the certificate applies before any folding: the first
    cell whose upward margin strictly exceeds b's collapsed representative
    absorbs the rest of the stream, and the verdict is certified with that
    cell.  Its step index mirrors the cell index, the natural reading of
    "sums settle once they reach the absorbing cell": one collapsed
    increment per cell climbed.  A tied stream can also pin itself to an
    earlier cell without ever climbing; fold without a bound to observe
    that membership behavior.

    Without a bound (or when no cell qualifies), the stream is folded and
    judged step by step, with no trace kept, to the verdict
    :func:`detect_inert_trace` gives on the fold of ``gen(1) .. gen(horizon)``.
    A stream marked with period 1 (see :func:`constant`) stops at its fixed
    point, the first step after step 1 whose sum stays in its cell.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if increment_bound is not None:
        rep_b = ctx.normalize(increment_bound)
        if rep_b < 0:
            raise ValueError(
                f"increment bound must collapse to a nonnegative value, got {rep_b}")
        target = first_absorbing_cell(ctx.partition, ctx.policy, rep_b, strict=True)
        if target is not None:
            value = rep_of_cell(ctx.partition.cell_at(target), ctx.policy)
            return InertVerdict(Outcome.INERT, n_stable=target, cell_index=target,
                                fixed_value=value, horizon=horizon, certified=True)
    return _judge(_fold_steps(ctx, map(gen, range(1, horizon + 1))), horizon,
                  settles=getattr(gen, "period", None) == 1)


# ------------------------------------------------------------ input streams
# Streams are pure functions of the 1-based step index, so reruns and
# continued runs always see identical values.  A stream may carry a
# ``period`` attribute: period 1 promises that every step gives the same
# value, so detect_inert_stream may stop at the fold's first fixed point and
# still give the verdict of the whole horizon.  Only ``constant`` sets it; an
# unmarked stream is folded to the horizon.

def constant(value) -> Callable[[int], Fraction]:
    c = parse_rational(value)
    stream = lambda t: c
    stream.period = 1
    return stream


def harmonic() -> Callable[[int], Fraction]:
    return lambda t: Fraction(1, t)


def geometric(coefficient, ratio) -> Callable[[int], Fraction]:
    """t -> coefficient * ratio**t for t = 1, 2, 3, ..."""
    c = parse_rational(coefficient)
    r = parse_rational(ratio)
    return lambda t: c * r**t
