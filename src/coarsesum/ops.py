"""Left-associative coarse folds: the one fold kernel and the records it writes.

The operators of :class:`CoarseContext` (kept in :mod:`coarsesum.representatives`
and served here too) are commutative but in general not associative, so folds are
defined strictly left to right; the first partial sum is the first raw input,
uncollapsed.  A cell "absorbs" another when their cell sum is the left cell
itself; once the running sum sits in a cell that absorbs every further
increment, it stops moving.  Only a command that folds compiles this module.
"""

from fractions import Fraction
from typing import Iterable, NamedTuple

from .partitions import CoarseError
from .rationals import write_rows
from .representatives import CoarseContext, _pick, rep_of_value


#: Entries that each of a fold's two memos of its inputs, by cell and by value, holds at
#: a time; a full memo is emptied whole.  Most inputs revisit a few cells.
_REP_MEMO_CELLS = 256


class FoldStep(NamedTuple):
    """One step of a coarse fold: raw input, partial sum, and their cells."""

    n: int
    x: Fraction
    x_cell: int
    s: Fraction
    s_cell: int
    absorbed: bool  # True when the sum's cell did not move from step n-1


class FoldTrace(tuple):
    """The complete record of a left-associative coarse fold: the tuple of its steps."""

    __slots__ = ()

    def to_json_lines(self) -> str:
        return write_rows(FoldStep._fields, self, "json")

    def to_csv(self) -> str:
        return write_rows(FoldStep._fields, self, "csv")


def _fold_steps(ctx: CoarseContext, values: Iterable):
    """The steps of ``ctx.fold(values)``, one at a time: the one fold kernel.

    Each step is ``rep_add(s, x)`` computed through cells, on the partition's integer
    scale: the running sum's cell, the input's cell and the cell of the scaled sum of their
    representatives.  A sum's representative is read off its cell's span and an input's
    through ``rep_of_value``, but an input in the sum's cell takes the sum's; each lies in
    its own cell.  After step 2, a sum's scaled representative and its ``Fraction`` for the
    row change only when its cell does; input cells map to their scaled representatives in
    a memo of at most ``_REP_MEMO_CELLS`` cells, emptied whole when full.  So from step 2
    on, a step's sum and cell depend only on the previous sum's cell and the input's cell:
    a step that repeats the move of the step before, as every step of a pinned sum does,
    keeps its result, and an input object repeated from the step before keeps its cell.
    Any other input but a ``Fraction`` is read from a memo of its ``Fraction`` and cell,
    keyed by its value and emptied at ``_REP_MEMO_CELLS`` inputs, so a few distinct values,
    as sampled payoffs are, are each converted and looked up once; a ``Fraction``'s hash
    costs more than its lookup.

    Inputs are read lazily, so a consumer that stops early reads no further.
    """
    partition, policy = ctx.partition, ctx.policy
    # inputs are made Fractions below, so the family's own lookups need no coercion
    index_of, scale, locate = partition.index, partition.scale, partition.index_scaled
    span, unscaled = partition.span, partition.unscaled
    make = tuple.__new__  # builds a FoldStep as FoldStep._make does, with no Python frame
    picks = {}  # input cell -> scaled pick
    inputs = {}  # input that is not a Fraction -> (its Fraction, its cell)
    s_cell = moved_from = moved_by = None
    last = object()  # no input is ``last`` before step 1
    for n, raw in enumerate(values, start=1):
        try:
            if raw is not last:
                last = raw
                if type(raw) is Fraction:
                    x, x_cell = raw, index_of(raw)
                elif (hit := inputs.get(raw)) is None:
                    if len(inputs) >= _REP_MEMO_CELLS:
                        inputs.clear()
                    x = Fraction(raw)
                    inputs[raw] = x, (x_cell := index_of(x))
                else:
                    x, x_cell = hit
            if n == 1:  # the first sum is the input as given; step 2 adds its cell's pick
                new_s, new_cell, s_pick = x, x_cell, _pick(*span(x_cell), policy)
            elif s_cell != moved_from or x_cell != moved_by:
                if x_cell == s_cell:  # an input in the sum's cell has the sum's pick
                    x_pick = s_pick
                elif (x_pick := picks.get(x_cell)) is None:
                    if len(picks) >= _REP_MEMO_CELLS:
                        picks.clear()
                    rep = rep_of_value(partition, x, policy)
                    x_pick = picks[x_cell] = rep.numerator * (scale // rep.denominator)
                new_cell = locate(s_pick + x_pick)
                if new_cell != s_cell or n == 2:  # a sum that stays keeps its pick, its object
                    s_pick = _pick(*span(new_cell), policy)
                    new_s = unscaled(s_pick)
                moved_from, moved_by = s_cell, x_cell
            # else this is the move of the step before, whose result new_s, new_cell still hold
        except CoarseError as exc:
            raise type(exc)(f"step {n}: {exc}", step=n) from exc
        yield make(FoldStep, (n, x, x_cell, new_s, new_cell, new_cell == s_cell))
        s_cell = new_cell
