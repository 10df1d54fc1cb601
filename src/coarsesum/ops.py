"""Coarse addition operators and left-associative coarse folds.

Both operators collapse every operand to its cell representative before
adding, then collapse the exact sum once more:

* value form:  x (+) y  =  rep(rep(x) + rep(y))
* cell form:   i (+) k  =  index of the cell holding rep(cell i) + rep(cell k)

They are commutative but in general not associative, so folds are defined
strictly left to right; the first partial sum is the first raw input,
uncollapsed.  A cell "absorbs" another when their cell sum is the left cell
itself; once the running sum sits in a cell that absorbs every further
increment, it stops moving.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import CoarseError
from .partitions import Partition, _Frozen, _settle
from .rationals import parse_rational, write_rows
from .representatives import Policy, rep_of_cell, rep_of_value


#: Cells whose representatives one fold keeps at a time.  Absorbed and
#: pinned streams revisit a handful of cells; a climbing sum meets a new cell
#: almost every step, so the memo is emptied whenever it fills.
_REP_MEMO_CELLS = 256


class FoldStep(NamedTuple):
    """One step of a coarse fold: raw input, partial sum, and their cells."""

    n: int
    x: Fraction
    x_cell: int
    s: Fraction
    s_cell: int
    absorbed: bool  # True when the sum's cell did not move from step n-1


class FoldTrace(_Frozen):
    """The complete record of a left-associative coarse fold."""

    _fields = ("steps",)

    def __init__(self, steps: tuple):
        _settle(self, steps=steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @property
    def final_sum(self) -> Fraction:
        return self.steps[-1].s

    @property
    def final_cell(self) -> int:
        return self.steps[-1].s_cell

    def to_json_lines(self) -> str:
        return write_rows(FoldStep._fields, self.steps, "json")

    def to_csv(self) -> str:
        return write_rows(FoldStep._fields, self.steps, "csv")

    @classmethod
    def from_json_lines(cls, text: str) -> "FoldTrace":
        readers = (int, parse_rational, int, parse_rational, int, bool)  # one per field
        rows = (json.loads(line) for line in text.splitlines() if line.strip())
        return cls(tuple(FoldStep._make(read(d[k]) for read, k in zip(readers, FoldStep._fields))
                         for d in rows))


class CoarseContext(NamedTuple):
    """A partition plus a representative policy: everything the operators need."""

    partition: Partition
    policy: Policy = Policy.MEDIAN_LOWER

    def normalize(self, value) -> Fraction:
        """rep-of-cell-of: the collapsed form of a value."""
        return rep_of_value(self.partition, value, self.policy)

    def rep_add(self, x, y) -> Fraction:
        """Coarse addition on values: collapse, add exactly, collapse again."""
        return self.normalize(self.normalize(x) + self.normalize(y))

    def cell_add(self, i: int, k: int) -> int:
        """Coarse addition on cell indexes."""
        total = (rep_of_cell(self.partition.cell_at(i), self.policy)
                 + rep_of_cell(self.partition.cell_at(k), self.policy))
        return self.partition.index_of(total)

    def absorbs(self, i: int, k: int) -> bool:
        """Does cell i swallow cell k, leaving the sum in cell i?"""
        return self.cell_add(i, k) == i

    def distorted(self, x, y) -> bool:
        """Does coarse addition disagree with exact addition on this pair?"""
        return self.rep_add(x, y) != Fraction(x) + Fraction(y)

    def fold(self, values: Iterable) -> FoldTrace:
        """Left-associative coarse partial sums over a finite sequence.

        The first partial sum is the first input as given; later steps
        collapse.  Raises on an empty sequence, and range and domain errors
        surfacing mid-fold carry the failing 1-based step index.
        """
        steps = tuple(_fold_steps(self, values))
        if not steps:
            raise ValueError("cannot fold an empty sequence")
        return FoldTrace(steps)


def _fold_steps(ctx: CoarseContext, values: Iterable):
    """The steps of ``ctx.fold(values)``, one at a time: the one fold kernel.

    Each step is ``rep_add(s, x)`` computed through cells, on the partition's
    integer scale: the running sum's cell, the input's cell and the cell of the
    scaled sum of their representatives.  A cell's representative is collapsed
    once per fold and kept scaled, as a ``Fraction`` for the row and with the
    representative's own cell, which is the next sum's cell (under the min
    policy it can be the cell below).  So from step 2 on, a step's sum and cell
    depend only on the previous sum's cell and the input's cell: a step that
    repeats the move of the step before, as every step of a pinned sum does,
    keeps its result, and an input object repeated from the step before keeps
    its cell.

    Inputs are read lazily, so a consumer that stops early reads no further.
    """
    partition, policy = ctx.partition, ctx.policy
    # inputs are made Fractions below, so the family's own lookups need no coercion
    index_of, scale, locate = partition.index, partition.scale, partition.index_scaled
    reps = {}  # cell -> (scaled representative, representative, its own cell)

    def collapse(cell, value):
        if len(reps) >= _REP_MEMO_CELLS:
            reps.clear()  # climbing sums rarely come back
        rep = rep_of_value(partition, value, policy)
        scaled = rep.numerator * (scale // rep.denominator)
        hit = reps[cell] = (scaled, rep, locate(scaled))
        return hit

    s_cell = moved_from = moved_by = None
    last = object()  # no input is ``last`` before step 1
    for n, raw in enumerate(values, start=1):
        try:
            if raw is not last:
                last, x = raw, raw if type(raw) is Fraction else Fraction(raw)
                x_cell = index_of(x)
            if n == 1:
                new_s, new_cell = x, x_cell
            elif s_cell != moved_from or x_cell != moved_by:
                total = ((reps.get(s_cell) or collapse(s_cell, s))[0]
                         + (reps.get(x_cell) or collapse(x_cell, x))[0])
                cell = locate(total)
                _, new_s, new_cell = reps.get(cell) or collapse(
                    cell, total if scale == 1 else Fraction(total, scale))
                moved_from, moved_by = s_cell, x_cell
            # else this is the move of the step before, whose result new_s, new_cell still hold
        except CoarseError as exc:
            raise type(exc)(f"step {n}: {exc}", step=n) from exc
        yield FoldStep(n, x, x_cell, new_s, new_cell, new_cell == s_cell)
        s, s_cell = new_s, new_cell
