"""Representative maps over cells, and absorption margins.

A representative is the single value a grain collapses to.  The default
policy takes the median, rounding down to the lower of the two central
elements for even-sized integer cells and taking the midpoint for real
interval cells.  The min and max policies pick the cell boundaries instead.
These maps describe any cell under any policy; :class:`CoarseContext`, which joins
a partition to a policy, refuses min where cells are open below.  It carries the
operators: both collapse every operand to its cell representative before adding,
then collapse the exact sum once more:

* value form:  x (+) y  =  rep(rep(x) + rep(y))
* cell form:   i (+) k  =  index of the cell holding rep(cell i) + rep(cell k)

Its left fold runs in :mod:`coarsesum.ops`, which only a command that folds compiles.

The upward margin of a cell is the headroom between its representative and
its upper boundary.  A cell absorbs an increment exactly when the increment's
own representative fits inside the upward margin.  The downward margin, the
distance from the lower boundary up to the representative, is derived where
the partition table prints it.
"""

from enum import Enum
from fractions import Fraction

from .partitions import _REALS, Cell, Partition, SpecError, _cell_index, _Frozen, _settle


class Policy(Enum):
    MEDIAN_LOWER = "median"
    MIN = "min"
    MAX = "max"


_MEDIAN, _MIN, _MAX = Policy.MEDIAN_LOWER, Policy.MIN, Policy.MAX  # read once, as _REALS is


def _pick(lo, hi, policy: Policy):
    """The policy's choice between a cell's bounds; the median rounds down."""
    if policy is _MEDIAN:
        return (lo + hi) // 2
    if policy is _MIN:
        return lo
    if policy is _MAX:
        return hi
    raise ValueError(f"unknown policy {policy!r}")


def rep_of_cell(cell: Cell, policy: Policy = Policy.MEDIAN_LOWER) -> Fraction:
    """Representative of a cell: a real cell's midpoint under the median, else ``_pick``'s.

    Min on a real cell whose lower bound is open returns the infimum, which
    is not itself a member of the cell; margins still measure the distance
    to that boundary, and ``CoarseContext`` refuses min on such families.
    Median and max always return a member (upper bounds are attained under
    this package's cell conventions).
    """
    if policy is _MEDIAN and cell.domain is _REALS:
        return (cell.lower + cell.upper) / 2
    return Fraction(_pick(cell.lower, cell.upper, policy))


def rep_of_value(partition: Partition, value, policy: Policy = Policy.MEDIAN_LOWER) -> Fraction:
    """Collapse a value to the representative of its own cell, read off the cell's span."""
    return partition.unscaled(_pick(*partition.span(partition.index_of(value)), policy))


def margin_pos(cell: Cell, policy: Policy = Policy.MEDIAN_LOWER) -> Fraction:
    """Headroom from the representative up to the cell's upper boundary."""
    return cell.upper - rep_of_cell(cell, policy)


class CoarseContext(_Frozen):
    """A partition plus a representative policy: everything the operators need.

    Every pick lies in its own cell, so a collapse never moves a value to another cell.
    Min is refused where cells are open below, since their infimum lies in the cell below.
    """

    _fields = ("partition", "policy")

    def __init__(self, partition: Partition, policy: Policy = Policy.MEDIAN_LOWER):
        if not isinstance(policy, Policy):
            raise SpecError(f"policy: expected a Policy member, got {policy!r}")
        if (policy is Policy.MIN and partition.max_index != 1
                and not partition.cell_at(2).lower_closed):
            raise SpecError(f"policy: min is refused on {type(partition).__name__}, whose cells "
                            "are open below: a cell's infimum lies in the cell below")
        _settle(self, partition=partition, policy=policy)

    def normalize(self, value) -> Fraction:
        """rep-of-cell-of: the collapsed form of a value."""
        return rep_of_value(self.partition, value, self.policy)

    def rep_add(self, x, y) -> Fraction:
        """Coarse addition on values: collapse, add exactly, collapse again."""
        return self.normalize(self.normalize(x) + self.normalize(y))

    def cell_add(self, i: int, k: int) -> int:
        """Coarse addition on cell indexes, read off their integer spans."""
        span, policy = self.partition.span, self.policy
        return self.partition.index_scaled(_pick(*span(_cell_index(i)), policy)
                                           + _pick(*span(_cell_index(k)), policy))

    def fold(self, values) -> "FoldTrace":
        """Left-associative coarse partial sums over a finite sequence: a ``FoldTrace``.

        The first partial sum is the first input as given; later steps
        collapse.  Raises on an empty sequence, and range and domain errors
        surfacing mid-fold carry the failing 1-based step index.
        """
        from .ops import FoldTrace, _fold_steps  # the fold kernel, compiled at the first fold
        trace = FoldTrace(_fold_steps(self, values))
        if not trace:
            raise ValueError("cannot fold an empty sequence")
        return trace
