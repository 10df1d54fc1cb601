"""Representative maps over cells, and absorption margins.

A representative is the single value a grain collapses to.  The default
policy takes the median, rounding down to the lower of the two central
elements for even-sized integer cells and taking the midpoint for real
interval cells.  The min and max policies pick the cell boundaries instead.
These maps describe any cell under any policy; ``CoarseContext``, which joins a
partition to a policy, refuses min where cells are open below.

The upward margin of a cell is the headroom between its representative and
its upper boundary.  A cell absorbs an increment exactly when the increment's
own representative fits inside the upward margin.  The downward margin, the
distance from the lower boundary up to the representative, is derived where
the partition table prints it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .partitions import _REALS, Cell, Partition


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
