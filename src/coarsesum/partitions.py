"""Coarse-grained partitions of the nonnegative number line.

A partition is an ordered family of disjoint interval cells ("grains")
covering its domain from the origin upward, indexed 1, 2, 3, ...  Every
domain value lies in exactly one cell, and cells are ordered element-wise:
everything in cell i precedes everything in cell i+1.

Integer-domain cells are finite runs of consecutive integers, stored as
closed ``[min, max]`` intervals.  Real-domain cells follow the half-open
convention ``(a, b]``, except the first cell, which is closed on both sides
so that the origin is covered.  All boundaries are exact rationals, so
membership at a boundary is decided exactly, never by floating-point luck.

Built-in cell-layout families:

* :class:`FixedWidth` -- integer blocks of one constant width.
* :class:`Fibonacci` -- integer blocks sized 1, 1, 2, 3, 5, 8, ...
* :class:`EpsilonGrowth` -- real cells ``[0, 1/2]``, then ``(prev, prev + i/eps]``.
* :class:`ExplicitBounds` -- finitely many cells cut at given boundaries.
* :class:`SingletonGrid` -- each multiple of a step is its own one-point grain.

Generated families extend lazily to any index and are pure functions of the
index, so concurrent queries for the same cell always agree.  Explicit
families are finite and refuse indexes beyond their last cell.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import DomainError, OutOfRangeError, SpecError
from .rationals import format_decimal, format_rational, parse_rational, rational_to_json


class Domain(Enum):
    INTEGERS = "int"
    REALS = "real"


@dataclass(frozen=True)
class Cell:
    """One grain: an interval of integers or reals with exact bounds."""

    index: int
    lower: Fraction
    upper: Fraction
    lower_closed: bool
    upper_closed: bool
    domain: Domain

    def contains(self, value) -> bool:
        x = Fraction(value)
        if self.domain is Domain.INTEGERS and x.denominator != 1:
            return False
        if x < self.lower or (x == self.lower and not self.lower_closed):
            return False
        if x > self.upper or (x == self.upper and not self.upper_closed):
            return False
        return True

    __contains__ = contains

    @property
    def is_singleton(self) -> bool:
        return self.lower == self.upper

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def count(self) -> int:
        """Number of elements; defined for integer-domain cells only."""
        if self.domain is not Domain.INTEGERS:
            raise DomainError("count is defined for integer cells only")
        return int(self.upper - self.lower) + 1

    def __str__(self) -> str:
        if self.domain is Domain.INTEGERS:
            if self.is_singleton:
                return "{%s}" % self.lower
            return "{%s..%s}" % (self.lower, self.upper)
        lo = "[" if self.lower_closed else "("
        hi = "]" if self.upper_closed else ")"
        return f"{lo}{format_decimal(self.lower)}, {format_decimal(self.upper)}{hi}"


@dataclass(frozen=True)
class FixedWidth:
    """Consecutive integer blocks of one fixed width, starting at 0."""

    width: int


@dataclass(frozen=True)
class Fibonacci:
    """Integer blocks whose sizes follow 1, 1, 2, 3, 5, 8, ..."""


@dataclass(frozen=True)
class EpsilonGrowth:
    """Real cells: ``[0, 1/2]`` first, then cell i spans ``i/epsilon``.

    Cell i (i >= 2) is ``(b, b + i/epsilon]`` where b is the previous upper
    bound, so widths grow linearly and upward margins grow without bound.
    """

    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", parse_rational(self.epsilon))


@dataclass(frozen=True)
class ExplicitBounds:
    """Finitely many cells cut at the given strictly ascending boundaries.

    In the integer domain cell i is ``[b[i-1], b[i] - 1]``; boundaries may
    start at a negative origin.  In the real domain cell 1 is
    ``[b[0], b[1]]`` and cell i is ``(b[i-1], b[i]]``.
    """

    bounds: tuple
    domain: Domain = Domain.INTEGERS

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(parse_rational(b) for b in self.bounds))
        if isinstance(self.domain, str):
            object.__setattr__(self, "domain", Domain(self.domain))


@dataclass(frozen=True)
class SingletonGrid:
    """Every nonnegative multiple of ``step`` is its own one-point grain.

    The identity coarse structure on a rational grid: representatives are the
    values themselves, every margin is zero, and coarse addition collapses to
    exact addition for values on the grid.
    """

    step: Fraction

    def __post_init__(self):
        object.__setattr__(self, "step", parse_rational(self.step))


PartitionSpec = Union[FixedWidth, Fibonacci, EpsilonGrowth, ExplicitBounds, SingletonGrid]


def from_widths(widths, origin: int = 0) -> ExplicitBounds:
    """Explicit integer cells from a finite list of block widths."""
    widths = list(widths)
    if not widths:
        raise SpecError("widths: need at least one block width")
    for w in widths:
        if not isinstance(w, int) or w < 1:
            raise SpecError(f"widths: block widths must be positive integers, got {w!r}")
    bounds = [origin]
    for w in widths:
        bounds.append(bounds[-1] + w)
    return ExplicitBounds(tuple(bounds), Domain.INTEGERS)


# ------------------------------------------------------------------ layouts
# Each family's rules live in one layout object, resolved once when the
# partition is built.  ``index`` receives an exact ``int`` or ``Fraction``
# and decides membership on its numerator and denominator; ``cell`` builds
# the cell with a given (already validated) 1-based index.

def _not_integer(x) -> DomainError:
    return DomainError(f"{x} is not an integer")


def _below(x, origin) -> DomainError:
    return DomainError(f"{x} is below the partition origin {origin}")


def _natural(x) -> int:
    """The value as a nonnegative integer, or the domain error it deserves."""
    n = x.numerator
    if x.denominator != 1:
        raise _not_integer(x)
    if n < 0:
        raise _below(x, 0)
    return n


class _Unbounded:
    """Generated families: cells from 0 upward, extended lazily without end."""

    origin = Fraction(0)
    max_index = None


class _FixedWidthLayout(_Unbounded):
    domain = Domain.INTEGERS

    def __init__(self, spec: FixedWidth):
        if not isinstance(spec.width, int) or isinstance(spec.width, bool) or spec.width < 1:
            raise SpecError(f"width: must be a positive integer, got {spec.width!r}")
        self.width = spec.width

    def index(self, x) -> int:
        return _natural(x) // self.width + 1

    def cell(self, index: int) -> Cell:
        w = self.width
        return Cell(index, Fraction(w * (index - 1)), Fraction(w * index - 1),
                    True, True, Domain.INTEGERS)


class _FibonacciLayout(_Unbounded):
    domain = Domain.INTEGERS

    def __init__(self, spec: Fibonacci):
        # starts[i] begins cell i+1.  Sizes follow Fibonacci, so each start is
        # 2*starts[-1] - starts[-3].  The list only ever grows, so readers that
        # find what they need in it never take the lock.
        self.starts = [0, 1, 2]
        self.lock = threading.Lock()

    def _grow(self, cells: int = 0, cover: int = -1) -> None:
        with self.lock:
            starts = self.starts
            while len(starts) <= cells or starts[-1] <= cover:
                starts.append(2 * starts[-1] - starts[-3])

    def index(self, x) -> int:
        n = _natural(x)
        if self.starts[-1] <= n:
            self._grow(cover=n)
        return bisect_right(self.starts, n)

    def cell(self, index: int) -> Cell:
        if len(self.starts) <= index:
            self._grow(cells=index)
        return Cell(index, Fraction(self.starts[index - 1]), Fraction(self.starts[index] - 1),
                    True, True, Domain.INTEGERS)


class _EpsilonGrowthLayout(_Unbounded):
    """Bounds ``1/2 + (T(i) - 1)/eps`` with ``T(i) = i(i+1)/2`` and ``eps = p/q``."""

    domain = Domain.REALS

    def __init__(self, spec: EpsilonGrowth):
        if spec.epsilon <= 0:
            raise SpecError(f"epsilon: must be positive, got {spec.epsilon}")
        self.p, self.q = spec.epsilon.numerator, spec.epsilon.denominator

    def bound(self, i: int) -> Fraction:
        """Upper bound of cell i: (p + 2(T(i) - 1)q) / 2p."""
        return Fraction(self.p + (i * (i + 1) - 2) * self.q, 2 * self.p)

    def index(self, x) -> int:
        a, b = x.numerator, x.denominator
        if 2 * a <= b:
            if a < 0:
                raise _below(x, 0)
            return 1
        # x lies in the smallest cell i with T(i) >= eps*(x - 1/2) + 1; T(i) is
        # an integer, so that is the smallest i with T(i) >= c below.
        c = -(-self.p * (2 * a - b) // (2 * self.q * b)) + 1
        i = (isqrt(8 * c + 1) - 1) // 2          # largest i with T(i) <= c
        return i if i * (i + 1) // 2 == c else i + 1

    def cell(self, index: int) -> Cell:
        if index == 1:
            return Cell(1, Fraction(0), Fraction(1, 2), True, True, Domain.REALS)
        return Cell(index, self.bound(index - 1), self.bound(index), False, True, Domain.REALS)


class _SingletonGridLayout(_Unbounded):
    domain = Domain.REALS

    def __init__(self, spec: SingletonGrid):
        if spec.step <= 0:
            raise SpecError(f"step: must be positive, got {spec.step}")
        self.step = spec.step
        self.u, self.v = spec.step.numerator, spec.step.denominator

    def index(self, x) -> int:
        a = x.numerator
        if a < 0:
            raise _below(x, 0)
        # x / (u/v) = a*v / (b*u) must be an integer
        k, r = divmod(a * self.v, x.denominator * self.u)
        if r:
            raise DomainError(f"{x} is not a multiple of the grid step {self.step}")
        return k + 1

    def cell(self, index: int) -> Cell:
        v = Fraction((index - 1) * self.u, self.v)
        return Cell(index, v, v, True, True, Domain.REALS)


class _ExplicitBoundsLayout:
    def __init__(self, spec: ExplicitBounds):
        b = spec.bounds
        if len(b) < 2:
            raise SpecError("bounds: need at least two boundaries (one cell)")
        for lo, hi in zip(b, b[1:]):
            if hi <= lo:
                raise SpecError(f"bounds: must be strictly ascending, got {lo} before {hi}")
        if spec.domain is Domain.INTEGERS:
            for v in b:
                if v.denominator != 1:
                    raise SpecError(f"bounds: integer-domain boundaries must be integers, got {v}")
        self.bounds = b
        self.domain = spec.domain
        # integer-domain lookups bisect plain ints rather than Fractions
        self.keys = tuple(int(v) for v in b) if spec.domain is Domain.INTEGERS else b
        self.origin = b[0]
        self.max_index = len(b) - 1

    def index(self, x) -> int:
        b = self.bounds
        if self.domain is Domain.INTEGERS:
            n, keys = x.numerator, self.keys
            if x.denominator != 1:
                raise _not_integer(x)
            if n < keys[0]:
                raise _below(x, b[0])
            if n >= keys[-1]:
                raise OutOfRangeError(f"{x} is beyond the last covered integer {b[-1] - 1}")
            return bisect_right(keys, n)
        if x < b[0]:
            raise _below(x, b[0])
        if x > b[-1]:
            raise OutOfRangeError(f"{x} is beyond the last explicit bound {b[-1]}")
        if x <= b[1]:
            return 1
        return bisect_left(b, x)

    def cell(self, index: int) -> Cell:
        if index > self.max_index:
            raise OutOfRangeError(f"cell {index} is beyond the last explicit cell {self.max_index}")
        lo, hi = self.bounds[index - 1], self.bounds[index]
        if self.domain is Domain.INTEGERS:
            return Cell(index, lo, hi - 1, True, True, Domain.INTEGERS)
        return Cell(index, lo, hi, index == 1, True, Domain.REALS)


class _CellsLayout:
    """Explicit cells taken as given; lookup is a scan over their memberships."""

    def __init__(self, cells):
        self.cells = tuple(cells)
        self.max_index = len(self.cells)

    @property
    def domain(self) -> Domain:
        return self.cells[0].domain

    @property
    def origin(self) -> Fraction:
        return self.cells[0].lower

    def index(self, x) -> int:
        for c in self.cells:
            if c.contains(x):
                return c.index
        raise OutOfRangeError(f"{x} is not covered by any provided cell")

    def cell(self, index: int) -> Cell:
        if index > len(self.cells):
            raise OutOfRangeError(f"cell {index} is beyond the {len(self.cells)} provided cells")
        return self.cells[index - 1]


_LAYOUTS = {
    FixedWidth: _FixedWidthLayout,
    Fibonacci: _FibonacciLayout,
    EpsilonGrowth: _EpsilonGrowthLayout,
    SingletonGrid: _SingletonGridLayout,
    ExplicitBounds: _ExplicitBoundsLayout,
}


def _layout_for(spec: PartitionSpec):
    """Validate a spec and build its family's layout."""
    for cls in type(spec).__mro__:
        if cls in _LAYOUTS:
            return _LAYOUTS[cls](spec)
    raise SpecError(f"unknown partition description: {spec!r}")


@dataclass(frozen=True)
class Violation:
    kind: str  # "disjointness" | "coverage" | "ordering"
    cells: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


class Partition:
    """An indexed family of cells; see the module docstring for conventions."""

    def __init__(self, spec: PartitionSpec):
        self._layout = _layout_for(spec)
        self._spec = spec

    @classmethod
    def from_cells(cls, cells) -> "Partition":
        """Wrap explicit :class:`Cell` objects without any checking.

        Intended for assembling deliberately broken partitions so that
        :meth:`validate` has something to report on; generated families can
        never violate the cell laws by construction.
        """
        p = object.__new__(cls)
        p._spec = None
        p._layout = _CellsLayout(cells)
        return p

    # ------------------------------------------------------------- structure

    @property
    def spec(self):
        return self._spec

    @property
    def domain(self) -> Domain:
        return self._layout.domain

    @property
    def origin(self) -> Fraction:
        return self._layout.origin

    @property
    def max_index(self) -> int | None:
        """Last valid cell index, or None for lazily unbounded families."""
        return self._layout.max_index

    # -------------------------------------------------------------- accessors

    def cell_at(self, index: int) -> Cell:
        """The cell with the given 1-based index."""
        if not isinstance(index, int) or isinstance(index, bool) or index < 1:
            raise DomainError(f"cell index must be a positive integer, got {index!r}")
        return self._layout.cell(index)

    def index_of(self, value) -> int:
        """Index of the unique cell containing ``value``."""
        if type(value) is not int and type(value) is not Fraction:
            value = Fraction(value)
        return self._layout.index(value)

    def cell_of(self, value) -> Cell:
        """The unique cell containing ``value``."""
        return self.cell_at(self.index_of(value))

    # ------------------------------------------------------------- validation

    def validate(self, up_to: int) -> ValidationReport:
        """Check cells 1..up_to for disjointness, gapless coverage and order."""
        if up_to < 1:
            raise DomainError(f"up_to must be >= 1, got {up_to}")
        last = up_to if self.max_index is None else min(up_to, self.max_index)
        cells = [self.cell_at(i) for i in range(1, last + 1)]
        violations = []
        grid_step = self._spec.step if isinstance(self._spec, SingletonGrid) else None
        for a, b in zip(cells, cells[1:]):
            if b.lower < a.lower:
                violations.append(Violation(
                    "ordering", (a.index, b.index),
                    f"cell {b.index} starts before cell {a.index}"))
            if a.upper > b.lower or (a.upper == b.lower and a.upper_closed and b.lower_closed):
                violations.append(Violation(
                    "disjointness", (a.index, b.index),
                    f"cells {a.index} and {b.index} overlap"))
                continue
            if grid_step is not None:
                if b.lower != a.upper + grid_step:
                    violations.append(Violation(
                        "coverage", (a.index, b.index),
                        f"grid jumps from {a.upper} to {b.lower}, expected step {grid_step}"))
            elif self.domain is Domain.INTEGERS:
                if b.lower > a.upper + 1:
                    violations.append(Violation(
                        "coverage", (a.index, b.index),
                        f"integers strictly between {a.upper} and {b.lower} are uncovered"))
            else:
                if b.lower > a.upper:
                    violations.append(Violation(
                        "coverage", (a.index, b.index),
                        f"values in ({format_decimal(a.upper)}, {format_decimal(b.lower)}) are uncovered"))
                elif a.upper == b.lower and not a.upper_closed and not b.lower_closed:
                    violations.append(Violation(
                        "coverage", (a.index, b.index),
                        f"the boundary {format_decimal(a.upper)} belongs to neither cell"))
        return ValidationReport(checked=last, violations=tuple(violations))

    def __repr__(self) -> str:
        if self._spec is None:
            return f"Partition.from_cells(<{len(self._layout.cells)} cells>)"
        return f"Partition({self._spec!r})"


def build_partition(spec: PartitionSpec) -> Partition:
    """Validate a cell-layout description and wrap it as a partition."""
    return Partition(spec)


# ------------------------------------------------------------- serialization

def spec_to_json(spec: PartitionSpec) -> dict:
    """Wire form of a cell-layout description (plain JSON-ready dict)."""
    if isinstance(spec, FixedWidth):
        return {"kind": "fixed_width", "width": spec.width, "domain": "int"}
    if isinstance(spec, Fibonacci):
        return {"kind": "fibonacci", "domain": "int"}
    if isinstance(spec, EpsilonGrowth):
        return {"kind": "epsilon", "epsilon": format_rational(spec.epsilon), "domain": "real"}
    if isinstance(spec, SingletonGrid):
        return {"kind": "singleton_grid", "step": format_rational(spec.step), "domain": "real"}
    if isinstance(spec, ExplicitBounds):
        ints = spec.domain is Domain.INTEGERS
        bounds = [int(b) if ints else rational_to_json(b) for b in spec.bounds]
        return {"kind": "explicit", "bounds": bounds, "domain": spec.domain.value}
    raise SpecError(f"unknown partition description: {spec!r}")


def spec_from_json(data: dict) -> PartitionSpec:
    """Inverse of :func:`spec_to_json`; tolerant about int-vs-string rationals."""
    if not isinstance(data, dict):
        raise SpecError(f"kind: expected a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    try:
        if kind == "fixed_width":
            return FixedWidth(int(data["width"]))
        if kind == "fibonacci":
            return Fibonacci()
        if kind == "epsilon":
            return EpsilonGrowth(parse_rational(data["epsilon"]))
        if kind == "singleton_grid":
            return SingletonGrid(parse_rational(data["step"]))
        if kind == "explicit":
            domain = Domain(data.get("domain", "int"))
            return ExplicitBounds(tuple(parse_rational(b) for b in data["bounds"]), domain)
    except KeyError as exc:
        raise SpecError(f"{exc.args[0]}: missing field for kind {kind!r}") from exc
    except (ValueError, TypeError) as exc:
        raise SpecError(f"invalid field for kind {kind!r}: {exc}") from exc
    raise SpecError(f"kind: unknown partition kind {kind!r}")
