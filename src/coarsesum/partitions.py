"""Coarse-grained partitions of the nonnegative number line.

A partition is an ordered family of disjoint interval cells ("grains")
covering its domain from the origin upward, indexed 1, 2, 3, ...  Every
domain value lies in exactly one cell, and cells are ordered element-wise:
everything in cell i precedes everything in cell i+1.

Integer-domain cells are finite runs of consecutive integers, closed
``[min, max]`` intervals.  Real-domain cells follow the half-open convention
``(a, b]``, except cell 1, closed so that the origin is covered, and one-point
cells.  A :class:`Cell` holds its index, bounds and domain, and derives its
closedness from them.  All boundaries are exact rationals, so membership at
a boundary is decided exactly, never by floating-point luck.

Built-in cell-layout families:

* :class:`FixedWidth` -- integer blocks of one constant width.
* :class:`Fibonacci` -- integer blocks sized 1, 1, 2, 3, 5, 8, ...
* :class:`EpsilonGrowth` -- real cells ``[0, 1/2]``, then ``(prev, prev + i/eps]``.
* :class:`ExplicitBounds` -- finitely many cells cut at given boundaries.
* :class:`SingletonGrid` -- each multiple of a step is its own one-point grain.

Each family is one immutable class that holds all of its rules, and it is the
partition itself: every family is a :class:`Partition`, checked when built, so
an invalid spec cannot exist.  Its cells are described in integers: on the
family's ``scale`` D every boundary and every representative (median, min or
max) is a multiple of 1/D, ``span(i)`` gives the bounds of cell i in units of
1/D, and ``index_scaled(n, x=None)`` finds the cell of n/D (errors name x, the
value n came from, if given).  A family declares its ``_fields``, which its
equality, hash and repr read, and ``domain``, ``scale``, ``max_index`` (None
when unbounded) or ``constant_margins`` (every cell has the same margins) only
where they differ from the base's int, 1, None and False.  The base reads the
rest off those: ``origin`` is span(1)'s lower bound, ``index(x)`` finds the
cell of an exact ``int`` or ``Fraction`` from x*D, ``unscaled(n)`` turns n
back into n/D, and it gives every family the lookup API (``index_of``,
``cell_at`` building each :class:`Cell` from its span, ``cell_of``).

Generated families extend lazily to any index and are pure functions of the
index, so concurrent queries for the same cell always agree.  Explicit
families are finite and refuse indexes beyond their last cell.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from math import isqrt, lcm

from .errors import DomainError, OutOfRangeError, SpecError
from .rationals import format_decimal, parse_rational


class Domain(Enum):
    INTEGERS = "int"
    REALS = "real"


_INTEGERS, _REALS = Domain.INTEGERS, Domain.REALS  # read once: a read off the Enum costs more


def _settle(obj, **attrs) -> None:
    """Store fields and lookup data on a frozen value in one dict update, the fastest store."""
    vars(obj).update(attrs)


class _Frozen:
    """An immutable value, equal, hashed and shown by its class and ``_fields``."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Cell(_Frozen):
    """One grain: an interval of integers or reals with exact bounds, closed above."""

    _fields = ("index", "lower", "upper", "lower_closed", "upper_closed", "domain")
    upper_closed = True

    def __init__(self, index: int, lower: Fraction, upper: Fraction, domain: Domain):
        _settle(self, index=index, lower=lower, upper=upper, domain=domain)

    @property
    def lower_closed(self) -> bool:  # real cells are open below, except cell 1 and one-point cells
        return self.domain is _INTEGERS or self.index == 1 or self.lower == self.upper

    def contains(self, value) -> bool:
        x = Fraction(value)
        if self.domain is _INTEGERS and x.denominator != 1:
            return False
        if x < self.lower or (x == self.lower and not self.lower_closed):
            return False
        return x <= self.upper

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
        if self.domain is not _INTEGERS:
            raise DomainError("count is defined for integer cells only")
        return int(self.upper - self.lower) + 1

    def __str__(self) -> str:
        if self.domain is _INTEGERS:
            if self.is_singleton:
                return "{%s}" % self.lower
            return "{%s..%s}" % (self.lower, self.upper)
        lo = "[" if self.lower_closed else "("
        return f"{lo}{format_decimal(self.lower)}, {format_decimal(self.upper)}]"


# ------------------------------------------------------------------ helpers

def _below(x, origin) -> DomainError:
    return DomainError(f"{x} is below the partition origin {origin}")


def _cell_index(index) -> int:
    """A cell index, or the error that refuses anything but a positive int."""
    if not isinstance(index, int) or isinstance(index, bool) or index < 1:
        raise DomainError(f"cell index must be a positive integer, got {index!r}")
    return index


def _rational(field: str, value) -> Fraction:
    """A spec field as an exact rational, or the error that names the field."""
    if isinstance(value, bool):
        raise SpecError(f"{field}: expected a rational number, got {value!r}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise SpecError(f"{field}: {exc}") from None


# ----------------------------------------------------------------- families

class Partition(_Frozen):
    """The base of every family: shared defaults and cell lookup; see the module docstring."""

    domain = Domain.INTEGERS  # the default, so integer families need not restate it
    scale = 1
    max_index = None
    constant_margins = False

    @property
    def origin(self) -> Fraction:
        """The lower bound of cell 1."""
        return self.unscaled(self.span(1)[0])

    @property
    def spec(self) -> "Partition":
        """The family itself, so that ``partition.spec`` names the family, as callers read it."""
        return self

    def unscaled(self, n: int) -> Fraction:
        """The rational n/scale, for a bound or representative read off a span."""
        d = self.scale
        return Fraction(n) if d == 1 else Fraction(n, d)  # one argument skips the gcd

    def index(self, x) -> int:
        """Cell of an exact ``int`` or ``Fraction``, from x*scale; errors name x."""
        n, d = x.numerator * self.scale, x.denominator
        if d != 1:
            n, r = divmod(n, d)
            if r:  # x is off the scale
                if self.domain is _INTEGERS:
                    raise DomainError(f"{x} is not an integer")
                if n < self.span(1)[0]:  # the floor of x*scale is below the origin
                    raise _below(x, self.origin)
                n += 1  # real cells are closed above, so x lies where the ceiling does
        return self.index_scaled(n, x)

    def cell_at(self, index: int) -> Cell:
        """The cell with the given 1-based index."""
        lo, hi = self.span(_cell_index(index))
        lower = self.unscaled(lo)
        upper = lower if hi == lo else self.unscaled(hi)
        return Cell(index, lower, upper, self.domain)

    def index_of(self, value) -> int:
        """Index of the unique cell containing ``value``."""
        if type(value) is not int and type(value) is not Fraction:
            value = Fraction(value)
        return self.index(value)

    def cell_of(self, value) -> Cell:
        """The unique cell containing ``value``."""
        return self.cell_at(self.index_of(value))


class FixedWidth(Partition):
    """Consecutive integer blocks of one fixed width, starting at 0."""

    _fields = ("width",)
    constant_margins = True

    def __init__(self, width: int):
        w = width
        if isinstance(w, str) and w.strip().isdecimal():
            w = int(w)  # text is read as the other families read it: "3" is 3
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise SpecError(f"width: must be a positive integer, got {width!r}")
        _settle(self, width=w)

    def index_scaled(self, n: int, x=None) -> int:
        if n < 0:
            raise _below(n, 0)  # on scale 1, n is the value
        return n // self.width + 1

    def span(self, index: int) -> tuple:
        w = self.width
        return w * (index - 1), w * index - 1


class Fibonacci(Partition):
    """Integer blocks whose sizes follow 1, 1, 2, 3, 5, 8, ..."""

    def __init__(self):
        # _starts[i] begins cell i+1.  Sizes follow Fibonacci, so each start is
        # 2*starts[-1] - starts[-3].  Growth swaps in a longer tuple, so every
        # lookup reads one consistent prefix and concurrent ones need no lock.
        _settle(self, _starts=(0, 1, 2))

    def _grown(self, cells: int = 0, cover: int = -1) -> tuple:
        starts = list(self._starts)
        while len(starts) <= cells or starts[-1] <= cover:
            starts.append(2 * starts[-1] - starts[-3])
        starts = tuple(starts)
        _settle(self, _starts=starts)
        return starts

    def index_scaled(self, n: int, x=None) -> int:
        if n < 0:
            raise _below(n, 0)  # on scale 1, n is the value
        starts = self._starts
        if starts[-1] <= n:
            starts = self._grown(cover=n)
        return bisect_right(starts, n)

    def span(self, index: int) -> tuple:
        starts = self._starts
        if len(starts) <= index:
            starts = self._grown(cells=index)
        return starts[index - 1], starts[index] - 1


class EpsilonGrowth(Partition):
    """Real cells: ``[0, 1/2]`` first, then cell i spans ``i/epsilon``.

    Cell i (i >= 2) is ``(b, b + i/epsilon]`` where b is the previous upper
    bound, so widths grow linearly and upward margins grow without bound.
    With ``T(i) = i(i+1)/2`` the upper bound of cell i is
    ``1/2 + (T(i) - 1)/epsilon``.  For ``epsilon = p/q`` that is
    ``(2p + 2q(i(i+1) - 2)) / 4p``: on the scale 4p every bound is even, so
    every midpoint is an integer too.
    """

    _fields = ("epsilon",)
    domain = Domain.REALS

    def __init__(self, epsilon: Fraction):
        eps = _rational("epsilon", epsilon)
        if eps <= 0:
            raise SpecError(f"epsilon: must be positive, got {eps}")
        p, q = eps.numerator, eps.denominator
        _settle(self, epsilon=eps, scale=4 * p, _half=2 * p, _q2=2 * q, _q4=4 * q)

    def index_scaled(self, n: int, x=None) -> int:
        half = self._half
        if n <= half:
            if n < 0:
                raise _below(self.unscaled(n) if x is None else x, 0)
            return 1
        # n lies in the smallest cell i with T(i) >= (n - 2p)/4q + 1; T(i) is
        # an integer, so that is the smallest i with T(i) >= c below.
        c = -((half - n) // self._q4) + 1
        i = (isqrt(8 * c + 1) - 1) // 2          # largest i with T(i) <= c
        return i if i * (i + 1) // 2 == c else i + 1

    def span(self, index: int) -> tuple:
        half, q2 = self._half, self._q2
        if index == 1:
            return 0, half
        return half + q2 * (index * index - index - 2), half + q2 * (index * index + index - 2)


class ExplicitBounds(Partition):
    """Finitely many cells cut at the given strictly ascending boundaries.

    In the integer domain cell i is ``[b[i-1], b[i] - 1]``; boundaries may
    start at a negative origin.  In the real domain cell 1 is
    ``[b[0], b[1]]`` and cell i is ``(b[i-1], b[i]]``; there the scale is
    twice the common denominator, so every boundary and midpoint is an integer.
    """

    _fields = ("bounds", "domain")

    def __init__(self, bounds: tuple, domain: Domain = Domain.INTEGERS):
        if not isinstance(bounds, (list, tuple)):
            raise SpecError(f"bounds: expected a list of boundaries, got {bounds!r}")
        b = tuple(_rational("bounds", v) for v in bounds)
        try:
            dom = Domain(domain)
        except ValueError:
            raise SpecError(f"domain: expected 'int' or 'real', got {domain!r}") from None
        if len(b) < 2:
            raise SpecError("bounds: need at least two boundaries (one cell)")
        ints = dom is _INTEGERS  # every bound is an integer key on the scale, real midpoints too
        scale = lcm(*(v.denominator for v in b)) * (1 if ints else 2)
        keys = tuple(v.numerator * (scale // v.denominator) for v in b)
        if not all(map(int.__lt__, keys, keys[1:])):
            lo, hi = next((lo, hi) for lo, hi in zip(b, b[1:]) if hi <= lo)
            raise SpecError(f"bounds: must be strictly ascending, got {lo} before {hi}")
        if scale != 1 and ints:
            v = next(v for v in b if v.denominator != 1)
            raise SpecError(f"bounds: integer-domain boundaries must be integers, got {v}")
        # _open: real cells (k[i-1], k[i]] hold the scaled integers k[i-1] + 1 .. k[i]
        _settle(self, bounds=b, domain=dom, max_index=len(b) - 1, scale=scale,
                _keys=keys, _open=0 if ints else 1)

    def index_scaled(self, n: int, x=None) -> int:
        """Cell of n/scale; errors name the value x, n/scale when omitted."""
        keys, shift = self._keys, self._open
        if keys[0] <= n < keys[-1] + shift:
            return bisect_right(keys, n - shift) or 1
        if x is None:
            x = self.unscaled(n)
        b = self.bounds
        if n < keys[0]:
            raise _below(x, b[0])
        if not shift:
            raise OutOfRangeError(f"{x} is beyond the last covered integer {b[-1] - 1}")
        raise OutOfRangeError(f"{x} is beyond the last explicit bound {b[-1]}")

    def span(self, index: int) -> tuple:
        if index > self.max_index:
            raise OutOfRangeError(f"cell {index} is beyond the last explicit cell {self.max_index}")
        keys = self._keys
        return keys[index - 1], keys[index] - 1 + self._open


class SingletonGrid(Partition):
    """Every nonnegative multiple of ``step`` is its own one-point grain.

    The identity coarse structure on a rational grid: representatives are the
    values themselves, every margin is zero, and coarse addition collapses to
    exact addition for values on the grid.  For ``step = u/v`` the scale is v,
    so grid point k is the integer k*u.
    """

    _fields = ("step",)
    domain = Domain.REALS
    constant_margins = True

    def __init__(self, step: Fraction):
        step = _rational("step", step)
        if step <= 0:
            raise SpecError(f"step: must be positive, got {step}")
        _settle(self, step=step, scale=step.denominator, _u=step.numerator)

    def index(self, x) -> int:
        a = x.numerator
        if a < 0:
            raise _below(x, 0)
        # x / (u/v) = a*v / (b*u) must be an integer
        k, r = divmod(a * self.scale, x.denominator * self._u)
        if r:
            raise DomainError(f"{x} is not a multiple of the grid step {self.step}")
        return k + 1

    def index_scaled(self, n: int) -> int:
        k, r = divmod(n, self._u)
        if r or n < 0:
            return self.index(self.unscaled(n))  # raises the value's error
        return k + 1

    def span(self, index: int) -> tuple:
        n = (index - 1) * self._u
        return n, n


def build_partition(spec: Partition) -> Partition:
    """The partition of a cell-layout description: the family itself, checked when built."""
    if not isinstance(spec, Partition):
        raise SpecError(f"unknown partition description: {spec!r}")
    return spec
