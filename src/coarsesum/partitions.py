"""Coarse-grained partitions of the nonnegative number line.

A partition is an ordered family of disjoint interval cells ("grains")
covering its domain from the origin upward, indexed 1, 2, 3, ...  Every
domain value lies in exactly one cell, and cells are ordered element-wise:
everything in cell i precedes everything in cell i+1.

Integer-domain cells are finite runs of consecutive integers, closed
``[min, max]`` intervals.  Real-domain cells follow the half-open convention
``(a, b]``, except cell 1, closed so that the origin is covered, and one-point
cells.  A :class:`Cell` is a read-only view: its index, bounds and domain, the
closedness it derives from them, and its printed form.  Only the family decides
which cell a value lies in, and exactly: boundaries are exact rationals.

Built-in cell-layout families, each in a module of its own that is compiled and
run the first time its name is read from this one (a module ``__getattr__``), so
a command compiles only the family it builds:

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
families are finite and refuse indexes beyond their last cell.  The package's
exception types, :class:`CoarseError` and its subclasses, are defined here first.
"""

from enum import Enum
from fractions import Fraction
from importlib import import_module

from .rationals import format_decimal, parse_rational


class CoarseError(Exception):
    """Base class for every error raised by this package.

    ``step`` is the 1-based fold step of an error that surfaced inside a fold.
    """

    def __init__(self, *args, step: int | None = None):
        super().__init__(*args)
        self.step = step


class SpecError(CoarseError, ValueError):
    """A partition description or its policy is invalid; the message names the offending field."""


class DomainError(CoarseError, ValueError):
    """A value does not belong to the partition's domain (wrong grid, below origin, ...)."""


class OutOfRangeError(CoarseError):
    """A value or cell index falls outside the partition's covered range."""


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

    def __str__(self) -> str:
        if self.domain is _INTEGERS:
            if self.lower == self.upper:
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


# ------------------------------------------------------------------ the base

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


def build_partition(spec: Partition) -> Partition:
    """The partition of a cell-layout description: the family itself, checked when built."""
    if not isinstance(spec, Partition):
        raise SpecError(f"unknown partition description: {spec!r}")
    return spec


#: Each family's module, compiled and run the first time the family's name is read here.
_FAMILIES = {"FixedWidth": "_fixed_width", "Fibonacci": "_fibonacci",
             "EpsilonGrowth": "_epsilon_growth", "ExplicitBounds": "_explicit_bounds",
             "SingletonGrid": "_singleton_grid"}


def __getattr__(name: str):
    if name not in _FAMILIES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    family = globals()[name] = getattr(import_module(f"{__package__}.{_FAMILIES[name]}"), name)
    return family
