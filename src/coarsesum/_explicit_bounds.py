"""The ExplicitBounds family; see :mod:`coarsesum.partitions`."""

from bisect import bisect_right
from math import lcm

from .partitions import (_INTEGERS, Domain, OutOfRangeError, Partition, SpecError, _below,
                         _rational, _settle)


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
        # plain digits are read as ints: an int is its own key on the integer scale
        b = [int(v) if type(v) is str and v.isdecimal() else
             v if type(v) is int else _rational("bounds", v) for v in bounds]
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
        _settle(self, domain=dom, max_index=len(b) - 1, scale=scale, _keys=keys,
                _open=0 if ints else 1)

    @property
    def bounds(self) -> tuple:  # the boundaries as exact rationals, read off the keys
        return tuple(map(self.unscaled, self._keys))

    def index_scaled(self, n: int, x=None) -> int:
        """Cell of n/scale; errors name the value x, n/scale when omitted."""
        keys, shift = self._keys, self._open
        if keys[0] <= n < keys[-1] + shift:
            return bisect_right(keys, n - shift) or 1
        if x is None:
            x = self.unscaled(n)
        if n < keys[0]:
            raise _below(x, self.origin)
        if not shift:
            raise OutOfRangeError(f"{x} is beyond the last covered integer {keys[-1] - 1}")
        raise OutOfRangeError(f"{x} is beyond the last explicit bound {self.unscaled(keys[-1])}")

    def span(self, index: int) -> tuple:
        if index > self.max_index:
            raise OutOfRangeError(f"cell {index} is beyond the last explicit cell {self.max_index}")
        keys = self._keys
        return keys[index - 1], keys[index] - 1 + self._open
