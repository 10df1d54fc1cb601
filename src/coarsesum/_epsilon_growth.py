"""The EpsilonGrowth family; see :mod:`coarsesum.partitions`."""

from fractions import Fraction
from math import isqrt

from .partitions import Domain, Partition, SpecError, _below, _rational, _settle


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
