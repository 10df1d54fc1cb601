"""The SingletonGrid family; see :mod:`coarsesum.partitions`."""

from fractions import Fraction

from .partitions import Domain, DomainError, Partition, SpecError, _below, _rational, _settle


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

    def index_scaled(self, n: int, x=None) -> int:
        k, r = divmod(n, self._u)
        if r or n < 0:  # raises the error of the value x, n/scale when omitted
            return self.index(self.unscaled(n) if x is None else x)
        return k + 1

    def span(self, index: int) -> tuple:
        n = (index - 1) * self._u
        return n, n
