"""The FixedWidth family; see :mod:`coarsesum.partitions`."""

from .partitions import Partition, SpecError, _below, _settle


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
