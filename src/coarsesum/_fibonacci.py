"""The Fibonacci family; see :mod:`coarsesum.partitions`."""

from bisect import bisect_right

from .partitions import Partition, _below, _settle


class Fibonacci(Partition):
    """Integer blocks whose sizes follow 1, 1, 2, 3, 5, 8, ..."""

    def __init__(self):
        # _starts[i] begins cell i+1.  Sizes follow Fibonacci, so each start is
        # 2*starts[-1] - starts[-3].  Growth swaps in a longer tuple, so every
        # lookup reads one consistent prefix and concurrent ones need no lock.
        _settle(self, _starts=(0, 1, 2))

    def _grown(self, cells: int = 0, cover: int = -1) -> tuple:
        starts = list(self._starts)
        cells = max(cells, len(starts) * 3 // 2)  # grow by half at least, so a climb copies little
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
