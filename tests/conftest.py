import json
from fractions import Fraction

import pytest
from hypothesis import settings

from coarsesum import (CoarseContext, Domain, EpsilonGrowth, ExplicitBounds, Fibonacci,
                       FixedWidth, FoldStep, Policy, margin_pos)

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture
def fib():
    return Fibonacci()


@pytest.fixture
def fib_ctx(fib):
    return CoarseContext(fib, Policy.MEDIAN_LOWER)


@pytest.fixture
def tiers():
    # three integer cells {0,1,2}, {3,4,5}, {6..16}
    return ExplicitBounds((0, 3, 6, 17))


@pytest.fixture
def tiers_ctx(tiers):
    return CoarseContext(tiers, Policy.MEDIAN_LOWER)


@pytest.fixture
def eps10():
    return EpsilonGrowth(Fraction(10))


@pytest.fixture
def eps10_ctx(eps10):
    return CoarseContext(eps10, Policy.MEDIAN_LOWER)


@pytest.fixture(scope="session")
def assert_csv_matches_json():
    """Check that CSV rows carry the JSON lines' keys and values, bools lowercased."""
    def check(csv_text, json_text):
        head, *lines = csv_text.splitlines()
        rows = [json.loads(line) for line in json_text.splitlines()]
        assert len(lines) == len(rows) > 0
        for line, row in zip(lines, rows):
            assert head.split(",") == list(row)
            assert line == ",".join(str(v).lower() if isinstance(v, bool) else str(v)
                                    for v in row.values())
    return check


@pytest.fixture(scope="session")
def assert_json_rows_match_steps():
    """Check each JSON line field by field against its step: ints, ``p/q`` strings, bools."""
    def check(json_text, steps):
        rows = [json.loads(line) for line in json_text.splitlines()]
        assert len(rows) == len(steps) > 0
        for row, step in zip(rows, steps):
            assert list(row) == list(FoldStep._fields)
            for key, value in zip(FoldStep._fields, step):
                if isinstance(value, Fraction):
                    value = f"{value.numerator}/{value.denominator}"
                assert type(row[key]) is type(value) and row[key] == value, (step.n, key)
    return check


@pytest.fixture(scope="session")
def contains():
    """The membership oracle: whether a value lies in a ``Cell``, read off its bounds and
    closedness alone, independent of the family's ``index_of`` that it checks."""
    def holds(cell, value):
        x = Fraction(value)
        if cell.domain is Domain.INTEGERS and x.denominator != 1:
            return False
        if x < cell.lower or (x == cell.lower and not cell.lower_closed):
            return False
        return x <= cell.upper
    return holds


@pytest.fixture(scope="session")
def absorbing_by_cells():
    """The absorbing scan's oracle: the first cell from ``start`` on whose ``margin_pos``
    strictly exceeds ``inc``, or with ``strict`` False reaches it, read off ``Cell``s,
    among every cell of a finite layout or the first 200."""
    def first(partition, policy, inc, strict=True, start=1):
        cells = range(start, (partition.max_index or 200) + 1)
        margins = ((i, margin_pos(partition.cell_at(i), policy)) for i in cells)
        return next((i for i, m in margins if (m > inc if strict else m >= inc)), None)
    return first
