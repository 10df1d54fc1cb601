import json
from fractions import Fraction

import pytest
from hypothesis import settings

from coarsesum import (CoarseContext, EpsilonGrowth, ExplicitBounds, Fibonacci,
                       FixedWidth, Policy, build_partition)

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture
def fib():
    return build_partition(Fibonacci())


@pytest.fixture
def fib_ctx(fib):
    return CoarseContext(fib, Policy.MEDIAN_LOWER)


@pytest.fixture
def tiers():
    # three integer cells {0,1,2}, {3,4,5}, {6..16}
    return build_partition(ExplicitBounds((0, 3, 6, 17)))


@pytest.fixture
def tiers_ctx(tiers):
    return CoarseContext(tiers, Policy.MEDIAN_LOWER)


@pytest.fixture
def eps10():
    return build_partition(EpsilonGrowth(Fraction(10)))


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
