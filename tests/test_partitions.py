import json
import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import (Domain, DomainError, EpsilonGrowth, ExplicitBounds, Fibonacci,
                       FixedWidth, OutOfRangeError, Partition, SingletonGrid, SpecError,
                       build_partition, from_widths, spec_from_json, spec_to_json)


# --- independent oracles -----------------------------------------------------

def fib_cells_by_recurrence(n):
    """Enumerate the first n Fibonacci cells by walking the sizes directly."""
    sizes, out, start = [1, 1], [], 0
    while len(sizes) < n:
        sizes.append(sizes[-1] + sizes[-2])
    for s in sizes[:n]:
        out.append((start, start + s - 1))
        start += s
    return out


def eps_bounds_by_recurrence(eps, n):
    """Upper bounds of the first n growth cells via the defining recurrence."""
    bounds = [F(1, 2)]
    for i in range(2, n + 1):
        bounds.append(bounds[-1] + F(i, 1) / F(eps))
    return bounds


# --- golden cells ------------------------------------------------------------

def test_fibonacci_golden_first_six(fib):
    expected = [(0, 0), (1, 1), (2, 3), (4, 6), (7, 11), (12, 19)]
    got = [(int(fib.cell_at(i).lower), int(fib.cell_at(i).upper)) for i in range(1, 7)]
    assert got == expected
    assert got == fib_cells_by_recurrence(6)


def test_fibonacci_matches_recurrence_deep(fib):
    for i, (lo, hi) in enumerate(fib_cells_by_recurrence(30), start=1):
        c = fib.cell_at(i)
        assert (int(c.lower), int(c.upper)) == (lo, hi)


def test_fixed_width_three(  ):
    p = build_partition(FixedWidth(3))
    assert [(int(p.cell_at(i).lower), int(p.cell_at(i).upper)) for i in range(1, 5)] == \
        [(0, 2), (3, 5), (6, 8), (9, 11)]


def test_epsilon_growth_hand_expanded():
    p = build_partition(EpsilonGrowth(F(10)))
    c1, c2, c3 = p.cell_at(1), p.cell_at(2), p.cell_at(3)
    assert (c1.lower, c1.upper, c1.lower_closed, c1.upper_closed) == (0, F(1, 2), True, True)
    assert (c2.lower, c2.upper, c2.lower_closed, c2.upper_closed) == (F(1, 2), F(7, 10), False, True)
    assert (c3.lower, c3.upper) == (F(7, 10), F(1))


@given(eps=st.fractions(min_value=F(1, 4), max_value=60, max_denominator=20),
       n=st.integers(min_value=1, max_value=40))
def test_epsilon_bounds_match_recurrence(eps, n):
    p = build_partition(EpsilonGrowth(eps))
    bounds = eps_bounds_by_recurrence(eps, n)
    c = p.cell_at(n)
    assert c.upper == bounds[-1]
    if n >= 2:
        assert c.lower == bounds[-2]
        assert c.width == F(n, 1) / eps


def test_singleton_grid_cells():
    p = build_partition(SingletonGrid(F(1, 2)))
    assert [(p.cell_at(i).lower, p.cell_at(i).upper) for i in range(1, 4)] == \
        [(0, 0), (F(1, 2), F(1, 2)), (1, 1)]
    assert p.cell_at(3).is_singleton


def test_explicit_bounds_integer_cells(tiers):
    assert [(int(tiers.cell_at(i).lower), int(tiers.cell_at(i).upper))
            for i in range(1, 4)] == [(0, 2), (3, 5), (6, 16)]
    assert tiers.max_index == 3


def test_explicit_bounds_real_cells():
    p = build_partition(ExplicitBounds((0, 1, F(5, 2)), Domain.REALS))
    c1, c2 = p.cell_at(1), p.cell_at(2)
    assert (c1.lower_closed, c1.upper_closed) == (True, True)
    assert (c2.lower_closed, c2.upper_closed) == (False, True)
    assert p.index_of(1) == 1          # boundary belongs to the earlier cell
    assert p.index_of(F(11, 10)) == 2


def test_explicit_bounds_negative_origin():
    p = build_partition(ExplicitBounds((-10, -5, 0, 5)))
    assert (int(p.cell_at(1).lower), int(p.cell_at(1).upper)) == (-10, -6)
    assert p.index_of(-7) == 1
    assert p.index_of(-5) == 2
    assert p.origin == -10
    with pytest.raises(DomainError):
        p.index_of(-11)


def test_from_widths_helper():
    p = build_partition(from_widths([3, 3, 11]))
    assert [(int(p.cell_at(i).lower), int(p.cell_at(i).upper)) for i in range(1, 4)] == \
        [(0, 2), (3, 5), (6, 16)]


@pytest.mark.parametrize("widths", [[True, 2], [3, False], [2, 0], [2, -1], [2.0], ["2"], []])
def test_from_widths_rejects_what_fixed_width_rejects(widths):
    with pytest.raises(SpecError, match="widths"):
        from_widths(widths)
    if widths and isinstance(widths[0], bool):
        with pytest.raises(SpecError, match="width"):
            FixedWidth(widths[0])


# --- membership --------------------------------------------------------------

def test_cell_of_boundary_membership_eps10(eps10):
    assert eps10.index_of(F(1, 2)) == 1    # first cell is closed above
    assert eps10.index_of(F(7, 10)) == 2
    assert eps10.index_of(F(701, 1000)) == 3
    assert eps10.index_of(0) == 1


@given(st.integers(min_value=0, max_value=10**6))
def test_fixed_width_index_formula(x):
    p = build_partition(FixedWidth(7))
    assert p.index_of(x) == x // 7 + 1
    assert x in p.cell_of(x)


@given(st.integers(min_value=0, max_value=10**5))
def test_fibonacci_membership(x):
    p = build_partition(Fibonacci())
    c = p.cell_of(x)
    assert x in c
    assert c.index == p.index_of(x)


@given(st.fractions(min_value=0, max_value=500, max_denominator=64),
       st.fractions(min_value=F(1, 2), max_value=40, max_denominator=16))
def test_epsilon_membership_is_exact(x, eps):
    p = build_partition(EpsilonGrowth(eps))
    c = p.cell_of(x)
    assert x in c
    # neighbours do not also contain it
    if c.index > 1:
        assert x not in p.cell_at(c.index - 1)
    assert x not in p.cell_at(c.index + 1)


@given(st.integers(min_value=1, max_value=5000))
def test_grid_membership(k):
    p = build_partition(SingletonGrid(F(1, 2)))
    v = F(k, 2)
    assert p.index_of(v) == k + 1
    assert p.cell_of(v).lower == v


def test_domain_errors():
    p = build_partition(FixedWidth(3))
    with pytest.raises(DomainError):
        p.index_of(F(1, 2))
    with pytest.raises(DomainError):
        p.index_of(-1)
    g = build_partition(SingletonGrid(F(1, 2)))
    with pytest.raises(DomainError):
        g.index_of(F(1, 3))


# --- every accepted value lies in its cell -----------------------------------

@st.composite
def real_layouts(draw):
    """Real explicit layouts from the origins 0, -1/2 and 1/3, with mixed denominators."""
    bounds = [draw(st.sampled_from([F(0), F(-1, 2), F(1, 3)]))]
    for w in draw(st.lists(st.fractions(min_value=F(1, 9), max_value=5, max_denominator=9),
                           min_size=1, max_size=5)):
        bounds.append(bounds[-1] + w)
    return ExplicitBounds(tuple(bounds), Domain.REALS)


LAYOUTS = st.one_of(
    st.integers(1, 9).map(FixedWidth),
    st.just(Fibonacci()),
    st.one_of(st.sampled_from([F(1, 3), F(10), F(101, 3)]),
              st.fractions(min_value=F(1, 50), max_value=200, max_denominator=60)
              ).map(EpsilonGrowth),
    st.sampled_from([ExplicitBounds((0, 3, 6, 17)), ExplicitBounds((-4, 1, 2, 9, 30))]),
    real_layouts(),
    st.fractions(min_value=F(1, 20), max_value=7, max_denominator=20).map(SingletonGrid),
)


@st.composite
def values_near_bounds(draw, spec):
    """Values within two scale units of a cell bound, on the scale or off it."""
    i = draw(st.integers(1, spec.max_index or 30))
    edge = draw(st.sampled_from(spec.span(i)))
    units = draw(st.one_of(
        st.integers(-2, 2),
        st.fractions(min_value=-2, max_value=2, max_denominator=7),
        st.fractions(min_value=-1, max_value=0, max_denominator=10**6)))  # just below the edge
    return F(edge + units) / spec.scale


def on_the_points(spec, x):
    """Whether x is a point the family can hold: an integer, a grid point, or any real."""
    if isinstance(spec, SingletonGrid):
        return (x / spec.step).denominator == 1
    return spec.domain is Domain.REALS or x.denominator == 1


def accepts(spec, x):
    """Whether x lies in some cell, read off the cells' exact bounds."""
    return (on_the_points(spec, x) and x >= spec.origin
            and (spec.max_index is None or x <= spec.cell_at(spec.max_index).upper))


@settings(max_examples=400)
@given(spec=LAYOUTS, data=st.data())
def test_every_value_index_of_accepts_lies_in_its_cell(spec, data):
    for x in data.draw(st.lists(values_near_bounds(spec), min_size=1, max_size=12)):
        try:
            i = spec.index_of(x)
        except (DomainError, OutOfRangeError) as exc:
            assert not accepts(spec, x), (x, str(exc))
            if x < spec.origin and on_the_points(spec, x):
                assert str(exc) == f"{x} is below the partition origin {spec.origin}"
        else:
            assert accepts(spec, x) and spec.cell_at(i).contains(x), (x, i)


@pytest.mark.parametrize("origin", [F(0), F(-1, 2), F(1, 3)])
def test_a_value_just_below_a_real_origin_is_refused(origin):
    spec = ExplicitBounds((origin, origin + 1, origin + 2), Domain.REALS)
    for x in (origin - F(1, 10), origin - F(1, 10**9), origin - F(1, 2 * spec.scale)):
        with pytest.raises(DomainError) as exc:
            spec.index_of(x)
        assert str(exc.value) == f"{x} is below the partition origin {origin}"
    assert spec.index_of(origin) == 1


def test_finite_partition_range_errors(tiers):
    with pytest.raises(OutOfRangeError):
        tiers.cell_at(4)
    with pytest.raises(OutOfRangeError):
        tiers.index_of(17)
    assert tiers.index_of(16) == 3


def test_lazy_extension_is_stable(fib):
    a = fib.cell_at(200)
    b = fib.cell_at(200)
    assert a == b
    assert fib.index_of(a.lower) == 200


def test_lazy_extension_under_concurrent_queries():
    # Fibonacci cells grow lazily while other threads look them up.
    expected = fib_cells_by_recurrence(400)
    shared = build_partition(Fibonacci())
    errors = []

    def query(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                i = rng.randint(1, 400)
                lo, hi = expected[i - 1]
                cell = shared.cell_at(i)
                assert (cell.lower, cell.upper) == (lo, hi)
                assert shared.index_of(rng.randint(lo, hi)) == i
        except Exception as exc:  # a worker's failure must reach the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# --- construction errors -----------------------------------------------------

def test_invalid_specs_name_the_field():
    with pytest.raises(SpecError, match="width"):
        build_partition(FixedWidth(0))
    with pytest.raises(SpecError, match="epsilon"):
        build_partition(EpsilonGrowth(F(0)))
    with pytest.raises(SpecError, match="step"):
        build_partition(SingletonGrid(F(-1, 2)))
    with pytest.raises(SpecError, match="ascending"):
        build_partition(ExplicitBounds((0, 5, 3)))
    with pytest.raises(SpecError, match="bounds"):
        build_partition(ExplicitBounds((0,)))
    with pytest.raises(SpecError, match="integer"):
        build_partition(ExplicitBounds((0, F(3, 2), 4)))


def explicit_bounds_by_pairs(bounds, domain):
    """The bounds checks as pairwise ``Fraction`` comparisons: (error text) or (scale, keys)."""
    b = [F(v) for v in bounds]
    if len(b) < 2:
        return "bounds: need at least two boundaries (one cell)"
    for lo, hi in zip(b, b[1:]):
        if hi <= lo:
            return f"bounds: must be strictly ascending, got {lo} before {hi}"
    for v in b:
        if domain is Domain.INTEGERS and v.denominator != 1:
            return f"bounds: integer-domain boundaries must be integers, got {v}"
    scale = 1
    for v in b:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    scale *= 1 if domain is Domain.INTEGERS else 2
    return scale, tuple(int(v * scale) for v in b)


@settings(max_examples=400)
@given(bounds=st.lists(st.one_of(st.integers(-9, 30), st.fractions(-9, 30, max_denominator=7)),
                       max_size=7).map(lambda b: sorted(b) if len(b) % 3 else b),
       domain=st.sampled_from(list(Domain)))
def test_explicit_bounds_check_order_and_integers_as_pairwise_comparisons(bounds, domain):
    expected = explicit_bounds_by_pairs(bounds, domain)
    if isinstance(expected, str):
        with pytest.raises(SpecError) as exc:
            ExplicitBounds(tuple(bounds), domain)
        assert str(exc.value) == expected
    else:
        spec = ExplicitBounds(tuple(bounds), domain)
        assert (spec.scale, spec._keys) == expected


# --- cell laws ---------------------------------------------------------------

FAMILY_SPECS = [
    FixedWidth(5),
    Fibonacci(),
    EpsilonGrowth(F(10)),
    EpsilonGrowth(F(5, 2)),
    ExplicitBounds((-4, 1, 2, 9, 30, 100)),
    ExplicitBounds((0, F(1, 2), 1, F(7, 3), 10, 50), Domain.REALS),
    SingletonGrid(F(1, 2)),
]


def assert_cell_laws(spec):
    p = build_partition(spec)
    last = 40 if p.max_index is None else p.max_index
    cells = [p.cell_at(i) for i in range(1, last + 1)]
    assert cells[0].lower == p.origin and cells[0].lower_closed
    for a, b in zip(cells, cells[1:]):
        assert a.lower <= a.upper <= b.lower, ("ordered", spec, a.index)
        assert a.upper < b.lower or not (a.upper_closed and b.lower_closed), \
            ("disjoint", spec, a.index)
        if isinstance(spec, SingletonGrid):
            assert b.lower == a.upper + spec.step, ("step-spaced on the grid", spec, a.index)
        elif p.domain is Domain.INTEGERS:
            assert b.lower == a.upper + 1, ("gapless", spec, a.index)
        else:
            assert b.lower == a.upper, ("gapless", spec, a.index)
            assert a.upper_closed != b.lower_closed, ("one owner per boundary", spec, a.index)
    for c in cells:
        assert p.index_of(c.lower if c.lower_closed else c.upper) == c.index, (spec, c.index)


def test_validate_generated_families_pass():
    for spec in FAMILY_SPECS:
        assert_cell_laws(spec)


# --- serialization -----------------------------------------------------------

@pytest.mark.parametrize("spec", [
    FixedWidth(3),
    Fibonacci(),
    EpsilonGrowth(F(10)),
    EpsilonGrowth(F(5, 2)),
    ExplicitBounds((0, 3, 6, 17)),
    ExplicitBounds((0, F(1, 2), F(3, 2)), Domain.REALS),
    SingletonGrid(F(1, 2)),
])
def test_spec_json_roundtrip(spec):
    assert spec_from_json(spec_to_json(spec)) == spec


def test_spec_json_shapes():
    # the text, not the dict, so that the key order is pinned too
    shapes = [
        (FixedWidth(3), '{"kind": "fixed_width", "width": 3, "domain": "int"}'),
        (Fibonacci(), '{"kind": "fibonacci", "domain": "int"}'),
        (EpsilonGrowth(F(10)), '{"kind": "epsilon", "epsilon": "10/1", "domain": "real"}'),
        (ExplicitBounds((0, 3, 6, 17)),
         '{"kind": "explicit", "bounds": [0, 3, 6, 17], "domain": "int"}'),
        (SingletonGrid(F(3, 4)), '{"kind": "singleton_grid", "step": "3/4", "domain": "real"}'),
        (ExplicitBounds((F(-1, 2), 0, F(7, 3), 5), Domain.REALS),
         '{"kind": "explicit", "bounds": ["-1/2", 0, "7/3", 5], "domain": "real"}'),
    ]
    for spec, text in shapes:
        assert json.dumps(spec_to_json(spec)) == text


def test_spec_json_rejects_garbage():
    with pytest.raises(SpecError):
        spec_from_json({"kind": "nope"})
    with pytest.raises(SpecError):
        spec_from_json({"kind": "fixed_width"})
    with pytest.raises(SpecError):
        spec_from_json([1, 2, 3])
    for bad in ({"kind": "fixed_width", "width": 2.5},
                {"kind": "fixed_width", "width": True},
                {"kind": "explicit", "bounds": "0123"}):
        with pytest.raises(SpecError):
            spec_from_json(bad)


def test_spec_json_accepts_quoted_integers():
    assert spec_from_json({"kind": "fixed_width", "width": "3"}) == FixedWidth(3)
    assert spec_from_json({"kind": "explicit", "bounds": ["0", 3, "17/2"], "domain": "real"}) \
        == ExplicitBounds((0, 3, F(17, 2)), Domain.REALS)


# --- error paths and the facts each family states --------------------------

@pytest.mark.parametrize("build, error, message", [
    (lambda: EpsilonGrowth(True), SpecError, "epsilon: expected a rational number, got True"),
    (lambda: EpsilonGrowth("x"), SpecError, "epsilon: not a rational number: 'x'"),
    (lambda: ExplicitBounds((0, 1), "float"), SpecError,
     "domain: expected 'int' or 'real', got 'float'"),
    (lambda: EpsilonGrowth(10).cell_at(2).count, DomainError,
     "count is defined for integer cells only"),
], ids=["bool-epsilon", "text-epsilon", "unknown-domain", "real-cell-count"])
def test_specs_and_cells_name_what_they_refuse(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_an_integer_cell_holds_no_fraction():
    assert not FixedWidth(3).cell_at(1).contains(F(1, 2))


def test_index_of_reads_text_and_floats_as_exact_rationals():
    assert FixedWidth(3).index_of("7") == 3
    assert FixedWidth(3).index_of(7.0) == 3
    assert EpsilonGrowth(10).index_of(0.6) == 2    # the float 0.6 lies above 1/2


@pytest.mark.parametrize("family, facts", [
    (FixedWidth(3), (Domain.INTEGERS, 1, 0, None, True)),
    (Fibonacci(), (Domain.INTEGERS, 1, 0, None, False)),
    (EpsilonGrowth(10), (Domain.REALS, 40, 0, None, False)),
    (ExplicitBounds((-10, 0, 5)), (Domain.INTEGERS, 1, -10, 2, False)),
    (ExplicitBounds((F(1, 3), 1, F(7, 3)), Domain.REALS), (Domain.REALS, 6, F(1, 3), 2, False)),
    (SingletonGrid(F(3, 4)), (Domain.REALS, 4, 0, None, True)),
], ids=repr)
def test_each_family_keeps_its_domain_scale_origin_extent_and_margins(family, facts):
    assert (family.domain, family.scale, family.origin, family.max_index,
            family.constant_margins) == facts
    assert type(family.origin) is F


@pytest.mark.parametrize("family", [FixedWidth, Fibonacci, EpsilonGrowth, ExplicitBounds,
                                    SingletonGrid], ids=lambda f: f.__name__)
def test_a_family_class_restates_no_default_of_the_base(family):
    assert "origin" not in vars(family)
    for name in ("domain", "scale", "max_index", "constant_margins"):
        if name in vars(family):
            assert vars(family)[name] != getattr(Partition, name), name
