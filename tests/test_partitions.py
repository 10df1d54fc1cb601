import math
import pickle
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import (Domain, DomainError, EpsilonGrowth, ExplicitBounds, Fibonacci,
                       FixedWidth, OutOfRangeError, Partition, SingletonGrid, SpecError,
                       build_partition)


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
    p = FixedWidth(3)
    assert [(int(p.cell_at(i).lower), int(p.cell_at(i).upper)) for i in range(1, 5)] == \
        [(0, 2), (3, 5), (6, 8), (9, 11)]


def test_epsilon_growth_hand_expanded():
    p = EpsilonGrowth(F(10))
    c1, c2, c3 = p.cell_at(1), p.cell_at(2), p.cell_at(3)
    assert (c1.lower, c1.upper, c1.lower_closed, c1.upper_closed) == (0, F(1, 2), True, True)
    assert (c2.lower, c2.upper, c2.lower_closed, c2.upper_closed) == (F(1, 2), F(7, 10), False, True)
    assert (c3.lower, c3.upper) == (F(7, 10), F(1))


@given(eps=st.fractions(min_value=F(1, 4), max_value=60, max_denominator=20),
       n=st.integers(min_value=1, max_value=40))
def test_epsilon_bounds_match_recurrence(eps, n):
    p = EpsilonGrowth(eps)
    bounds = eps_bounds_by_recurrence(eps, n)
    c = p.cell_at(n)
    assert c.upper == bounds[-1]
    if n >= 2:
        assert c.lower == bounds[-2]
        assert c.upper - c.lower == F(n, 1) / eps


def test_singleton_grid_cells():
    p = SingletonGrid(F(1, 2))
    assert [(p.cell_at(i).lower, p.cell_at(i).upper) for i in range(1, 4)] == \
        [(0, 0), (F(1, 2), F(1, 2)), (1, 1)]
    assert p.cell_at(3).lower == p.cell_at(3).upper


def test_explicit_bounds_integer_cells(tiers):
    assert [(int(tiers.cell_at(i).lower), int(tiers.cell_at(i).upper))
            for i in range(1, 4)] == [(0, 2), (3, 5), (6, 16)]
    assert tiers.max_index == 3


def test_explicit_bounds_real_cells():
    p = ExplicitBounds((0, 1, F(5, 2)), Domain.REALS)
    c1, c2 = p.cell_at(1), p.cell_at(2)
    assert (c1.lower_closed, c1.upper_closed) == (True, True)
    assert (c2.lower_closed, c2.upper_closed) == (False, True)
    assert p.index_of(1) == 1          # boundary belongs to the earlier cell
    assert p.index_of(F(11, 10)) == 2


def test_explicit_bounds_negative_origin():
    p = ExplicitBounds((-10, -5, 0, 5))
    assert (int(p.cell_at(1).lower), int(p.cell_at(1).upper)) == (-10, -6)
    assert p.index_of(-7) == 1
    assert p.index_of(-5) == 2
    assert p.origin == -10
    with pytest.raises(DomainError):
        p.index_of(-11)


# --- membership --------------------------------------------------------------

def test_cell_of_boundary_membership_eps10(eps10):
    assert eps10.index_of(F(1, 2)) == 1    # first cell is closed above
    assert eps10.index_of(F(7, 10)) == 2
    assert eps10.index_of(F(701, 1000)) == 3
    assert eps10.index_of(0) == 1


@given(x=st.integers(min_value=0, max_value=10**6))
def test_fixed_width_index_formula(contains, x):
    p = FixedWidth(7)
    assert p.index_of(x) == x // 7 + 1
    assert contains(p.cell_of(x), x)


@given(x=st.integers(min_value=0, max_value=10**5))
def test_fibonacci_membership(contains, x):
    p = Fibonacci()
    c = p.cell_of(x)
    assert contains(c, x)
    assert c.index == p.index_of(x)


@given(x=st.fractions(min_value=0, max_value=500, max_denominator=64),
       eps=st.fractions(min_value=F(1, 2), max_value=40, max_denominator=16))
def test_epsilon_membership_is_exact(contains, x, eps):
    p = EpsilonGrowth(eps)
    c = p.cell_of(x)
    assert contains(c, x)
    # neighbours do not also contain it
    if c.index > 1:
        assert not contains(p.cell_at(c.index - 1), x)
    assert not contains(p.cell_at(c.index + 1), x)


@given(st.integers(min_value=1, max_value=5000))
def test_grid_membership(k):
    p = SingletonGrid(F(1, 2))
    v = F(k, 2)
    assert p.index_of(v) == k + 1
    assert p.cell_of(v).lower == v


def test_domain_errors():
    p = FixedWidth(3)
    with pytest.raises(DomainError):
        p.index_of(F(1, 2))
    with pytest.raises(DomainError):
        p.index_of(-1)
    g = SingletonGrid(F(1, 2))
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
def test_every_value_index_of_accepts_lies_in_its_cell(contains, spec, data):
    for x in data.draw(st.lists(values_near_bounds(spec), min_size=1, max_size=12)):
        try:
            i = spec.index_of(x)
        except (DomainError, OutOfRangeError) as exc:
            assert not accepts(spec, x), (x, str(exc))
            if x < spec.origin and on_the_points(spec, x):
                assert str(exc) == f"{x} is below the partition origin {spec.origin}"
        else:
            assert accepts(spec, x) and contains(spec.cell_at(i), x), (x, i)


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


def test_lazy_extension_grows_geometrically(monkeypatch):
    # spanning cells one at a time must not copy the starts once per cell
    calls, grown = [], Fibonacci._grown

    def counted(self, *args, **kwargs):
        calls.append(args or kwargs)
        return grown(self, *args, **kwargs)

    monkeypatch.setattr(Fibonacci, "_grown", counted)
    fib = Fibonacci()
    for i in range(3, 2001):
        fib.span(i)
    assert len(calls) <= 25
    assert fib.span(2000) == fib_cells_by_recurrence(2000)[-1]


def test_lazy_extension_under_concurrent_queries():
    # Fibonacci cells grow lazily while other threads look them up.
    expected = fib_cells_by_recurrence(400)
    shared = Fibonacci()
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
        FixedWidth(0)
    with pytest.raises(SpecError, match="epsilon"):
        EpsilonGrowth(F(0))
    with pytest.raises(SpecError, match="step"):
        SingletonGrid(F(-1, 2))
    with pytest.raises(SpecError, match="ascending"):
        ExplicitBounds((0, 5, 3))
    with pytest.raises(SpecError, match="bounds"):
        ExplicitBounds((0,))
    with pytest.raises(SpecError, match="integer"):
        ExplicitBounds((0, F(3, 2), 4))


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


@st.composite
def bound_texts(draw):
    """(bounds as Fractions, the same bounds as text): integers, negative ones too, ``p/q``
    in and out of lowest terms, and decimals, ascending or not."""
    values = st.one_of(st.integers(-60, 200), st.fractions(-60, 200, max_denominator=10))
    bounds = draw(st.lists(values, min_size=2, max_size=9)
                  .map(lambda b: sorted(b) if len(b) % 4 else b))
    texts = []
    for v in bounds:
        forms = [f"{v.numerator}/{v.denominator}", f"{3 * v.numerator}/{3 * v.denominator}"]
        if v.denominator == 1:
            n = v.numerator
            forms += [str(n)] * 3 + [f" {n} ", f"+{n}" if n >= 0 else f"{n}\t"]
        if 10**4 % v.denominator == 0:  # a terminating decimal
            scaled = abs(v.numerator) * 10**4 // v.denominator
            forms.append(f"{'-' * (v < 0)}{scaled // 10**4}.{scaled % 10**4:04d}")
        texts.append(draw(st.sampled_from(forms)))
    return [F(v) for v in bounds], texts


def built_or_error(build):
    try:
        return build()
    except SpecError as exc:
        return str(exc)


def lookup_error(spec, value):
    try:
        spec.index_of(value)
    except (DomainError, OutOfRangeError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300)
@given(pair=bound_texts(), domain=st.sampled_from(list(Domain)))
def test_explicit_bounds_read_from_text_are_the_family_read_from_fractions(pair, domain):
    fractions, texts = pair
    got = built_or_error(lambda: ExplicitBounds(texts, domain.value))
    expected = built_or_error(lambda: ExplicitBounds(tuple(fractions), domain))
    if isinstance(expected, str):  # not ascending, or not an integer in the int domain
        assert got == expected
        return
    clone = pickle.loads(pickle.dumps(got))
    for spec in (got, clone):
        assert spec.bounds == expected.bounds == tuple(fractions)
        assert all(type(b) is F for b in spec.bounds)
        assert spec == expected and hash(spec) == hash(expected)
        assert repr(spec) == repr(expected)
        assert (spec.scale, spec._keys) == (expected.scale, expected._keys)
        cells = range(1, expected.max_index + 1)
        assert spec.max_index == expected.max_index
        assert list(map(spec.span, cells)) == list(map(expected.span, cells))
        with pytest.raises(OutOfRangeError) as exc:
            spec.span(spec.max_index + 1)
        assert str(exc.value) == (f"cell {expected.max_index + 1} is beyond the last explicit "
                                  f"cell {expected.max_index}")
        for value in (fractions[0] - 1, fractions[0] - F(1, 3), fractions[-1],
                      fractions[-1] + 1, fractions[-1] + F(1, 3), fractions[0] + F(1, 2)):
            assert lookup_error(spec, value) == lookup_error(expected, value), value
        lo, hi = fractions[0], fractions[-1]
        assert lookup_error(spec, lo - 1) == (DomainError,
                                              f"{lo - 1} is below the partition origin {lo}")
        assert lookup_error(spec, hi + 1) == (OutOfRangeError, (
            f"{hi + 1} is beyond the last covered integer {hi - 1}" if domain is Domain.INTEGERS
            else f"{hi + 1} is beyond the last explicit bound {hi}"))


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
    last = 40 if spec.max_index is None else spec.max_index
    cells = [spec.cell_at(i) for i in range(1, last + 1)]
    assert cells[0].lower == spec.origin and cells[0].lower_closed
    for a, b in zip(cells, cells[1:]):
        assert a.lower <= a.upper <= b.lower, ("ordered", spec, a.index)
        assert a.upper < b.lower or not (a.upper_closed and b.lower_closed), \
            ("disjoint", spec, a.index)
        if isinstance(spec, SingletonGrid):
            assert b.lower == a.upper + spec.step, ("step-spaced on the grid", spec, a.index)
        elif spec.domain is Domain.INTEGERS:
            assert b.lower == a.upper + 1, ("gapless", spec, a.index)
        else:
            assert b.lower == a.upper, ("gapless", spec, a.index)
            assert a.upper_closed != b.lower_closed, ("one owner per boundary", spec, a.index)
    for c in cells:
        assert spec.index_of(c.lower if c.lower_closed else c.upper) == c.index, (spec, c.index)


def test_validate_generated_families_pass():
    for spec in FAMILY_SPECS:
        assert_cell_laws(spec)


@pytest.mark.parametrize("family", [
    FixedWidth(5), Fibonacci(), EpsilonGrowth(F(10)), ExplicitBounds(tuple(range(-3, 22, 2))),
    SingletonGrid(F(1, 2)), ExplicitBounds(tuple(F(k, 2) for k in range(-1, 12)), Domain.REALS),
], ids=["fixed_width", "fibonacci", "epsilon", "explicit_int", "grid", "explicit_real"])
def test_a_cell_is_closed_above_and_closed_below_where_the_module_says(family, contains):
    # closed below: integer cells, cell 1 and one-point cells; every cell is closed above
    for i in range(1, 13):
        c = family.cell_at(i)
        closed_below = c.domain is Domain.INTEGERS or i == 1 or c.lower == c.upper
        assert c.upper_closed is True and contains(c, c.upper), (family, i)
        assert c.lower_closed is closed_below and contains(c, c.lower) is closed_below, \
            (family, i)
        assert str(c)[-1] == ("}" if c.domain is Domain.INTEGERS else "]"), (family, i)
    assert family.max_index in (None, 12)


# --- error paths and the facts each family states --------------------------

@pytest.mark.parametrize("build, error, message", [
    (lambda: EpsilonGrowth(True), SpecError, "epsilon: expected a rational number, got True"),
    (lambda: EpsilonGrowth("x"), SpecError, "epsilon: not a rational number: 'x'"),
    (lambda: ExplicitBounds((0, 1), "float"), SpecError,
     "domain: expected 'int' or 'real', got 'float'"),
    (lambda: FixedWidth(2.5), SpecError, "width: must be a positive integer, got 2.5"),
    (lambda: FixedWidth(True), SpecError, "width: must be a positive integer, got True"),
    (lambda: ExplicitBounds("0123"), SpecError,
     "bounds: expected a list of boundaries, got '0123'"),
    (lambda: FixedWidth(0), SpecError, "width: must be a positive integer, got 0"),
    (lambda: FixedWidth(-1), SpecError, "width: must be a positive integer, got -1"),
    (lambda: FixedWidth("3/1"), SpecError, "width: must be a positive integer, got '3/1'"),
    (lambda: FixedWidth([2]), SpecError, "width: must be a positive integer, got [2]"),
    (lambda: ExplicitBounds((0, True)), SpecError,
     "bounds: expected a rational number, got True"),
    (lambda: ExplicitBounds(()), SpecError, "bounds: need at least two boundaries (one cell)"),
    (lambda: EpsilonGrowth(-1), SpecError, "epsilon: must be positive, got -1"),
    (lambda: SingletonGrid(0), SpecError, "step: must be positive, got 0"),
], ids=["bool-epsilon", "text-epsilon", "unknown-domain", "float-width", "bool-width",
        "text-bounds", "zero-width", "negative-width", "text-fraction-width", "list-width",
        "bool-bound", "no-bounds", "negative-epsilon", "zero-step"])
def test_specs_and_cells_name_what_they_refuse(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("spec", [
    FixedWidth(3),
    Fibonacci(),
    EpsilonGrowth(F(10)),
    EpsilonGrowth(F(5, 2)),
    ExplicitBounds((0, 3, 6, 17)),
    ExplicitBounds((0, F(1, 2), F(3, 2)), Domain.REALS),
    SingletonGrid(F(1, 2)),
])
def test_a_spec_rebuilt_from_its_own_fields_is_the_same_layout(spec):
    # a family keeps its fields parsed, so they build the same family again
    rebuilt = type(spec)(*(getattr(spec, name) for name in spec._fields))
    assert rebuilt == spec and hash(rebuilt) == hash(spec)
    assert build_partition(spec) is spec and spec.spec is spec
    cells = range(1, min(3, spec.max_index or 3) + 1)
    assert [rebuilt.cell_at(i) for i in cells] == [spec.cell_at(i) for i in cells]


@pytest.mark.parametrize("text, number", [
    (lambda: FixedWidth(" 3 "), lambda: FixedWidth(3)),
    (lambda: EpsilonGrowth("5/2"), lambda: EpsilonGrowth(F(5, 2))),
    (lambda: SingletonGrid("3/4"), lambda: SingletonGrid(F(3, 4))),
    (lambda: ExplicitBounds(["0", 3, "17/2"], "real"),
     lambda: ExplicitBounds((0, 3, F(17, 2)), Domain.REALS)),
    (lambda: ExplicitBounds(("-1/2", "0", "7/3", "5"), "real"),
     lambda: ExplicitBounds((F(-1, 2), 0, F(7, 3), 5), Domain.REALS)),
], ids=["width", "epsilon", "step", "bounds", "negative-bounds"])
def test_text_fields_read_as_the_numbers_they_name(text, number):
    spec, expected = text(), number()
    assert spec == expected and repr(spec) == repr(expected)
    assert [spec.cell_at(i) for i in (1, 2)] == [expected.cell_at(i) for i in (1, 2)]


def test_explicit_bounds_default_to_the_integer_domain():
    spec = ExplicitBounds((0, 1))
    assert spec.domain is Domain.INTEGERS
    assert spec == ExplicitBounds((0, 1), Domain.INTEGERS) != ExplicitBounds((0, 1), Domain.REALS)


def test_an_integer_cell_holds_no_fraction(contains):
    assert not contains(FixedWidth(3).cell_at(1), F(1, 2))


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


@pytest.mark.parametrize("family, bad, error", [
    (FixedWidth(3), -1, "-1 is below the partition origin 0"),
    (Fibonacci(), -1, "-1 is below the partition origin 0"),
    (EpsilonGrowth(10), -1, "-1/40 is below the partition origin 0"),
    (ExplicitBounds((0, F(1, 2), 2), Domain.REALS), -1, "-1/4 is below the partition origin 0"),
    (SingletonGrid(F(3, 2)), 1, "1/2 is not a multiple of the grid step 3/2"),
], ids=["FixedWidth", "Fibonacci", "EpsilonGrowth", "ExplicitBounds", "SingletonGrid"])
def test_index_scaled_takes_the_value_n_came_from_and_names_it(family, bad, error):
    # index_scaled(n, x=None) finds the cell of n/scale; x is the value n came from
    for i in range(1, min(3, family.max_index or 3) + 1):
        n = family.span(i)[1]  # cells are closed above
        assert family.index_scaled(n, family.unscaled(n)) == family.index_scaled(n) == i
    with pytest.raises(DomainError) as exc:
        family.index_scaled(bad, family.unscaled(bad))
    assert str(exc.value) == error
