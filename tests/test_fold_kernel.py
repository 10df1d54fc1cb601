"""The cell-state fold and integer cell lookup against their plain definitions.

``CoarseContext.fold`` carries each partial sum's cell and collapses every
cell once; the oracle here is a left fold of ``rep_add`` with cells read off
``index_of``.  ``EpsilonGrowth`` lookup works on numerators and denominators;
its oracle is ``Cell.contains`` on cells whose bounds are recomputed from
``1/2 + (T(k) - 1)/eps`` by ``Fraction`` arithmetic.
"""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import (Cell, CoarseContext, Domain, DomainError, EpsilonGrowth, ExplicitBounds,
                       Fibonacci, FixedWidth, FoldStep, FoldTrace, InertVerdict, Outcome,
                       OutOfRangeError, Partition, Policy, SingletonGrid, SpecError,
                       constant, detect_inert_stream,
                       detect_inert_trace, first_absorbing_cell, format_decimal,
                       format_rational, geometric, harmonic, parse_rational,
                       rep_of_cell, rep_of_value)
from coarsesum.rationals import write_rows
from coarsesum import cli, representatives

POLICIES = list(Policy)


def refused(spec, policy):
    """Does ``CoarseContext`` refuse this pair: min on a family with cells open below?"""
    return policy is Policy.MIN and (isinstance(spec, EpsilonGrowth) or (
        isinstance(spec, ExplicitBounds) and spec.domain is Domain.REALS and spec.max_index > 1))


def under_policies(table, ids, refusals=False):
    """``(spec, values, policy)`` params for each row of a table and each policy that
    ``CoarseContext`` accepts for its spec, or with ``refusals`` each one it refuses."""
    return [pytest.param(*row, policy, id=f"{name}-{policy.value}")
            for row, name in zip(table, ids) for policy in POLICIES
            if refused(row[0], policy) == refusals]


def rep_add_fold(ctx, values):
    """Left fold of ``rep_add``, or the error it stopped on and the step of it."""
    steps, s, prev = [], None, None
    for n, raw in enumerate(values, start=1):
        x = F(raw)
        try:
            x_cell = ctx.partition.index_of(x)
            s = x if n == 1 else ctx.rep_add(s, x)
            cell = ctx.partition.index_of(s)
        except (OutOfRangeError, DomainError) as exc:
            return type(exc), n
        steps.append(FoldStep(n, x, x_cell, s, cell, cell == prev))
        prev = cell
    return tuple(steps)


def assert_fold_matches(ctx, values):
    expected = rep_add_fold(ctx, values)
    if isinstance(expected[0], FoldStep):
        assert ctx.fold(values).steps == expected
        return
    error, step = expected
    with pytest.raises(error) as exc:
        ctx.fold(values)
    assert exc.value.step == step


def _fractions(hi, den):
    return st.fractions(min_value=0, max_value=hi, max_denominator=den)


def _grid_values(step):
    return st.integers(min_value=0, max_value=30).map(lambda k: k * step)


FAMILIES = {
    "FixedWidth": st.integers(1, 9).map(
        lambda w: (FixedWidth(w), st.integers(0, 60))),
    "Fibonacci": st.just((Fibonacci(), st.integers(0, 300))),
    "EpsilonGrowth": st.sampled_from([F(10), F(1, 3), F(101, 3), F(2), F(5, 2)]).map(
        lambda eps: (EpsilonGrowth(eps), _fractions(6, 12))),
    "ExplicitBounds": st.sampled_from([
        (ExplicitBounds((0, 3, 6, 17)), st.integers(0, 16)),
        (ExplicitBounds((-4, 1, 2, 9, 30, 100)), st.integers(-4, 40)),
        (ExplicitBounds((0, F(1, 2), 1, F(7, 3), 10, 50), Domain.REALS), _fractions(8, 9)),
    ]),
    "SingletonGrid": st.sampled_from([F(1, 2), F(1, 3), F(3, 4), F(2)]).map(
        lambda step: (SingletonGrid(step), _grid_values(step))),
}


#: The (family, policy) pairs that CoarseContext accepts: min is refused on EpsilonGrowth.
FAMILY_POLICIES = [pytest.param(family, policy, id=f"{family}-{policy.value}")
                   for policy in POLICIES for family in sorted(FAMILIES)
                   if not (family == "EpsilonGrowth" and policy is Policy.MIN)]


def family_case(family, policy):
    """A (spec, values) draw of the family; min skips the real ExplicitBounds layout."""
    return FAMILIES[family].filter(lambda case: not refused(case[0], policy))


@st.composite
def fold_cases(draw, family, policy):
    spec, values = draw(family_case(family, policy))
    pool = draw(st.lists(values, min_size=1, max_size=4))
    # repeats from a small pool revisit cells; fresh draws meet new ones
    stream = draw(st.lists(st.one_of(st.sampled_from(pool), values), min_size=1,
                           max_size=40))
    return spec, stream


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=60)
@given(data=st.data())
def test_fold_is_a_left_fold_of_rep_add(family, policy, data):
    spec, stream = data.draw(fold_cases(family, policy))
    assert_fold_matches(CoarseContext(spec, policy), stream)


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=30)
@given(data=st.data())
def test_trace_rows_round_trip_and_csv_matches_json(family, policy, data,
                                                    assert_csv_matches_json,
                                                    assert_json_rows_match_steps):
    spec, stream = data.draw(fold_cases(family, policy))
    ctx = CoarseContext(spec, policy)
    expected = rep_add_fold(ctx, stream)
    if not isinstance(expected[0], FoldStep):   # keep the steps before the sum left the layout
        stream = stream[:expected[1] - 1]
    trace = ctx.fold(stream)
    assert_json_rows_match_steps(trace.to_json_lines(), trace.steps)
    assert_csv_matches_json(trace.to_csv(), trace.to_json_lines())


LONG_FOLDS = [
    (SingletonGrid(F(1, 2)), [F(1, 2)] * 700),                  # a new cell every step
    (FixedWidth(1), [1, 0, 2] * 250),
    (EpsilonGrowth(F(1, 3)), [F(5, 2), F(1, 4)] * 400),
    (Fibonacci(), [3] * 600),
]
LONG_FOLD_IDS = ["grid", "width-1", "eps-1/3", "fibonacci"]


@pytest.mark.parametrize("spec, values, policy", under_policies(LONG_FOLDS, LONG_FOLD_IDS))
def test_long_folds_match_past_the_representative_memo(spec, values, policy):
    assert_fold_matches(CoarseContext(spec, policy), values)


MIN_REFUSED = ("policy: min is refused on {}, whose cells are open below: "
               "a cell's infimum lies in the cell below")


def test_min_is_refused_where_sums_would_fall_below_their_cell():
    # Under min, cell 2 = (1/2, 7/10] would collapse to its infimum 1/2, which lies
    # in cell 1, so folding 3/5, 3/5, 3/10 would drop the sum from 7/10 back to 0.
    eps10 = EpsilonGrowth(10)
    assert rep_of_value(eps10, F(3, 5), Policy.MIN) == F(1, 2)
    assert eps10.index_of(F(1, 2)) == 1
    with pytest.raises(SpecError) as exc:
        CoarseContext(eps10, Policy.MIN)
    assert str(exc.value) == MIN_REFUSED.format("EpsilonGrowth")


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=100)
@given(data=st.data())
def test_sums_never_fall_and_collapsing_is_idempotent(family, policy, data):
    """Every accepted pick lies in its own cell, so from step 2 on a sum's cell never falls."""
    spec, stream = data.draw(fold_cases(family, policy).filter(
        lambda case: case[0].origin >= 0))   # below 0 a nonnegative input can collapse below 0
    ctx = CoarseContext(spec, policy)
    expected = rep_add_fold(ctx, stream)
    if not isinstance(expected[0], FoldStep):   # keep the steps before the sum left the layout
        stream = stream[:expected[1] - 1]
    steps = ctx.fold(stream).steps if stream else ()
    assert all(b.s_cell >= a.s_cell for a, b in zip(steps, steps[1:]))
    for value in [*stream, *(step.s for step in steps[1:])]:
        rep = ctx.normalize(value)
        assert spec.index_of(rep) == spec.index_of(value)
        assert ctx.normalize(rep) == rep


@pytest.mark.parametrize("values, step, cause", [
    ([1, 1, 20], 3, "20 is beyond the last covered integer 16"),   # the input's own cell
    ([10, 10, 10], 2, "22 is beyond the last covered integer 16"),  # the sum's cell
    ([7, 2, 2, 7], 4, "22 is beyond the last covered integer 16"),  # after memo hits
])
def test_range_errors_mid_fold_carry_their_step(tiers_ctx, values, step, cause):
    with pytest.raises(OutOfRangeError) as exc:
        tiers_ctx.fold(values)
    assert exc.value.step == step
    assert str(exc.value) == f"step {step}: {cause}"
    assert rep_add_fold(tiers_ctx, values) == (OutOfRangeError, step)



def test_range_errors_carry_their_step_on_explicit_cells():
    ctx = CoarseContext(ExplicitBounds((0, 2, 4)))   # {0, 1}, {2, 3}
    with pytest.raises(OutOfRangeError) as exc:
        ctx.fold([1, 3, 3])                 # reps 2 + 2 = 4 lies past both cells
    assert exc.value.step == 3


def test_domain_errors_carry_their_step_on_explicit_cells():
    # under min, -4 + -4 = -8 falls below the origin on the second step
    ctx = CoarseContext(ExplicitBounds((-4, 1, 2, 9, 30)), Policy.MIN)
    with pytest.raises(DomainError) as exc:
        ctx.fold([-4, -4])
    assert exc.value.step == 2
    assert str(exc.value) == "step 2: -8 is below the partition origin -4"
    assert rep_add_fold(ctx, [-4, -4]) == (DomainError, 2)


# ---------------------------------------------------------- streamed verdicts

def verdict_or_error(judge):
    """The verdict, or the type, step and text of the error the fold stopped on."""
    try:
        return judge()
    except (OutOfRangeError, DomainError) as exc:
        return type(exc), exc.step, str(exc)


def assert_streamed_verdict_matches(ctx, gen, horizon):
    """``detect_inert_stream`` equals the judged fold of ``gen(1) .. gen(horizon)``."""
    streamed = verdict_or_error(lambda: detect_inert_stream(ctx, gen, horizon))
    judged = verdict_or_error(
        lambda: detect_inert_trace(ctx.fold([gen(t) for t in range(1, horizon + 1)])))
    assert streamed == judged
    assert [type(field) for field in streamed] == [type(field) for field in judged]
    return streamed


def first_fixed_step(ctx, value, steps=40):
    """The first absorbed step after step 1 of a constant fold, or ``steps``."""
    trace = verdict_or_error(lambda: ctx.fold([value] * steps))
    if not isinstance(trace, FoldTrace):
        return trace[1]
    return next((s.n for s in trace if s.n > 1 and s.absorbed), steps)


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=40)
@given(data=st.data())
def test_constant_streams_judge_as_their_folds(family, policy, data):
    spec, values = data.draw(family_case(family, policy))
    ctx = CoarseContext(spec, policy)
    value = data.draw(values)
    k = first_fixed_step(ctx, value)
    for horizon in sorted({1, 2, 3, max(1, k - 1), k, k + 1, k + 7}):
        marked = assert_streamed_verdict_matches(ctx, constant(value), horizon)
        # the same values with no period mark are folded to the horizon
        assert assert_streamed_verdict_matches(ctx, lambda t: value, horizon) == marked


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=40)
@given(data=st.data())
def test_streams_judge_as_their_folds(family, policy, data):
    spec, stream = data.draw(fold_cases(family, policy))
    ctx = CoarseContext(spec, policy)
    assert_streamed_verdict_matches(ctx, lambda t: stream[t - 1], len(stream))
    horizon = data.draw(st.integers(1, 60))
    assert_streamed_verdict_matches(ctx, harmonic(), horizon)
    assert_streamed_verdict_matches(
        ctx, geometric(data.draw(st.sampled_from([1, 3, F(1, 2)])),
                       data.draw(st.sampled_from([F(1, 2), F(2, 3), 2]))), horizon)


@pytest.mark.parametrize("spec, policy, gen, error, step", [
    (ExplicitBounds((0, 3, 6, 17)), Policy.MEDIAN_LOWER, constant(10), OutOfRangeError, 2),
    (ExplicitBounds((0, 3, 6, 17)), Policy.MAX, constant(3), OutOfRangeError, 3),
    (ExplicitBounds((-4, 1, 2, 9, 30)), Policy.MIN, constant(-4), DomainError, 2),
    (FixedWidth(3), Policy.MEDIAN_LOWER, harmonic(), DomainError, 2),
    (SingletonGrid(F(1, 2)), Policy.MEDIAN_LOWER, harmonic(), DomainError, 3),
], ids=["range-sum", "range-climb", "below-origin", "not-integer", "off-grid"])
def test_streams_that_fail_mid_fold_fail_alike(spec, policy, gen, error, step):
    ctx = CoarseContext(spec, policy)
    got = assert_streamed_verdict_matches(ctx, gen, 50)
    assert got[:2] == (error, step)


def test_constant_streams_stop_reading_at_their_fixed_point(eps10_ctx):
    read = []

    def half(t):
        read.append(t)
        return F(1, 2)
    half.period = 1
    verdict = detect_inert_stream(eps10_ctx, half, 10**9)
    assert read == [1, 2]          # 1/4 + 1/4 stays in cell 1 at step 2
    assert (verdict.n_stable, verdict.cell_index, verdict.fixed_value,
            verdict.horizon) == (2, 1, F(1, 4), 10**9)
    del half.period                # unmarked, the same values are read to the horizon
    read.clear()
    assert detect_inert_stream(eps10_ctx, half, 500) == verdict._replace(horizon=500)
    assert read == list(range(1, 501))


# ------------------------------------------------------- EpsilonGrowth lookup

def eps_bound(eps, k):
    """Upper bound of cell k, straight from the definition."""
    return F(1, 2) + F(k * (k + 1) // 2 - 1) / eps


EPSILONS = st.one_of(
    st.sampled_from([F(1, 3), F(101, 3), F(10), F(2)]),
    st.fractions(min_value=F(1, 100), max_value=500, max_denominator=100))

VALUES = st.one_of(
    st.fractions(min_value=0, max_value=60, max_denominator=1000),
    st.integers(min_value=0, max_value=2**80),
    st.builds(F, st.integers(min_value=0, max_value=2**80), st.integers(1, 2**20)))


def assert_index_matches_membership(partition, x):
    eps = partition.spec.epsilon
    i = partition.index_of(x)
    cell = partition.cell_at(i)
    assert cell.contains(x)
    if i > 1:
        assert (cell.lower, cell.upper) == (eps_bound(eps, i - 1), eps_bound(eps, i))
        assert not partition.cell_at(i - 1).contains(x)
    assert not partition.cell_at(i + 1).contains(x)


@settings(max_examples=300)
@given(eps=EPSILONS, x=VALUES)
def test_epsilon_index_agrees_with_membership(eps, x):
    assert_index_matches_membership(EpsilonGrowth(eps), x)


@settings(max_examples=300)
@given(eps=EPSILONS, k=st.one_of(st.integers(1, 2000), st.integers(1, 2**40)))
def test_epsilon_index_at_exact_bounds(eps, k):
    p = EpsilonGrowth(eps)
    b = eps_bound(eps, k)
    assert p.index_of(b) == k              # upper bounds are closed
    for x in (b, b + F(1, 10**30), b - F(1, 10**30)):
        assert_index_matches_membership(p, x)


# ------------------------------------------- integer spans and scaled lookup
# Every family describes its cells as integer spans on a scale D.  The oracle
# for the representative works on the Cell's exact bounds.

def oracle_rep(cell, policy):
    if policy is Policy.MIN:
        return cell.lower
    if policy is Policy.MAX:
        return cell.upper
    if cell.domain is Domain.INTEGERS:
        return cell.lower + (cell.count - 1) // 2
    return (cell.lower + cell.upper) / 2


@st.composite
def real_bounds(draw):
    """Real explicit layouts whose boundaries mix denominators."""
    start = draw(st.fractions(min_value=-5, max_value=5, max_denominator=12))
    steps = draw(st.lists(st.fractions(min_value=F(1, 15), max_value=9, max_denominator=15),
                          min_size=1, max_size=8))
    bounds = [start]
    for w in steps:
        bounds.append(bounds[-1] + w)
    return ExplicitBounds(tuple(bounds), Domain.REALS)


SPECS = st.one_of(
    st.integers(1, 9).map(FixedWidth),
    st.just(Fibonacci()),
    st.one_of(st.sampled_from([F(1, 3), F(5, 2), F(101, 3), F(10), F(2)]),
              st.fractions(min_value=F(1, 50), max_value=200, max_denominator=60)
              ).map(EpsilonGrowth),
    st.sampled_from([ExplicitBounds((0, 3, 6, 17)), ExplicitBounds((-4, 1, 2, 9, 30, 100)),
                     ExplicitBounds((0, F(1, 2), 1, F(7, 3), 10, 50), Domain.REALS),
                     ExplicitBounds((F(-3, 4), F(1, 6), F(2, 5), 3, F(22, 7)), Domain.REALS)]),
    real_bounds(),
    st.fractions(min_value=F(1, 20), max_value=7, max_denominator=20).map(SingletonGrid),
)


def _cell_indexes(spec, draw):
    top = spec.max_index or 400
    return draw(st.lists(st.integers(1, top), min_size=1, max_size=12))


@settings(max_examples=300)
@given(spec=SPECS, data=st.data())
def test_cells_and_representatives_agree_with_integer_spans(spec, data):
    d = spec.scale
    assert type(d) is int and d >= 1
    for i in _cell_indexes(spec, data.draw):
        lo, hi = spec.span(i)
        cell = spec.cell_at(i)
        assert type(lo) is int and type(hi) is int
        assert (cell.lower, cell.upper) == (F(lo, d), F(hi, d))
        for policy in POLICIES:
            rep = oracle_rep(cell, policy)
            assert rep_of_cell(cell, policy) == rep
            assert (rep * d).denominator == 1          # on the scale, as the fold keeps it
            member = cell.upper                         # upper bounds are closed
            assert rep_of_value(spec, member, policy) == rep
            assert type(rep_of_value(spec, member, policy)) is F


@settings(max_examples=300)
@given(spec=SPECS, data=st.data())
def test_scaled_lookup_agrees_with_index_of(spec, data):
    d = spec.scale
    first = spec.span(1)[0]
    last = spec.span(spec.max_index)[1] if spec.max_index else first + 50 * d * d
    for n in data.draw(st.lists(st.integers(first - 3, last + 3), min_size=1, max_size=20)):
        try:
            expected = spec.index_of(F(n, d))
        except (DomainError, OutOfRangeError) as exc:
            with pytest.raises(type(exc)) as got:
                spec.index_scaled(n)
            assert str(got.value) == str(exc)
        else:
            assert spec.index_scaled(n) == expected


@settings(max_examples=300)
@given(spec=SPECS)
def test_min_is_refused_exactly_where_cell_2_is_open_below(spec):
    for policy in POLICIES:
        if refused(spec, policy):
            with pytest.raises(SpecError) as exc:
                CoarseContext(spec, policy)
            assert str(exc.value) == MIN_REFUSED.format(type(spec).__name__)
        else:
            assert CoarseContext(spec, policy).policy is policy


_FORBIDDEN = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__floordiv__", "__lt__", "__le__", "__gt__", "__ge__")


FRACTION_FREE = [
    (FixedWidth(7), [F(v) for v in (7, 20, 27, 9, 1, 1, 1)] * 30),
    (Fibonacci(), [F(2**t) for t in range(60)] + [F(1)] * 20),
    (EpsilonGrowth(F(10)), [F(3001, 7), F(2500, 3)] * 40 + [F(1, 2)] * 20),
    (ExplicitBounds((0, F(1, 2), 1, F(7, 3), 10, 50), Domain.REALS), [F(1, k) for k in range(3, 7)]),
    (SingletonGrid(F(3, 4)), [F(3, 4), F(0), F(3, 2)] * 30),
]
FAMILY_IDS = ["fixed-width", "fibonacci", "epsilon", "explicit-real", "grid"]


@pytest.mark.parametrize("spec, values, policy", under_policies(FRACTION_FREE, FAMILY_IDS))
def test_fold_does_no_fraction_arithmetic_and_builds_no_cells(spec, values, policy,
                                                             monkeypatch):
    ctx = CoarseContext(spec, policy)
    expected = rep_add_fold(ctx, values)
    forbid_fraction_arithmetic_and_cells(monkeypatch)
    steps = ctx.fold(values).steps
    monkeypatch.undo()
    assert steps == expected


CLIMBING = [   # a sum that enters a new cell on (nearly) every step, past the memo's 256 cells
    (FixedWidth(7), [F(7 + (t * 5) % 21) for t in range(300)]),
    (Fibonacci(), [F(3**t // 2**t) for t in range(1, 300)]),
    (EpsilonGrowth(F(10)), [F(2000 + t % 7 * 300, 2 + t % 5) for t in range(300)]),
    (ExplicitBounds(tuple(range(0, 1000 * 1203, 1000))), [F(1000)] * 300),
    (SingletonGrid(F(1, 2)), [F(1, 2)] * 300),
]


CLIMBING_IDS = [type(c[0]).__name__ for c in CLIMBING]


@pytest.mark.parametrize("spec, values, policy", under_policies(CLIMBING, CLIMBING_IDS))
def test_a_climbing_fold_collapses_sums_off_their_spans(spec, values, policy, monkeypatch):
    """Sums collapse off the cell the kernel holds; only inputs go through ``rep_of_value``."""
    from coarsesum import ops
    ctx = CoarseContext(spec, policy)
    expected = rep_add_fold(ctx, values)
    lookups, collapsed = [0], []
    family = type(spec)
    real_lookup, real_collapse = family.index_scaled, ops.rep_of_value
    def counted(self, *args):
        lookups[0] += 1
        return real_lookup(self, *args)
    monkeypatch.setattr(family, "index_scaled", counted)
    monkeypatch.setattr(ops, "rep_of_value", lambda p, v, pol: collapsed.append(v)
                        or real_collapse(p, v, pol))
    steps = ctx.fold(values).steps
    monkeypatch.undo()
    assert steps == expected
    assert sum(not step.absorbed for step in steps) >= 0.8 * len(steps)   # it climbs
    # each collapse through rep_of_value is an input's own object
    assert all(any(v is x for x in values) for v in collapsed)
    # a step looks up its input and its sum; an input collapse looks up the input once more
    assert lookups[0] <= 2 * len(steps) + len(collapsed)


def forbid_fraction_arithmetic_and_cells(monkeypatch):
    def forbidden(*args):
        raise AssertionError("reached Fraction arithmetic")
    for name in _FORBIDDEN:
        monkeypatch.setattr(F, name, forbidden)
    forbid_cells(monkeypatch)


def forbid_cells(monkeypatch):
    def forbidden(*args):
        raise AssertionError("built a Cell")
    monkeypatch.setattr(Partition, "cell_at", forbidden)
    monkeypatch.setattr(Cell, "__init__", forbidden)
    monkeypatch.setattr(representatives, "rep_of_cell", forbidden)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("spec, increments", [
    (FixedWidth(7), [0, 2, F(5, 2), 3, 4]),
    (Fibonacci(), [0, 1, F(7, 3), 40]),
    (EpsilonGrowth(F(10)), [0, F(1, 4), F(7, 3), 5]),
    (ExplicitBounds((0, F(1, 2), 1, F(7, 3), 10, 50), Domain.REALS), [0, F(1, 2), 3, 20, 30]),
    (SingletonGrid(F(3, 4)), [0, F(3, 4)]),
], ids=FAMILY_IDS)
def test_certificate_scan_does_no_fraction_arithmetic_and_builds_no_cells(
        spec, increments, policy, monkeypatch, absorbing_by_cells):
    increments = list(map(F, increments))
    expected = [absorbing_by_cells(spec, policy, inc) for inc in increments]
    forbid_fraction_arithmetic_and_cells(monkeypatch)
    got = [first_absorbing_cell(spec, policy, inc) for inc in increments]
    monkeypatch.undo()
    assert got == expected


def cell_add_by_cells(partition, policy, i, k):
    """``cell_add`` from its definition, or the type and text of its error."""
    try:
        return partition.index_of(rep_of_cell(partition.cell_at(i), policy)
                                  + rep_of_cell(partition.cell_at(k), policy))
    except (DomainError, OutOfRangeError) as exc:
        return type(exc), str(exc)


def certified_by_cells(ctx, bound, horizon, absorbing_by_cells):
    """The verdict on a constant stream under ``bound``, with the certificate read off cells."""
    rep_b = rep_of_cell(ctx.partition.cell_of(bound), ctx.policy)
    target = absorbing_by_cells(ctx.partition, ctx.policy, rep_b)
    if target is None:
        return verdict_or_error(lambda: detect_inert_trace(ctx.fold([bound] * horizon)))
    value = rep_of_cell(ctx.partition.cell_at(target), ctx.policy)
    return InertVerdict(Outcome.INERT, n_stable=target, cell_index=target, fixed_value=value,
                        horizon=horizon, certified=True)


CERTIFIED = [
    (FixedWidth(7), [0, 3, 10, 27]),
    (Fibonacci(), [0, 1, 5, 40]),
    (EpsilonGrowth(F(10)), [0, F(1, 2), F(7, 3), 5]),
    (ExplicitBounds((0, F(1, 2), 1, F(7, 3), 10, 50), Domain.REALS), [0, F(1, 2), 3, 20]),
    (SingletonGrid(F(3, 4)), [0, F(3, 4), F(3, 2)]),
]


@pytest.mark.parametrize("spec, bounds, policy", under_policies(CERTIFIED, FAMILY_IDS))
def test_cell_add_and_certified_verdicts_read_spans_and_build_no_cells(
        spec, bounds, policy, monkeypatch, absorbing_by_cells):
    ctx, horizon = CoarseContext(spec, policy), 30
    pairs = [(i, k) for i in range(1, (spec.max_index or 12) + 1) for k in range(1, 13)]
    sums = [cell_add_by_cells(spec, policy, i, k) for i, k in pairs]
    verdicts = [certified_by_cells(ctx, b, horizon, absorbing_by_cells) for b in bounds]
    forbid_cells(monkeypatch)
    got_sums = []
    for i, k in pairs:
        try:
            got_sums.append(ctx.cell_add(i, k))
        except (DomainError, OutOfRangeError) as exc:
            got_sums.append((type(exc), str(exc)))
    got_verdicts = [verdict_or_error(lambda: detect_inert_stream(ctx, constant(b), horizon,
                                                                 increment_bound=b))
                    for b in bounds]
    monkeypatch.undo()
    assert got_sums == sums
    assert got_verdicts == verdicts
    assert [list(map(type, v)) for v in got_verdicts] == [list(map(type, v)) for v in verdicts]


#: The pairs of the tables above that CoarseContext refuses, one case each.
REFUSED = [param for table, ids in [(LONG_FOLDS, LONG_FOLD_IDS), (FRACTION_FREE, FAMILY_IDS),
                                    (CLIMBING, CLIMBING_IDS), (CERTIFIED, FAMILY_IDS)]
           for param in under_policies(table, ids, refusals=True)]


@pytest.mark.parametrize("spec, values, policy", REFUSED)
def test_min_is_refused_on_the_tables_open_cells(spec, values, policy):
    with pytest.raises(SpecError) as exc:
        CoarseContext(spec, policy)
    assert str(exc.value) == MIN_REFUSED.format(type(spec).__name__)


# --------------------------------------------------------- rational row I/O

DIGITS = "0123456789"
TEXTS = st.one_of(
    st.text(alphabet=DIGITS, min_size=1, max_size=30),
    st.text(alphabet=DIGITS + " +-_/.e\u00b2\u0663\uff11\u2007\t", max_size=12),
    st.sampled_from(["+5", "007", "1_000", "\u0663", "\u00b2", "\uff11\uff12", " 42 ",
                     "-0", "1/0", "", " ", "0x10", "1e3", "3/", "/3", "4" * 5000]),
)


@settings(max_examples=500)
@given(text=TEXTS)
def test_parse_rational_equals_fraction_of_the_text(text):
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert type(got) is F and got == expected


def reference_format_rational(value):
    f = F(value)
    return f"{f.numerator}/{f.denominator}"


def reference_format_decimal(value):
    """Decimal rendering worked out on ``Fraction(value)``, step by step."""
    f = F(value)
    if f.denominator == 1:
        return str(f.numerator)
    den, exp = f.denominator, 0
    while den % 2 == 0 or den % 5 == 0:
        den //= 2 if den % 2 == 0 else 5
    if den != 1:
        return f"{float(f):.6g}"
    while (f * 10**exp).denominator != 1:
        exp += 1
    digits = str(abs(f.numerator) * 10**exp // f.denominator).rjust(exp + 1, "0")
    return f"{'-' if f < 0 else ''}{digits[:-exp]}.{digits[-exp:]}"


@settings(max_examples=500)
@given(value=st.one_of(st.integers(-10**40, 10**40), st.booleans(),
                       st.fractions(max_denominator=10**12),
                       st.builds(F, st.integers(-10**9, 10**9), st.sampled_from(
                           [2**k * 5**j for k in range(12) for j in range(12)])),
                       st.floats(allow_nan=False, allow_infinity=False)))
def test_formatting_reads_ints_fractions_and_floats_as_before(value):
    assert format_rational(value) == reference_format_rational(value)
    assert format_decimal(value) == reference_format_decimal(value)


def _copy(value):
    """The same value as a new object, so that no two cells of a column are one object."""
    return F(value.numerator, value.denominator) if isinstance(value, F) else value


@settings(max_examples=200)
@given(runs=st.lists(st.tuples(st.integers(1, 5),
                               st.fractions(max_denominator=40, min_value=-9, max_value=99),
                               st.integers(0, 300), st.booleans()), min_size=1, max_size=12),
       fmt=st.sampled_from(["json", "csv", "table"]))
def test_rows_with_runs_print_as_value_by_value(runs, fmt):
    head = ("n", "x", "x_cell", "absorbed", "s")
    rows = []
    for length, value, cell, flag in runs:   # runs of one object in x and s
        rows += [(len(rows) + 1, value, cell, flag, value)] * length
    copied = [tuple(map(_copy, row)) for row in rows]
    text = write_rows(head, rows, fmt)
    assert text == write_rows(head, copied, fmt)
    if fmt == "csv":   # and value by value, with no writer in between
        assert text.splitlines() == [",".join(head)] + [
            f"{n},{reference_format_rational(x)},{c},{str(a).lower()},"
            f"{reference_format_rational(s)}" for n, x, c, a, s in rows]


def test_a_run_of_one_value_is_rendered_once(monkeypatch):
    from coarsesum import rationals
    calls = []
    for name in ("format_rational", "format_decimal"):
        real = getattr(rationals, name)
        monkeypatch.setattr(rationals, name, lambda v, real=real: calls.append(v) or real(v))
    half, third = F(1, 2), F(1, 3)
    rows = [(n, half, half if n < 500 else third) for n in range(1, 1001)]
    for fmt in ("json", "csv", "table"):
        calls.clear()
        write_rows(("n", "x", "s"), rows, fmt)
        assert calls == [half, half, third]


def oracle_write_rows(head, rows, fmt):
    """The row writer as it was: ``json.dumps`` of each row's dict, ``str.ljust`` columns."""
    columns = list(zip(*rows))
    if fmt == "json":
        columns = [list(map(format_rational, c)) if isinstance(c[0], F) else c for c in columns]
        return "\n".join(json.dumps(dict(zip(head, row))) for row in zip(*columns))
    rational, no, yes = ((format_decimal, "no", "yes") if fmt == "table"
                         else (format_rational, "false", "true"))
    columns = [list(map(rational, c)) if isinstance(c[0], F) else
               [yes if v else no for v in c] if isinstance(c[0], bool) else map(str, c)
               for c in columns]
    lines = [head, *zip(*columns)]
    if fmt == "csv":
        return "\n".join(map(",".join, lines))
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "\n".join("  ".join(map(str.ljust, line, widths)).rstrip() for line in lines)


ROW_TEXT = st.text(st.one_of(st.sampled_from('"\\%,é€𝄞 \t'), st.characters()), max_size=6)
ROW_VALUES = {   # one strategy per column kind; "mixed" never starts with a Fraction
    "int": st.integers(-10**30, 10**30),
    "bool": st.booleans(),
    "fraction": st.fractions(min_value=-99, max_value=99, max_denominator=60),
    "none": st.none(),
    "text": ROW_TEXT,
    "mixed": st.one_of(st.integers(-9, 9), st.booleans(), st.none(), ROW_TEXT),
}


#: What JSON rows are given: identifier keys, and one kind per column.
JSON_KEY = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
JSON_KINDS = ("bool", "fraction", "int")


@st.composite
def row_tables(draw, fmt):
    json_rows = fmt == "json"
    kinds = draw(st.lists(st.sampled_from(JSON_KINDS if json_rows else sorted(ROW_VALUES)),
                          min_size=1, max_size=5))
    head = tuple(draw(st.lists(JSON_KEY if json_rows else ROW_TEXT, min_size=len(kinds),
                               max_size=len(kinds), unique=True)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):   # each row repeated: runs of one object
        row = tuple(draw(ROW_VALUES[kind]) for kind in kinds)
        rows += [row] * draw(st.integers(1, 3))
    for i, kind in enumerate(kinds):   # a Fraction column may hold ints after its first row
        if kind == "fraction" and len(rows) > 1 and draw(st.booleans()):
            rows[-1] = rows[-1][:i] + (draw(st.integers(-9, 9)),) + rows[-1][i + 1:]
    return head, rows


@settings(max_examples=400)
@given(fmt=st.sampled_from(["json", "csv", "table"]), data=st.data())
def test_write_rows_prints_what_the_dumps_and_ljust_writer_printed(fmt, data):
    head, rows = data.draw(row_tables(fmt))
    assert write_rows(head, rows, fmt) == oracle_write_rows(head, rows, fmt)


def assert_one_kind_per_column(rows):
    """Each column holds ints, bools or rationals (ints among them), as ``write_rows`` reads."""
    kind = lambda v: "rational" if isinstance(v, F) else type(v).__name__
    for column in zip(*rows):
        first, kinds = kind(column[0]), set(map(kind, column))
        assert first in ("int", "bool", "rational")
        assert kinds <= {"rational", "int"} if first == "rational" else kinds == {first}


def partition_flags(spec):
    """The ``partition`` flags that build ``spec``."""
    if isinstance(spec, FixedWidth):
        return ("--width", str(spec.width))
    if isinstance(spec, EpsilonGrowth):
        return ("--eps", str(spec.epsilon))
    if isinstance(spec, SingletonGrid):
        return ("--grid", str(spec.step))
    if isinstance(spec, ExplicitBounds):
        return ("--bounds", ",".join(map(str, spec.bounds)), "--domain", spec.domain.value)
    return ("--fibonacci",)


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=20)
@given(data=st.data())
def test_fold_and_partition_rows_hold_one_kind_per_column(family, policy, data):
    spec, stream = data.draw(fold_cases(family, policy))
    expected = rep_add_fold(CoarseContext(spec, policy), stream)
    if not isinstance(expected[0], FoldStep):   # keep the steps before the sum left the layout
        stream = stream[:expected[1] - 1]
    if stream:
        assert_one_kind_per_column(CoarseContext(spec, policy).fold(stream).steps)
    cells, fmt = data.draw(st.integers(1, 12)), data.draw(st.sampled_from(["json", "csv"]))
    written = []
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "write_rows", lambda head, rows, fmt: written.append(rows) or "")
        assert cli.main(["partition", *partition_flags(spec), "--rep", policy.value,
                         "--cells", str(cells), "--format", fmt]) == 0
    assert_one_kind_per_column(written[0])


# ------------------------------------------------------------ without numpy

def _cli(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True).stdout


def test_importing_the_cli_leaves_numpy_unloaded():
    out = _cli("-c", "import sys, coarsesum.cli; print('numpy' in sys.modules)")
    assert out == "False\n"


STPETE_TRIALS_OUTPUT = """\
doubling-gamble valuation  (eps = 10, depth = 50)
  classical sum of expected increments : 25
  absorbing cell (closed form)         : 6
  absorbing cell (margin scan)         : 6
  agreement                            : yes
  verdict                              : inert at cell 6 from step 6, value 2.2 (certified)
  sampled payoffs: trials = 300, seed = 7, rng = numpy-philox4x64, truncation depth = 64
    mean payoff      : 4.74333
    coarse final sum : 1066.2 (cell 146)
    verdict          : inert at cell 146 from step 294, value 1066.2 (observed)
    round counts     : 1:145  2:79  3:42  4:19  5:6  6:4  7:3  8:1  9:1
  exact-addition control (singleton grid):
    verdict          : no verdict after 50 steps
    final sum        : 25
"""


def test_sampling_through_the_cli_prints_the_same_report():
    out = _cli("-m", "coarsesum.cli", "stpete", "--eps", "10", "--depth", "50",
               "--trials", "300", "--seed", "7")
    assert out == STPETE_TRIALS_OUTPUT


def test_sampling_runs_where_numpy_cannot_be_imported():
    # A None entry in sys.modules makes every ``import numpy`` raise ImportError.
    out = _cli("-c", "import sys; sys.modules['numpy'] = None\n"
               "from coarsesum import cli\n"
               "code = cli.main(['stpete', '--eps', '10', '--depth', '50',"
               " '--trials', '300', '--seed', '7'])\n"
               "print(code, sys.modules['numpy'],"
               " [m for m in sys.modules if m.startswith('numpy.')])")
    assert out == STPETE_TRIALS_OUTPUT + "0 None []\n"
