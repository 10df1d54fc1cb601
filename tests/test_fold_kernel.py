"""The cell-state fold and integer cell lookup against their plain definitions.

``CoarseContext.fold`` carries each partial sum's cell and collapses every
cell once; the oracle here is a left fold of ``rep_add`` with cells read off
``index_of``.  ``EpsilonGrowth`` lookup works on numerators and denominators;
its oracle is the ``contains`` fixture on cells whose bounds are recomputed from
``1/2 + (T(k) - 1)/eps`` by ``Fraction`` arithmetic.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coarsesum import (Cell, CoarseContext, Domain, DomainError, EpsilonGrowth, ExplicitBounds,
                       Fibonacci, FixedWidth, FoldStep, FoldTrace,
                       OutOfRangeError, Partition, Policy, SingletonGrid, SpecError,
                       constant, detect_inert_stream,
                       detect_inert_trace, first_absorbing_cell, format_decimal,
                       format_rational, geometric, harmonic, parse_rational,
                       rep_of_cell, rep_of_value)
from coarsesum.ops import _fold_steps
from coarsesum.rationals import write_rows
from coarsesum import cli, inertness, ops, representatives

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
        assert ctx.fold(values) == expected
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
    assert_json_rows_match_steps(trace.to_json_lines(), trace)
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


#: Per family, layouts that hold every int from their origin on, and layouts that
#: refuse some: below the origin, past the last explicit bound, or off the grid.
INT_FAMILIES = {
    "FixedWidth": st.integers(1, 9).map(FixedWidth),
    "Fibonacci": st.just(Fibonacci()),
    "EpsilonGrowth": st.sampled_from([F(10), F(1, 3), F(5, 2)]).map(EpsilonGrowth),
    "ExplicitBounds": st.sampled_from([
        ExplicitBounds((0, 3, 6, 17)), ExplicitBounds((-4, 1, 2, 9, 30, 100)),
        ExplicitBounds(tuple(range(0, 10**6, 100))),
        ExplicitBounds((0, F(1, 2), 1, F(7, 3), 10, 50), Domain.REALS)]),
    "SingletonGrid": st.sampled_from([F(1, 2), F(1, 3), F(2), F(3, 4)]).map(SingletonGrid),
}


@st.composite
def int_streams(draw):
    """Ints whose repeats are not consecutive: a stream drawn from a small pool, or more
    distinct values than the fold's int memo holds, then repeats of them."""
    if draw(st.booleans()):
        pool = draw(st.lists(st.integers(-5, 60), min_size=1, max_size=5))
        return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=40))
    distinct = draw(st.lists(st.integers(0, 400), min_size=257, max_size=270, unique=True))
    return distinct + draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=20)) + \
        draw(st.sampled_from([[], [-1], [401]]))


def fold_or_error(ctx, values):
    try:
        return ctx.fold(values)
    except (OutOfRangeError, DomainError) as exc:
        return type(exc), str(exc), exc.step


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=40)
@given(data=st.data())
def test_int_inputs_fold_as_their_fractions(family, policy, data):
    spec = data.draw(INT_FAMILIES[family].filter(lambda spec: not refused(spec, policy)))
    ctx, stream = CoarseContext(spec, policy), data.draw(int_streams())
    got = fold_or_error(ctx, stream)
    assert got == fold_or_error(ctx, [F(v) for v in stream])
    if isinstance(got, FoldTrace):
        assert all(type(step.x) is F and type(step.s) is F for step in got)


#: Inputs that are neither ints nor Fractions, per layout: floats, Decimals, ``p/q``
#: text and bools, integer-valued on the integer cells.
OTHER_INPUTS = [
    (EpsilonGrowth(10), [1.5, Decimal("2.25"), "7/3", True, 0.0, False, Decimal("0.5"), "3"]),
    (FixedWidth(3), [2.0, Decimal("4"), "12/4", True, 0.0, False, Decimal("7.0"), "5"]),
]


@pytest.mark.parametrize("spec, values", OTHER_INPUTS, ids=["eps-10", "width-3"])
def test_other_inputs_fold_as_their_fractions_and_are_read_once(spec, values):
    ctx, stream = CoarseContext(spec), values * 2  # each value again, apart from its first
    trace = ctx.fold(stream)
    assert trace == ctx.fold([F(v) for v in stream])
    for first, again in zip(trace, trace[len(values):]):
        assert type(first.x) is F and first.x is again.x


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
    steps = ctx.fold(stream) if stream else ()
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


@st.composite
def bounds_around_zero(draw, domain=Domain.REALS):
    """An ``ExplicitBounds`` whose origin lies below, at or above 0; a cell that holds
    0 and more of the negatives than of the positives collapses 0 below it."""
    if domain is Domain.REALS:
        below, above = (st.fractions(min_value=lo, max_value=hi, max_denominator=12)
                        for lo, hi in ((-8, 0), (0, 12)))
    else:
        below, above = st.integers(-8, 0), st.integers(0, 12)
    cuts = (set(draw(st.lists(below, max_size=3)))
            | set(draw(st.lists(above, min_size=1, max_size=4))))
    if len(cuts) < 2:
        cuts.add(max(cuts) + 1)
    return ExplicitBounds(sorted(cuts), domain)


#: Streams that carry their marks: ``period`` on a constant, ``top`` where the values
#: never rise and stay >= 0, none on a geometric stream that rises or turns negative.
MARKED_STREAMS = st.one_of(
    st.builds(constant, st.fractions(min_value=-1, max_value=6, max_denominator=6)),
    st.builds(harmonic),
    st.builds(geometric, st.fractions(min_value=-2, max_value=6, max_denominator=4),
              st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(-1, 2), 2])))


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=60)
@given(data=st.data())
def test_streams_judge_as_their_folds(family, policy, data):
    spec, stream = data.draw(fold_cases(family, policy))
    ctx = CoarseContext(spec, policy)
    assert_streamed_verdict_matches(ctx, lambda t: stream[t - 1], len(stream))
    if family == "ExplicitBounds" and policy is not Policy.MIN and data.draw(st.booleans()):
        ctx = CoarseContext(data.draw(bounds_around_zero()), policy)
    horizon, marked = data.draw(st.integers(1, 60)), data.draw(MARKED_STREAMS)
    assert_streamed_verdict_matches(ctx, marked, horizon)
    # the same values with no mark are read to the horizon
    assert_streamed_verdict_matches(ctx, lambda t: marked(t), horizon)


@st.composite
def streams_bounded_by(draw, values):
    """A bound b of ``values`` >= 0, and a stream of values in [0, b]: a constant, a
    periodic one with no mark, one that never rises and states its ``top``, or one
    in any order that states its ``bound``."""
    values = values.filter(lambda v: v >= 0)
    b = draw(values)
    pool = draw(st.lists(values.filter(lambda v: v <= b), min_size=1, max_size=4))
    kind = draw(st.sampled_from(["constant", "periodic", "top", "bound"]))
    if kind == "constant":
        return b, constant(b)
    if kind == "top":
        pool.sort(reverse=True)
        gen = lambda t: pool[min(t, len(pool)) - 1]
        gen.top = pool[0]
        return b, gen
    gen = lambda t: pool[(t - 1) % len(pool)]
    if kind == "bound":
        gen.bound = max(pool)
    return b, gen


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=60)
@given(data=st.data())
def test_a_certified_verdict_is_the_folds_own_and_no_sum_passes_c_star(
        family, policy, data, absorbing_by_cells):
    spec, values = data.draw(family_case(family, policy))
    if family == "ExplicitBounds" and data.draw(st.booleans()):
        # origins below 0 and at 0, in both domains, and values in the layout
        holds_zero = lambda spec: spec.origin <= 0 <= spec.cell_at(spec.max_index).upper
        spec = data.draw(bounds_around_zero(data.draw(st.sampled_from(list(Domain))))
                         .filter(holds_zero))
        assume(not refused(spec, policy))
        lo, hi = 0, min(20, spec.cell_at(spec.max_index).upper)
        values = (st.integers(lo, int(hi)) if spec.domain is Domain.INTEGERS
                  else st.fractions(min_value=lo, max_value=hi, max_denominator=12))
    ctx, (b, gen) = CoarseContext(spec, policy), data.draw(streams_bounded_by(values))
    horizon = data.draw(st.integers(1, 30))
    verdict = verdict_or_error(lambda: detect_inert_stream(ctx, gen, horizon, increment_bound=b))
    longer = verdict_or_error(lambda: ctx.fold([gen(t) for t in range(1, 4 * horizon + 1)]))
    if getattr(verdict, "certified", False):
        # a proof fired within the horizon: a fold 4x as long neither fails nor moves after N
        assert isinstance(longer, FoldTrace) and verdict.n_stable <= horizon
        assert detect_inert_trace(longer)._replace(horizon=horizon, certified=True) == verdict
        assert all(step.absorbed and step.s == verdict.fixed_value
                   for step in longer[verdict.n_stable:])
    if spec.origin <= 0 and ctx.normalize(0) >= 0 and isinstance(longer, FoldTrace):
        # the zero precondition: no sum passes c*(b), where some cell absorbs rep(b)
        c_star = absorbing_by_cells(spec, policy, ctx.normalize(b), False, spec.index_of(0))
        assert c_star is None or max(step.s_cell for step in longer) <= c_star


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


# A stream that states its top never rises and stays >= 0, so its first absorbed step pins
# the sum where every value from 0 to the top lies in a real cell (not a grid's point) and
# 0's cell has a representative >= 0; test_streams_judge_as_their_folds draws such streams.

def test_a_cell_of_zero_with_a_negative_representative_does_not_stop_the_fold():
    ctx = CoarseContext(ExplicitBounds("-19/3,-73/12,1/6,5/3,3,15/2".split(","), Domain.REALS))
    assert ctx.partition.origin < 0 and ctx.normalize(0) == F(-71, 24)
    trace = ctx.fold([harmonic()(t) for t in range(1, 33)])
    # stopping at the first absorbed step, as an "origin <= 0" rule would, names step 3
    early = inertness._judge(trace, 32, settles=True)
    assert (early.n_stable, early.cell_index, early.fixed_value) == (3, 5, F(21, 4))
    # but 1/6 collapses to -71/24 in 0's cell, and the sum falls again at step 6
    assert (trace[5].s_cell, trace[6].s) == (4, F(-71, 24))
    verdict = detect_inert_stream(ctx, harmonic(), 32)
    assert verdict == detect_inert_trace(trace)
    assert (verdict.n_stable, verdict.cell_index, verdict.fixed_value) == (7, 2, F(-71, 24))


def counted(values, top):
    """A stream of ``values`` that states ``top`` and records each step it gives."""
    read = []

    def stream(t):
        read.append(t)
        return values(t)
    stream.top = top
    return stream, read


@pytest.mark.parametrize("spec", [EpsilonGrowth(4), ExplicitBounds((0, 1, 3), Domain.REALS),
                                  ExplicitBounds((-1, 1, 3), Domain.REALS)], ids=repr)
def test_a_stream_with_a_top_stops_reading_at_its_first_absorbed_step(spec):
    ctx = CoarseContext(spec)
    stream, read = counted(lambda t: F(1, t), F(1))
    verdict = detect_inert_stream(ctx, stream, 10**5)
    assert read[-1] == next(s.n for s in ctx.fold([F(1, t) for t in range(1, 40)])[1:]
                            if s.absorbed) < 40
    assert verdict == detect_inert_trace(ctx.fold([F(1, t) for t in range(1, 1001)]))._replace(
        horizon=10**5)


@pytest.mark.parametrize("spec, policy, error", [
    # 4, 2, 1 pin the sum at step 2, then 1/2 is refused at step 4
    (FixedWidth(3), Policy.MEDIAN_LOWER, (DomainError, 4, "step 4: 1/2 is not an integer")),
    (ExplicitBounds((1, 2, 10), Domain.REALS), Policy.MEDIAN_LOWER,
     (DomainError, 4, "step 4: 1/2 is below the partition origin 1")),
], ids=["integer-family", "origin-above-zero"])
def test_a_stream_with_a_top_is_read_on_where_a_later_value_can_fail(spec, policy, error):
    ctx = CoarseContext(spec, policy)
    assert ctx.fold([4, 2])[-1].absorbed
    assert assert_streamed_verdict_matches(ctx, geometric(8, F(1, 2)), 10) == error


def test_a_stream_with_a_top_on_a_grid_is_read_to_the_horizon():
    ctx = CoarseContext(SingletonGrid(1))
    stream, read = counted(lambda t: F(t == 1), F(1))   # 1, then 0s: absorbed from step 2
    assert detect_inert_stream(ctx, stream, 50) == detect_inert_trace(ctx.fold([1] + [0] * 49))
    assert read == list(range(1, 51))


# A stream with a ``bound``, as ``inert --from-file`` marks a file of values >= 0, holds
# values in [0, bound] in any order: where a stream with a top stops, it stops once its sum
# cell absorbs the bound, and not at its first absorbed step, since a later maximum can
# still move a sum that has stood still.

def bounded(values):
    """The stream of a file as ``inert --from-file`` reads it, marked with the largest
    value where no value is below 0, and the steps it gives."""
    read = []

    def stream(t):
        read.append(t)
        return values[t - 1]
    if min(values) >= 0:
        stream.bound = max(values)
    return stream, read


@st.composite
def late_maxima(draw, values):
    """Values >= 0 from a small pool, so that the sum can stand still, then the largest
    value of all, then more values, none larger."""
    values = values.filter(lambda v: v >= 0)
    pool = draw(st.lists(values, min_size=1, max_size=3))
    head = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    peak = max(draw(values), *head)
    return head + [peak] + [min(v, peak) for v in draw(st.lists(values, max_size=12))]


@pytest.mark.parametrize("family, policy", FAMILY_POLICIES)
@settings(max_examples=60)
@given(data=st.data())
def test_a_bounded_stream_judges_as_its_fold(family, policy, data):
    spec, values = data.draw(family_case(family, policy))
    if family == "ExplicitBounds" and data.draw(st.booleans()):
        # origins below, at or above 0, in both domains; values up to 2 past the last bound
        spec = data.draw(bounds_around_zero(data.draw(st.sampled_from(list(Domain)))))
        assume(not refused(spec, policy))
        lo, hi = max(0, spec.origin), min(20, spec.cell_at(spec.max_index).upper + 2)
        values = (st.integers(int(lo), int(hi)) if spec.domain is Domain.INTEGERS
                  else st.fractions(min_value=lo, max_value=hi, max_denominator=12))
    ctx, stream = CoarseContext(spec, policy), data.draw(late_maxima(values))
    gen, _ = bounded(stream)
    # the horizon is clamped to the file's length, as the CLI clamps it
    assert_streamed_verdict_matches(ctx, gen, min(data.draw(st.integers(1, 40)), len(stream)))


def test_a_bounded_stream_is_read_on_past_a_sum_that_stood_still():
    ctx = CoarseContext(EpsilonGrowth(10))
    values = [F(1, 2), F(1, 2), F(5)] + [F(1, 2)] * 97
    stream, read = bounded(values)
    trace = ctx.fold(values)
    # 1/4 + 1/4 stays in cell 1 at step 2, where the first absorbed step would stop ...
    early = inertness._judge(trace, 100, settles=True)
    assert (early.n_stable, early.cell_index, early.fixed_value) == (2, 1, F(1, 4))
    # ... but 5 moves the sum to cell 10, whose margin 1/2 is below rep(5) = 27/5
    verdict = detect_inert_stream(ctx, stream, 100)
    assert verdict == detect_inert_trace(trace)
    assert (verdict.n_stable, verdict.cell_index, verdict.fixed_value) == (3, 10, F(27, 5))
    assert read == list(range(1, 101))


def test_a_bounded_stream_stops_where_its_sum_cell_absorbs_the_bound():
    ctx = CoarseContext(EpsilonGrowth(10))
    values = [F(1, 3), F(1, 2), F(2, 5)] * 2000   # cell 1 = [0, 1/2] absorbs rep(1/2) = 1/4
    stream, read = bounded(values)
    verdict = detect_inert_stream(ctx, stream, len(values))
    assert read == [1, 2]
    assert verdict == detect_inert_trace(ctx.fold(values))


def test_a_bounded_stream_is_checked_against_an_increment_bound_by_its_bound_alone():
    ctx = CoarseContext(EpsilonGrowth(10))
    values = [F(1, 3), F(1, 2), F(2, 5)] * 2000
    stream, read = bounded(values)
    verdict = detect_inert_stream(ctx, stream, len(values), increment_bound=F(1, 2))
    # the fold's own verdict: step 2's sum 1/4 lies in c*(1/2) = cell 1
    assert verdict == detect_inert_trace(ctx.fold(values))._replace(certified=True)
    assert (verdict.n_stable, verdict.cell_index, verdict.fixed_value) == (2, 1, F(1, 4))
    assert read == [1, 2]
    with pytest.raises(ValueError, match="increment bound 2/5 does not hold"):
        detect_inert_stream(ctx, stream, len(values), increment_bound=F(2, 5))
    assert read == [1, 2]


@pytest.mark.parametrize("spec, values, error", [
    # the sum stands still in cell 1 from step 2, and 4 lies past the last bound
    (ExplicitBounds((0, 1, 3), Domain.REALS), [F(1, 2)] * 5 + [F(4)],
     (OutOfRangeError, 6, "step 6: 4 is beyond the last explicit bound 3")),
    # 2 collapses to 3 in cell 2 = (1, 5], and 3 + 3 leaves the layout at step 3
    (ExplicitBounds((0, 1, 5), Domain.REALS), [F(1, 2), F(2), F(2), F(2)],
     (OutOfRangeError, 3, "step 3: 6 is beyond the last explicit bound 5")),
], ids=["bound-past-the-layout", "sum-past-the-layout"])
def test_a_bounded_stream_fails_where_its_fold_fails(spec, values, error):
    stream, _ = bounded(values)
    assert assert_streamed_verdict_matches(CoarseContext(spec), stream, len(values)) == error


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


def assert_index_matches_membership(partition, x, contains):
    eps = partition.spec.epsilon
    i = partition.index_of(x)
    cell = partition.cell_at(i)
    assert contains(cell, x)
    if i > 1:
        assert (cell.lower, cell.upper) == (eps_bound(eps, i - 1), eps_bound(eps, i))
        assert not contains(partition.cell_at(i - 1), x)
    assert not contains(partition.cell_at(i + 1), x)


@settings(max_examples=300)
@given(eps=EPSILONS, x=VALUES)
def test_epsilon_index_agrees_with_membership(contains, eps, x):
    assert_index_matches_membership(EpsilonGrowth(eps), x, contains)


@settings(max_examples=300)
@given(eps=EPSILONS, k=st.one_of(st.integers(1, 2000), st.integers(1, 2**40)))
def test_epsilon_index_at_exact_bounds(contains, eps, k):
    p = EpsilonGrowth(eps)
    b = eps_bound(eps, k)
    assert p.index_of(b) == k              # upper bounds are closed
    for x in (b, b + F(1, 10**30), b - F(1, 10**30)):
        assert_index_matches_membership(p, x, contains)


# ------------------------------------------- integer spans and scaled lookup
# Every family describes its cells as integer spans on a scale D.  The oracle
# for the representative works on the Cell's exact bounds.

def oracle_rep(cell, policy):
    if policy is Policy.MIN:
        return cell.lower
    if policy is Policy.MAX:
        return cell.upper
    if cell.domain is Domain.INTEGERS:
        return cell.lower + (cell.upper - cell.lower) // 2
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
    steps = ctx.fold(values)
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
    steps = ctx.fold(values)
    monkeypatch.undo()
    assert steps == expected
    assert sum(not step.absorbed for step in steps) >= 0.8 * len(steps)   # it climbs
    # each collapse through rep_of_value is an input's own object
    assert all(any(v is x for x in values) for v in collapsed)
    # a step looks up its input and its sum; an input collapse looks up the input once more
    assert lookups[0] <= 2 * len(steps) + len(collapsed)


def epsilon_climb(n, seed=1):
    """n rationals p/q in [2000, 4000] with q in 2..9, drawn as the benchmark draws its
    climbing ``--eps 10`` file: on ``EpsilonGrowth(10)`` they fall in 84 cells."""
    rng = random.Random(seed)
    return [F(rng.randint(2000 * q, 4000 * q), q) for q in (rng.randint(2, 9) for _ in range(n))]


def count_collapses(monkeypatch):
    """The values that the fold collapses through ``rep_of_value``, as it collapses them."""
    collapsed, real_collapse = [], ops.rep_of_value
    monkeypatch.setattr(ops, "rep_of_value", lambda p, v, pol: collapsed.append(v)
                        or real_collapse(p, v, pol))
    return collapsed


def test_a_climbing_fold_collapses_each_input_cell_once_while_the_memo_has_room(monkeypatch):
    ctx, values = CoarseContext(EpsilonGrowth(10)), epsilon_climb(2000)
    input_cells = {ctx.partition.index_of(x) for x in values[1:]}  # step 1 collapses nothing
    collapsed = count_collapses(monkeypatch)
    steps = ctx.fold(values)
    monkeypatch.undo()
    # one collapse per input cell, 84 of them: the inputs' memo holds its own cells, and
    # no cell a sum passes through takes a place in it
    assert len(collapsed) <= len(input_cells) < 100
    assert steps == rep_add_fold(ctx, values)
    # the sums pass through more cells than four full memos hold; the inputs' cells fit in
    # less than half of one
    assert len({step.s_cell for step in steps}) > 4 * ops._REP_MEMO_CELLS
    assert 2 * len(input_cells) < ops._REP_MEMO_CELLS


def spread_ints(n, seed=2):
    """n ints of 0..5000: on ``FixedWidth(1)`` their cells outgrow half the memo."""
    rng = random.Random(seed)
    return [rng.randint(0, 5000) for _ in range(n)]


@pytest.mark.parametrize("spec, draw, few", [
    (EpsilonGrowth(10), lambda: epsilon_climb(10**5), True),   # inputs in 84 cells
    (FixedWidth(1), lambda: spread_ints(3 * 10**4), False),    # inputs in about 5000 cells
], ids=["inputs-in-few-cells", "inputs-in-many-cells"])
def test_the_representative_memo_never_holds_more_than_its_bound_over_a_long_climb(
        spec, draw, few, monkeypatch):
    ctx, values, collapsed = CoarseContext(spec), draw(), count_collapses(monkeypatch)
    steps = _fold_steps(ctx, values)
    trace = [next(steps)]
    picks = steps.gi_frame.f_locals["picks"]  # the fold's memo of input cells, emptied in place
    most = emptied = size = 0
    for step in steps:
        trace.append(step)
        emptied += len(picks) < size
        size = len(picks)
        most = max(most, size)
    monkeypatch.undo()
    assert tuple(trace[:20_000]) == rep_add_fold(ctx, values[:20_000])
    assert trace[-1].s_cell > 100 * ops._REP_MEMO_CELLS   # it climbed
    assert most <= ops._REP_MEMO_CELLS
    input_cells = set(map(spec.index_of, values[1:]))
    assert (len(input_cells) < ops._REP_MEMO_CELLS) is few
    if few:   # every input cell stays in the memo, collapsed once
        assert not emptied
        assert len(collapsed) == len(set(map(spec.index_of, collapsed))) <= len(input_cells)
    else:   # filled, and emptied there
        assert most == ops._REP_MEMO_CELLS and emptied


def swinging(ctx, n, seed=3):
    """n values whose fold swings about 0: each input of 1..9 points back toward 0, so
    the sum moves down and back up through the same cells."""
    rng, s, values = random.Random(seed), F(7), [F(7)]
    for _ in range(n - 1):
        values.append(F(rng.randint(1, 9)) * (-1 if s > 0 else 1))
        s = ctx.rep_add(s, values[-1])
    return values


SWINGING = [(ExplicitBounds(tuple(range(-60, 61, 4)), Domain.REALS),),
            (ExplicitBounds((-20, -4, 0, 3, 6, 9, 12, 15, 18, 21)),)]


@pytest.mark.parametrize("spec, policy", under_policies(SWINGING, ["real", "int"]))
def test_a_sum_that_moves_down_and_back_up_folds_as_rep_add_does(spec, policy):
    ctx = CoarseContext(spec, policy)
    values = swinging(ctx, 300)
    trace = ctx.fold(values)
    assert trace == rep_add_fold(ctx, values)
    cells = [step.s_cell for step in trace]
    moves = list(zip(cells, cells[1:]))
    assert any(b < a for a, b in moves) and any(b > a for a, b in moves)
    assert len(set(cells)) < 10   # the sum comes back to cells it left


@pytest.mark.parametrize("spec, values", [
    (FixedWidth(7), [F(1), F(2), F(0)] * 40),              # inputs in the sum's cell
    (Fibonacci(), [F(1)] + [F(1), F(0)] * 40),             # inputs in two cells take turns
    (EpsilonGrowth(F(10)), [F(1000)] + [F(1, 2), F(3)] * 40),
], ids=["fixed-width", "fibonacci", "epsilon"])
def test_a_pinned_sums_rows_share_one_s_object(spec, values):
    trace = CoarseContext(spec).fold(values)
    assert trace == rep_add_fold(CoarseContext(spec), values)
    assert all(step.absorbed for step in trace[2:])   # pinned from step 2
    assert len({id(step.s) for step in trace[1:]}) == 1


def test_an_input_in_the_sums_cell_takes_the_sums_representative(monkeypatch):
    ctx, values = CoarseContext(Fibonacci()), [F(2**t) for t in range(1, 401)]
    collapsed = count_collapses(monkeypatch)
    trace = ctx.fold(values)
    monkeypatch.undo()
    assert trace == rep_add_fold(ctx, values)
    in_sum_cell = [step.x for prev, step in zip(trace, trace[1:]) if step.x_cell == prev.s_cell]
    assert len(in_sum_cell) > 100
    assert not any(v is x for v in collapsed for x in in_sum_cell)


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


def certified_by_rep_add(ctx, bound, horizon):
    """The verdict on a constant stream under ``bound``, from the left fold of ``rep_add``:
    that fold's own, certified where a step after step 1 is absorbed, its fixed point."""
    steps = rep_add_fold(ctx, [bound] * horizon)
    if not isinstance(steps[0], FoldStep):  # the error, with its step and text
        return verdict_or_error(lambda: detect_inert_trace(ctx.fold([bound] * horizon)))
    fixed = any(step.absorbed for step in steps[1:])
    return detect_inert_trace(FoldTrace(steps))._replace(certified=fixed)


CERTIFIED = [
    (FixedWidth(7), [0, 3, 10, 27]),
    (Fibonacci(), [0, 1, 5, 40]),
    (EpsilonGrowth(F(10)), [0, F(1, 2), F(7, 3), 5]),
    (ExplicitBounds((0, F(1, 2), 1, F(7, 3), 10, 50), Domain.REALS), [0, F(1, 2), 3, 20]),
    (SingletonGrid(F(3, 4)), [0, F(3, 4), F(3, 2)]),
]


@pytest.mark.parametrize("spec, bounds, policy", under_policies(CERTIFIED, FAMILY_IDS))
def test_cell_add_and_certified_verdicts_read_spans_and_build_no_cells(
        spec, bounds, policy, monkeypatch):
    ctx, horizon = CoarseContext(spec, policy), 30
    pairs = [(i, k) for i in range(1, (spec.max_index or 12) + 1) for k in range(1, 13)]
    sums = [cell_add_by_cells(spec, policy, i, k) for i, k in pairs]
    verdicts = [certified_by_rep_add(ctx, b, horizon) for b in bounds]
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


#: ``p/q``-shaped text, the form the reader meets most: signs on either side, padding,
#: underscores, non-ASCII decimal digits, zeros, and digit runs past ``int``'s limit.
DIGIT_RUNS = st.one_of(st.text(alphabet=DIGITS, min_size=1, max_size=25),
                       st.text(alphabet=DIGITS + "_\u0663\uff11\u00b2", max_size=6))
PAD = st.sampled_from(["", " ", "\t", "\u2007", "\n"])
PQ_TEXTS = st.one_of(
    st.builds("{}{}{}/{}{}{}".format, PAD, st.sampled_from(["", "-", "+", "--", "+-"]),
              DIGIT_RUNS, st.sampled_from(["", "", "-", "+", " "]), DIGIT_RUNS, PAD),
    st.sampled_from(["0/5", "-0/7", "3/0", "-3/0", "1/-2", "+1/2", "--1/2", " 4/6 ",
                     "1_0/3", "1/2_0", "_1/2", "\u0663/\u0664", "-\uff11/\uff12", "1 / 2",
                     "1/2/3", "-/2", "4" * 5000 + "/3", "3/" + "4" * 5000]),
)


def assert_parses_as_fraction(text):
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert type(got) is F and got == expected


@settings(max_examples=500)
@given(text=TEXTS)
def test_parse_rational_equals_fraction_of_the_text(text):
    assert_parses_as_fraction(text)


@settings(max_examples=500)
@given(text=PQ_TEXTS)
def test_parse_rational_reads_p_over_q_text_as_fraction_does(text):
    assert_parses_as_fraction(text)


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
# six significant digits that round up to the next power of ten
@example(F(29999999, 30000000))
@example(F(2999999, 3))
@example(F(-2999999, 3))
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


def test_no_rows_print_the_header_alone():
    assert [write_rows(FoldStep._fields, FoldTrace(), fmt) for fmt in ("json", "csv", "table")] \
        == ["", "n,x,x_cell,s,s_cell,absorbed", "n  x  x_cell  s  s_cell  absorbed"]


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
    # then 0, 1, 2 or many rows that hold the last row's objects after their first field,
    # as a settled fold's rows do, each with a first field of its own
    last = rows[-1]
    for _ in range(draw(st.sampled_from([0, 1, 2]) | st.integers(3, 40))):
        rows.append((draw(ROW_VALUES[kinds[0]]), *last[1:]))
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
        assert_one_kind_per_column(CoarseContext(spec, policy).fold(stream))
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
  verdict                              : inert at cell 1 from step 2, value 0.25 (certified)
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
