import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import (CoarseContext, Domain, EpsilonGrowth, ExplicitBounds, Fibonacci,
                       FixedWidth, InertVerdict, Policy, SingletonGrid, coarse_value,
                       compare_valuations, constant, detect_inert_stream,
                       detect_inert_trace, first_absorbing_cell, geometric,
                       harmonic, margin_pos, rep_of_cell)
from coarsesum import inertness


# ------------------------------------------------------- judging fold traces

def test_constant_four_settles_in_top_cell(tiers_ctx):
    v = detect_inert_trace(tiers_ctx.fold([4] * 6))
    assert v.inert and not v.certified
    assert (v.n_stable, v.cell_index, v.fixed_value) == (2, 3, 11)
    assert v.horizon == 6


def test_constant_five_settles_at_same_value(tiers_ctx):
    # 5 collapses to 4, so the sums are identical from step 2 on
    v = detect_inert_trace(tiers_ctx.fold([5] * 6))
    assert (v.n_stable, v.cell_index, v.fixed_value) == (2, 3, 11)


def test_singleton_sums_never_settle():
    ctx = CoarseContext(SingletonGrid(1))
    v = detect_inert_trace(ctx.fold([1] * 100))
    assert not v.inert
    assert v.horizon == 100
    assert v.increasing_run == 100
    assert v.n_stable is None and v.fixed_value is None


def test_increasing_run_measures_the_tail_only(fib_ctx):
    # cells go 6, 6, then climb: the strictly increasing tail has length 2
    v = detect_inert_trace(fib_ctx.fold([13, 0, 1000]))
    assert not v.inert
    assert v.increasing_run == 2


def test_single_step_is_no_evidence(fib_ctx):
    v = detect_inert_trace(fib_ctx.fold([7]))
    assert not v.inert
    assert v.horizon == 1


def test_two_equal_steps_are_evidence(fib_ctx):
    v = detect_inert_trace(fib_ctx.fold([0, 0]))
    assert v.inert
    assert (v.n_stable, v.fixed_value) == (1, 0)


def test_zero_stream_is_exactly_zero_on_integer_cells(fib_ctx):
    v = detect_inert_trace(fib_ctx.fold([0] * 8))
    assert (v.n_stable, v.cell_index, v.fixed_value) == (1, 1, 0)


def test_zero_stream_drifts_to_first_rep_on_real_cells(eps10_ctx):
    # collapsing moves even a zero sum: 0 + 0 becomes 1/4 + 1/4 = 1/2 -> 1/4
    v = detect_inert_trace(eps10_ctx.fold([0] * 8))
    assert (v.n_stable, v.cell_index, v.fixed_value) == (2, 1, F(1, 4))


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
def test_stable_step_is_minimal(xs):
    ctx = CoarseContext(Fibonacci())
    trace = ctx.fold(xs)
    v = detect_inert_trace(trace)
    assert v.inert is (v.fixed_value is not None)
    if v.inert:
        sums = [s.s for s in trace]
        assert all(s == v.fixed_value for s in sums[v.n_stable - 1:])
        if v.n_stable > 1:
            assert sums[v.n_stable - 2] != v.fixed_value


def test_empty_trace_rejected(fib_ctx):
    from coarsesum import FoldTrace
    with pytest.raises(ValueError):
        detect_inert_trace(FoldTrace())


# ------------------------------------------------------- margin certificates

def test_first_absorbing_cell_golden_cases(fib, eps10, tiers):
    eps4 = EpsilonGrowth(4)
    med = Policy.MEDIAN_LOWER
    assert first_absorbing_cell(eps10, med, F(1, 4)) == 6
    assert first_absorbing_cell(eps4, med, F(1, 4)) == 3
    assert first_absorbing_cell(fib, med, 2) == 6
    assert first_absorbing_cell(fib, med, 0) == 3          # first nonzero margin


ABSORB_SPECS = [FixedWidth(3), Fibonacci(), EpsilonGrowth(2),
                ExplicitBounds((0, 3, 6, 17)), SingletonGrid(F(1, 2))]


def test_first_absorbing_cell_matches_enumerated_margins(absorbing_by_cells):
    for spec in ABSORB_SPECS:
        last = 40 if spec.max_index is None else spec.max_index
        for policy in Policy:
            if spec.constant_margins:   # so a miss at cell 1 is a miss everywhere
                margins = {margin_pos(spec.cell_at(i), policy) for i in range(1, last + 1)}
                assert len(margins) == 1, (spec, policy)
            growing = (spec.max_index is None and not spec.constant_margins
                       and policy is not Policy.MAX)
            for inc in (0, F(1, 2), 1, 2, 3, 5, 9):
                want = absorbing_by_cells(spec, policy, inc)
                case = (spec, policy, inc)
                assert want is not None or not growing, case   # window holds it
                assert first_absorbing_cell(spec, policy, inc) == want, case


ABSORB_DRAWN = st.one_of(
    st.builds(EpsilonGrowth, st.one_of(
        st.sampled_from([F(1, 3), F(101, 3)]),
        st.fractions(min_value=F(1, 50), max_value=200, max_denominator=60).filter(bool))),
    # real layouts whose bounds have mixed denominators, and integer ones
    st.lists(st.fractions(min_value=-20, max_value=200, max_denominator=12),
             min_size=2, max_size=12, unique=True).map(
        lambda b: ExplicitBounds(tuple(sorted(b)), Domain.REALS)),
    st.lists(st.integers(-30, 300), min_size=2, max_size=12, unique=True).map(
        lambda b: ExplicitBounds(tuple(sorted(b)))),
    st.builds(FixedWidth, st.integers(1, 20)),
    st.just(Fibonacci()),
    st.builds(SingletonGrid, st.fractions(min_value=F(1, 20), max_value=5,
                                          max_denominator=20).filter(bool)),
)


@settings(max_examples=200)
@given(spec=ABSORB_DRAWN, policy=st.sampled_from(list(Policy)))
def test_first_absorbing_cell_matches_enumerated_margins_drawn(spec, policy, absorbing_by_cells):
    # increments at every margin in the window (exact ties), between them and
    # beyond them, against a scan of the cells themselves
    last = 40 if spec.max_index is None else spec.max_index
    levels = sorted({margin_pos(spec.cell_at(i), policy) for i in range(1, last + 1)})
    growing = (spec.max_index is None and not spec.constant_margins and policy is not Policy.MAX)
    incs = levels[:-1] if growing else levels + [levels[-1] + 1]  # the window holds each hit
    incs += [(a + b) / 2 for a, b in zip(levels, levels[1:])] + [levels[0] / 2]
    for inc in incs:
        want = absorbing_by_cells(spec, policy, inc)
        case = (spec, policy, inc)
        assert want is not None or not growing, case
        assert first_absorbing_cell(spec, policy, inc) == want, case


def test_constant_margin_families_absorb_or_never_do():
    w3 = FixedWidth(3)
    med = Policy.MEDIAN_LOWER
    assert first_absorbing_cell(w3, med, 1) is None         # margin is exactly 1
    assert first_absorbing_cell(w3, med, 0) == 1
    grid = SingletonGrid(F(1, 2))
    assert first_absorbing_cell(grid, med, F(1, 2)) is None
    assert first_absorbing_cell(grid, med, 0) is None       # every margin is 0


def test_max_policy_has_no_upward_margin(eps10):
    assert first_absorbing_cell(eps10, Policy.MAX, F(1, 4)) is None
    assert first_absorbing_cell(eps10, Policy.MAX, 0) is None   # a tie at 0, strict


def test_finite_partition_scans_every_cell(tiers):
    med = Policy.MEDIAN_LOWER
    assert first_absorbing_cell(tiers, med, 4) == 3      # margin 5 beats 4
    assert first_absorbing_cell(tiers, med, 5) is None   # tie, strict


class SpanCounter:
    """A family that counts the spans read off it, and is the family otherwise."""

    def __init__(self, family):
        self.family, self.reads = family, 0

    def __getattr__(self, name):
        return getattr(self.family, name)

    def span(self, index):
        self.reads += 1
        return self.family.span(index)


@pytest.mark.parametrize("family, policy, inc, want, reads", [
    (ExplicitBounds((0, 3, 6, 17)), "median", 5, None, 3),   # a finite layout, no hit
    (ExplicitBounds((0, 1, 2, 3, 4)), "min", 1, None, 4),
    (FixedWidth(3), "median", 1, None, 1),                   # every margin is the same
    (SingletonGrid(F(1, 2)), "median", F(1, 2), None, 1),
    (EpsilonGrowth(10), "max", F(1, 4), None, 1),            # every margin is zero
    (Fibonacci(), "max", 0, None, 1),
    (EpsilonGrowth(10), "median", F(1, 4), 6, 6),            # a hit at cell i reads i
    (Fibonacci(), "median", 2, 6, 6),
    (ExplicitBounds((0, 3, 6, 17)), "median", 4, 3, 3),
    (FixedWidth(3), "median", 0, 1, 1),
])
def test_the_certificate_reads_no_span_past_the_last_cell_that_can_matter(
        family, policy, inc, want, reads):
    counted = SpanCounter(family)
    assert first_absorbing_cell(counted, Policy(policy), inc) == want
    assert counted.reads == reads


def test_a_bound_far_above_the_sums_costs_no_more_than_the_horizon():
    # c*(100000) lies past cell 1999405 on EpsilonGrowth(10); the stream learns where
    # the constant 100000 settles from its fold, cut at the horizon of 2 steps
    counted, values = SpanCounter(EpsilonGrowth(10)), [F(1, 2), F(100000)]
    stream = lambda t: values[t - 1]
    stream.bound = F(100000)
    want = detect_inert_trace(CoarseContext(EpsilonGrowth(10)).fold(values))
    assert detect_inert_stream(CoarseContext(counted), stream, 2, increment_bound=10**5) == want
    assert counted.reads < 20


def test_a_constant_stream_under_a_large_bound_stops_at_its_fixed_point():
    # c*(100000) lies past cell 1999405 on EpsilonGrowth(10), but the fixed point at
    # step 2 proves the rest: the fold of the constant 100000 is not run
    counted = SpanCounter(EpsilonGrowth(10))
    v = detect_inert_stream(CoarseContext(counted), constant(F(1, 2)), 10**4,
                            increment_bound=100000)
    assert (v.n_stable, v.cell_index, v.fixed_value, v.certified) == (2, 1, F(1, 4), True)
    assert counted.reads < 20


def test_a_stream_with_a_large_top_settles_with_no_fold_of_its_top():
    # its first absorbed step comes at most a step after its sum reaches c*(50000),
    # which lies past cell 999000: the constant 50000 is not folded toward it
    counted = SpanCounter(EpsilonGrowth(10))
    v = detect_inert_stream(CoarseContext(counted), geometric(100000, F(1, 2)), 10**4)
    assert (v.n_stable, v.cell_index, v.fixed_value) == (10, 1415, F(2002233, 20))
    assert counted.reads < 50


def test_negative_increment_rejected(fib):
    with pytest.raises(ValueError):
        first_absorbing_cell(fib, Policy.MEDIAN_LOWER, -1)


# --------------------------------------------------------- stream detection

def test_certified_verdict_on_growing_cells(eps10_ctx):
    # the fold's own step, cell and value: its fixed point, 1/4 + 1/4 = 1/2 in cell 1
    v = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=1000,
                            increment_bound=F(1, 2))
    assert v.inert and v.certified
    assert (v.n_stable, v.cell_index, v.fixed_value) == (2, 1, F(1, 4))
    assert v.horizon == 1000


def test_certified_cell_really_absorbs(eps10_ctx):
    # continue adding the collapsed increment for a long run: the sum never
    # moves off the certified representative
    v = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=10,
                            increment_bound=F(1, 2))
    s = v.fixed_value
    for _ in range(1000):
        s = eps10_ctx.rep_add(s, F(1, 2))
        assert s == F(1, 4)
    assert eps10_ctx.partition.index_of(s) == v.cell_index == 1


def test_membership_fold_settles_below_the_papers_strict_cell(eps10_ctx):
    # 1/4 + 1/4 lands exactly on the first cell's upper bound, so the
    # fold never leaves cell 1 even though the paper's strict scan,
    # which refuses ties, names cell 6; the certified verdict is the fold's
    observed = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=50)
    assert observed.inert and not observed.certified
    assert (observed.n_stable, observed.cell_index, observed.fixed_value) == (2, 1, F(1, 4))
    certified = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=50,
                                    increment_bound=F(1, 2))
    assert certified == observed._replace(certified=True)
    assert first_absorbing_cell(eps10_ctx.partition, eps10_ctx.policy, F(1, 4)) == 6


def test_a_fixed_point_certifies_where_no_cell_absorbs_strictly():
    ctx = CoarseContext(FixedWidth(3))
    assert first_absorbing_cell(ctx.partition, ctx.policy, 1) is None   # margin is exactly 1
    v = detect_inert_stream(ctx, constant(1), horizon=20, increment_bound=1)
    assert v.inert and v.certified          # sums are constant 1, pinned from step 2
    assert (v.n_stable, v.fixed_value) == (1, 1)


def test_stream_without_bound_matches_trace_judgement(tiers_ctx):
    direct = detect_inert_trace(tiers_ctx.fold([4] * 12))
    streamed = detect_inert_stream(tiers_ctx, constant(4), horizon=12)
    assert streamed == direct


def test_harmonic_stream_settles_observably():
    ctx = CoarseContext(EpsilonGrowth(4))
    v = detect_inert_stream(ctx, harmonic(), horizon=100)
    assert v.inert and not v.certified
    assert (v.n_stable, v.cell_index, v.fixed_value) == (2, 2, F(3, 4))


def test_geometric_stream_certified():
    ctx = CoarseContext(EpsilonGrowth(10))
    # values 1/2, 1/4, 1/8, ... are all bounded by 1/2
    v = detect_inert_stream(ctx, geometric(1, F(1, 2)), horizon=500,
                            increment_bound=F(1, 2))
    assert v.certified and (v.n_stable, v.cell_index, v.fixed_value) == (2, 1, F(1, 4))


def test_bad_horizon_rejected(fib_ctx):
    with pytest.raises(ValueError):
        detect_inert_stream(fib_ctx, constant(1), horizon=0)


def test_negative_bound_rejected(eps10_ctx):
    with pytest.raises(ValueError):
        detect_inert_stream(eps10_ctx, constant(0), horizon=5, increment_bound=-3)


@given(st.fractions(min_value=0, max_value=F(1, 2), max_denominator=16))
def test_certificate_never_beats_observation_downward(c):
    # the certified verdict is the observed one: the bound changes only the mark
    ctx = CoarseContext(EpsilonGrowth(10))
    observed = detect_inert_stream(ctx, constant(c), horizon=60)
    certified = detect_inert_stream(ctx, constant(c), horizon=60,
                                    increment_bound=F(1, 2))
    assert certified.certified
    assert certified == observed._replace(certified=True)


# ------------------------------------------------------------ input streams

def test_stream_factories():
    assert constant("2/3")(5) == F(2, 3)
    assert constant(4)(1) == 4
    assert harmonic()(7) == F(1, 7)
    g = geometric(3, "1/2")
    assert [g(t) for t in (1, 2, 3)] == [F(3, 2), F(3, 4), F(3, 8)]


@pytest.mark.parametrize("family, c, r", [
    (FixedWidth(3), 1, 1), (FixedWidth(3), 0, 3), (EpsilonGrowth(10), 5, 0),
    (EpsilonGrowth(10), F(1, 2), 1), (ExplicitBounds((-9, 0, 9), Domain.REALS), -2, 1),
], ids=["ratio-one", "coefficient-zero", "ratio-zero", "half", "negative"])
def test_a_constant_geometric_stream_stops_at_its_fixed_point(family, c, r):
    stream = geometric(c, r)
    assert stream.period == 1 and stream(1) == stream(2) == c * r
    # so a horizon of 1e9 steps ends at once, with the 1000-step verdict
    ctx = CoarseContext(family)
    long, short = (detect_inert_stream(ctx, stream, n) for n in (10**9, 1000))
    assert long == short._replace(horizon=10**9)


# -------------------------------------------------------------- wire format

def test_verdict_json_shapes(eps10_ctx):
    v = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=30,
                            increment_bound=F(1, 2))
    assert v.to_json_dict() == {
        "outcome": "inert", "N": 2, "cell": 1, "value": "1/4",
        "horizon": 30, "certified": True,
    }
    ctx = CoarseContext(SingletonGrid(1))
    nv = detect_inert_trace(ctx.fold([1] * 5))
    assert nv.to_json_dict() == {
        "outcome": "no_verdict", "N": None, "cell": None, "value": None,
        "horizon": 5, "certified": False,
    }


EPS10 = CoarseContext(EpsilonGrowth(10))


@pytest.mark.parametrize("value, indent", [
    (detect_inert_stream(EPS10, constant(F(1, 2)), 30), None),
    (detect_inert_trace(CoarseContext(SingletonGrid(1)).fold([1] * 5)), None),
    (detect_inert_stream(EPS10, constant(F(1, 2)), 30, increment_bound=F(1, 2)), None),
    (coarse_value(10, depth=20), 2),
    (coarse_value(1, depth=20), None),
    (compare_valuations(10, 8, trials=50, seed=5, depth=40), 2),
    (compare_valuations(10, 8, trials=50, seed=5, depth=40), None),
    ({}, 2),
], ids=["inert", "no-verdict", "certified", "valuation", "valuation-one-line", "comparison",
        "comparison-one-line", "empty"])
def test_the_json_writer_prints_what_json_dumps_prints(value, indent):
    d = value if isinstance(value, dict) else value.to_json_dict()
    assert inertness._json(d, indent) == json.dumps(d, indent=indent)


@pytest.mark.parametrize("judge, inert", [
    (lambda: detect_inert_trace(CoarseContext(Fibonacci()).fold([0, 0, 0])), True),
    (lambda: detect_inert_trace(CoarseContext(SingletonGrid(1)).fold([1] * 5)), False),
    (lambda: detect_inert_stream(CoarseContext(EpsilonGrowth(10)), constant(F(1, 2)),
                                 horizon=30, increment_bound=F(1, 2)), True),
    (lambda: detect_inert_stream(CoarseContext(EpsilonGrowth(10)), constant(F(1, 2)),
                                 horizon=30), True),
    (lambda: detect_inert_stream(CoarseContext(SingletonGrid(1)), constant(1), horizon=40),
     False),
], ids=["trace-inert", "trace-no-verdict", "certificate", "stream-observed",
        "stream-no-verdict"])
def test_a_verdict_is_inert_exactly_when_it_names_its_step(judge, inert):
    v = judge()
    assert v.inert is inert
    named = (v.n_stable, v.cell_index, v.fixed_value)
    assert v.inert is (v.n_stable is not None)
    assert all(x is not None for x in named) if v.inert else named == (None, None, None)
    assert (v.increasing_run is None) is v.inert
    assert v.to_json_dict()["outcome"] == ("inert" if v.inert else "no_verdict")


def test_an_increment_bound_that_collapses_below_zero_certifies_only_a_fixed_point():
    ctx = CoarseContext(ExplicitBounds((-3, 2)))    # the one cell holds 0, with rep -1
    bounded = detect_inert_stream(ctx, constant(0), horizon=10, increment_bound=0)
    assert bounded == detect_inert_stream(ctx, constant(0), horizon=10)._replace(certified=True)
    assert bounded == InertVerdict(n_stable=2, cell_index=1, fixed_value=-1, horizon=10,
                                   certified=True)
    # with no fixed point to read, c*(b) needs 0 to collapse to a value >= 0
    alternating = lambda t: t % 2
    assert not detect_inert_stream(ctx, alternating, 10, increment_bound=1).certified


# A certificate rests on its bound, so the stream must stay in [0, bound]: a
# stream that states its top is checked by it alone, any other is read to the horizon.

def test_a_bound_the_stream_breaks_is_refused_not_certified(eps10_ctx):
    # 100 lies far above 1/2: a fold of 100s passes cell 6 at once
    assert eps10_ctx.fold([100] * 40)[-1].s_cell > 6
    with pytest.raises(ValueError) as exc:
        detect_inert_stream(eps10_ctx, constant(100), 10, increment_bound=F(1, 2))
    assert str(exc.value) == "increment bound 1/2 does not hold for this stream"


@pytest.mark.parametrize("stream, bound", [
    (constant(5), F(1, 2)),                  # above the bound
    (constant(-1), F(1, 2)),                 # below 0
    (constant(F(1, 2)), -1),                 # a bound below 0 holds for nothing
    (harmonic(), F(1, 2)),                   # the first value, 1, is above it
    (geometric(1, F(1, 2)), F(1, 3)),        # the first value, 1/2, is above it
    (geometric(1, 2), 1),                    # climbs past any bound
    (geometric(1, -1), 1),                   # the first value is negative
    (geometric(-1, -1), 1),                  # the second value is negative
    (geometric(-1, F(1, 2)), 1),             # every value is negative
    (lambda t: F(100), F(1, 2)),             # a caller's stream of 100s
    (lambda t: [F(1, 2), F(100)][t - 1], F(1, 2)),  # its second value is above it
], ids=["const-above", "const-negative", "bound-negative", "harmonic", "geometric-above",
        "geometric-climbing", "geometric-ratio-negative", "geometric-alternating",
        "geometric-negative", "caller", "caller-late"])
def test_a_stream_outside_the_bound_is_refused(eps10_ctx, stream, bound):
    with pytest.raises(ValueError) as exc:
        detect_inert_stream(eps10_ctx, stream, 2, increment_bound=bound)
    assert str(exc.value) == f"increment bound {bound} does not hold for this stream"


@pytest.mark.parametrize("stream, bound", [
    (constant(F(1, 2)), F(1, 2)),
    (harmonic(), 1),
    (geometric(1, F(1, 2)), F(1, 2)),
    (geometric(0, 3), 0),
    (geometric(5, 0), 0),
], ids=["const", "harmonic", "geometric", "geometric-zero", "geometric-ratio-zero"])
def test_a_stream_at_the_edge_of_its_bound_is_certified(eps10_ctx, stream, bound):
    assert detect_inert_stream(eps10_ctx, stream, 10**9, increment_bound=bound).certified


def test_an_unmarked_stream_is_read_to_the_horizon(eps10_ctx):
    stream = lambda t: F(t, 4)               # t/4 stays within 1/2 up to step 2
    assert detect_inert_stream(eps10_ctx, stream, 2, increment_bound=F(1, 2)).certified
    with pytest.raises(ValueError, match="does not hold"):
        detect_inert_stream(eps10_ctx, stream, 3, increment_bound=F(1, 2))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(stream=st.one_of(st.builds(constant, rationals), st.builds(geometric, rationals, rationals),
                        st.just(harmonic())))
def test_a_factory_stream_states_its_top_exactly_when_it_never_rises(stream):
    # a factory stream that stays in [0, gen(1)] at step 2 stays there for good
    if 0 <= stream(2) <= stream(1):
        assert stream.top == stream(1)
    else:
        assert not hasattr(stream, "top")
