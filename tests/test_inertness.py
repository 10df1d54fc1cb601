from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import (CoarseContext, Domain, EpsilonGrowth, ExplicitBounds, Fibonacci,
                       FixedWidth, InertVerdict, Outcome, Policy, SingletonGrid,
                       build_partition, constant, detect_inert_stream,
                       detect_inert_trace, first_absorbing_cell, geometric,
                       harmonic, margin_pos, rep_of_cell)


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
    ctx = CoarseContext(build_partition(SingletonGrid(1)))
    v = detect_inert_trace(ctx.fold([1] * 100))
    assert v.outcome is Outcome.NO_VERDICT
    assert v.horizon == 100
    assert v.increasing_run == 100
    assert v.n_stable is None and v.fixed_value is None
    assert not v.inert


def test_increasing_run_measures_the_tail_only(fib_ctx):
    # cells go 6, 6, then climb: the strictly increasing tail has length 2
    v = detect_inert_trace(fib_ctx.fold([13, 0, 1000]))
    assert v.outcome is Outcome.NO_VERDICT
    assert v.increasing_run == 2


def test_single_step_is_no_evidence(fib_ctx):
    v = detect_inert_trace(fib_ctx.fold([7]))
    assert v.outcome is Outcome.NO_VERDICT
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
    ctx = CoarseContext(build_partition(Fibonacci()))
    trace = ctx.fold(xs)
    v = detect_inert_trace(trace)
    assert v.outcome in (Outcome.INERT, Outcome.NO_VERDICT)
    if v.inert:
        sums = [s.s for s in trace.steps]
        assert all(s == v.fixed_value for s in sums[v.n_stable - 1:])
        if v.n_stable > 1:
            assert sums[v.n_stable - 2] != v.fixed_value


def test_empty_trace_rejected(fib_ctx):
    from coarsesum import FoldTrace
    with pytest.raises(ValueError):
        detect_inert_trace(FoldTrace(steps=()))


# ------------------------------------------------------- margin certificates

def test_first_absorbing_cell_golden_cases(fib, eps10, tiers):
    eps4 = build_partition(EpsilonGrowth(4))
    med = Policy.MEDIAN_LOWER
    assert first_absorbing_cell(eps10, med, F(1, 4)) == 6
    assert first_absorbing_cell(eps4, med, F(1, 4)) == 3
    assert first_absorbing_cell(fib, med, 2) == 6
    assert first_absorbing_cell(fib, med, 0) == 3          # first nonzero margin
    assert first_absorbing_cell(fib, med, 0, strict=False) == 1


ABSORB_SPECS = [FixedWidth(3), Fibonacci(), EpsilonGrowth(2),
                ExplicitBounds((0, 3, 6, 17)), SingletonGrid(F(1, 2))]


def test_first_absorbing_cell_matches_enumerated_margins():
    for spec in ABSORB_SPECS:
        p = build_partition(spec)
        last = 40 if p.max_index is None else p.max_index
        for policy in Policy:
            margins = [margin_pos(p.cell_at(i), policy) for i in range(1, last + 1)]
            if spec.constant_margins:   # so a miss at cell 1 is a miss everywhere
                assert len(set(margins)) == 1, (spec, policy)
            growing = (p.max_index is None and not spec.constant_margins
                       and policy is not Policy.MAX)
            for inc in (0, F(1, 2), 1, 2, 3, 5, 9):
                for strict in (True, False):
                    want = next((i for i, m in enumerate(margins, start=1)
                                 if (m > inc if strict else m >= inc)), None)
                    case = (spec, policy, inc, strict)
                    assert want is not None or not growing, case   # window holds it
                    assert first_absorbing_cell(p, policy, inc, strict) == want, case


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
def test_first_absorbing_cell_matches_enumerated_margins_drawn(spec, policy):
    # increments at every margin in the window (exact ties), between them and
    # beyond them, against a scan of the cells themselves
    p = build_partition(spec)
    last = 40 if p.max_index is None else p.max_index
    margins = [margin_pos(p.cell_at(i), policy) for i in range(1, last + 1)]
    levels = sorted(set(margins))
    growing = (p.max_index is None and not spec.constant_margins and policy is not Policy.MAX)
    incs = levels[:-1] if growing else levels + [levels[-1] + 1]  # the window holds each hit
    incs += [(a + b) / 2 for a, b in zip(levels, levels[1:])] + [levels[0] / 2]
    for inc in incs:
        for strict in (True, False):
            want = next((i for i, m in enumerate(margins, start=1)
                         if (m > inc if strict else m >= inc)), None)
            case = (spec, policy, inc, strict)
            assert want is not None or not growing, case
            assert first_absorbing_cell(p, policy, inc, strict) == want, case


def test_constant_margin_families_absorb_or_never_do():
    w3 = build_partition(FixedWidth(3))
    med = Policy.MEDIAN_LOWER
    assert first_absorbing_cell(w3, med, 1) is None         # margin is exactly 1
    assert first_absorbing_cell(w3, med, 1, strict=False) == 1
    assert first_absorbing_cell(w3, med, 0) == 1
    grid = build_partition(SingletonGrid(F(1, 2)))
    assert first_absorbing_cell(grid, med, F(1, 2)) is None
    assert first_absorbing_cell(grid, med, 0, strict=False) == 1


def test_max_policy_has_no_upward_margin(eps10):
    assert first_absorbing_cell(eps10, Policy.MAX, F(1, 4)) is None
    assert first_absorbing_cell(eps10, Policy.MAX, 0, strict=False) == 1


def test_finite_partition_scans_every_cell(tiers):
    med = Policy.MEDIAN_LOWER
    assert first_absorbing_cell(tiers, med, 4) == 3      # margin 5 beats 4
    assert first_absorbing_cell(tiers, med, 5) is None   # tie, strict
    assert first_absorbing_cell(tiers, med, 5, strict=False) == 3


def test_negative_increment_rejected(fib):
    with pytest.raises(ValueError):
        first_absorbing_cell(fib, Policy.MEDIAN_LOWER, -1)


# --------------------------------------------------------- stream detection

def test_certified_verdict_on_growing_cells(eps10_ctx):
    v = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=1000,
                            increment_bound=F(1, 2))
    assert v.inert and v.certified
    assert (v.n_stable, v.cell_index, v.fixed_value) == (6, 6, F(11, 5))
    assert v.horizon == 1000


def test_certified_cell_really_absorbs(eps10_ctx):
    # continue adding the collapsed increment for a long run: the sum never
    # moves off the certified representative
    v = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=10,
                            increment_bound=F(1, 2))
    s = v.fixed_value
    for _ in range(1000):
        s = eps10_ctx.rep_add(s, F(1, 2))
        assert s == F(11, 5)
    assert eps10_ctx.partition.index_of(s) == 6


def test_membership_fold_can_settle_below_the_certificate(eps10_ctx):
    # 1/4 + 1/4 lands exactly on the first cell's upper bound, so the
    # observed fold never leaves cell 1 even though the certificate,
    # which refuses ties, names cell 6
    observed = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=50)
    assert observed.inert and not observed.certified
    assert (observed.n_stable, observed.cell_index, observed.fixed_value) == (2, 1, F(1, 4))
    certified = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=50,
                                    increment_bound=F(1, 2))
    assert certified.certified and certified.cell_index == 6


def test_bound_without_absorbing_cell_falls_back_to_folding():
    ctx = CoarseContext(build_partition(FixedWidth(3)))
    v = detect_inert_stream(ctx, constant(1), horizon=20, increment_bound=1)
    assert v.inert and not v.certified      # observed: sums are constant 1
    assert (v.n_stable, v.fixed_value) == (1, 1)


def test_stream_without_bound_matches_trace_judgement(tiers_ctx):
    direct = detect_inert_trace(tiers_ctx.fold([4] * 12))
    streamed = detect_inert_stream(tiers_ctx, constant(4), horizon=12)
    assert streamed == direct


def test_harmonic_stream_settles_observably():
    ctx = CoarseContext(build_partition(EpsilonGrowth(4)))
    v = detect_inert_stream(ctx, harmonic(), horizon=100)
    assert v.inert and not v.certified
    assert (v.n_stable, v.cell_index, v.fixed_value) == (2, 2, F(3, 4))


def test_geometric_stream_certified():
    ctx = CoarseContext(build_partition(EpsilonGrowth(10)))
    # values 1/2, 1/4, 1/8, ... are all bounded by 1/2
    v = detect_inert_stream(ctx, geometric(1, F(1, 2)), horizon=500,
                            increment_bound=F(1, 2))
    assert v.certified and v.cell_index == 6


def test_bad_horizon_rejected(fib_ctx):
    with pytest.raises(ValueError):
        detect_inert_stream(fib_ctx, constant(1), horizon=0)


def test_negative_bound_rejected(eps10_ctx):
    with pytest.raises(ValueError):
        detect_inert_stream(eps10_ctx, constant(0), horizon=5, increment_bound=-3)


@given(st.fractions(min_value=0, max_value=F(1, 2), max_denominator=16))
def test_certificate_never_beats_observation_downward(c):
    # whenever both paths give a verdict, the observed settling cell is
    # never above the certified absorbing cell
    ctx = CoarseContext(build_partition(EpsilonGrowth(10)))
    observed = detect_inert_stream(ctx, constant(c), horizon=60)
    certified = detect_inert_stream(ctx, constant(c), horizon=60,
                                    increment_bound=F(1, 2))
    assert certified.certified
    if observed.inert:
        assert observed.cell_index <= certified.cell_index


# ------------------------------------------------------------ input streams

def test_stream_factories():
    assert constant("2/3")(5) == F(2, 3)
    assert constant(4)(1) == 4
    assert harmonic()(7) == F(1, 7)
    g = geometric(3, "1/2")
    assert [g(t) for t in (1, 2, 3)] == [F(3, 2), F(3, 4), F(3, 8)]


# -------------------------------------------------------------- wire format

def test_verdict_json_shapes(eps10_ctx):
    v = detect_inert_stream(eps10_ctx, constant(F(1, 2)), horizon=30,
                            increment_bound=F(1, 2))
    assert v.to_json_dict() == {
        "outcome": "inert", "N": 6, "cell": 6, "value": "11/5",
        "horizon": 30, "certified": True,
    }
    ctx = CoarseContext(build_partition(SingletonGrid(1)))
    nv = detect_inert_trace(ctx.fold([1] * 5))
    assert nv.to_json_dict() == {
        "outcome": "no_verdict", "N": None, "cell": None, "value": None,
        "horizon": 5, "certified": False,
    }


def test_an_increment_bound_that_collapses_below_zero_is_refused():
    ctx = CoarseContext(ExplicitBounds((-4, -2, 0, 3)))    # -3 collapses to -4
    with pytest.raises(ValueError) as exc:
        detect_inert_stream(ctx, constant(1), horizon=10, increment_bound=-3)
    assert str(exc.value) == "increment bound must collapse to a nonnegative value, got -4"
