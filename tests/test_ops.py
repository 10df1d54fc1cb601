import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import (CoarseContext, EpsilonGrowth, Fibonacci, FixedWidth,
                       FoldTrace, OutOfRangeError, Policy, build_partition,
                       margin_pos, rep_of_cell)


# ---------------------------------------------------------------- rep_add

def test_rep_add_worked_examples(fib_ctx):
    assert fib_ctx.rep_add(2, 5) == 9       # both are already reps; 7 -> cell {7..11} -> 9
    assert fib_ctx.rep_add(3, 10) == 9      # 2 + 9 = 11 -> cell {7..11} -> 9
    assert fib_ctx.rep_add(0, 0) == 0
    assert fib_ctx.rep_add(12, 19) == 26    # 15 + 15 = 30 -> cell {20..32} -> 26


def test_rep_add_is_rep_of_sum_of_reps(fib_ctx, fib):
    for x, y in [(2, 5), (3, 10), (0, 0), (12, 19), (4, 4), (1, 1)]:
        r = fib_ctx.normalize(x) + fib_ctx.normalize(y)
        assert fib_ctx.rep_add(x, y) == fib_ctx.normalize(r)


def test_cell_add_worked_examples(fib_ctx):
    assert fib_ctx.cell_add(4, 5) == 6      # 5 + 9 = 14 in {12..19}
    assert fib_ctx.cell_add(1, 1) == 1      # 0 + 0 = 0
    assert fib_ctx.cell_add(2, 2) == 3      # 1 + 1 = 2
    assert fib_ctx.cell_add(6, 6) == 7      # 15 + 15 = 30 in {20..32}


def test_cell_add_matches_definition(fib_ctx, fib):
    for i, k in itertools.product(range(1, 9), repeat=2):
        s = rep_of_cell(fib.cell_at(i)) + rep_of_cell(fib.cell_at(k))
        assert fib_ctx.cell_add(i, k) == fib.index_of(s)


def test_absorption_iff_increment_rep_fits_in_margin(fib_ctx, fib):
    # cell i absorbs cell k exactly when rep(G_k) <= upper(G_i) - rep(G_i)
    for i, k in itertools.product(range(1, 21), repeat=2):
        fits = rep_of_cell(fib.cell_at(k)) <= margin_pos(fib.cell_at(i))
        assert fib_ctx.absorbs(i, k) == fits


def test_absorption_fixed_width(fib_ctx):
    ctx = CoarseContext(build_partition(FixedWidth(5)))
    # rep of every cell is >= 2, margin_pos is always 2: only cells with rep <= 2 absorb
    for i, k in itertools.product(range(1, 21), repeat=2):
        expected = rep_of_cell(ctx.partition.cell_at(k)) <= 2
        assert ctx.absorbs(i, k) == expected


def test_absorption_examples(fib_ctx):
    assert fib_ctx.absorbs(6, 1)            # adding rep 0 goes nowhere
    assert fib_ctx.absorbs(6, 2)            # 15 + 1 = 16, still {12..19}
    assert fib_ctx.absorbs(6, 3)            # 15 + 2 = 17
    assert not fib_ctx.absorbs(6, 4)        # 15 + 5 = 20
    assert not fib_ctx.absorbs(5, 5)        # 9 + 9 = 18


# ------------------------------------------------------- (non-)associativity

def test_non_associativity_witness(fib_ctx, fib):
    left = fib_ctx.rep_add(fib_ctx.rep_add(3, 3), 10)
    right = fib_ctx.rep_add(3, fib_ctx.rep_add(3, 10))
    assert left == 15
    assert right == 9
    assert fib.index_of(left) == 6
    assert fib.index_of(right) == 5


def test_cell_add_non_associativity_witness(fib_ctx):
    assert fib_ctx.cell_add(fib_ctx.cell_add(3, 3), 5) != \
        fib_ctx.cell_add(3, fib_ctx.cell_add(3, 5))


@settings(max_examples=200)
@given(w=st.sampled_from([1, 3, 5, 9]),
       i=st.integers(min_value=1, max_value=60),
       j=st.integers(min_value=1, max_value=60),
       k=st.integers(min_value=1, max_value=60))
def test_odd_width_cell_add_is_shifted_addition(w, i, j, k):
    ctx = CoarseContext(build_partition(FixedWidth(w)))
    assert ctx.cell_add(i, j) == i + j - 1
    assert ctx.cell_add(ctx.cell_add(i, j), k) == ctx.cell_add(i, ctx.cell_add(j, k))


@given(w=st.sampled_from([2, 4, 6]),
       i=st.integers(min_value=1, max_value=40),
       j=st.integers(min_value=1, max_value=40))
def test_even_width_cell_add_undershoots(w, i, j):
    # reps sit below center, so the sum of two reps lands one cell short
    ctx = CoarseContext(build_partition(FixedWidth(w)))
    assert ctx.cell_add(i, j) in (i + j - 2, i + j - 1)


def test_rep_add_commutes(fib_ctx):
    for x, y in itertools.product(range(0, 25), repeat=2):
        assert fib_ctx.rep_add(x, y) == fib_ctx.rep_add(y, x)


# ------------------------------------------------------------- distortion

def test_distortion_examples(fib_ctx):
    assert not fib_ctx.distorted(0, 0)
    assert fib_ctx.distorted(2, 5)          # 2 + 5 = 7 but rep_add gives 9
    assert not fib_ctx.distorted(0, 2)      # 2 is its own rep and 0 adds nothing


def test_distortion_brute_force_width_three():
    ctx = CoarseContext(build_partition(FixedWidth(3)))
    assert ctx.rep_add(4, 7) == 10          # both already reps; 11 -> cell 4 -> rep 10
    assert ctx.distorted(4, 7)
    assert not ctx.distorted(4, 6)          # 10 is the rep of its own cell
    undistorted = [(x, y) for x in range(13) for y in range(13)
                   if not ctx.distorted(x, y)]
    for x, y in undistorted:
        assert ctx.rep_add(x, y) == x + y


@given(st.integers(min_value=0, max_value=10**4),
       st.integers(min_value=0, max_value=10**4))
def test_width_one_is_exact(x, y):
    ctx = CoarseContext(build_partition(FixedWidth(1)))
    assert ctx.rep_add(x, y) == x + y
    assert not ctx.distorted(x, y)


# ------------------------------------------------------------------ folds

def test_fold_worked_example(tiers_ctx):
    trace = tiers_ctx.fold([4, 4, 4, 4])
    assert [s.s for s in trace] == [4, 11, 11, 11]
    assert [s.s_cell for s in trace] == [2, 3, 3, 3]
    assert [s.absorbed for s in trace] == [False, False, True, True]
    assert trace.final_sum == 11
    assert trace.final_cell == 3


def test_fold_first_step_keeps_raw_value(fib_ctx):
    trace = fib_ctx.fold([13])
    assert trace.final_sum == 13            # not collapsed to the rep 15
    assert trace.final_cell == 6
    assert len(trace) == 1
    assert not trace.steps[0].absorbed


def test_fold_collapses_from_second_step(fib_ctx):
    trace = fib_ctx.fold([13, 0])
    # S2 = rep(cell(13)) + rep(cell(0)) = 15 + 0 = 15
    assert trace.final_sum == 15


def test_fold_empty_sequence_rejected(fib_ctx):
    with pytest.raises(ValueError):
        fib_ctx.fold([])


def test_fold_range_error_carries_step(tiers_ctx):
    with pytest.raises(OutOfRangeError) as exc:
        tiers_ctx.fold([10, 10, 10])
    assert exc.value.step == 2              # 11 + 11 = 22 leaves the covered range
    assert "step 2" in str(exc.value)


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=30))
def test_fold_cells_never_decrease_for_nonnegative_inputs(xs):
    ctx = CoarseContext(build_partition(Fibonacci()))
    cells = [s.s_cell for s in ctx.fold(xs)]
    assert all(a <= b for a, b in zip(cells, cells[1:]))


@given(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=20),
                min_size=1, max_size=25))
def test_fold_absorption_flag_matches_cell_stall(xs):
    ctx = CoarseContext(build_partition(EpsilonGrowth(10)))
    trace = ctx.fold(xs)
    prev = None
    for step in trace:
        if prev is None:
            assert not step.absorbed
        else:
            assert step.absorbed == (step.s_cell == prev)
        prev = step.s_cell


# -------------------------------------------------------------- trace IO

def test_trace_json_round_trip(tiers_ctx):
    trace = tiers_ctx.fold([4, 4, 4, 4])
    back = FoldTrace.from_json_lines(trace.to_json_lines())
    assert back.steps == trace.steps


def test_trace_json_round_trip_rationals(eps10_ctx):
    trace = eps10_ctx.fold([F(1, 2), F(1, 3), F(1, 7)])
    back = FoldTrace.from_json_lines(trace.to_json_lines())
    assert back.steps == trace.steps


def test_trace_csv_shape(tiers_ctx):
    # values travel as p/q strings even when the denominator is 1,
    # matching the JSON-lines encoding column for column
    lines = tiers_ctx.fold([4, 4]).to_csv().strip().splitlines()
    assert lines[0] == "n,x,x_cell,s,s_cell,absorbed"
    assert lines[1] == "1,4/1,2,4/1,2,false"
    assert lines[2] == "2,4/1,2,11/1,3,false"
