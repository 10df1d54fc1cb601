from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarsesum import (Domain, EpsilonGrowth, Fibonacci, FixedWidth, Policy,
                       SingletonGrid, margin_pos,
                       rep_of_cell, rep_of_value)


def test_fibonacci_median_reps_golden(fib):
    reps = [rep_of_cell(fib.cell_at(i), Policy.MEDIAN_LOWER) for i in range(1, 7)]
    assert reps == [0, 1, 2, 5, 9, 15]


def test_fibonacci_margins_golden(fib):
    c5, c6 = fib.cell_at(5), fib.cell_at(6)
    assert margin_pos(c6, Policy.MEDIAN_LOWER) == 4   # 19 - 15
    assert rep_of_cell(c6, Policy.MEDIAN_LOWER) - c6.lower == 3   # 15 - 12
    assert margin_pos(c5, Policy.MEDIAN_LOWER) == 2
    assert rep_of_cell(c5, Policy.MEDIAN_LOWER) - c5.lower == 2


def test_median_lower_even_cell_takes_lower_middle():
    # 8 elements: the lower of the two middles is the 4th smallest
    c = Fibonacci().cell_at(6)   # {12..19}
    assert rep_of_cell(c) == 15
    assert c.count == 8


def test_real_cells_take_midpoints(eps10):
    assert rep_of_cell(eps10.cell_at(1)) == F(1, 4)
    assert rep_of_cell(eps10.cell_at(2)) == F(3, 5)     # (1/2 + 7/10) / 2
    assert rep_of_cell(eps10.cell_at(3)) == F(17, 20)   # (7/10 + 1) / 2


def test_eps_rep_and_margin_recurrence():
    # rep of cell i (i >= 2) sits i/(2 eps) above the previous upper bound
    eps = F(10)
    p = EpsilonGrowth(eps)
    prev_upper = F(1, 2)
    for i in range(2, 12):
        c = p.cell_at(i)
        assert rep_of_cell(c) == prev_upper + F(i, 1) / (2 * eps)
        assert margin_pos(c) == F(i, 1) / (2 * eps)
        assert rep_of_cell(c) - c.lower == F(i, 1) / (2 * eps)
        prev_upper = c.upper


def test_min_max_policies_pick_boundaries(fib):
    c = fib.cell_at(6)  # {12..19}
    assert rep_of_cell(c, Policy.MIN) == 12
    assert rep_of_cell(c, Policy.MAX) == 19
    assert margin_pos(c, Policy.MIN) == 7
    assert margin_pos(c, Policy.MAX) == 0
    assert rep_of_cell(c, Policy.MIN) - c.lower == 0


def test_min_on_open_below_real_cell_returns_infimum(eps10):
    # the infimum is not a member; margins still measure to the boundary
    c = eps10.cell_at(2)   # (1/2, 7/10]
    assert rep_of_cell(c, Policy.MIN) == F(1, 2)
    assert F(1, 2) not in c
    assert rep_of_cell(c, Policy.MIN) - c.lower == 0
    assert margin_pos(c, Policy.MIN) == c.width


def test_singletons_collapse_to_their_value():
    grid = SingletonGrid(F(1, 2))
    c = grid.cell_at(4)
    for pol in Policy:
        assert rep_of_cell(c, pol) == F(3, 2)
        assert margin_pos(c, pol) == 0
        assert rep_of_cell(c, pol) - c.lower == 0


@given(w=st.sampled_from([1, 3, 5, 7, 9, 11]), i=st.integers(min_value=1, max_value=1000))
def test_fixed_odd_width_median_closed_form(w, i):
    # for width w = 2m + 1 the median of cell i is w(i-1) + m = (2wi - w - 1)/2
    p = FixedWidth(w)
    m = (w - 1) // 2
    rep = rep_of_cell(p.cell_at(i))
    assert rep == w * (i - 1) + m
    assert rep == F(2 * w * i - w - 1, 2)


@given(st.integers(min_value=0, max_value=10**5))
def test_rep_of_value_idempotent_fibonacci(x):
    p = Fibonacci()
    for pol in Policy:
        r = rep_of_value(p, x, pol)
        assert rep_of_value(p, r, pol) == r


@given(st.fractions(min_value=0, max_value=200, max_denominator=40),
       st.fractions(min_value=2, max_value=30, max_denominator=8))
def test_rep_of_value_idempotent_eps(x, eps):
    p = EpsilonGrowth(eps)
    for pol in (Policy.MEDIAN_LOWER, Policy.MAX):
        r = rep_of_value(p, x, pol)
        assert rep_of_value(p, r, pol) == r


@given(st.integers(min_value=1, max_value=200))
def test_rep_is_a_member_integer_cells(i):
    for spec in (Fibonacci(), FixedWidth(4), FixedWidth(7)):
        c = spec.cell_at(i)
        for pol in Policy:
            assert rep_of_cell(c, pol) in c


@given(st.integers(min_value=1, max_value=200),
       st.fractions(min_value=F(1, 2), max_value=30, max_denominator=8))
def test_rep_is_a_member_real_cells(i, eps):
    # median and max are always attained; min on open-below cells is not
    c = EpsilonGrowth(eps).cell_at(i)
    assert rep_of_cell(c, Policy.MEDIAN_LOWER) in c
    assert rep_of_cell(c, Policy.MAX) in c


@given(st.integers(min_value=1, max_value=300))
def test_margins_are_nonnegative_and_split_the_width(i):
    for spec in (Fibonacci(), FixedWidth(6), EpsilonGrowth(F(7, 2))):
        c = spec.cell_at(i)
        for pol in Policy:
            mp, mn = margin_pos(c, pol), rep_of_cell(c, pol) - c.lower
            assert mp >= 0 and mn >= 0
            assert mp + mn == c.width


def test_rep_of_value_examples(fib, eps10):
    assert rep_of_value(fib, 3) == 2
    assert rep_of_value(fib, 10) == 9
    assert rep_of_value(eps10, F(1, 2)) == F(1, 4)
    grid = SingletonGrid(F(1, 2))
    assert rep_of_value(grid, F(7, 2)) == F(7, 2)


def test_a_policy_must_be_a_member_not_its_name():
    with pytest.raises(ValueError) as exc:
        rep_of_cell(FixedWidth(3).cell_at(1), "median")
    assert str(exc.value) == "unknown policy 'median'"
