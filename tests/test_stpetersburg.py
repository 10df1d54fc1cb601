import math
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesum import (INCREMENT_BOUND, RNG_ALGORITHM, CoarseContext, ComparisonReport,
                       EpsilonGrowth, Gamble, Outcome, Policy, SingletonGrid, SpecError,
                       build_partition, coarse_value, compare_valuations, constant,
                       detect_inert_stream, expected_increment_series, first_absorbing_cell,
                       sample_gamble)
from coarsesum import inertness, stpetersburg


def eps_rep(eps: F, i: int) -> F:
    """Midpoint of growth cell i, from the bound recurrence b(i) = b(i-1) + i/eps."""
    def bound(j):
        return F(1, 2) + F(j * (j + 1) // 2 - 1, 1) / eps
    lo = F(0) if i == 1 else bound(i - 1)
    return (lo + bound(i)) / 2


# ----------------------------------------------------------------- gamble

def test_expected_increments_are_exact_halves():
    assert expected_increment_series(5) == [F(1, 2)] * 5
    with pytest.raises(ValueError):
        expected_increment_series(0)


def test_payoffs_double_and_cap():
    g = Gamble(truncation_depth=10)
    assert [g.payoff(n) for n in (1, 2, 3, 5)] == [1, 2, 4, 16]
    assert g.payoff(10) == 512
    assert g.payoff(99) == 512              # capped at the depth
    with pytest.raises(ValueError):
        g.payoff(0)


def test_probabilities_sum_to_one_exactly():
    for depth in (1, 2, 5, 30, 64):
        g = Gamble(depth)
        assert sum(g.probability(n) for n in range(1, depth + 1)) == 1
        assert g.probability(depth + 1) == 0
        assert g.probability(0) == 0


def test_truncated_mean_matches_direct_expectation():
    for depth in (1, 2, 3, 10, 30):
        g = Gamble(depth)
        direct = sum(F(g.payoff(n)) * g.probability(n) for n in range(1, depth + 1))
        assert g.truncated_mean() == direct == F(depth + 1, 2)


def test_depth_one_gamble_is_a_sure_unit():
    g = Gamble(1)
    assert g.probability(1) == 1
    assert g.payoff(1) == 1
    assert g.truncated_mean() == 1


def test_bad_depth_rejected():
    with pytest.raises(SpecError):
        Gamble(0)
    with pytest.raises(SpecError):
        Gamble(True)


# ---------------------------------------------------------------- valuation

def test_coarse_value_golden_eps10():
    r = coarse_value(10, depth=500)
    assert r.cell_from_formula == 6
    assert r.cell_from_scan == 6
    assert r.agreement
    assert r.classical_sum == F(250)
    assert r.verdict.certified and r.verdict.inert
    assert r.verdict.cell_index == 6
    assert r.verdict.fixed_value == F(11, 5) == eps_rep(F(10), 6)


@pytest.mark.parametrize("eps,cell", [(2, 2), (3, 2), (4, 3), (5, 3), (10, 6),
                                      (F(7, 2), 2), (50, 26), (99, 50)])
def test_absorbing_cell_follows_half_eps(eps, cell):
    r = coarse_value(eps, depth=50)
    assert r.cell_from_scan == cell
    assert r.cell_from_formula == cell
    assert r.agreement
    assert r.verdict.fixed_value == eps_rep(F(eps), cell)


def test_small_eps_breaks_the_formula():
    # below eps = 2 the first cell's margin ties the increment, so the scan
    # lands one cell above the closed form
    r = coarse_value(1, depth=50)
    assert r.cell_from_formula == 1
    assert r.cell_from_scan == 2
    assert not r.agreement
    assert r.verdict.cell_index == 2


@given(st.fractions(min_value=2, max_value=100, max_denominator=20))
def test_scan_matches_formula_for_eps_at_least_two(eps):
    r = coarse_value(eps, depth=10)
    assert r.cell_from_scan == math.floor(eps / 2) + 1
    assert r.agreement


@pytest.mark.parametrize("eps", [F(1, 3), 1, 2, F(5, 2), 10, F(101, 3)])
def test_coarse_value_scans_for_the_absorbing_cell_once(eps, monkeypatch):
    expected = coarse_value(eps, depth=30)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return first_absorbing_cell(*args, **kwargs)

    monkeypatch.setattr(inertness, "first_absorbing_cell", counted)
    monkeypatch.setattr(stpetersburg, "first_absorbing_cell", counted, raising=False)
    report = coarse_value(eps, depth=30)
    assert len(calls) == 1
    assert report == expected
    assert report.cell_from_scan == first_absorbing_cell(
        build_partition(EpsilonGrowth(F(eps))), Policy.MEDIAN_LOWER, F(1, 4), strict=True)


def test_valuation_json_shape():
    d = coarse_value(10, depth=20).to_json_dict()
    assert d["epsilon"] == "10/1"
    assert d["depth"] == 20
    assert d["classical_sum"] == "10/1"
    assert d["cell_from_formula"] == d["cell_from_scan"] == 6
    assert d["agreement"] is True
    assert d["verdict"]["value"] == "11/5"
    assert d["verdict"]["certified"] is True


# ----------------------------------------------------------------- sampling

def test_sampling_is_deterministic_in_the_seed():
    g = Gamble(30)
    assert sample_gamble(g, 1000, seed=7) == sample_gamble(g, 1000, seed=7)
    assert sample_gamble(g, 1000, seed=7) != sample_gamble(g, 1000, seed=8)


def test_sampling_golden_draws():
    assert sample_gamble(Gamble(30), 12, seed=0) == \
        [1, 1, 1, 1, 32, 1, 8, 1, 1, 1, 4, 1]
    assert sample_gamble(Gamble(30), 12, seed=12345) == \
        [1, 2, 1, 2, 2, 1, 1, 1, 1, 8, 2, 4]


def test_samples_are_capped_powers_of_two():
    g = Gamble(5)
    draws = sample_gamble(g, 5000, seed=3)
    assert all(isinstance(p, int) for p in draws)
    assert set(draws) <= {1, 2, 4, 8, 16}


def test_depth_one_sampling_is_constant():
    assert sample_gamble(Gamble(1), 100, seed=9) == [1] * 100


def test_zero_trials_gives_empty_sample():
    assert sample_gamble(Gamble(30), 0, seed=0) == []
    with pytest.raises(ValueError):
        sample_gamble(Gamble(30), -1, seed=0)


def test_negative_seed_is_rejected():
    for trials in (0, 5):
        with pytest.raises(ValueError):
            sample_gamble(Gamble(8), trials, seed=-1)
    run = subprocess.run([sys.executable, "-m", "coarsesum.cli", "stpete", "--eps", "10",
                          "--trials", "5", "--seed", "-1"], capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("error: ")


def test_sampled_frequencies_track_the_geometric_law():
    n_trials = 200_000
    draws = sample_gamble(Gamble(30), n_trials, seed=2026)
    for n in range(1, 8):
        p = 0.5 ** n
        observed = draws.count(1 << (n - 1)) / n_trials
        sigma = math.sqrt(p * (1 - p) / n_trials)
        assert abs(observed - p) <= 3 * sigma, (n, observed, p)


# --------------------------------------------------------------- comparison

def test_comparison_report_fields():
    g = Gamble(20)
    r = compare_valuations(10, g, trials=400, seed=1, depth=100)
    payoffs = sample_gamble(g, 400, seed=1)
    assert r.trials == 400 and r.seed == 1
    assert r.rng_algorithm == RNG_ALGORITHM == "numpy-philox4x64"
    assert r.truncation_depth == 20
    assert r.sampled_mean == F(sum(payoffs), 400)
    assert sum(r.round_counts.values()) == 400
    assert r.round_counts == {p.bit_length(): c for p, c in
                              __import__("collections").Counter(payoffs).items()}
    assert r.classical_final == F(50)
    assert r.classical_verdict.outcome is Outcome.NO_VERDICT
    assert r.classical_verdict.horizon == 100
    assert r.valuation.cell_from_scan == 6


@pytest.mark.parametrize("depth", [1, 2, 3, 300, 1000])
def test_closed_form_control_matches_the_singleton_grid_fold(depth):
    grid = CoarseContext(build_partition(SingletonGrid(F(1, 2))))
    r = compare_valuations(10, Gamble(8), trials=5, seed=0, depth=depth)
    assert r.classical_verdict == detect_inert_stream(grid, constant(F(1, 2)), horizon=depth)
    assert r.classical_final == grid.fold([F(1, 2)] * depth).final_sum


def test_comparison_sampled_fold_is_reproducible():
    a = compare_valuations(4, Gamble(16), trials=250, seed=42, depth=50)
    b = compare_valuations(4, Gamble(16), trials=250, seed=42, depth=50)
    assert a == b
    assert a.sampled_final == b.sampled_final
    assert a.sampled_final_cell >= 1


def test_comparison_requires_trials():
    with pytest.raises(ValueError):
        compare_valuations(10, Gamble(8), trials=0, seed=0)


@pytest.mark.parametrize("depth", [0, -3])
def test_valuations_name_a_depth_below_one(depth):
    with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
        coarse_value(10, depth)
    with pytest.raises(ValueError, match="depth must be"):
        compare_valuations(10, Gamble(8), trials=5, seed=0, depth=depth)


def test_comparison_json_shape():
    d = compare_valuations(10, Gamble(8), trials=50, seed=5, depth=40).to_json_dict()
    assert set(d) == {"valuation", "trials", "seed", "rng", "truncation_depth",
                      "sampled", "classical"}
    assert d["rng"] == "numpy-philox4x64"
    assert set(d["sampled"]) == {"verdict", "final_sum", "final_cell", "mean",
                                 "round_counts"}
    assert all(isinstance(k, str) for k in d["sampled"]["round_counts"])
    assert d["classical"]["verdict"]["outcome"] == "no_verdict"


def test_increment_bound_is_half():
    assert INCREMENT_BOUND == F(1, 2)
