"""Valuing the doubling gamble under coarse addition.

The gamble pays 2**(n-1) when the first tail appears on toss n, which
happens with probability 2**-n.  Every round therefore contributes exactly
1/2 to the expectation, and the classical expected value, the sum of those
halves, grows without bound.

Folding the same stream of expected increments coarsely over a growing-cell
real partition tells a different story: cells eventually become wide enough
that their upward margin strictly exceeds the collapsed increment 1/4, and
the margin certificate pins the sums to the first such cell,
floor(eps/2) + 1 for cell-growth rate eps >= 2.  The coarse value of the
gamble is the representative of that cell: finite, and tunable through eps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .errors import SpecError
from .inertness import InertVerdict, constant, detect_inert_stream, detect_inert_trace, first_absorbing_cell
from .ops import CoarseContext
from .partitions import EpsilonGrowth, SingletonGrid, build_partition
from .rationals import format_rational, parse_rational
from .representatives import Policy

#: Deterministic counter-based generator used for all sampling.
RNG_ALGORITHM = "numpy-philox4x64"

#: Collapsed value of one expected increment 1/2: it always lands in the
#: first growth cell [0, 1/2], whose midpoint representative is 1/4.
INCREMENT_BOUND = Fraction(1, 2)


@dataclass(frozen=True)
class Gamble:
    """The doubling gamble, truncated at a maximum round count.

    Rounds beyond ``truncation_depth`` are folded into the final outcome, so
    outcome probabilities still sum to one exactly; the final payoff
    2**(depth-1) then carries probability 2**-(depth-1) instead of 2**-depth.
    """

    truncation_depth: int = 64

    def __post_init__(self):
        d = self.truncation_depth
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise SpecError(f"truncation_depth: must be a positive integer, got {d!r}")

    def payoff(self, n: int) -> int:
        """Payoff when the first tail shows on toss n (capped at the depth)."""
        if n < 1:
            raise ValueError(f"round count must be >= 1, got {n}")
        return 1 << (min(n, self.truncation_depth) - 1)

    def probability(self, n: int) -> Fraction:
        """Exact outcome probability after truncation."""
        d = self.truncation_depth
        if n < 1 or n > d:
            return Fraction(0)
        if n == d:
            return Fraction(1, 1 << (d - 1)) if d > 1 else Fraction(1)
        return Fraction(1, 1 << n)

    def truncated_mean(self) -> Fraction:
        """Exact expectation of the truncated payoff: (depth + 1)/2."""
        return Fraction(self.truncation_depth + 1, 2)


def expected_increment_series(depth: int) -> list:
    """The per-round expected contributions: depth copies of exactly 1/2."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return [Fraction(1, 2)] * depth


@dataclass(frozen=True)
class ValuationReport:
    """Coarse valuation of the expected-increment stream at one eps."""

    epsilon: Fraction
    depth: int
    classical_sum: Fraction      # exact partial sum of the increments: depth/2
    cell_from_formula: int       # floor(eps/2) + 1
    cell_from_scan: int | None   # first cell with margin strictly above 1/4
    agreement: bool
    verdict: InertVerdict

    def to_json_dict(self) -> dict:
        return {
            "epsilon": format_rational(self.epsilon),
            "depth": self.depth,
            "classical_sum": format_rational(self.classical_sum),
            "cell_from_formula": self.cell_from_formula,
            "cell_from_scan": self.cell_from_scan,
            "agreement": self.agreement,
            "verdict": self.verdict.to_json_dict(),
        }


def coarse_value(epsilon, depth: int = 10_000) -> ValuationReport:
    """Value the expected-increment stream on a growth partition.

    ``epsilon`` sets the cell-growth rate.  The closed-form absorbing cell
    floor(eps/2) + 1 matches the margin scan exactly for eps >= 2; below
    that the formula undershoots (the first cell's margin is an exact tie,
    never a strict winner) and the report flags the disagreement.
    """
    eps = parse_rational(epsilon)
    ctx = CoarseContext(build_partition(EpsilonGrowth(eps)), Policy.MEDIAN_LOWER)
    cell_formula = floor(eps / 2) + 1
    cell_scan = first_absorbing_cell(ctx.partition, ctx.policy,
                                     ctx.normalize(INCREMENT_BOUND), strict=True)
    verdict = detect_inert_stream(ctx, constant(INCREMENT_BOUND), horizon=depth,
                                  increment_bound=INCREMENT_BOUND)
    return ValuationReport(
        epsilon=eps,
        depth=depth,
        classical_sum=Fraction(depth, 2),
        cell_from_formula=cell_formula,
        cell_from_scan=cell_scan,
        agreement=cell_scan == cell_formula,
        verdict=verdict,
    )


def sample_gamble(gamble: Gamble, trials: int, seed: int) -> list:
    """Draw ``trials`` truncated payoffs, deterministically in the seed.

    Round counts are geometric(1/2) draws from a Philox counter-based
    generator (see :data:`RNG_ALGORITHM`), capped at the truncation depth;
    payoffs are exact Python integers.
    """
    import numpy as np  # only sampling needs numpy, so no other command loads it

    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    rounds = rng.geometric(0.5, size=trials)
    depth = gamble.truncation_depth
    return [1 << (min(int(n), depth) - 1) for n in rounds]


@dataclass(frozen=True)
class ComparisonReport:
    """Expected-increment valuation next to a sampled-payoff fold.

    The sampled fold treats each drawn payoff as one increment of the coarse
    sum; it is exploratory (payoffs are unbounded, so no certificate
    applies) and its verdict only describes the sampled window.  The
    classical section folds the expected increments over a singleton grid,
    where coarse addition is exact addition, reproducing the divergent
    classical partial sums.
    """

    valuation: ValuationReport
    trials: int
    seed: int
    rng_algorithm: str
    truncation_depth: int
    sampled_verdict: InertVerdict
    sampled_final: Fraction
    sampled_final_cell: int
    sampled_mean: Fraction
    round_counts: dict
    classical_verdict: InertVerdict
    classical_final: Fraction

    def to_json_dict(self) -> dict:
        return {
            "valuation": self.valuation.to_json_dict(),
            "trials": self.trials,
            "seed": self.seed,
            "rng": self.rng_algorithm,
            "truncation_depth": self.truncation_depth,
            "sampled": {
                "verdict": self.sampled_verdict.to_json_dict(),
                "final_sum": format_rational(self.sampled_final),
                "final_cell": self.sampled_final_cell,
                "mean": format_rational(self.sampled_mean),
                "round_counts": {str(n): c for n, c in sorted(self.round_counts.items())},
            },
            "classical": {
                "verdict": self.classical_verdict.to_json_dict(),
                "final_sum": format_rational(self.classical_final),
            },
        }


def compare_valuations(epsilon, gamble: Gamble, trials: int, seed: int,
                       depth: int = 10_000) -> ComparisonReport:
    """Run the expected-increment, sampled, and exact-addition valuations."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    valuation = coarse_value(epsilon, depth)
    ctx = CoarseContext(build_partition(EpsilonGrowth(valuation.epsilon)),
                        Policy.MEDIAN_LOWER)
    payoffs = sample_gamble(gamble, trials, seed)
    trace = ctx.fold(payoffs)
    counts = Counter(p.bit_length() for p in payoffs)

    grid = CoarseContext(build_partition(SingletonGrid(Fraction(1, 2))),
                         Policy.MEDIAN_LOWER)
    classical_verdict = detect_inert_stream(grid, constant(INCREMENT_BOUND), horizon=depth)

    return ComparisonReport(
        valuation=valuation,
        trials=trials,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        truncation_depth=gamble.truncation_depth,
        sampled_verdict=detect_inert_trace(trace),
        sampled_final=trace.final_sum,
        sampled_final_cell=trace.final_cell,
        sampled_mean=Fraction(sum(payoffs), trials),
        round_counts=dict(counts),
        classical_verdict=classical_verdict,
        classical_final=Fraction(depth, 2),
    )
