"""Valuing the doubling gamble under coarse addition.

The gamble pays 2**(n-1) when the first tail appears on toss n, which
happens with probability 2**-n.  Every round therefore contributes exactly
1/2 to the expectation, and the classical expected value, the sum of those
halves, grows without bound.

Folding the same stream of expected increments coarsely over a growing-cell
real partition tells a different story: cells eventually become wide enough
that their upward margin strictly exceeds the collapsed increment 1/4, and
the margin certificate names the first such cell, floor(eps/2) + 1 for
cell-growth rate eps >= 2, which the sums never pass.  Its representative,
finite and growing with eps, is the certified value; the fold itself pins
at sum 1/4, in cell 1, from step 2, for every eps.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import islice
from math import floor
from operator import index
from typing import NamedTuple

from .errors import SpecError
from .inertness import InertVerdict, Outcome, constant, detect_inert_stream, detect_inert_trace
from .ops import CoarseContext
from .partitions import EpsilonGrowth, _Frozen, _settle
from .rationals import format_rational, parse_rational

#: Deterministic counter-based generator used for all sampling.
RNG_ALGORITHM = "numpy-philox4x64"

#: Bound on every expected increment, which is exactly 1/2.  It lands in the
#: first growth cell [0, 1/2] and collapses to that cell's midpoint 1/4.
INCREMENT_BOUND = Fraction(1, 2)


class Gamble(_Frozen):
    """The doubling gamble, truncated at a maximum round count.

    Rounds beyond ``truncation_depth`` are folded into the final outcome, so
    outcome probabilities still sum to one exactly; the final payoff
    2**(depth-1) then carries probability 2**-(depth-1) instead of 2**-depth.
    """

    _fields = ("truncation_depth",)

    def __init__(self, truncation_depth: int = 64):
        d = truncation_depth
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise SpecError(f"truncation_depth: must be a positive integer, got {d!r}")
        _settle(self, truncation_depth=d)

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
            return Fraction(1, 1 << (d - 1))
        return Fraction(1, 1 << n)

    def truncated_mean(self) -> Fraction:
        """Exact expectation of the truncated payoff: (depth + 1)/2."""
        return Fraction(self.truncation_depth + 1, 2)


class ValuationReport(NamedTuple):
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
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    eps = parse_rational(epsilon)
    ctx = CoarseContext(EpsilonGrowth(eps))
    cell_formula = floor(eps / 2) + 1
    verdict = detect_inert_stream(ctx, constant(INCREMENT_BOUND), horizon=depth,
                                  increment_bound=INCREMENT_BOUND)
    # growth cells widen without bound, so the margin scan always certifies a cell
    cell_scan = verdict.cell_index
    return ValuationReport(
        epsilon=eps,
        depth=depth,
        classical_sum=Fraction(depth, 2),
        cell_from_formula=cell_formula,
        cell_from_scan=cell_scan,
        agreement=cell_scan == cell_formula,
        verdict=verdict,
    )


# ------------------------------------------------------------------ sampling
# numpy's Philox4x64-10 stream and its geometric(1/2) draws, in integer
# arithmetic.  The generator is Salmon et al., "Parallel random numbers: as
# easy as 1, 2, 3" (SC'11); the key comes from numpy's SeedSequence.

_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _philox_key(seed: int) -> tuple:
    """numpy's ``SeedSequence(seed).generate_state(2, uint64)``."""
    seed = index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int, mult: int = 0x931E8875) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    w = [hashmix(word, 0x58F38DED) for word in pool]
    return w[0] | w[1] << 32, w[2] | w[3] << 32


def _philox_words(key: tuple):
    """The raw 64-bit words of numpy's Philox4x64-10 under ``key``, without end.

    The 256-bit counter is incremented before each block of four words; a
    carry out of its low word would take 2**64 blocks, so only that word moves.
    """
    k0, k1 = key
    keys = [((k0 + r * 0x9E3779B97F4A7C15) & _M64, (k1 + r * 0xBB67AE8584CAA73B) & _M64)
            for r in range(10)]
    counter = 0
    while True:
        counter += 1
        c0, c1, c2, c3 = counter, 0, 0, 0
        for r0, r1 in keys:
            p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ r0, p1 & _M64, p0 >> 64 ^ c3 ^ r1, p0 & _M64
        yield from (c0, c1, c2, c3)


def sample_gamble(gamble: Gamble, trials: int, seed: int) -> list:
    """Draw ``trials`` truncated payoffs, deterministically in the seed.

    Round counts are the geometric(1/2) draws of
    ``numpy.random.Generator(numpy.random.Philox(seed)).geometric(0.5)``
    (see :data:`RNG_ALGORITHM`), reimplemented bit for bit in integer
    arithmetic, so sampling needs no numpy.  Each draw takes one 64-bit word;
    numpy's search over the partial sums 1 - 2**-k for its 53-bit uniform
    m / 2**53 stops at the first k with 2**(53-k) <= 2**53 - m.  Each round
    count is paid by :meth:`Gamble.payoff`, as an exact Python integer.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    words = islice(_philox_words(_philox_key(seed)), trials)
    payoff = gamble.payoff
    return [payoff(max(1, 54 - ((1 << 53) - (w >> 11)).bit_length())) for w in words]


class ComparisonReport(NamedTuple):
    """Expected-increment valuation next to a sampled-payoff fold.

    The sampled fold treats each drawn payoff as one increment of the coarse
    sum; it is exploratory (payoffs are unbounded, so no certificate
    applies) and its verdict only describes the sampled window.  The
    classical section is the fold of the expected increments over the
    singleton grid of step 1/2, where coarse addition is exact addition.
    It is given in closed form: after t steps the sum is t/2, in cell t + 1,
    so the sums climb one cell per step and the verdict over ``depth`` steps
    is no verdict with an increasing run of ``depth``.
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
    ctx = CoarseContext(EpsilonGrowth(valuation.epsilon))
    payoffs = sample_gamble(gamble, trials, seed)
    trace = ctx.fold(payoffs)
    counts = Counter(p.bit_length() for p in payoffs)

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
        classical_verdict=InertVerdict(Outcome.NO_VERDICT, horizon=depth,
                                       increasing_run=depth),
        classical_final=valuation.classical_sum,
    )
