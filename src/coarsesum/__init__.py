"""Coarse-grained partitions of the number line and coarse addition.

Values are grouped into ordered interval cells ("grains"); arithmetic
collapses every operand to its cell's representative before and after
adding.  The resulting operators are commutative but not associative, small
increments can be absorbed outright by wide cells, and series whose partial
sums classically diverge can coarsely settle into a single cell, becoming
inert.  Everything is computed in exact rational arithmetic.
"""

from .errors import CoarseError, DomainError, OutOfRangeError, SpecError
from .inertness import (InertVerdict, Outcome, constant, detect_inert_stream,
                        detect_inert_trace, first_absorbing_cell, geometric, harmonic)
from .ops import CoarseContext, FoldStep, FoldTrace
from .partitions import (Cell, Domain, EpsilonGrowth, ExplicitBounds, Fibonacci,
                         FixedWidth, Partition, SingletonGrid, build_partition)
from .rationals import format_decimal, format_rational, parse_rational
from .representatives import Policy, margin_pos, rep_of_cell, rep_of_value
from .stpetersburg import (INCREMENT_BOUND, RNG_ALGORITHM, ComparisonReport,
                           Gamble, ValuationReport, coarse_value,
                           compare_valuations, sample_gamble)

__version__ = "0.1.0"

__all__ = [
    "CoarseError", "DomainError", "OutOfRangeError", "SpecError",
    "Cell", "Domain", "Partition",
    "FixedWidth", "Fibonacci", "EpsilonGrowth", "ExplicitBounds", "SingletonGrid",
    "build_partition",
    "Policy", "rep_of_cell", "rep_of_value", "margin_pos",
    "CoarseContext", "FoldStep", "FoldTrace",
    "InertVerdict", "Outcome", "detect_inert_trace", "detect_inert_stream",
    "first_absorbing_cell", "constant", "harmonic", "geometric",
    "Gamble", "ValuationReport", "ComparisonReport", "RNG_ALGORITHM",
    "INCREMENT_BOUND", "coarse_value", "sample_gamble", "compare_valuations",
    "parse_rational", "format_rational", "format_decimal",
    "__version__",
]
