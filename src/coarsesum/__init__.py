"""Coarse-grained partitions of the number line and coarse addition.

Values are grouped into ordered interval cells ("grains"); arithmetic
collapses every operand to its cell's representative before and after
adding.  The resulting operators are commutative but not associative, small
increments can be absorbed outright by wide cells, and series whose partial
sums classically diverge can coarsely settle into a single cell, becoming
inert.  Everything is computed in exact rational arithmetic.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .partitions import (Cell, CoarseError, Domain, DomainError, OutOfRangeError, Partition,
                         SpecError, build_partition)
from .rationals import format_decimal, format_rational, parse_rational
from .representatives import CoarseContext, Policy, margin_pos, rep_of_cell, rep_of_value


def _register_lazily(name: str):
    """A submodule put in ``sys.modules`` now, and compiled and run at its first attribute read."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    spec.loader.exec_module(module := module_from_spec(spec))
    return sys.modules.setdefault(spec.name, module)


def __getattr__(name: str):  # public names not bound here: partitions' families, the modules' below
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # each module imports the ones before it, so a read runs no module its owner does not
    owners = (partitions, ops, inertness, stpetersburg)
    return getattr(next(m for m in owners if hasattr(m, name)), name)


# A command that never reads these three does not compile them: `partition` folds nothing.
ops, inertness, stpetersburg = map(_register_lazily, ("ops", "inertness", "stpetersburg"))
__dir__ = lambda: sorted({*globals(), *__all__})
__version__ = "0.1.0"

__all__ = [
    "CoarseError", "DomainError", "OutOfRangeError", "SpecError",
    "Cell", "Domain", "Partition",
    "FixedWidth", "Fibonacci", "EpsilonGrowth", "ExplicitBounds", "SingletonGrid",
    "build_partition",
    "Policy", "rep_of_cell", "rep_of_value", "margin_pos",
    "CoarseContext", "FoldStep", "FoldTrace",
    "InertVerdict", "detect_inert_trace", "detect_inert_stream",
    "first_absorbing_cell", "constant", "harmonic", "geometric",
    "ValuationReport", "ComparisonReport", "RNG_ALGORITHM",
    "INCREMENT_BOUND", "coarse_value", "sample_gamble", "compare_valuations",
    "parse_rational", "format_rational", "format_decimal",
    "__version__",
]
