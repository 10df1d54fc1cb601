"""Per-layer tracing: wrappers around the public functions of each coarsesum module.

``traced(tracer)`` replaces each function listed in ``LAYERS`` wherever a
coarsesum module holds it -- the defining module and every module that
imported it by name -- and each method on its class, then puts the originals
back.  A wrapper counts calls and self time: its own duration minus the time
of wrapped calls nested inside it.  Wrappers around ``CoarseContext.fold`` and
``sample_gamble`` also read the workload's properties off the values they
return.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Wrapped functions per module; ``Class.method`` names patch the class.
LAYERS = {
    "cli": ["main"],
    "rationals": ["parse_rational", "format_rational", "format_decimal"],
    "partitions": ["build_partition", "Partition.index_of", "Partition.cell_at",
                   "Partition.cell_of"],
    "representatives": ["rep_of_cell", "rep_of_value", "margin_pos"],
    "ops": ["CoarseContext.normalize", "CoarseContext.rep_add", "CoarseContext.cell_add",
            "CoarseContext.fold", "FoldTrace.to_json_lines", "FoldTrace.to_csv"],
    "inertness": ["detect_inert_stream", "detect_inert_trace", "first_absorbing_cell"],
    "stpetersburg": ["sample_gamble", "coarse_value", "compare_valuations"],
}

#: Methods whose calls are also split by the partition family they run on.
BY_FAMILY = {"partitions.index_of", "partitions.cell_at"}

FAMILIES = ("FixedWidth", "Fibonacci", "EpsilonGrowth", "ExplicitBounds", "SingletonGrid")


def layer_names():
    """Every ``<module>.<function>`` the tracer reports, family splits included."""
    names = []
    for module, functions in LAYERS.items():
        for qual in functions:
            name = f"{module}.{qual.rsplit('.', 1)[-1]}"
            names.append(name)
            if name in BY_FAMILY:
                names += [f"{name}.{family}" for family in FAMILIES]
    return names


class Tracer:
    """Calls, self time and workload-property counters of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._open = []            # one [nested wrapped time] per active wrapper
        self._detecting = 0        # depth of active detect_inert_stream calls
        self.fold_steps = self.absorbed = self.distinct_cells = self.max_cell = 0
        self.verdicts = self.verdict_steps = 0
        self.payoff_max_bits = 0

    def _record(self, name, seconds, family=None):
        self.calls[name] += 1
        self.self_s[name] += seconds
        if family is not None:
            self.calls[f"{name}.{family}"] += 1
            self.self_s[f"{name}.{family}"] += seconds

    def wrap(self, name, fn):
        by_family = name in BY_FAMILY
        observe = {"ops.fold": self._observe_fold,
                   "stpetersburg.sample_gamble": self._observe_payoffs}.get(name)
        detecting = name == "inertness.detect_inert_stream"

        def wrapper(*args, **kwargs):
            nested = [0.0]
            self._open.append(nested)
            self._detecting += detecting
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._detecting -= detecting
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
                family = type(args[0].spec).__name__ if by_family else None
                self._record(name, elapsed - nested[0], family)
            if observe is not None:
                observe(result)
            if detecting:
                self.verdicts += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_fold(self, trace):
        cells = [step.s_cell for step in trace]
        self.fold_steps += len(cells)
        self.absorbed += sum(step.absorbed for step in trace)
        self.distinct_cells += len(set(cells))
        self.max_cell = max(self.max_cell, max(cells))
        if self._detecting:
            self.verdict_steps += len(cells)

    def _observe_payoffs(self, payoffs):
        self.payoff_max_bits = max([self.payoff_max_bits] + [p.bit_length() for p in payoffs])

    def counters(self) -> dict:
        return {
            "ops.fold.steps": (self.fold_steps, "count"),
            "ops.fold.absorbed_share": (self.absorbed / self.fold_steps if self.fold_steps
                                        else 0.0, "ratio"),
            "ops.fold.distinct_cells": (self.distinct_cells, "count"),
            "ops.fold.max_cell": (self.max_cell, "index"),
            "inertness.steps_per_verdict": (self.verdict_steps / self.verdicts
                                            if self.verdicts else 0.0, "steps"),
            "stpetersburg.payoff_max_bits": (self.payoff_max_bits, "bits"),
        }


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers at every binding site; restore them on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "coarsesum" or name.startswith("coarsesum."))]
    patches = []
    try:
        for module, functions in LAYERS.items():
            home = sys.modules[f"coarsesum.{module}"]
            for qual in functions:
                name = f"{module}.{qual.rsplit('.', 1)[-1]}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    patches.append((owner, attr, original))
                    setattr(owner, attr, tracer.wrap(name, original))
                    continue
                original = getattr(home, qual)
                wrapper = tracer.wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            patches.append((m, attr, original))
                            setattr(m, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
