"""The immutable value classes: equality, hashing, repr, pickling, and the import contract."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

import coarsesum
from coarsesum import (CoarseContext, Domain, EpsilonGrowth, ExplicitBounds, Fibonacci,
                       FixedWidth, Gamble, InertVerdict, Outcome, Partition, Policy,
                       SingletonGrid, SpecError, build_partition)

# (factory, repr) for each class built on the frozen-value base; each factory
# gives a fresh, equal value on every call.  The reprs are the ones the
# dataclass versions of these classes printed.
VALUES = {
    "fixed_width": (lambda: FixedWidth(3), "FixedWidth(width=3)"),
    "fibonacci": (Fibonacci, "Fibonacci()"),
    "epsilon": (lambda: EpsilonGrowth(F(10)), "EpsilonGrowth(epsilon=Fraction(10, 1))"),
    "explicit_int": (lambda: ExplicitBounds((0, 2, 4)),
                     "ExplicitBounds(bounds=(Fraction(0, 1), Fraction(2, 1), Fraction(4, 1)), "
                     "domain=<Domain.INTEGERS: 'int'>)"),
    "explicit_real": (lambda: ExplicitBounds(("-1/2", 1), Domain.REALS),
                      "ExplicitBounds(bounds=(Fraction(-1, 2), Fraction(1, 1)), "
                      "domain=<Domain.REALS: 'real'>)"),
    "grid": (lambda: SingletonGrid("1/2"), "SingletonGrid(step=Fraction(1, 2))"),
    "cell_int": (lambda: FixedWidth(3).cell_at(2),
                 "Cell(index=2, lower=Fraction(3, 1), upper=Fraction(5, 1), lower_closed=True, "
                 "upper_closed=True, domain=<Domain.INTEGERS: 'int'>)"),
    "cell_real": (lambda: EpsilonGrowth(2).cell_at(2),
                  "Cell(index=2, lower=Fraction(1, 2), upper=Fraction(3, 2), lower_closed=False, "
                  "upper_closed=True, domain=<Domain.REALS: 'real'>)"),
    "gamble": (Gamble, "Gamble(truncation_depth=64)"),
    "context": (lambda: CoarseContext(FixedWidth(2), Policy.MIN),
                "CoarseContext(partition=FixedWidth(width=2), policy=<Policy.MIN: 'min'>)"),
    "trace": (lambda: CoarseContext(FixedWidth(2)).fold([1, 2]),
              "FoldTrace(steps=(FoldStep(n=1, x=Fraction(1, 1), x_cell=1, s=Fraction(1, 1), "
              "s_cell=1, absorbed=False), FoldStep(n=2, x=Fraction(2, 1), x_cell=2, "
              "s=Fraction(2, 1), s_cell=2, absorbed=False)))"),
}


@pytest.fixture(params=list(VALUES))
def value(request):
    return VALUES[request.param]


def test_equal_values_are_equal_and_hash_alike(value):
    make, _ = value
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_repr_is_unchanged(value):
    make, text = value
    assert repr(make()) == text


def test_fields_cannot_be_assigned_or_deleted(value):
    make, _ = value
    v = make()
    for name in (*v._fields, "anything"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(v, name, 1)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == make()


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy,
                                   copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_values_survive_pickle_and_copy(value, clone):
    make, text = value
    v = clone(make())
    assert v == make() and hash(v) == hash(make())
    assert repr(v) == text


def test_distinct_values_and_classes_differ():
    assert FixedWidth(3) != FixedWidth(4)
    assert FixedWidth(3) != SingletonGrid(3)
    assert SingletonGrid(3) != FixedWidth(3)
    assert ExplicitBounds((0, 1)) != ExplicitBounds((0, 1), Domain.REALS)
    assert Gamble(5) != Gamble(6)
    assert FixedWidth(3) != (3,)
    assert FixedWidth(3).cell_at(1) != FixedWidth(3).cell_at(2)
    assert CoarseContext(FixedWidth(3)) != CoarseContext(FixedWidth(3), Policy.MAX)
    assert CoarseContext(FixedWidth(3)) != (FixedWidth(3), Policy.MEDIAN_LOWER)


def test_fields_compare_after_parsing():
    assert FixedWidth("3") == FixedWidth(3)
    assert hash(FixedWidth("3")) == hash(FixedWidth(3))
    assert EpsilonGrowth("10") == EpsilonGrowth(F(10)) == EpsilonGrowth(10)
    assert ExplicitBounds(["0", "1/2", 1], "real") == ExplicitBounds((0, F(1, 2), 1), Domain.REALS)


def test_grown_fibonacci_keeps_its_cells_through_pickle_and_deepcopy():
    spec = Fibonacci()
    assert spec.index_of(10**6) == 29      # grows the cached starts
    grown = spec._starts
    assert len(grown) > 3
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert clone == spec == Fibonacci()
        assert clone._starts == grown
        assert [clone.cell_at(i) for i in (1, 2, 29)] == [spec.cell_at(i) for i in (1, 2, 29)]
    assert spec.span(60)[0] > 10**12                # and still grows
    assert copy.deepcopy(spec)._starts == spec._starts


def test_named_tuple_values():
    # these compare equal to plain tuples of their fields
    v = InertVerdict(Outcome.INERT, n_stable=2)
    assert v == (Outcome.INERT, 2, None, None, None, False, None)
    assert pickle.loads(pickle.dumps(v)) == v


def test_cli_import_loads_every_module_and_not_dataclasses():
    # Every coarsesum module is loaded by the CLI import, because the benchmark's
    # tracer looks each one up in sys.modules right after it; dataclasses and
    # inspect stay out of start-up.
    code = ("import sys, coarsesum.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith(('coarsesum', 'dataclasses', 'inspect')))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["coarsesum"] + [
        f"coarsesum.{m}" for m in ("cli", "errors", "inertness", "ops", "partitions",
                                   "rationals", "representatives", "stpetersburg")]


FAMILIES = [FixedWidth(3), Fibonacci(), EpsilonGrowth(F(10)), ExplicitBounds((0, 2, 4)),
            ExplicitBounds(("-1/2", 1), Domain.REALS), SingletonGrid("1/2")]


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_the_family_is_the_partition(family):
    assert isinstance(family, Partition)
    assert build_partition(family) is family
    assert family.spec is family                    # the tracer splits calls by it
    a = CoarseContext(family)
    b = CoarseContext(pickle.loads(pickle.dumps(family)))
    assert a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    assert a != CoarseContext(FixedWidth(7))


@pytest.mark.parametrize("other", [FixedWidth, "fixed_width", 3, None, {"kind": "fibonacci"}],
                         ids=repr)
def test_build_partition_refuses_what_is_not_a_family(other):
    with pytest.raises(SpecError) as exc:
        build_partition(other)
    assert str(exc.value) == f"unknown partition description: {other!r}"


#: Every public name of the package, sorted.
PUBLIC_NAMES = [
    "Cell", "CoarseContext", "CoarseError", "ComparisonReport", "Domain", "DomainError",
    "EpsilonGrowth", "ExplicitBounds", "Fibonacci", "FixedWidth", "FoldStep", "FoldTrace",
    "Gamble", "INCREMENT_BOUND", "InertVerdict", "OutOfRangeError", "Outcome",
    "Partition", "Policy", "RNG_ALGORITHM", "SingletonGrid", "SpecError", "ValuationReport",
    "__version__", "build_partition", "coarse_value", "compare_valuations", "constant",
    "detect_inert_stream", "detect_inert_trace", "first_absorbing_cell", "format_decimal",
    "format_rational", "geometric", "harmonic", "margin_pos",
    "parse_rational", "rep_of_cell", "rep_of_value", "sample_gamble",
]


def test_the_public_surface_is_these_names_and_each_resolves():
    assert len(PUBLIC_NAMES) == 40
    assert sorted(coarsesum.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(coarsesum, name), name
