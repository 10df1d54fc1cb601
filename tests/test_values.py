"""The immutable value classes: equality, hashing, repr, pickling, and the import contract."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

import coarsesum
from coarsesum import (CoarseContext, Domain, EpsilonGrowth, ExplicitBounds, Fibonacci,
                       FixedWidth, FoldStep, FoldTrace, InertVerdict, Partition, Policy,
                       SingletonGrid, SpecError, build_partition)
from coarsesum.rationals import write_rows

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
    "context": (lambda: CoarseContext(FixedWidth(2), Policy.MIN),
                "CoarseContext(partition=FixedWidth(width=2), policy=<Policy.MIN: 'min'>)"),
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


def test_a_trace_is_the_tuple_of_its_steps():
    trace = CoarseContext(FixedWidth(2)).fold([1, 2, 2])
    assert type(trace) is FoldTrace and isinstance(trace, tuple)
    assert [type(step) for step in trace] == [FoldStep] * 3
    assert trace == tuple(trace) and hash(trace) == hash(tuple(trace))
    with pytest.raises(AttributeError):
        trace.steps = ()
    for clone in (pickle.loads(pickle.dumps(trace)), copy.copy(trace), copy.deepcopy(trace)):
        assert type(clone) is FoldTrace and clone == trace
    assert trace.to_json_lines() == write_rows(FoldStep._fields, trace, "json")
    assert trace.to_csv() == write_rows(FoldStep._fields, trace, "csv")


def test_distinct_values_and_classes_differ():
    assert FixedWidth(3) != FixedWidth(4)
    assert FixedWidth(3) != SingletonGrid(3)
    assert SingletonGrid(3) != FixedWidth(3)
    assert ExplicitBounds((0, 1)) != ExplicitBounds((0, 1), Domain.REALS)
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
    v = InertVerdict(n_stable=2)
    assert v == (2, None, None, None, False, None)
    assert pickle.loads(pickle.dumps(v)) == v


def test_cli_import_loads_every_module_and_not_dataclasses():
    # Every coarsesum module the benchmark's tracer names is registered by the CLI
    # import, because the tracer looks each one up in sys.modules right after it; the
    # family modules and the parser's builder are not, and dataclasses and inspect
    # stay out of start-up.
    code = ("import sys, coarsesum.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith(('coarsesum', 'dataclasses', 'inspect')))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["coarsesum"] + [
        f"coarsesum.{m}" for m in ("cli", "inertness", "ops", "partitions", "rationals",
                                   "representatives", "stpetersburg")]



def test_inertness_and_stpetersburg_run_only_when_a_command_reads_them(tmp_path):
    # registered lazily, a module is run at its first attribute read; until then its
    # dict holds none of its own names.  `partition` folds nothing, so it runs none of
    # the three; the fold kernel in ops runs for every command that folds.
    code = ("import sys, coarsesum.cli as cli\n"
            "def ran():  # a name each module defines, read without running the module\n"
            "    own = {'ops': 'FoldStep', 'inertness': 'harmonic',\n"
            "           'stpetersburg': 'coarse_value'}\n"
            "    return [m for m, name in own.items() if name in\n"
            "            object.__getattribute__(sys.modules['coarsesum.' + m], '__dict__')]\n"
            "print(ran())\n"
            f"for argv in (['partition', '--width', '3'], ['fold', '--width', '3', '--input', "
            f"{str(tmp_path / 'values.txt')!r}], ['inert', '--eps', '4', '--harmonic'],\n"
            "             ['stpete', '--eps', '10', '--depth', '3']):\n"
            "    cli.main(argv)\n"
            "    print(ran(), file=sys.stderr)\n")
    (tmp_path / "values.txt").write_text("1\n2\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stderr.splitlines() == [
        "[]", "['ops']", "['ops', 'inertness']", "['ops', 'inertness', 'stpetersburg']"]


def test_every_module_imports_and_every_public_name_resolves_in_a_fresh_interpreter():
    # Annotations are evaluated where they are written, so a name that only an
    # annotation reads must be imported: each module, each family's included, is
    # run afresh here, and each public name read.  Reading a fold record runs ops
    # alone, and the package serves the one CoarseContext of representatives.
    code = ("import importlib, pkgutil, sys, coarsesum\n"
            "records = coarsesum.FoldStep, coarsesum.FoldTrace\n"
            "own = {'ops': 'FoldStep', 'inertness': 'harmonic', 'stpetersburg': 'coarse_value'}\n"
            "print([m for m, name in own.items() if name in\n"
            "       object.__getattribute__(sys.modules['coarsesum.' + m], '__dict__')])\n"
            "for info in pkgutil.iter_modules(coarsesum.__path__):\n"
            "    importlib.import_module('coarsesum.' + info.name)\n"
            "    print(info.name)\n"
            "missing = [n for n in coarsesum.__all__ if getattr(coarsesum, n, None) is None]\n"
            "print('missing', missing)\n"
            "from coarsesum import ops, representatives\n"
            "print(coarsesum.CoarseContext is representatives.CoarseContext is ops.CoarseContext)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "['ops']"
    assert sorted(lines[1:-2]) == sorted(
        ["_epsilon_growth", "_explicit_bounds", "_fibonacci", "_fixed_width", "_rows",
         "_singleton_grid", "cli", "inertness", "ops", "partitions",
         "rationals", "representatives", "stpetersburg"])
    assert lines[-2:] == ["missing []", "True"]


#: The public names the package serves from its three lazily registered modules, and the
#: families, which ``partitions`` serves from a module of each family's own.
LAZY_NAMES = {
    "partitions": ["EpsilonGrowth", "ExplicitBounds", "Fibonacci", "FixedWidth", "SingletonGrid"],
    "ops": ["FoldStep", "FoldTrace"],
    "inertness": ["InertVerdict", "constant", "detect_inert_stream", "detect_inert_trace",
                  "first_absorbing_cell", "geometric", "harmonic"],
    "stpetersburg": ["INCREMENT_BOUND", "RNG_ALGORITHM", "ComparisonReport",
                     "ValuationReport", "coarse_value", "compare_valuations", "sample_gamble"],
}


def test_the_lazily_served_names_are_their_modules_objects_and_listed():
    served = set(coarsesum.__all__) - set(vars(coarsesum))
    assert served == {name for names in LAZY_NAMES.values() for name in names}
    for module, names in LAZY_NAMES.items():
        home = vars(getattr(coarsesum, module))
        assert all(getattr(coarsesum, name) is home[name] for name in names)
    assert set(coarsesum.__all__) <= set(dir(coarsesum))
    namespace = {}
    exec("from coarsesum import *", namespace)
    assert all(namespace[name] is getattr(coarsesum, name) for name in coarsesum.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        coarsesum.no_such_name


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
    "INCREMENT_BOUND", "InertVerdict", "OutOfRangeError",
    "Partition", "Policy", "RNG_ALGORITHM", "SingletonGrid", "SpecError", "ValuationReport",
    "__version__", "build_partition", "coarse_value", "compare_valuations", "constant",
    "detect_inert_stream", "detect_inert_trace", "first_absorbing_cell", "format_decimal",
    "format_rational", "geometric", "harmonic", "margin_pos",
    "parse_rational", "rep_of_cell", "rep_of_value", "sample_gamble",
]


def test_the_public_surface_is_these_names_and_each_resolves():
    assert len(PUBLIC_NAMES) == 38
    assert sorted(coarsesum.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(coarsesum, name), name
