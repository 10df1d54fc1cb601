"""``coarsesum fold``, ``partition``, ``inert`` and ``stpete`` checked against the executable
spec in ``model.py``: stdout and the exit code byte for byte, stderr only as empty or not."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import model
from coarsesum.cli import main

try:
    import numpy as np
except ImportError:
    np = None


@st.composite
def explicit_bounds(draw):
    """A layout of up to 10 cells, integer or real, cut at 0 with some of its cells below
    it, or starting about 0, and one cell at least above 0."""
    domain = draw(st.sampled_from(["int", "real"]))
    widths = st.integers(1, 8) if domain == "int" else st.builds(F, st.integers(1, 12),
                                                                 st.integers(1, 3))
    size = draw(st.integers(1, 10))   # a count drawn first, as a list's size runs short
    widths = draw(st.lists(widths, min_size=size, max_size=size))
    below = draw(st.integers(0, size - 1))   # cells below 0
    bounds = [-sum(widths[:below], F(0)) + (0 if below else draw(st.integers(-1, 1)))]
    for width in widths:
        bounds.append(bounds[-1] + width)
    return "bounds", bounds, domain


FORMATS = ["json", "csv", "table"]
POLICIES = st.sampled_from(["median", "min", "max"])
FAMILIES = st.one_of(
    st.integers(1, 6).map(lambda w: ("width", w)),
    st.just(("fibonacci",)),
    st.sampled_from([F(10), F(1, 3), F(5, 2), F(2)]).map(lambda e: ("eps", e)),
    explicit_bounds(),
    st.sampled_from([F(1, 2), F(1, 3), F(1), F(3, 4)]).map(lambda step: ("grid", step)),
)


def flags(family) -> list:
    kind, *args = family
    if kind == "fibonacci":
        return ["--fibonacci"]
    if kind == "bounds":
        return ["--bounds", ",".join(map(str, args[0])), "--domain", args[1]]
    return [f"--{kind}", str(args[0])]


def numbers(draw, family, tops=(2, 6, 30)):
    """A strategy of the family's values: on ``--bounds`` about 0, else from 0 up to one
    of ``tops``.  One draw in five may also give values a step lower, below the origin,
    or off the integers or the grid, which the family refuses."""
    kind, off = family[0], draw(st.integers(0, 4)) == 0
    if kind == "bounds":   # within the widest cell's width of 0, in the layout
        b, whole = family[1], model.integer(family)
        reach = math.ceil(max(hi - lo for lo, hi in zip(b, b[1:])))
        k = st.integers(max(-reach, math.ceil(b[0])) - off, min(reach, math.floor(b[-1]) - whole))
    else:
        k = st.integers(-off, draw(st.sampled_from(tops)))
    values = k.map(F) if kind != "grid" else k.map(lambda k: k * family[1])
    if off or not (model.integer(family) or kind == "grid"):
        values = st.one_of(values, st.builds(F, k, st.integers(2, 4)))
    return values


def file_lines(draw, values) -> list:
    """Each value as ``p/q`` or int text, padded or not, after up to two comments or blanks."""
    lines = []
    for v in values:
        lines += draw(st.lists(st.sampled_from(["", "   ", "# a comment", "#7", "  # 1/2"]),
                               max_size=2))
        m = draw(st.integers(1, 3))
        lines.append(draw(st.sampled_from([str(v), f"  {v} ",
                                           f"{v.numerator * m}/{v.denominator * m}"])))
    return lines


@st.composite
def fold_cases(draw):
    """A family, a policy, a format, and the lines of a file (see :func:`numbers` and
    :func:`file_lines`).  On half of the ``--bounds`` files each value points the sum back
    toward 0, so sums go down and back up through the cells they left.  Half of the files
    end in a run of one line, so a pinned sum's rows end in a settled tail."""
    family = draw(FAMILIES)
    kind, values = family[0], numbers(draw, family)
    size = draw(st.integers(0, 20))   # a count drawn first, as a list's size runs short
    values = draw(st.lists(values, min_size=size, max_size=size))
    policy = draw(POLICIES)
    if kind == "bounds" and draw(st.booleans()):   # each value points the sum back to 0
        s, rep = None, lambda v: model.rep(family, policy, v)
        for i, v in enumerate(values):
            values[i] = v = -abs(v) if s is not None and s > 0 else abs(v)
            try:
                s = v if s is None else rep(rep(s) + rep(v))
            except model.Refused:
                break
    lines = file_lines(draw, values)
    if values and draw(st.booleans()):  # the last line repeats, as a settled stream's does
        lines += [lines[-1]] * draw(st.integers(1, 4))
    return family, policy, draw(st.sampled_from(FORMATS)), lines or ["# no numbers"]


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("model") / "values.txt"


def run(argv: list) -> tuple:
    """(exit code, stdout) of ``cli.main``, after checking that stderr holds text exactly
    when the command fails, with exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert bool(err.getvalue()) is (code == 1), " ".join(argv)
    return code, out.getvalue()


@settings(max_examples=300)
@given(case=fold_cases())
@example(case=(("eps", F(10)), "median", "table", ["1/2"] * 3))  # a settled table's tail
@example(case=(("fibonacci",), "median", "json", ["0", "1", "1"]))  # a sum that moves at step 3
@example(case=(("fibonacci",), "median", "json", ["6", "2", "2"]))  # a sum that moves, then stays
def test_fold_prints_what_the_model_prints(case, input_path):
    family, policy, fmt, lines = case
    input_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    argv = ["fold", *flags(family), "--rep", policy, "--input", str(input_path), "--format", fmt]
    assert run(argv) == model.fold_command(family, policy, lines, fmt), " ".join(argv)


@settings(max_examples=200)
@given(family=FAMILIES, policy=POLICIES, n=st.integers(1, 40), fmt=st.sampled_from(FORMATS))
def test_partition_prints_what_the_model_prints(family, policy, n, fmt):
    argv = ["partition", *flags(family), "--rep", policy, "--cells", str(n), "--format", fmt]
    assert run(argv) == model.partition_command(family, policy, n, fmt), " ".join(argv)


#: Ratios of ``--geometric``: constant, falling, alternating and rising streams.
RATIOS = [F(0), F(1), F(1, 2), F(2, 3), F(1, 10), F(-1, 2), F(-1), F(3, 2), F(2)]


@st.composite
def inert_cases(draw):
    """A family, a policy, a format, a horizon up to 60, and a stream: a constant, the
    harmonic stream, a geometric one, whose horizon is cut to keep its values within 64,
    or a file (see :func:`file_lines`), which may hold a line that is not a number after
    its values; then no bound, the largest value in the window, or another value."""
    family, policy, fmt = draw(FAMILIES), draw(POLICIES), draw(st.sampled_from(["json", "table"]))
    horizon, values = draw(st.integers(1, 60)), numbers(draw, family, tops=(1, 2, 6))
    kind = draw(st.sampled_from(["const", "harmonic", "geometric", "file"]))
    if kind == "const":
        source = kind, draw(values)
    elif kind == "geometric":
        source = kind, draw(values), draw(st.sampled_from(RATIOS))
        while horizon > 1 and abs(source[1] * source[2] ** horizon) > 64:
            horizon -= 1
    elif kind == "file":  # half of the files end in a run of their largest value
        file = draw(st.lists(values, max_size=80))
        file += [max(file)] * draw(st.integers(1, 40)) if file and draw(st.booleans()) else []
        source = kind, file_lines(draw, file) + draw(st.sampled_from([[], [], ["x"]]))
    else:
        source = (kind,)
    bound = draw(st.sampled_from([None, "top", "top", "other"]))  # "top" half of the time
    if bound == "top":
        try:
            bound = max(model.stream(source, horizon))
        except model.Refused:
            bound = None
    elif bound == "other":
        bound = draw(values)
    return family, policy, fmt, source, horizon, bound


@settings(max_examples=300)
@given(case=inert_cases())
@example(case=(("eps", F(10)), "median", "json", ("const", F(1, 2)), 1000, F(1, 2)))
@example(case=(("eps", F(10)), "median", "table", ("harmonic",), 60, F(1)))
@example(case=(("eps", F(1, 3)), "median", "json", ("file", ["2", "2", "1", "2"]), 9, F(2)))
@example(case=(("eps", F(1, 3)), "median", "table", ("geometric", F(1, 4), F(3, 2)), 5, F(2)))
def test_inert_prints_what_the_model_prints(case, input_path):
    family, policy, fmt, source, horizon, bound = case
    kind, *args = source
    if kind == "file":
        input_path.write_text("".join(line + "\n" for line in args[0]), encoding="utf-8")
        args = [input_path]
    argv = ["inert", *flags(family), "--rep", policy, f"--{kind.replace('file', 'from-file')}",
            *map(str, args), "--horizon", str(horizon), "--format", fmt]
    argv += [] if bound is None else ["--bound", str(bound)]
    assert run(argv) == model.inert_command(family, policy, source, horizon, bound, fmt), \
        " ".join(argv)


@pytest.mark.skipif(np is None, reason="numpy is not installed")  # the key is SeedSequence's
@settings(max_examples=200)
@given(eps=st.builds(F, st.integers(1, 12), st.integers(1, 3)), depth=st.integers(1, 40),
       trials=st.integers(0, 12), seed=st.integers(0, 2**40), truncation=st.integers(1, 8),
       fmt=st.sampled_from(["table", "json"]))
@example(eps=F(10), depth=5, trials=8, seed=1, truncation=6, fmt="json")  # two Philox blocks
def test_stpete_prints_what_the_model_prints(eps, depth, trials, seed, truncation, fmt):
    key = tuple(map(int, np.random.SeedSequence(seed).generate_state(2, np.uint64)))
    argv = ["stpete", "--eps", str(eps), "--depth", str(depth), "--trials", str(trials),
            "--seed", str(seed), "--truncation", str(truncation), "--format", fmt]
    assert run(argv) == model.stpete_command(eps, depth, trials, seed, truncation, fmt, key), \
        " ".join(argv)
