"""Command-line interface.

Subcommands
-----------
partition   print the first cells of a partition, with representatives and margins
fold        coarsely fold numbers read from a file or stdin (one per line)
inert       judge a generated stream for inertness
stpete      value the doubling gamble's expected-increment stream

Exit codes: 0 success (including "inert" verdicts), 1 error, 2 usage,
3 no-verdict.  Output is deterministic: identical flags, input, and seed
produce byte-identical output.  Numbers parse as integers, ``p/q``, or exact
decimals; JSON output renders rationals as ``p/q`` strings, tables render
them as decimals.
"""

import gc
import os
import sys
from types import SimpleNamespace

# ops, inertness, stpetersburg and each family of partitions are compiled at their first read
from . import inertness, ops, partitions, stpetersburg
# format_decimal is unused here, but the tracer test in bench/tests checks its patch here
from .rationals import format_decimal, parse_rational, write_rows  # noqa: F401
from .representatives import CoarseContext, Policy, rep_of_cell


def _partition_from_args(args):
    # the families parse their own flag text, and their errors name the field
    if args.fibonacci:
        return partitions.Fibonacci()
    if args.width is not None:
        return partitions.FixedWidth(args.width)
    if args.eps is not None:
        return partitions.EpsilonGrowth(args.eps)
    if args.grid is not None:
        return partitions.SingletonGrid(args.grid)
    return partitions.ExplicitBounds(args.bounds.split(","), args.domain)


def _context_from_args(args) -> CoarseContext:
    return CoarseContext(_partition_from_args(args), Policy(args.rep))


# ---------------------------------------------------------------- subcommands

def cmd_partition(args) -> int:
    ctx = _context_from_args(args)
    last = min(args.cells, ctx.partition.max_index or args.cells)  # a finite layout ends early
    rows = [(c, rep := rep_of_cell(c, ctx.policy), c.upper - rep, rep - c.lower)
            for c in map(ctx.partition.cell_at, range(1, last + 1))]
    if args.format == "table":
        head = "cell interval rep margin+ margin-".split()
        rows = [(c.index, str(c), *r) for c, *r in rows]
    else:
        head = "index lower upper lower_closed upper_closed rep margin_pos margin_neg".split()
        rows = [(c.index, c.lower, c.upper, c.lower_closed, c.upper_closed, *r) for c, *r in rows]
    print(write_rows(head, rows, args.format))
    return 0


def _lines(path: str | None):
    """The lines of a file or stdin, read as they are asked for: each ends at \\n, \\r\\n or \\r."""
    if path in (None, "-"):
        try:
            sys.stdin.reconfigure(newline=None)  # as a file is opened
        except (AttributeError, ValueError):  # a stand-in stream, or one already read from
            pass
        yield from iter(sys.stdin.readline, "")  # ``yield from sys.stdin`` would close it
    else:
        with open(path, encoding="utf-8") as fh:
            yield from fh


def _read_values(path: str | None, limit: int | None = None):
    """The numbers of a file or stdin, one a line, read and parsed up to the first ``limit``."""
    values, parsed = [], {}  # each distinct text is parsed once
    for lineno, line in enumerate(_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":  # an index costs less than a method call
            continue
        value = parsed.get(stripped)
        if value is None:
            try:
                value = parsed[stripped] = parse_rational(stripped)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        values.append(value)
        if len(values) == limit:  # no later line is read: a malformed one there fails nothing
            break
    if not values:
        raise ValueError("no numbers in input")
    return values


def cmd_fold(args) -> int:
    ctx = _context_from_args(args)
    print(write_rows(ops.FoldStep._fields, ctx.fold(_read_values(args.input)), args.format))
    return 0


def cmd_inert(args) -> int:
    ctx = _context_from_args(args)
    horizon = args.horizon
    if args.const is not None:
        gen = inertness.constant(args.const)
    elif args.harmonic:
        gen = inertness.harmonic()
    elif args.geometric is not None:
        gen = inertness.geometric(*args.geometric)
    else:
        values = _read_values(args.from_file, horizon)  # the stream and its bound mark
        horizon = len(values)
        gen = lambda t: values[t - 1]
        if min(distinct := {id(v): v for v in values}.values()) >= 0:  # one object a text
            gen.bound = max(distinct)  # every value lies in [0, bound], in any order
    verdict = inertness.detect_inert_stream(ctx, gen, horizon, increment_bound=args.bound)
    print(verdict.to_text() if args.format == "table" else inertness._json(verdict.to_json_dict()))
    return 0 if verdict.inert else 3


def cmd_stpete(args) -> int:
    if args.trials > 0:
        report = stpetersburg.compare_valuations(args.eps, args.truncation, args.trials,
                                                 args.seed, depth=args.depth)
    else:
        report = stpetersburg.coarse_value(args.eps, depth=args.depth)
    print(inertness._json(report.to_json_dict(), 2) if args.format == "json" else report.to_text())
    return 0


# ---------------------------------------------------------------------- flags

def _count(text: str, least: int = 1) -> int:
    """An integer flag value of at least ``least`` (0 or 1); else a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = least - 1
    if n < least:
        import argparse
        kind = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
    return n


_FORMATS = ["table", "json", "csv"]
#: A partition's flags: (flag, exclusive group, ``add_argument`` keywords).  Exactly one
#: flag of a named group is required; a flag's dest is its name with ``_`` for ``-``.
_FAMILY = [
    ("--fibonacci", "family", dict(action="store_true",
                                   help="integer cells sized 1, 1, 2, 3, 5, 8, ...")),
    ("--width", "family", dict(metavar="W", help="integer cells of fixed width W")),
    ("--eps", "family", dict(metavar="P/Q",
                             help="real growth cells [0,1/2], then widths 2/eps, 3/eps, ...")),
    ("--bounds", "family", dict(metavar="B0,B1,...",
                                help="explicit cells cut at ascending boundaries")),
    ("--grid", "family", dict(metavar="STEP",
                              help="one-point cells at the nonnegative multiples of STEP")),
    ("--domain", None, dict(choices=["int", "real"], default="int",
                            help="domain for --bounds (default: int)")),
    ("--rep", None, dict(choices=["median", "min", "max"], default="median",
                         help="representative policy (default: median)"))]
#: Each subcommand's function, help and flags, in help order.
_COMMANDS = {
    "partition": (cmd_partition, "print cells, representatives, and margins", [*_FAMILY,
        ("--cells", None, dict(type=_count, default=8, metavar="N",
                               help="how many cells to print (default: 8)")),
        ("--format", None, dict(choices=_FORMATS, default="table"))]),
    "fold": (cmd_fold, "coarsely fold numbers from a file or stdin", [*_FAMILY,
        ("--input", None, dict(metavar="PATH", default="-", help="file of numbers, one per line "
                               "('-' for stdin; blank lines and #-comments are ignored)")),
        ("--format", None, dict(choices=_FORMATS, default="table"))]),
    "inert": (cmd_inert, "judge a generated stream for inertness", [*_FAMILY,
        ("--const", "stream", dict(metavar="C", help="constant stream of C")),
        ("--harmonic", "stream", dict(action="store_true", help="stream 1, 1/2, 1/3, ...")),
        ("--geometric", "stream", dict(nargs=2, metavar=("COEF", "RATIO"),
                                       help="stream COEF*RATIO**t for t = 1, 2, ...")),
        ("--from-file", "stream", dict(metavar="PATH", help="read the stream from a file")),
        ("--horizon", None, dict(type=_count, default=1000, metavar="N",
                                 help="maximum steps to fold (default: 1000)")),
        ("--bound", None, dict(metavar="B", help="upper bound on the stream values; "
                                                 "certifies a verdict that the fold proves")),
        ("--format", None, dict(choices=["json", "table"], default="json"))]),
    "stpete": (cmd_stpete, "value the doubling gamble coarsely", [
        ("--eps", None, dict(required=True, metavar="P/Q", help="cell-growth rate")),
        ("--depth", None, dict(type=_count, default=10_000, metavar="N",
                               help="length of the expected-increment stream (default: 10000)")),
        ("--trials", None, dict(type=lambda text: _count(text, 0), default=0, metavar="N",
                                help="also draw N payoffs and fold them (default: 0, skip)")),
        ("--seed", None, dict(type=int, default=0, metavar="S", help="sampling seed (default: 0)")),
        ("--truncation", None, dict(type=_count, default=64, metavar="D",
                                    help="gamble truncation depth for sampling (default: 64)")),
        ("--format", None, dict(choices=["table", "json"], default="table"))]),
}


# Both readers of argv must agree on what a value is: a token that starts with - is one
# only as - or before a digit or . (-1/2, -4,1,2, -.5).  argparse alone reads only tokens
# like -1 and -.5 so, and takes -1/2 or -4,1,2 for an unknown option; no flag here starts
# so, and build_parser gives each of its parsers this pattern.  _read_argv reads the
# second character, ASCII digits only, and leaves any other token to argparse.
_NEGATIVE_VALUE = r"-[\d.]"


def _read_argv(argv: list):
    """The namespace argparse makes of a well-formed ``argv``, or None to leave ``argv`` to it.

    Well formed is a subcommand, then its flags each once, as a switch or ``--flag`` and its
    values, each value passing its converter and choices, and one flag of each required group.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, flags = _COMMANDS[argv[0]]
    table = {flag: kw for flag, _, kw in flags}
    args = {flag[2:].replace("-", "_"): kw.get("default", False if "action" in kw else None)
            for flag, kw in table.items()}
    given, i = set(), 1
    while i < len(argv):
        flag, kw = argv[i], table.get(argv[i])
        if kw is None or flag in given:
            return None
        n = 0 if "action" in kw else kw.get("nargs", 1)
        values, i = argv[i + 1:i + 1 + n], i + 1 + n
        if len(values) < n or any(v[:1] == "-" and v[1:2] not in ".0123456789" for v in values):
            return None
        try:
            values = [kw.get("type", str)(v) for v in values]
        except Exception:  # int's ValueError or _count's usage error: argparse words it
            return None
        if any(v not in kw.get("choices", [v]) for v in values):
            return None
        given.add(flag)
        args[flag[2:].replace("-", "_")] = values if n > 1 else values[0] if n else True
    needed = [[f for f, g, _ in flags if g == group] for group in {g for _, g, _ in flags} - {None}]
    needed += [[f] for f, kw in table.items() if kw.get("required")]
    if any(len(given.intersection(members)) != 1 for members in needed):
        return None
    return SimpleNamespace(command=argv[0], func=func, **args)


def build_parser():
    """The argparse parser of every flag in ``_COMMANDS``, with its help and usage errors;
    argparse is imported here, so a well-formed command never imports it."""
    import argparse
    import re
    parser = argparse.ArgumentParser(prog="coarsesum", description="Coarse partitions of the "
                                     "number line and absorption-based coarse addition.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        p, groups = sub.add_parser(name, help=text), {}
        for flag, group, kw in flags:
            if group and group not in groups:
                groups[group] = p.add_mutually_exclusive_group(required=True)
            (groups[group] if group else p).add_argument(flag, **kw)
        p.set_defaults(func=func)
    for p in [parser, *sub.choices.values()]:
        p._negative_number_matcher = re.compile(_NEGATIVE_VALUE)
    return parser


def main(argv=None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except BrokenPipeError:
        # end quietly, and send what is still buffered nowhere when Python exits
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (partitions.CoarseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    # The process entry.  What a command builds holds no cycle and lives to exit, so the
    # collector is off; the import heap is frozen too, out of the one collection that ends
    # an exit through SystemExit (help, usage errors).  main does neither, for its in-process
    # callers.  Once main returns, its output is flushed and the process ends with no
    # teardown (nor atexit handlers); a SystemExit or an error out of main exits as usual.
    gc.freeze()
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
