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

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

from .errors import CoarseError
from .inertness import constant, detect_inert_stream, geometric, harmonic
from .ops import CoarseContext, FoldStep
from .partitions import Domain, EpsilonGrowth, ExplicitBounds, Fibonacci, FixedWidth, SingletonGrid
from .rationals import format_decimal, parse_rational, write_rows
from .representatives import Policy, margin_pos, rep_of_cell
from .stpetersburg import Gamble, coarse_value, compare_valuations


# --------------------------------------------------------------- shared flags

def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fibonacci", action="store_true",
                   help="integer cells sized 1, 1, 2, 3, 5, 8, ...")
    g.add_argument("--width", type=int, metavar="W",
                   help="integer cells of fixed width W")
    g.add_argument("--eps", metavar="P/Q",
                   help="real growth cells [0,1/2], then widths 2/eps, 3/eps, ...")
    g.add_argument("--bounds", metavar="B0,B1,...",
                   help="explicit cells cut at ascending boundaries")
    g.add_argument("--grid", metavar="STEP",
                   help="one-point cells at the nonnegative multiples of STEP")
    p.add_argument("--domain", choices=["int", "real"], default="int",
                   help="domain for --bounds (default: int)")
    p.add_argument("--rep", choices=["median", "min", "max"], default="median",
                   help="representative policy (default: median)")


def _count(text: str, least: int = 1) -> int:
    """An integer flag value of at least ``least`` (0 or 1); else a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = least - 1
    if n < least:
        kind = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
    return n


class _Parser(argparse.ArgumentParser):
    """A parser that reads a token starting with ``-`` and a digit or ``.`` as a value.

    argparse reads only tokens like ``-1`` and ``-.5`` as numbers, and takes ``-1/2`` or
    ``-4,1,2`` for an unknown option.  No option here starts so, and the subparsers are
    built as this class too, so either ``--geometric`` value may be ``-1/2``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")


def _partition_from_args(args):
    if args.fibonacci:
        return Fibonacci()
    if args.width is not None:
        return FixedWidth(args.width)
    if args.eps is not None:
        return EpsilonGrowth(parse_rational(args.eps))
    if args.grid is not None:
        return SingletonGrid(parse_rational(args.grid))
    bounds = tuple(parse_rational(b) for b in args.bounds.split(","))
    return ExplicitBounds(bounds, Domain(args.domain))


def _context_from_args(args) -> CoarseContext:
    return CoarseContext(_partition_from_args(args), Policy(args.rep))


# ------------------------------------------------------------------ rendering

def _verdict_text(v) -> str:
    if v.inert:
        kind = "certified" if v.certified else "observed"
        return (f"inert at cell {v.cell_index} from step {v.n_stable}, "
                f"value {format_decimal(v.fixed_value)} ({kind})")
    return f"no verdict after {v.horizon} steps"


# ---------------------------------------------------------------- subcommands

def cmd_partition(args) -> int:
    ctx = _context_from_args(args)
    last = min(args.cells, ctx.partition.max_index or args.cells)  # a finite layout ends early
    rows = [(c, rep := rep_of_cell(c, ctx.policy), margin_pos(c, ctx.policy), rep - c.lower)
            for c in map(ctx.partition.cell_at, range(1, last + 1))]
    if args.format == "table":
        head = "cell interval rep margin+ margin-".split()
        rows = [(c.index, str(c), *r) for c, *r in rows]
    else:
        head = "index lower upper lower_closed upper_closed rep margin_pos margin_neg".split()
        rows = [(c.index, c.lower, c.upper, c.lower_closed, c.upper_closed, *r) for c, *r in rows]
    print(write_rows(head, rows, args.format))
    return 0


def _read_values(path: str | None):
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    values, parsed = [], {}  # each distinct text is parsed once
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        value = parsed.get(stripped)
        if value is None:
            try:
                value = parsed[stripped] = parse_rational(stripped)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        values.append(value)
    if not values:
        raise ValueError("no numbers in input")
    return values


def cmd_fold(args) -> int:
    ctx = _context_from_args(args)
    trace = ctx.fold(_read_values(args.input))
    print(write_rows(FoldStep._fields, trace.steps, args.format))
    return 0


def cmd_inert(args) -> int:
    ctx = _context_from_args(args)
    horizon = args.horizon
    if args.const is not None:
        gen = constant(args.const)
    elif args.harmonic:
        gen = harmonic()
    elif args.geometric is not None:
        gen = geometric(*args.geometric)
    else:
        values = _read_values(args.from_file)
        horizon = min(horizon, len(values))
        gen = lambda t: values[t - 1]
    bound = None if args.bound is None else parse_rational(args.bound)
    verdict = detect_inert_stream(ctx, gen, horizon, increment_bound=bound)
    if args.format == "table":
        print(_verdict_text(verdict))
    else:
        import json
        print(json.dumps(verdict.to_json_dict()))
    return 0 if verdict.inert else 3


def _print_valuation_text(rep) -> None:
    print(f"doubling-gamble valuation  (eps = {format_decimal(rep.epsilon)}, "
          f"depth = {rep.depth})")
    print(f"  classical sum of expected increments : {format_decimal(rep.classical_sum)}")
    print(f"  absorbing cell (closed form)         : {rep.cell_from_formula}")
    print(f"  absorbing cell (margin scan)         : {rep.cell_from_scan}")
    print(f"  agreement                            : {'yes' if rep.agreement else 'no'}")
    print(f"  verdict                              : {_verdict_text(rep.verdict)}")


def cmd_stpete(args) -> int:
    eps = parse_rational(args.eps)
    if args.trials > 0:
        report = compare_valuations(eps, Gamble(args.truncation), args.trials,
                                    args.seed, depth=args.depth)
    else:
        report = coarse_value(eps, depth=args.depth)
    if args.format == "json":
        import json
        print(json.dumps(report.to_json_dict(), indent=2))
        return 0
    _print_valuation_text(report.valuation if args.trials > 0 else report)
    if args.trials > 0:
        print(f"  sampled payoffs: trials = {report.trials}, seed = {report.seed}, "
              f"rng = {report.rng_algorithm}, truncation depth = {report.truncation_depth}")
        print(f"    mean payoff      : {format_decimal(report.sampled_mean)}")
        print(f"    coarse final sum : {format_decimal(report.sampled_final)} "
              f"(cell {report.sampled_final_cell})")
        print(f"    verdict          : {_verdict_text(report.sampled_verdict)}")
        counts = "  ".join(f"{n}:{c}" for n, c in sorted(report.round_counts.items()))
        print(f"    round counts     : {counts}")
        print("  exact-addition control (singleton grid):")
        print(f"    verdict          : {_verdict_text(report.classical_verdict)}")
        print(f"    final sum        : {format_decimal(report.classical_final)}")
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coarsesum",
        description="Coarse partitions of the number line and absorption-based "
                    "coarse addition.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="print cells, representatives, and margins")
    _add_partition_flags(p)
    p.add_argument("--cells", type=_count, default=8, metavar="N",
                   help="how many cells to print (default: 8)")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("fold", help="coarsely fold numbers from a file or stdin")
    _add_partition_flags(p)
    p.add_argument("--input", metavar="PATH", default="-",
                   help="file of numbers, one per line ('-' for stdin; blank "
                        "lines and #-comments are ignored)")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("inert", help="judge a generated stream for inertness")
    _add_partition_flags(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--const", metavar="C", help="constant stream of C")
    g.add_argument("--harmonic", action="store_true", help="stream 1, 1/2, 1/3, ...")
    g.add_argument("--geometric", nargs=2, metavar=("COEF", "RATIO"),
                   help="stream COEF*RATIO**t for t = 1, 2, ...")
    g.add_argument("--from-file", metavar="PATH", help="read the stream from a file")
    p.add_argument("--horizon", type=_count, default=1000, metavar="N",
                   help="maximum steps to fold (default: 1000)")
    p.add_argument("--bound", metavar="B",
                   help="upper bound on the stream values; enables the certified "
                        "margin early exit")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_inert)

    p = sub.add_parser("stpete", help="value the doubling gamble coarsely")
    p.add_argument("--eps", required=True, metavar="P/Q", help="cell-growth rate")
    p.add_argument("--depth", type=_count, default=10_000, metavar="N",
                   help="length of the expected-increment stream (default: 10000)")
    p.add_argument("--trials", type=lambda text: _count(text, 0), default=0, metavar="N",
                   help="also draw N payoffs and fold them (default: 0, skip)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="sampling seed (default: 0)")
    p.add_argument("--truncation", type=_count, default=64, metavar="D",
                   help="gamble truncation depth for sampling (default: 64)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_stpete)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except BrokenPipeError:
        # end quietly, and send what is still buffered nowhere when Python exits
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CoarseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    # The process entry.  What the imports built lives to exit, so no collection need
    # walk it; main does not freeze, as its in-process callers would keep every later cycle.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
