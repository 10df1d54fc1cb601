#!/usr/bin/env python3
"""Watch a divergent series go inert under coarse folding.

The harmonic series 1 + 1/2 + 1/3 + ... diverges, yet folding it coarsely
over growth cells pins the partial sums after a couple of steps: every later
term collapses into the first cell's representative and is swallowed by the
running sum's margin.  This script prints the first coarse fold steps next to
the exact partial sums, then the verdicts at the full horizon.

Usage:
    python3 scripts/harmonic_demo.py
    python3 scripts/harmonic_demo.py --eps 10 --horizon 100000 --show 12
"""

import argparse
from fractions import Fraction

from coarsesum import (CoarseContext, EpsilonGrowth, detect_inert_stream,
                       format_decimal, harmonic, parse_rational)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", default="4", help="cell-growth rate (default: 4)")
    ap.add_argument("--horizon", type=int, default=10_000,
                    help="fold length (default: 10000)")
    ap.add_argument("--show", type=int, default=8,
                    help="steps to print in the side-by-side table (default: 8)")
    args = ap.parse_args()

    eps = parse_rational(args.eps)
    ctx = CoarseContext(EpsilonGrowth(eps))
    stream = harmonic()

    print(f"harmonic series on EpsilonGrowth({format_decimal(eps)}), "
          f"horizon {args.horizon}")
    print(f"{'t':>4}  {'x_t':>8}  {'coarse S_t':>10}  {'cell':>4}  {'exact S_t':>10}")
    trace = ctx.fold(stream(t) for t in range(1, args.show + 1))
    exact = Fraction(0)
    for step in trace:
        exact += step.x
        print(f"{step.n:>4}  {format_decimal(step.x):>8}  "
              f"{format_decimal(step.s):>10}  {step.s_cell:>4}  "
              f"{format_decimal(exact):>10}")

    verdict = detect_inert_stream(ctx, stream, horizon=args.horizon)
    exact_full = sum((Fraction(1, t) for t in range(1, args.horizon + 1)), Fraction(0))
    print()
    if verdict.inert:
        print(f"coarse fold:   inert from step {verdict.n_stable} at value "
              f"{format_decimal(verdict.fixed_value)} (cell {verdict.cell_index})")
    else:
        print(f"coarse fold:   no verdict after {verdict.horizon} steps")
    print(f"exact sum:     {format_decimal(exact_full)} at t = {args.horizon}, "
          "still climbing like log t")


if __name__ == "__main__":
    main()
