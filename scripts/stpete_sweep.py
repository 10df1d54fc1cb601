#!/usr/bin/env python3
"""Sweep the cell-growth rate and tabulate the gamble's absorbing cell.

For each eps the expected-increment stream of the doubling gamble (one exact
1/2 per round) is valued on the EpsilonGrowth(eps) partition: the paper's
closed-form absorbing cell floor(eps/2) + 1 is printed next to its strict
margin scan and the representative of the scanned cell, so the table doubles
as a regression sweep for their agreement.  Below eps = 2 the two differ, and
the row says NO.  The sums never pass that cell, but it is not where they
settle: the last column is the certified value of the fold itself, which pins
at 1/4, in cell 1, from step 2, for every eps.  Optionally draws payoffs and
folds them for comparison.

Usage:
    python3 scripts/stpete_sweep.py
    python3 scripts/stpete_sweep.py --eps-from 2 --eps-to 40 --step 2 --trials 100000
"""

import argparse
from fractions import Fraction

from coarsesum import (EpsilonGrowth, coarse_value, compare_valuations, format_decimal,
                       parse_rational, rep_of_cell)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps-from", default="2", help="first eps (default: 2)")
    ap.add_argument("--eps-to", default="30", help="last eps (default: 30)")
    ap.add_argument("--step", default="1", help="eps step (default: 1)")
    ap.add_argument("--depth", type=int, default=10_000,
                    help="expected-increment stream length (default: 10000)")
    ap.add_argument("--trials", type=int, default=0,
                    help="also fold this many sampled payoffs per eps (default: off)")
    ap.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    args = ap.parse_args()

    lo = parse_rational(args.eps_from)
    hi = parse_rational(args.eps_to)
    step = parse_rational(args.step)
    if step <= 0 or lo <= 0:
        ap.error("need --step > 0 and --eps-from > 0")

    # formula, scan, agree and the strict cell's rep describe the paper's strict cell
    print(f"{'eps':>8}  {'formula':>7}  {'scan':>4}  {'agree':>5}  "
          f"{'strict cell rep':>15}  {'fold settles at':>15}  {'classical sum':>13}")
    eps = lo
    while eps <= hi:
        r = coarse_value(eps, depth=args.depth)
        strict = rep_of_cell(EpsilonGrowth(eps).cell_at(r.cell_from_scan))
        v = r.verdict
        settles = format_decimal(v.fixed_value) if v.certified else "-"
        print(f"{format_decimal(eps):>8}  {r.cell_from_formula:>7}  "
              f"{r.cell_from_scan:>4}  {'yes' if r.agreement else 'NO':>5}  "
              f"{format_decimal(strict):>15}  {settles:>15}  "
              f"{format_decimal(r.classical_sum):>13}")
        eps += step

    if args.trials > 0:
        print()
        print(f"sampled-payoff folds ({args.trials} trials, seed {args.seed}, "
              f"truncation depth 64):")
        eps = lo
        while eps <= hi:
            rep = compare_valuations(eps, 64, args.trials, args.seed, depth=args.depth)
            v = rep.sampled_verdict
            tail = (f"inert at cell {v.cell_index} from step {v.n_stable}"
                    if v.inert else f"no verdict (final cell {rep.sampled_final_cell})")
            print(f"  eps {format_decimal(eps):>8}: mean payoff "
                  f"{format_decimal(rep.sampled_mean):>10}, {tail}")
            eps += step


if __name__ == "__main__":
    main()
