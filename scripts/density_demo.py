#!/usr/bin/env python3
"""Evaluate the difference-of-noncentral-chi-square density on a grid and
cross-check each point against numerical inversion of the characteristic
function.

Usage:
    python3 scripts/density_demo.py [--r R] [--lambda1 L1] [--lambda2 L2]
                                    [--grid LO:HI:N]
"""

import argparse
import sys

from ncx2diff.density import cf_inversion_pdf, char_fn_diff, ncx2diff_pdf
from ncx2diff.errors import SingularPointError
from ncx2diff.params import ChiSqDiffParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", type=float, default=2.0)
    ap.add_argument("--lambda1", type=float, default=1.0)
    ap.add_argument("--lambda2", type=float, default=0.5)
    ap.add_argument("--grid", default="-4:4:17")
    args = ap.parse_args()

    lo, hi, n = args.grid.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    q = ChiSqDiffParams(args.r, args.lambda1, args.lambda2)
    cf = lambda t: char_fn_diff(t, q)

    print(f"r={q.r} lambda1={q.lambda1} lambda2={q.lambda2}")
    print(f"{'x':>8} {'series pdf':>16} {'cf inversion':>16} {'abs diff':>10}")
    worst = 0.0
    for i in range(n):
        x = lo + (hi - lo) * i / (n - 1) if n > 1 else lo
        try:
            a = ncx2diff_pdf(x, q)
        except SingularPointError:
            print(f"{x:>8.3f}   (the density diverges at 0 for r <= 1)")
            continue
        b = cf_inversion_pdf(x, cf)
        worst = max(worst, abs(a - b))
        print(f"{x:>8.3f} {a:>16.12f} {b:>16.12f} {abs(a - b):>10.2e}")
    print(f"\nworst |series - inversion| = {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
