#!/usr/bin/env python3
"""Tabulate the central Pfaffian's eigenvalue over a grid of dominant weights.

For each rank the element is built once, from the right side of the minor
summation formula; every weight is then evaluated both through the normally
ordered expansion and through the closed product form, and the table flags
any disagreement (none are expected).

Usage: python3 scripts/weight_table.py [--rank 2] [--max-part 4]
"""

import argparse
from fractions import Fraction
from itertools import product

from pfaffkit.uea import (
    HighestWeight,
    eigenvalue_factored_str,
    eigenvalue_product,
    hc_coefficient,
    nc_minor_summation_rhs,
)
from pfaffkit.verify import DEFAULT_UEA_BOUND


def dominant_weights(n: int, max_part: int):
    # weakly decreasing nonnegative integer tuples
    for parts in product(range(max_part, -1, -1), repeat=n):
        if all(parts[i] >= parts[i + 1] for i in range(n - 1)):
            yield parts


def run(n: int, max_part: int):
    z = nc_minor_summation_rhs(n)
    symbolic = eigenvalue_factored_str(HighestWeight.symbolic(n))
    print(f"rank {n}: eigenvalue = {symbolic}\n")
    print(f"{'weight':>16} {'expansion':>12} {'product':>12}")
    for parts in dominant_weights(n, max_part):
        w = HighestWeight.numeric([Fraction(x) for x in parts])
        via_z = hc_coefficient(z, w)
        via_prod = eigenvalue_product(w)
        marker = "" if via_z == via_prod else "   <- MISMATCH"
        print(f"{str(parts):>16} {str(via_z):>12} {str(via_prod):>12}{marker}")
        if via_z != via_prod:
            raise SystemExit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rank", type=int, default=2, choices=range(1, DEFAULT_UEA_BOUND + 1))
    ap.add_argument("--max-part", type=int, default=4)
    args = ap.parse_args()
    run(args.rank, args.max_part)


if __name__ == "__main__":
    main()
