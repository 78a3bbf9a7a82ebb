#!/usr/bin/env python3
"""Show how the canonical 2-form's powers split into block Pfaffian sums.

Walks up the powers of omega = theta' + 2 xi + theta for one rank, printing
the trinomial split at each power and, at the top, the Pfaffian recovered
from the single surviving coefficient.

Usage: python3 scripts/form_expansion.py [--rank 2] [--mode uea]
"""

import argparse
from fractions import Fraction
from math import factorial

from pfaffkit.grassmann import build_forms, check_trinomial, pfaffian_from_top_form
from pfaffkit.pfaffian import pfaffian_of_anti_alternating
from pfaffkit.uea import nc_pfaffian


def run(n: int, mode: str):
    forms = build_forms(mode, n=n) if mode == "uea" else build_forms(mode, p=n, q=n)
    print(f"mode {mode}, rank {n}")
    print(f"omega = {forms.omega}\n")
    for m in range(n + 1):
        ok = check_trinomial(n, m, mode=mode, forms=forms)
        print(f"omega^{m}: trinomial split {'holds' if ok else 'FAILS'}")
        if not ok:
            raise SystemExit(1)

    top = forms.omega.power(n).top_coefficient()
    scale = Fraction(2**n * factorial(n))
    print(f"\ntop coefficient of omega^{n} = {top}")
    recovered = pfaffian_from_top_form(forms=forms)
    reference = nc_pfaffian(forms.source) if mode == "uea" else pfaffian_of_anti_alternating(forms.source)
    print(f"top / (2^{n} {n}!) = top / {scale} = {recovered}")
    print(f"matches the Pfaffian: {recovered == reference}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--mode", choices=("uea", "commutative"), default="uea")
    args = ap.parse_args()
    run(args.rank, args.mode)


if __name__ == "__main__":
    main()
