"""Command line entry point.

Exit codes: 0 success, 1 a verification check failed, 2 usage or parse
error, 3 shape violation in an input matrix.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import grassmann, matrixio, uea, verify
from .matrixio import MatrixParseError
from .pfaffian import (
    AntiAlternatingMatrix,
    ShapeError,
    pfaffian,
    pfaffian_of_anti_alternating,
)
from .rings import PolyParseError, parse_rational
from .uea import HighestWeight
from .verify import BoundExceededError

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfaffkit",
        description="Exact Pfaffian toolkit: minor summation formulae, "
                    "their enveloping-algebra analogue, and 2-form calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pf = sub.add_parser("pfaffian", help="Pfaffian of a matrix read from a file")
    p_pf.add_argument("file", help="matrix file (full alternating or colored blocks)")
    p_pf.add_argument("--ring", choices=("poly", "rational"), default="poly",
                      help="entry ring (default: poly)")

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", choices=verify.SUITE_NAMES, default="all")
    p_ver.add_argument("--n", type=int, default=None, help="restrict to one rank")
    p_ver.add_argument("--pq", type=int, nargs=2, metavar=("P", "Q"), default=None,
                       help="restrict the msf suite to one coloring")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized batteries (default: 0)")
    p_ver.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    p_ver.add_argument("--force", action="store_true",
                       help="lift the default size bounds")

    p_eig = sub.add_parser("eigenvalue", help="central element eigenvalue on a highest weight")
    p_eig.add_argument("--n", type=int, required=True)
    p_eig.add_argument("--lambda", dest="lam", default=None,
                       help="comma separated weight, e.g. '3,1'")
    p_eig.add_argument("--symbolic", action="store_true",
                       help="leave the weight as indeterminates lam[i]")
    p_eig.add_argument("--via", choices=("pfaffian", "product", "both"), default="product")
    p_eig.add_argument("--force", action="store_true",
                       help="lift the default size bound of --via pfaffian|both")

    p_forms = sub.add_parser("forms", help="print the canonical 2-forms")
    p_forms.add_argument("--mode", choices=("uea", "commutative"), default="uea")
    p_forms.add_argument("--n", type=int, default=None)
    p_forms.add_argument("--pq", type=int, nargs=2, metavar=("P", "Q"), default=None)
    return parser


def cmd_pfaffian(args) -> int:
    X = matrixio.load_path(args.file, ring=args.ring)
    if isinstance(X, AntiAlternatingMatrix):
        print(pfaffian_of_anti_alternating(X))
    else:
        print(pfaffian(X))
    return 0


def cmd_verify(args) -> int:
    pq = tuple(args.pq) if args.pq is not None else None
    report = verify.run_suite(args.suite, n=args.n, pq=pq, seed=args.seed, force=args.force)
    if args.fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def cmd_eigenvalue(args) -> int:
    if args.symbolic == (args.lam is not None):
        print("eigenvalue: give exactly one of --lambda or --symbolic", file=sys.stderr)
        return 2
    verify.check_n_bound(args.n, args.force or args.via == "product")
    if args.symbolic:
        weight = HighestWeight.symbolic(args.n)
    else:
        try:
            values = [parse_rational(part) for part in args.lam.split(",")]
        except PolyParseError:
            print(f"eigenvalue: cannot parse weight {args.lam!r}", file=sys.stderr)
            return 2
        if len(values) != args.n:
            print(f"eigenvalue: weight has {len(values)} parts, expected {args.n}", file=sys.stderr)
            return 2
        weight = HighestWeight.numeric(values)

    def via_product():
        if args.symbolic:
            return uea.eigenvalue_factored_str(weight)
        return uea.eigenvalue_product(weight)

    def via_pfaffian():
        z = uea.nc_minor_summation_rhs(args.n)  # z by the paper's formula
        return uea.hc_coefficient(z, weight)

    if args.via == "product":
        print(via_product())
        return 0
    if args.via == "pfaffian":
        print(via_pfaffian())
        return 0
    left = via_pfaffian()
    right = via_product()
    agree = left == uea.eigenvalue_product(weight)
    print(f"{left} = {right}")
    if not agree:
        print("eigenvalue: routes disagree", file=sys.stderr)
        return 1
    return 0


def cmd_forms(args) -> int:
    verify.check_n_bound(args.n, force=True)  # forms has no size bound, only 1 <= n <= uea.MAX_INDEX
    if args.mode == "uea":
        if args.n is None:
            print("forms: --mode uea needs --n", file=sys.stderr)
            return 2
        if args.pq is not None:
            print("forms: --mode uea takes --n, not --pq", file=sys.stderr)
            return 2
        forms = grassmann.build_forms("uea", n=args.n)
    else:
        if args.pq is not None and args.n is not None:
            print("forms: give --n or --pq, not both", file=sys.stderr)
            return 2
        if args.pq is not None:
            p, q = args.pq
            verify.check_coloring(p, q)
        elif args.n is not None:
            p = q = args.n
        else:
            print("forms: --mode commutative needs --pq or --n", file=sys.stderr)
            return 2
        forms = grassmann.build_forms("commutative", p=p, q=q)
    for label, form in (("omega", forms.omega), ("xi", forms.xi),
                        ("theta", forms.theta), ("theta'", forms.theta_prime)):
        print(f"{label} = {form}")
    print(f"tau = {forms.tau}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "pfaffian":
            return cmd_pfaffian(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "eigenvalue":
            return cmd_eigenvalue(args)
        if args.command == "forms":
            return cmd_forms(args)
    except BoundExceededError as exc:
        print(f"pfaffkit: {exc}", file=sys.stderr)
        return 2
    except (MatrixParseError, PolyParseError) as exc:
        print(f"pfaffkit: parse error: {exc}", file=sys.stderr)
        return 2
    except ShapeError as exc:
        print(f"pfaffkit: shape violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # missing file, a directory, no permission
        print(f"pfaffkit: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"pfaffkit: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
