"""Named verification suites behind the CLI.

Each suite runs a fixed set of exact identity checks and returns a
VerificationReport; checks are listed sorted by id so the output is
deterministic no matter how they were scheduled.
"""

from __future__ import annotations

import random
import time
from functools import cache
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from . import grassmann, uea
from .linalg import anti_identity
from .pfaffian import (
    AlternatingMatrix,
    AntiAlternatingMatrix,
    complementary_minor_check,
    copfaffian_expansion_check,
    equivariance_check,
    pfaffian,
    pfaffian_definitional,
    pfaffian_of_anti_alternating,
    random_orthogonal_cayley,
    verify_minor_summation,
)
from .uea import Generator, HighestWeight, UEAElement

DEFAULT_UEA_BOUND = 3
# the permutation-sum oracle sums (2n)! products: about 0.2 s at n = 4, 90 times
# as many terms at n = 5
UNRESTRICTED_ORACLE_MAX = 4
DEFAULT_COMMUTATIVE_BOUND = 8
SUITE_NAMES = ("msf", "ncmsf", "central", "forms", "all")

# the intro example at n = 2, used as a golden value by suite and tests
INTRO_COMMUTATIVE_STR = "a[1,1]*a[2,2] - a[2,1]*a[1,2] + c[1,2]*b[1,2]"
INTRO_UEA_TERMS = {
    (Generator("a", 1, 1), Generator("a", 2, 2)): Fraction(1),
    (Generator("a", 2, 2),): Fraction(1),
    (Generator("a", 2, 1), Generator("a", 1, 2)): Fraction(-1),
    (Generator("c", 1, 2), Generator("b", 1, 2)): Fraction(1),
}

# a fixed non-split symmetric form for the equivariance battery
GENERIC_SYMMETRIC_S = ((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3))


class BoundExceededError(ValueError):
    """Raised when a requested size is over the configured bound."""

    def __init__(self, message: str):
        super().__init__(f"{message}; pass --force to lift the bound")


class CheckResult:
    """One check's outcome.  A skipped check was not run, `residual` says
    why; it neither passes nor fails the report."""

    __slots__ = ("check_id", "passed", "residual", "millis", "skipped")

    def __init__(self, check_id: str, passed: bool, residual: str, millis: float, skipped: bool = False):
        self.check_id = check_id
        self.passed = passed
        self.residual = residual
        self.millis = millis
        self.skipped = skipped

    @property
    def status(self) -> str:
        return "skip" if self.skipped else "pass" if self.passed else "fail"


class VerificationReport:
    """The checks of one suite run, in the order they ran."""

    __slots__ = ("suite", "checks")

    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[CheckResult] = []

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def sorted_checks(self) -> list[CheckResult]:
        return sorted(self.checks, key=lambda c: c.check_id)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "status": "pass" if self.passed else "fail",
            "checks": [
                {
                    "id": c.check_id,
                    "status": c.status,
                    "residual": c.residual,
                    "millis": round(c.millis, 3),
                }
                for c in self.sorted_checks()
            ],
        }

    def to_text(self) -> str:
        lines = []
        total = 0.0
        for c in self.sorted_checks():
            total += c.millis
            suffix = f"  [{c.residual}]" if c.residual else ""
            lines.append(f"{c.status.upper()} {c.check_id} ({c.millis:.1f} ms){suffix}")
        skipped = sum(c.skipped for c in self.checks)
        lines.append(
            f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"
            f" ({len(self.checks)} checks{f', {skipped} skipped' if skipped else ''}, {total / 1000:.2f} s)"
        )
        return "\n".join(lines)


def _run_check(report: VerificationReport, check_id: str, fn: Callable[[], tuple[bool, str] | bool]):
    t0 = time.perf_counter()
    try:
        outcome = fn()
    except Exception as exc:  # a crashed check is a failed check
        outcome = (False, f"{type(exc).__name__}: {exc}")
    millis = (time.perf_counter() - t0) * 1000
    if isinstance(outcome, tuple):
        passed, residual = outcome
    else:
        passed, residual = outcome, ""
    if passed and residual:
        residual = ""
    if not passed and not residual:
        residual = "identity failed"
    report.checks.append(CheckResult(check_id, passed, residual, millis))


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _coloring_pairs(totals: Iterable[int]) -> list[tuple[int, int]]:
    return [(p, tot - p) for tot in totals for p in range(1, tot)]


def msf_suite(pq: tuple[int, int] | None = None, seed: int = 0, force: bool = False) -> VerificationReport:
    """Commutative engine: minor summation identities plus the cofactor,
    complementary-minor and equivariance batteries."""
    report = VerificationReport("msf")
    if pq is not None:
        p, q = pq
        check_coloring(p, q)
        if p + q > DEFAULT_COMMUTATIVE_BOUND and not force:
            raise BoundExceededError(f"p + q = {p + q} exceeds the bound {DEFAULT_COMMUTATIVE_BOUND}")
        _run_check(report, f"msf:identity:p{p}q{q}", lambda: verify_minor_summation(p, q))
        return report

    totals = (2, 4, 6, 8) if force else (2, 4, 6)
    for p, q in _coloring_pairs(totals):
        _run_check(report, f"msf:identity:p{p}q{q}",
                   lambda p=p, q=q: verify_minor_summation(p, q))

    def route_agreement(p: int, q: int) -> bool:
        A = AntiAlternatingMatrix.generic(p, q).to_alternating()
        return pfaffian(A) == pfaffian_definitional(A)

    for p, q in _coloring_pairs((2, 4, 6)):
        _run_check(report, f"msf:route-agreement:p{p}q{q}",
                   lambda p=p, q=q: route_agreement(p, q))

    for size in (2, 4, 6):
        _run_check(report, f"msf:cofactor-expansion:symbolic-{size}",
                   lambda size=size: copfaffian_expansion_check(AlternatingMatrix.generic(size)))

    def random_expansion() -> tuple[bool, str]:
        rng = _rng(seed, "cofactor")
        for k in range(100):
            A = AlternatingMatrix.random_rational(8, rng)
            if not copfaffian_expansion_check(A):
                return False, f"matrix {k} failed"
        return True, ""

    _run_check(report, "msf:cofactor-expansion:random-8x8", random_expansion)

    def minor_relation() -> tuple[bool, str]:
        rng = _rng(seed, "minor-relation")
        for k in range(50):
            size = rng.choice([4, 6, 8])
            while True:
                A = AlternatingMatrix.random_rational(size, rng)
                if pfaffian(A) != 0:
                    break
            for m in range(0, size + 1, 2):
                for I in combinations(range(1, size + 1), m):
                    if not complementary_minor_check(A, I):
                        return False, f"matrix {k} failed at I={I}"
        return True, ""

    _run_check(report, "msf:minor-relation:random", minor_relation)

    def equivariance(S, tag: str) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            rng = _rng(seed, f"equivariance:{tag}")
            for k in range(50):
                g = random_orthogonal_cayley(S, rng)
                A = AlternatingMatrix.random_rational(len(S), rng)
                if not equivariance_check(A, g):
                    return False, f"g {k} failed"
            return True, ""

        return run

    _run_check(report, "msf:equivariance:J4", equivariance(anti_identity(4), "J4"))
    _run_check(report, "msf:equivariance:J6", equivariance(anti_identity(6), "J6"))
    _run_check(report, "msf:equivariance:S-generic", equivariance(GENERIC_SYMMETRIC_S, "S"))
    return report


def check_coloring(p: int, q: int):
    """Reject a coloring (p, q) that is not p, q >= 1 with p + q even."""
    if p < 1 or q < 1 or (p + q) % 2:
        raise ValueError(f"coloring ({p}, {q}) needs p, q >= 1 with p + q even")


def check_n_bound(n: int | None, force: bool, bound: int = DEFAULT_UEA_BOUND):
    """Reject a rank below 1 or past the largest generator index
    `uea.MAX_INDEX`, forced or not, and a rank above `bound` unless forced."""
    if n is None:
        return
    if n < 1:
        raise ValueError("--n must be at least 1")
    if n > uea.MAX_INDEX:
        raise ValueError(f"--n {n} exceeds the largest generator index {uea.MAX_INDEX}")
    if n > bound and not force:
        raise BoundExceededError(f"n = {n} exceeds the bound {bound}")


def _formula_z(n: int | None) -> dict[int, Callable[[], UEAElement]]:
    """Each rank's z (rank n, or 1 to the default bound) by the paper's
    formula, `nc_minor_summation_rhs`, built by the first check that reads
    it, so the build lands in that check's millis and a failing build
    fails checks, not the suite."""
    ns = (n,) if n is not None else range(1, DEFAULT_UEA_BOUND + 1)
    return {k: cache(lambda k=k: uea.nc_minor_summation_rhs(k)) for k in ns}


def ncmsf_suite(n: int | None = None, force: bool = False) -> VerificationReport:
    """Enveloping-algebra engine: the noncommutative minor summation.

    Each rank's z is built by the subset recursion `nc_pfaffian`, the
    definition, and compared with the formula's right side; both are
    built by the first check that reads them, as in `forms_suite`."""
    check_n_bound(n, force)
    return _ncmsf_checks(_formula_z(n))


def _ncmsf_checks(rhs: dict[int, Callable[[], UEAElement]]) -> VerificationReport:
    report = VerificationReport("ncmsf")
    for k, rhs_k in rhs.items():
        z = cache(lambda k=k: uea.nc_pfaffian(uea.build_canonical_x(k)))
        _run_check(report, f"ncmsf:identity:n{k}", lambda z=z, rhs_k=rhs_k: z() == rhs_k())
        if k <= UNRESTRICTED_ORACLE_MAX:
            _run_check(report, f"ncmsf:restricted-vs-unrestricted:n{k}",
                       lambda k=k, z=z: uea.nc_pfaffian_unrestricted(uea.build_canonical_x(k)) == z())
        else:
            report.checks.append(CheckResult(
                f"ncmsf:restricted-vs-unrestricted:n{k}", False,
                f"the (2n)!-term oracle runs only at n <= {UNRESTRICTED_ORACLE_MAX}", 0.0, skipped=True))
        _run_check(report, f"ncmsf:symbol:n{k}",
                   lambda k=k, z=z: z().abelianized().homogeneous_part(k)
                   == pfaffian_of_anti_alternating(AntiAlternatingMatrix.generic(k, k)))
        if k == 2:
            _run_check(report, "ncmsf:intro:commutative-print",
                       lambda: (str(pfaffian_of_anti_alternating(AntiAlternatingMatrix.generic(2, 2)))
                                == INTRO_COMMUTATIVE_STR,
                                "printed form differs"))
            _run_check(report, "ncmsf:intro:uea-basis",
                       lambda z=z: (z().terms == INTRO_UEA_TERMS, "PBW terms differ"))
    return report


def central_suite(n: int | None = None, force: bool = False) -> VerificationReport:
    """Centrality of the Pfaffian and its highest-weight eigenvalue, with
    each rank's z read from the formula's right side."""
    check_n_bound(n, force)
    return _central_checks(_formula_z(n))


def _central_checks(rhs: dict[int, Callable[[], UEAElement]]) -> VerificationReport:
    report = VerificationReport("central")
    for k, z in rhs.items():
        def commutant(k=k, z=z) -> tuple[bool, str]:
            failures = uea.centrality_failures(z(), k)
            return (not failures, ", ".join(g.name for g in failures))

        _run_check(report, f"central:commutant:n{k}", commutant)
        _run_check(report, f"central:eigenvalue:n{k}",
                   lambda k=k, z=z: uea.hc_coefficient(z(), HighestWeight.symbolic(k))
                   == uea.eigenvalue_product(HighestWeight.symbolic(k)))
        if k == 2:
            _run_check(report, "central:eigenvalue:spot-n2",
                       lambda z=z: uea.hc_coefficient(z(), HighestWeight.numeric([3, 1])) == Fraction(4))
    return report


def _u_points(n: int) -> list[Fraction]:
    us = [Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    extra = 3
    while len(us) < n + 2:
        us.append(Fraction(extra))
        extra += 1
    return us


def forms_suite(n: int | None = None, force: bool = False) -> VerificationReport:
    """Exterior-calculus checks in both coefficient modes.

    Each rank's `Forms` is built by the first check that asks for it, so
    the build time lands in that check's millis; the later checks of the
    rank reuse it.  Above the enveloping-algebra bound the uea-mode checks
    run only with `force`; without it each is reported as skipped."""
    check_n_bound(n, force, bound=4)
    return _forms_checks(n, force, _formula_z(n))


def _forms_checks(n: int | None, force: bool, rhs: dict[int, Callable[[], UEAElement]]) -> VerificationReport:
    """The forms suite, with uea-mode checks at each rank k of `rhs`; the
    uea top route compares Omega^k's top coefficient with `rhs[k]()`, as
    `grassmann.check_top_form_route` does."""
    report = VerificationReport("forms")
    comm_ns = (n,) if n is not None else (1, 2, 3, 4)
    for k, rhs_k in rhs.items():
        f = cache(lambda k=k: grassmann.build_forms("uea", n=k))
        us = _u_points(k)
        checks = {
            f"forms:structure:uea-n{k}": lambda f=f: grassmann.check_structure(f()),
            f"forms:sl2:n{k}": lambda k=k, f=f: grassmann.check_sl2(k, forms=f()),
            f"forms:xi-power:n{k}": lambda k=k, f=f, us=us: all(
                grassmann.check_xi_power_formula(k, u, r, forms=f()) for r in range(k + 1) for u in us),
            f"forms:eta:n{k}":
                lambda k=k, f=f, us=us: all(grassmann.check_eta_anticommute(k, u, forms=f()) for u in us),
            f"forms:theta-powers:uea-n{k}": lambda k=k, f=f: all(
                grassmann.check_theta_powers(k, s, t, forms=f()) for s in range(k + 1) for t in range(k + 1)),
            f"forms:trinomial:uea-n{k}":
                lambda k=k, f=f: all(grassmann.check_trinomial(k, m, forms=f()) for m in range(k + 1)),
            f"forms:top-route:uea-n{k}":
                lambda f=f, rhs_k=rhs_k: grassmann.pfaffian_from_top_form(f()) == rhs_k(),
        }
        for check_id, fn in checks.items():
            if k <= DEFAULT_UEA_BOUND or force:
                _run_check(report, check_id, fn)
            else:
                why = f"uea-mode forms run only at n <= {DEFAULT_UEA_BOUND} without --force"
                report.checks.append(CheckResult(check_id, False, why, 0.0, skipped=True))
    comm_forms = {}  # by coloring, so the square top routes reuse the forms and their powers
    for k in comm_ns:
        f = comm_forms[(k, k)] = cache(lambda k=k: grassmann.build_forms("commutative", p=k, q=k))
        _run_check(report, f"forms:structure:comm-n{k}", lambda f=f: grassmann.check_structure(f()))
        _run_check(report, f"forms:theta-powers:comm-n{k}",
                   lambda k=k, f=f: all(grassmann.check_theta_powers(k, s, t, mode="commutative", forms=f())
                                        for s in range(k + 1) for t in range(k + 1)))
        _run_check(report, f"forms:trinomial:comm-n{k}",
                   lambda k=k, f=f: all(grassmann.check_trinomial(k, m, mode="commutative", forms=f())
                                        for m in range(k + 1)))
    pairs = _coloring_pairs((2, 4, 6)) if n is None else [(p, 2 * n - p) for p in range(1, 2 * n)]
    for p, q in pairs:
        f = comm_forms.get((p, q))
        _run_check(report, f"forms:top-route:comm-p{p}q{q}",
                   lambda p=p, q=q, f=f: grassmann.check_top_form_route("commutative", p=p, q=q,
                                                                        forms=f() if f else None))
    return report


def run_suite(name: str, n: int | None = None, pq: tuple[int, int] | None = None,
              seed: int = 0, force: bool = False) -> VerificationReport:
    """Run one named suite; an option the suite would ignore is an error."""
    if name == "msf" and n is not None:
        raise ValueError("--n does not apply to the msf suite; use --pq")
    if name in ("ncmsf", "central", "forms") and pq is not None:
        raise ValueError(f"--pq does not apply to the {name} suite; use --n")
    if name == "msf":
        return msf_suite(pq=pq, seed=seed, force=force)
    if name == "ncmsf":
        return ncmsf_suite(n=n, force=force)
    if name == "central":
        return central_suite(n=n, force=force)
    if name == "forms":
        return forms_suite(n=n, force=force)
    if name == "all":
        check_n_bound(n, force)  # before the long msf suite, not after it
        combined = VerificationReport("all")
        combined.checks.extend(msf_suite(pq=pq, seed=seed, force=force).checks)
        rhs = _formula_z(n)  # one right side per rank, for ncmsf:identity, central and the uea top route
        combined.checks.extend(_ncmsf_checks(rhs).checks)
        combined.checks.extend(_central_checks(rhs).checks)
        combined.checks.extend(_forms_checks(n, force, rhs).checks)
        return combined
    raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
