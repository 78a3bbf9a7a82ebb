"""Acceptance gate: one criterion per test, one PASS/FAIL line each, exact equality throughout.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines as they go.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from pfaffkit.grassmann import (
    build_forms,
    check_eta_anticommute,
    check_sl2,
    check_theta_powers,
    check_top_form_route,
    check_trinomial,
    check_xi_power_formula,
    pfaffian_from_top_form,
)
from pfaffkit.linalg import anti_identity
from pfaffkit.pfaffian import (
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
from pfaffkit.uea import (
    HighestWeight,
    build_canonical_x,
    canonical_generators,
    centrality_failures,
    eigenvalue_product,
    hc_coefficient,
    nc_minor_summation_rhs,
    nc_pfaffian,
)
from pfaffkit.verify import GENERIC_SYMMETRIC_S, INTRO_COMMUTATIVE_STR, INTRO_UEA_TERMS


def report(criterion: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    return ok


def colorings(total: int):
    return [(p, total - p) for p in range(1, total)]


def test_criterion_1_minor_summation_identity():
    t0 = time.perf_counter()
    ok = all(verify_minor_summation(p, q) for tot in (2, 4, 6) for p, q in colorings(tot))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    t0 = time.perf_counter()
    ok8 = all(verify_minor_summation(p, q) for p, q in colorings(8))
    ok = ok and ok8 and (time.perf_counter() - t0) < 120.0
    assert report("criterion 1: minor summation identity, all colorings p+q in {2,4,6} "
                  "(<10s) and p+q=8 (<120s)", ok)


def test_criterion_2_intro_example():
    shown = str(pfaffian_of_anti_alternating(AntiAlternatingMatrix.generic(2, 2)))
    ok = shown == INTRO_COMMUTATIVE_STR
    z = nc_pfaffian(build_canonical_x(2))
    ok = ok and z.terms == INTRO_UEA_TERMS
    assert report("criterion 2: introductory example reproduced verbatim in both rings", ok)


def test_criterion_3_noncommutative_minor_summation():
    t0 = time.perf_counter()
    ok = all(nc_pfaffian(build_canonical_x(n)) == nc_minor_summation_rhs(n) for n in (1, 2, 3))
    ok = ok and (time.perf_counter() - t0) < 60.0
    assert report("criterion 3: noncommutative minor summation, n in {1,2,3} (<60s)", ok)


def test_criterion_4_centrality(all_generator_failures):
    ok = True
    for n in (1, 2, 3):
        z = nc_pfaffian(build_canonical_x(n))
        ok = ok and len(canonical_generators(n)) == n * (2 * n - 1)
        ok = ok and centrality_failures(z, n) == [] and all_generator_failures(z, n) == []
    assert report("criterion 4: Pfaffian commutes with every algebra generator, n in {1,2,3}", ok)


def test_criterion_5_eigenvalue():
    ok = True
    for n in (1, 2, 3):
        z = nc_pfaffian(build_canonical_x(n))
        w = HighestWeight.symbolic(n)
        ok = ok and hc_coefficient(z, w) == eigenvalue_product(w)
    z2 = nc_pfaffian(build_canonical_x(2))
    ok = ok and hc_coefficient(z2, HighestWeight.numeric([3, 1])) == Fraction(4)
    assert report("criterion 5: eigenvalue product formula, symbolic n in {1,2,3} "
                  "and the (3,1) spot value 4", ok)


def test_criterion_6_two_form_suite():
    t0 = time.perf_counter()
    us = [Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    ok = True
    for n in (1, 2, 3):
        f = build_forms("uea", n=n)
        ok = ok and check_sl2(n)
        ok = ok and all(check_xi_power_formula(n, u, r, forms=f) for r in range(n + 1) for u in us)
        ok = ok and all(check_eta_anticommute(n, u, forms=f) for u in us)
        ok = ok and all(check_theta_powers(n, s, t, forms=f)
                        for s in range(n + 1) for t in range(n + 1))
        ok = ok and all(check_trinomial(n, m, forms=f) for m in range(n + 1))
    for n in (1, 2, 3, 4):
        f = build_forms("commutative", p=n, q=n)
        ok = ok and all(check_theta_powers(n, s, t, mode="commutative", forms=f)
                        for s in range(n + 1) for t in range(n + 1))
        ok = ok and all(check_trinomial(n, m, mode="commutative", forms=f) for m in range(n + 1))
    ok = ok and (time.perf_counter() - t0) < 60.0
    assert report("criterion 6: 2-form identities (sl2, shifted xi powers, eta, theta powers, "
                  "trinomial) uea n<=3 and commutative n<=4 (<60s)", ok)


def test_criterion_7_route_consistency():
    ok = True
    for tot in (2, 4, 6):
        for p, q in colorings(tot):
            A = AntiAlternatingMatrix.generic(p, q).to_alternating()
            cofactor_route = pfaffian(A)
            ok = ok and cofactor_route == pfaffian_definitional(A)
            ok = ok and cofactor_route == pfaffian_from_top_form("commutative", p=p, q=q)
    for n in (1, 2, 3):
        ok = ok and check_top_form_route("uea", n=n)
    assert report("criterion 7: recursive, definitional and top-form routes agree "
                  "(commutative p+q<=6; enveloping n<=3)", ok)


def test_criterion_8_copfaffian_laws():
    ok = all(copfaffian_expansion_check(AlternatingMatrix.generic(size)) for size in (2, 4, 6))
    rng = random.Random(20260822)
    ok = ok and all(copfaffian_expansion_check(AlternatingMatrix.random_rational(8, rng))
                    for _ in range(100))
    rng = random.Random(822)
    for _ in range(50):
        size = rng.choice([4, 6, 8])
        while True:
            A = AlternatingMatrix.random_rational(size, rng)
            if pfaffian(A) != 0:
                break
        for m in range(0, size + 1, 2):
            ok = ok and all(complementary_minor_check(A, I)
                            for I in combinations(range(1, size + 1), m))
    assert report("criterion 8: copfaffian expansion (symbolic <=6, 100 random 8x8) and the "
                  "complementary minor relation (50 random invertible, all even index sets)", ok)


def test_criterion_9_equivariance():
    ok = True
    rng = random.Random(99)
    for S in (anti_identity(4), anti_identity(6), GENERIC_SYMMETRIC_S):
        n2 = len(S)
        for _ in range(50):
            g = random_orthogonal_cayley(S, rng)
            A = AlternatingMatrix.random_rational(n2, rng)
            ok = ok and equivariance_check(A, g)
    assert report("criterion 9: Pfaffian equivariance under 50 Cayley-generated isometries "
                  "for J4, J6 and a non-split symmetric form", ok)
