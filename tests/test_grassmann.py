"""Exterior algebra with module coefficients: canonical 2-forms and their identities."""

import gc
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from pfaffkit.grassmann import (
    Forms,
    GrassmannElement,
    _linear_combination,
    build_forms,
    check_eta_anticommute,
    check_sl2,
    check_structure,
    check_theta_powers,
    check_top_form_route,
    check_trinomial,
    check_xi_power_formula,
    eta,
    pfaffian_from_top_form,
    xi_shifted_power,
)
from pfaffkit.pfaffian import AntiAlternatingMatrix, pfaffian_of_anti_alternating
from pfaffkit.rings import Combination, Poly
from pfaffkit.uea import UEAElement, build_canonical_x, nc_pfaffian
from conftest import canonical_generators


def w(labels, coeff=Fraction(1), p=2, q=2):
    return GrassmannElement.from_words(p, q, [(labels, coeff)])


# --- the exterior algebra itself ---------------------------------------------


def test_generator_square_vanishes():
    for lab in (1, 2, -1, -2):
        assert not w([lab]) * w([lab])


def test_anticommutativity():
    assert w([1]) * w([2]) == -(w([2]) * w([1]))
    assert w([1]) * w([-2]) == -(w([-2]) * w([1]))


def test_word_normalization_sign():
    # e2 e1 = -e1 e2 regardless of construction order
    assert w([2, 1]) == -w([1, 2])
    assert w([2, 1], Fraction(-1)) == w([1, 2])


def test_repeated_label_word_is_zero():
    assert not w([1, 1])
    assert not w([1, 2, 1])


def test_product_associative():
    rng = random.Random(11)
    labels = [1, 2, -1, -2]
    for _ in range(40):
        xs = []
        for _ in range(3):
            e = GrassmannElement.zero(2, 2)
            for _ in range(rng.randint(1, 3)):
                word = rng.sample(labels, rng.randint(0, 2))
                e = e + w(word, Fraction(rng.randint(-3, 3)))
            xs.append(e)
        assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])


def test_top_coefficient():
    top = w([1, 2, -2, -1], Fraction(5))
    assert top.top_coefficient() == Fraction(5)
    # an absent top mask reads as the int 0, by the package's scalar rule
    absent = w([1]).top_coefficient()
    assert absent == 0 and type(absent) is int


def test_even_elements_commute():
    a = w([1, 2]) + w([1, -1], Fraction(2))
    b = w([2, -2]) + w([-2, -1], Fraction(-3))
    assert a * b == b * a
    assert not a.commutator(b)


def test_coefficients_ride_along():
    # module coefficients multiply on the left in the order the factors appear
    x = Poly.var("x")
    y = Poly.var("y")
    lhs = w([1], x) * w([2], y)
    assert lhs == w([1, 2], x * y)


# --- the fused product against a term-by-term reference ------------------------


def _slots(mask):
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def _inversion_sign(seq):
    return (-1) ** sum(x > y for k, x in enumerate(seq) for y in seq[k + 1:])


def reference_product(x, y):
    """Sum of sign * c1 * c2 over disjoint mask pairs, through the ring's own
    * and +, with the sign of sorting the concatenated slot lists."""
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            if m1 & m2:
                continue
            term = c1 * c2 * _inversion_sign(_slots(m1) + _slots(m2))
            out[m1 | m2] = out[m1 | m2] + term if m1 | m2 in out else term
    return {m: c for m, c in out.items() if c != 0}


def _random_uea(rng):
    gens = canonical_generators(2)
    total = UEAElement.zero()
    for _ in range(rng.randint(1, 3)):
        word = UEAElement.one()
        for _ in range(rng.randint(0, 2)):
            word = word * UEAElement.from_generator(rng.choice(gens))
        total = total + word.scale(rng.randint(-3, 3))
    return total


def _random_poly(rng):
    x, y = Poly.var("x"), Poly.var("y")
    return sum((Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * x**rng.randint(0, 2) * y**rng.randint(0, 1)
                for _ in range(rng.randint(1, 3))), Poly.zero())


def _random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_element(rng, p, q, coeff):
    terms = {rng.randrange(1 << (p + q)): coeff(rng) for _ in range(rng.randint(1, 6))}
    return GrassmannElement(p, q, terms)


@pytest.mark.parametrize("coeff", [_random_uea, _random_poly, _random_fraction], ids=["uea", "poly", "fraction"])
@pytest.mark.parametrize("pq", [(2, 2), (1, 3), (3, 1)], ids=["p2q2", "p1q3", "p3q1"])
def test_fused_product_matches_reference(coeff, pq):
    rng = random.Random(f"fused:{coeff.__name__}:{pq}")
    for _ in range(30):
        x, y = _random_element(rng, *pq, coeff), _random_element(rng, *pq, coeff)
        prod = x * y
        assert prod.terms == reference_product(x, y)
        assert (prod.p, prod.q) == pq
        for c in prod.terms.values():
            assert c != 0
            if isinstance(c, Combination):  # no zero inside a coefficient either
                assert all(v != 0 for v in c.terms.values())


def test_fused_product_drops_cancelled_masks():
    c = UEAElement.from_generator(canonical_generators(2)[0])
    x = GrassmannElement.from_words(2, 2, [([1], c), ([2], c)])
    assert (x * x).terms == {}  # c c e1 e2 + c c e2 e1 cancels on mask e1 e2
    y = GrassmannElement.from_words(2, 2, [([1], c), ([-1], UEAElement.one())])
    assert set((y * x).terms) == {0b0011, 0b1001, 0b1010}  # e1e2, e1e-1, e2e-1
    assert all((y * x).terms.values())


def test_fused_product_mixes_scalars_into_a_ring():
    # a scalar coefficient multiplies ring coefficients through the ring's product
    x = Poly.var("x")
    lhs = w([1], Fraction(3)) * w([2], x)
    assert lhs == w([1, 2], 3 * x)
    assert isinstance(lhs.terms[0b11], Poly)
    scalars = w([1], Fraction(1, 2)) * w([2], Fraction(4))
    assert scalars.terms == {0b11: 2} and type(scalars.terms[0b11]) is int


def test_product_rejects_mixed_colorings_and_rings():
    with pytest.raises(ValueError):
        w([1], 1) * w([1], 1, p=1, q=3)
    uea = w([1], UEAElement.one())
    poly = w([2], Poly.var("x"))
    with pytest.raises(TypeError):
        uea * poly


# --- memoised powers and falling products ----------------------------------------


@pytest.mark.parametrize("mode,n", [("uea", 2), ("uea", 3), ("commutative", 3)])
def test_memoised_powers_equal_binary_powers(mode, n):
    f = build_forms(mode, n=n)
    for form in (f.omega, f.theta, f.theta_prime, f.xi):
        # ask out of order, so later powers extend a memo that skipped ahead
        for m in (2, n + 1, 1, n):
            assert form.power(m) == form**m
        assert form.power(n) is form.power(n)
        assert form.power(0) == f.omega.power(0)


@pytest.mark.parametrize("coeff,one", [(Poly.var("x"), Poly.const(1)),
                                        (UEAElement.from_generator(canonical_generators(1)[0]), UEAElement.one()),
                                        (Fraction(3, 2), 1)],
                         ids=["poly", "uea", "scalar"])
def test_power_zero_is_the_rings_one(coeff, one):
    x = w([1, -1], coeff)
    assert x.power(0).terms == {0: one}
    assert type(x.power(0).terms[0]) is type(one)
    assert GrassmannElement.zero(2, 2).power(0).terms == {0: 1}
    assert x.power(0) * x == x == x * x.power(0)


def test_memoised_falling_product_equals_loop():
    for n in (3, 4):
        f = build_forms("uea", n=n)
        for u in (Fraction(-1), Fraction(1, 2), Fraction(2), 3, Fraction(-3, 2)):
            loops = [f.omega.power(0)]  # the direct left-to-right product, factor by factor
            for k in range(n + 1):
                loops.append(loops[-1] * (f.xi + f.tau.scale(Fraction(u) - k)))
            for r in (3, 0, 1, n + 1, 2, n):
                assert xi_shifted_power(f, u, r) == loops[r]
        assert set(f.tau_xi) == {(k, r - k) for r in range(n + 1) for k in range(r + 1)}


def test_linear_combination_adds_in_place():
    f = build_forms("uea", n=2)
    pairs = [(2, f.omega), (Fraction(-1, 2), f.xi), (-1, f.theta), (0, f.tau), (3, GrassmannElement.zero(2, 2))]
    expected = f.omega.scale(2) - f.xi.scale(Fraction(1, 2)) - f.theta
    assert _linear_combination(2, 2, pairs) == expected
    assert not _linear_combination(2, 2, [(1, f.xi), (-1, f.xi)]).terms  # cancelled masks leave
    assert not _linear_combination(2, 2, [])


def test_forms_from_separate_builds_share_no_memo():
    f1 = build_forms("uea", n=2)
    f1.omega.power(2)
    xi_shifted_power(f1, Fraction(1), 2)
    assert check_trinomial(2, 2, forms=f1)
    assert f1.tau_xi
    f2 = build_forms("uea", n=2)
    assert f2.tau_xi == {} and f2.tau_xi is not f1.tau_xi
    assert check_xi_power_formula(2, Fraction(1), 2, forms=f1) and f1.minor_dets
    assert f2.minor_dets == {} and f2.minor_dets is not f1.minor_dets
    assert check_theta_powers(2, 1, 1, forms=f1) and f1.block_pfs
    assert f2.block_pfs == {} and f2.block_pfs is not f1.block_pfs
    for name in ("omega", "xi", "theta", "theta_prime", "tau"):
        a, b = getattr(f1, name), getattr(f2, name)
        assert a is not b and a == b
        assert getattr(b, "_powers", None) is None
    assert f2.omega.power(2) is not f1.omega.power(2)


def test_memos_leave_no_cyclic_garbage():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        f = build_forms("uea", n=2)
        assert check_trinomial(2, 2, forms=f) and check_xi_power_formula(2, Fraction(1), 2, forms=f)
        assert check_top_form_route(forms=f)
        del f
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# --- canonical forms ----------------------------------------------------------


def test_forms_n1_goldens():
    f = build_forms("uea", n=1)
    assert str(f.omega) == "2*a[1,1] e[1]e[-1]"
    assert str(f.xi) == "a[1,1] e[1]e[-1]"
    assert not f.theta and not f.theta_prime
    assert str(f.tau) == "e[1]e[-1]"


def test_forms_theta_n2():
    f = build_forms("uea", n=2)
    assert str(f.theta) == "2*b[1,2] e[1]e[2]"


def test_omega_decomposition():
    for n in (1, 2, 3):
        f = build_forms("uea", n=n)
        assert f.omega == f.theta_prime + f.xi.scale(Fraction(2)) + f.theta


def test_build_forms_commutative_rectangular():
    f = build_forms("commutative", p=1, q=3)
    assert f.p == 1 and f.q == 3
    assert check_structure(f)


def test_build_forms_validation():
    with pytest.raises(ValueError):
        build_forms("uea")  # needs n
    with pytest.raises(ValueError):
        build_forms("commutative", p=1, q=2)  # odd total
    with pytest.raises(ValueError):
        build_forms("nope", n=1)


def test_structure_all_modes():
    for n in (1, 2, 3):
        assert check_structure(build_forms("uea", n=n))
    for p, q in ((1, 1), (2, 2), (1, 3), (3, 3), (2, 4)):
        assert check_structure(build_forms("commutative", p=p, q=q))


def test_sl2_relations():
    for n in (1, 2, 3):
        assert check_sl2(n, forms=build_forms("uea", n=n))


def test_omega_power_past_top_vanishes():
    for n in (1, 2):
        f = build_forms("uea", n=n)
        assert not f.omega.power(n + 1)


def test_xi_power_formula_sweep():
    us = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))
    for n in (1, 2, 3):
        f = build_forms("uea", n=n)
        for r in range(n + 1):
            for u in us:
                assert check_xi_power_formula(n, u, r, forms=f)
        # one minor-determinant memo per shift, shared by every r: it holds
        # each square minor once, sum_r C(n, r)^2 = C(2n, n), and the lift
        # of the a block under None
        assert set(f.minor_dets) == set(us)
        assert all(len(memo) == comb(2 * n, n) + 1 and None in memo for memo in f.minor_dets.values())


def test_xi_shifted_power_degenerate_cases():
    f = build_forms("uea", n=2)
    assert xi_shifted_power(f, Fraction(0), 0) == f.omega.power(0)
    assert not xi_shifted_power(f, Fraction(0), 3)  # r > n has no room


def _rebuilt(f, **changes):
    """Fresh forms, with empty memos, from the fields of f and `changes`."""
    fields = ("mode", "p", "q", "omega", "xi", "theta", "theta_prime", "tau", "source")
    return Forms(**{field: changes.get(field, getattr(f, field)) for field in fields})


def test_eta_anticommutation():
    for n in (1, 2, 3):
        f = build_forms("uea", n=n)
        for u in (Fraction(-1), Fraction(0), Fraction(2)):
            assert check_eta_anticommute(n, u, forms=f)


def test_eta_anticommutation_detects_a_changed_diagonal_entry():
    # a[1,1] -> a[1,1] + a[1,2] at n = 2 breaks only the i = j = 1 condition,
    # eta_1(u+1) eta_1(u) = 0; every pair with i != j still anticommutes
    f = build_forms("uea", n=2)
    X = f.source
    a = [list(row) for row in X.a]
    a[0][0] = a[0][0] + a[0][1]
    g = _rebuilt(f, source=AntiAlternatingMatrix(X.p, X.q, a, X.b, X.c))
    for u in (Fraction(-1), Fraction(0), Fraction(2)):
        assert not check_eta_anticommute(2, u, forms=g)
        assert not eta(g, 2, u + 1) * eta(g, 1, u) + eta(g, 1, u + 1) * eta(g, 2, u)


def test_eta_shift_is_needed():
    # the square of eta_1 at a single argument does not vanish over the
    # enveloping algebra; staggering the argument by one makes it vanish
    f = build_forms("uea", n=2)
    assert eta(f, 1, Fraction(0)) * eta(f, 1, Fraction(0))
    assert not eta(f, 1, Fraction(1)) * eta(f, 1, Fraction(0))


def test_theta_power_expansions():
    for n in (1, 2, 3):
        f = build_forms("uea", n=n)
        for s in range(n + 1):
            for t in range(n + 1):
                assert check_theta_powers(n, s, t, mode="uea", forms=f)
    for n in (1, 2, 3, 4):
        f = build_forms("commutative", n=n)
        for s in range(n + 1):
            for t in range(n + 1):
                assert check_theta_powers(n, s, t, mode="commutative", forms=f)


def test_trinomial_expansions():
    for n in (1, 2, 3):
        f = build_forms("uea", n=n)
        for m in range(n + 1):
            assert check_trinomial(n, m, mode="uea", forms=f)
    for n in (1, 2, 3, 4):
        f = build_forms("commutative", n=n)
        for m in range(n + 1):
            assert check_trinomial(n, m, mode="commutative", forms=f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_is_central_in_uea_forms(n):
    # the expansion of the falling products rests on this
    f = build_forms("uea", n=n)
    for form in (f.omega, f.xi, f.theta, f.theta_prime):
        assert f.tau * form == form * f.tau


def _corrupted(f, name):
    """A fresh copy of the forms with one coefficient of `name` changed."""
    form = getattr(f, name)
    mask = min(form.terms)
    return _rebuilt(f, **{name: form + GrassmannElement(f.p, f.q, {mask: f.omega.power(0).terms[0]})})


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["xi", "tau"])
def test_xi_power_and_uea_trinomial_detect_corrupted_forms(n, name):
    f = _corrupted(build_forms("uea", n=n), name)
    assert f.tau_xi == {} and f.minor_dets == {}
    for r in range(1, n + 1):
        for u in (Fraction(-1), Fraction(0), Fraction(2)):
            # tau enters Xi(u+r-1) ... Xi(u) unless the one factor is Xi(0)
            unseen = name == "tau" and r == 1 and u == 0
            assert check_xi_power_formula(n, u, r, forms=f) == unseen
    for m in range(1, n + 1):
        # the m = 1 expansion, Omega = Theta' + 2 Xi(0) + Theta, has no tau
        assert check_trinomial(n, m, forms=f) == (name == "tau" and m == 1)


@pytest.mark.parametrize("n", [2, 3])
def test_commutative_trinomial_detects_corrupted_xi(n):
    f = _corrupted(build_forms("commutative", n=n), "xi")
    assert not any(check_trinomial(n, m, mode="commutative", forms=f) for m in range(1, n + 1))


@pytest.mark.parametrize("check", [
    lambda n, f: check_eta_anticommute(n, 0, forms=f),
    lambda n, f: check_xi_power_formula(n, 0, 1, forms=f),
    lambda n, f: check_sl2(n, forms=f),
    lambda n, f: check_trinomial(n, 1, forms=f),
    lambda n, f: check_theta_powers(n, 1, 0, forms=f),
], ids=["eta", "xi-power", "sl2", "trinomial", "theta-powers"])
def test_forms_checks_reject_a_rank_that_contradicts_the_forms(check):
    f = build_forms("uea", n=3)
    assert check(3, f)
    for n in (1, 2, 4):
        with pytest.raises(ValueError, match="contradicts"):
            check(n, f)


@pytest.mark.parametrize("check", [
    lambda uea, comm: check_trinomial(2, 2, mode="uea", forms=comm),
    lambda uea, comm: check_trinomial(2, 2, mode="commutative", forms=uea),
    lambda uea, comm: check_theta_powers(2, 1, 1, mode="commutative", forms=uea),
    lambda uea, comm: check_theta_powers(2, 1, 1, forms=comm),
    lambda uea, comm: check_sl2(2, forms=comm),
    lambda uea, comm: check_xi_power_formula(2, 0, 1, forms=comm),
    lambda uea, comm: check_eta_anticommute(2, 0, forms=comm),
], ids=["trinomial-uea", "trinomial-comm", "theta-powers-comm", "theta-powers-uea", "sl2", "xi-power", "eta"])
def test_forms_checks_reject_a_mode_or_coloring_that_contradicts_the_forms(check):
    uea, comm = build_forms("uea", n=2), build_forms("commutative", n=2)
    with pytest.raises(ValueError, match="contradicts"):
        check(uea, comm)
    # the same forms with consistent arguments still run their checks
    assert check_trinomial(2, 2, mode="commutative", forms=comm)
    assert check_theta_powers(2, 1, 1, mode="uea", forms=uea)


def test_trinomial_rectangular():
    for p, q in ((1, 3), (2, 4)):
        half = (p + q) // 2
        f = build_forms("commutative", p=p, q=q)
        for m in range(half + 1):
            assert check_trinomial(half, m, mode="commutative", forms=f)


# --- top-degree route ----------------------------------------------------------


def test_top_form_recovers_pfaffian_commutative():
    for p, q in ((1, 1), (2, 2), (1, 3), (3, 3)):
        X = AntiAlternatingMatrix.generic(p, q)
        assert pfaffian_from_top_form(build_forms("commutative", p=p, q=q)) == pfaffian_of_anti_alternating(X)


def test_top_form_split_matches_the_full_power():
    # fresh forms: Omega^(n//2) Omega^(n - n//2), no power past the second;
    # with Omega^n memoised, its top coefficient; both equal the full power's
    for mode, n, p, q in (("uea", 1, None, None), ("uea", 2, None, None), ("uea", 3, None, None),
                          ("commutative", None, 2, 2), ("commutative", None, 1, 3), ("commutative", None, 5, 1)):
        f = build_forms(mode, n=n, p=p, q=q)
        half = f.half
        split = pfaffian_from_top_form(f)
        assert len(getattr(f.omega, "_powers", ())) == max(0, half - half // 2 - 1)
        full = f.omega.power(half).top_coefficient() * Fraction(1, 2**half * factorial(half))
        assert split == full == pfaffian_from_top_form(f)


def test_top_form_agrees_with_the_recursion():
    # the top route checks the formula's right side; the recursion, the
    # definition, still checks the top route
    for k in (1, 2, 3, 4):
        assert pfaffian_from_top_form(build_forms("uea", n=k)) == nc_pfaffian(build_canonical_x(k))


def test_top_form_route_checks():
    for n in (1, 2):
        assert check_top_form_route("uea", n=n)
        assert check_top_form_route(forms=build_forms("uea", n=n))
    for p, q in ((1, 1), (2, 2), (2, 4)):
        assert check_top_form_route("commutative", p=p, q=q)
        assert check_top_form_route(forms=build_forms("commutative", p=p, q=q))


def test_accumulation_order_does_not_matter():
    # dict-based terms must make sums independent of insertion order
    rng = random.Random(12)
    words = [([1], 1), ([2], 2), ([1, 2], 3), ([-1, 2], 4), ([1, 2, -2, -1], 5)]
    ref = GrassmannElement.zero(2, 2)
    for labels, c in words:
        ref = ref + w(labels, Fraction(c))
    for _ in range(5):
        shuffled = words[:]
        rng.shuffle(shuffled)
        acc = GrassmannElement.zero(2, 2)
        for labels, c in shuffled:
            acc = acc + w(labels, Fraction(c))
        assert acc == ref
        assert GrassmannElement.from_words(2, 2, [(labels, Fraction(c)) for labels, c in shuffled]) == acc
    # in from_words too, a repeated label gives nothing and a reordered word cancels
    extra = words + [([2, 2], 6), ([2, 1], 3)]
    assert GrassmannElement.from_words(2, 2, extra) == ref + w([2, 1], Fraction(3))
    assert 3 not in GrassmannElement.from_words(2, 2, extra).terms
