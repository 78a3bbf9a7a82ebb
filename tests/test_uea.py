"""Enveloping algebra: normal ordering, the restricted Pfaffian, centrality."""

import pickle
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffkit import uea
from pfaffkit.indexing import index_mask
from pfaffkit.linalg import det_leibniz
from pfaffkit.pfaffian import AntiAlternatingMatrix, _minor_det, minor_summation_rhs
from pfaffkit.rings import Poly
from pfaffkit.uea import (
    Generator,
    HighestWeight,
    UEAElement,
    ad,
    bracket,
    build_canonical_x,
    centrality_failures,
    chevalley_generators,
    eigenvalue_factored_str,
    eigenvalue_product,
    hc_coefficient,
    nc_minor_summation_rhs,
    nc_pfaffian,
    nc_pfaffian_unrestricted,
    normal_order,
    parse_element,
    signed_generator,
)
from conftest import canonical_generators

A11 = Generator("a", 1, 1)
A12 = Generator("a", 1, 2)
A21 = Generator("a", 2, 1)
A22 = Generator("a", 2, 2)
B12 = Generator("b", 1, 2)
C12 = Generator("c", 1, 2)


def el(*gens):
    out = UEAElement.one()
    for g in gens:
        out = out * UEAElement.from_generator(g)
    return out


# --- generators and the bracket ---------------------------------------------


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator("b", 2, 1)
    with pytest.raises(ValueError):
        Generator("c", 1, 1)
    with pytest.raises(ValueError):
        Generator("d", 1, 2)


def test_canonical_generator_count():
    # dim = n(2n - 1)
    for n in (1, 2, 3):
        assert len(canonical_generators(n)) == n * (2 * n - 1)


def test_signed_generator_canonicalization():
    assert signed_generator(1, 2) == el(A12)
    assert signed_generator(-1, -2) == -el(A21)
    assert signed_generator(1, -2) == el(B12)
    assert signed_generator(2, -1) == -el(B12)
    assert signed_generator(-2, 1) == el(C12)
    assert signed_generator(-1, 2) == -el(C12)
    assert not signed_generator(1, -1)
    assert not signed_generator(-1, 1)


def test_bracket_goldens():
    assert bracket(B12, C12) == el(A22) + el(A11)
    assert bracket(A12, A21) == el(A11) - el(A22)
    assert bracket(A11, B12) == el(B12)
    assert bracket(A11, C12) == -el(C12)
    assert bracket(A11, A12) == el(A12)
    assert not bracket(B12, B12)


def test_bracket_antisymmetry():
    gens = canonical_generators(2)
    for g, h in product(gens, gens):
        assert bracket(g, h) == -bracket(h, g)


def test_jacobi_identity():
    gens = canonical_generators(2)
    for g, h, k in product(gens, gens, gens):
        total = (
            el(g).commutator(bracket(h, k))
            + el(h).commutator(bracket(k, g))
            + el(k).commutator(bracket(g, h))
        )
        assert not total


def test_bracket_matches_product_commutator():
    gens = canonical_generators(3)
    rng = random.Random(9)
    for _ in range(60):
        g, h = rng.choice(gens), rng.choice(gens)
        assert el(g) * el(h) - el(h) * el(g) == bracket(g, h)


# --- normal ordering --------------------------------------------------------


def test_normal_order_sorted_word_is_fixed():
    word = tuple(sorted([C12, A11, B12], key=lambda g: g.sort_key))
    assert normal_order(word, Fraction(2)) == UEAElement({word: Fraction(2)})


def test_normal_order_swap():
    # b c = c b + [b, c]
    got = el(B12, C12)
    assert got == el(C12, B12) + el(A22) + el(A11)


def test_multiplication_associative_seeded():
    gens = canonical_generators(2)
    rng = random.Random(10)
    for _ in range(15):
        xs = [el(rng.choice(gens)) + Fraction(rng.randint(-2, 2)) * el(rng.choice(gens)) for _ in range(3)]
        assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])


def test_product_matches_termwise_normal_order():
    gens = canonical_generators(2)
    rng = random.Random(11)
    words = [tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))) for _ in range(8)]
    x = UEAElement({w: Fraction(k - 3, 2) for k, w in enumerate(words[:4])})
    y = UEAElement({w: k - 2 for k, w in enumerate(words[4:])})
    expected = UEAElement.zero()
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            expected = expected + normal_order(w1 + w2, c1 * c2)
    assert x * y == expected
    assert all((x * y).terms.values())
    # into a non-empty out: the product adds to what is there, and the words
    # that cancel against it leave
    out = dict(y.terms)
    UEAElement._product_into(out, x.terms, y.terms, -2)
    assert UEAElement._wrap(out) == y - 2 * expected
    assert all(out.values())
    # (b + c)(b - c) = b^2 - c^2 - [b, c]: the c b words cancel inside one product
    got = (el(B12) + el(C12)) * (el(B12) - el(C12))
    assert got == el(B12, B12) - el(C12, C12) - bracket(B12, C12)
    assert (C12, B12) not in got.terms
    assert all(got.terms.values())
    # the bracket cache hands out fresh elements
    first = bracket(B12, C12)
    first.terms.clear()
    first.terms[(A12,)] = Fraction(5)
    assert bracket(B12, C12) == el(A22) + el(A11)


# --- PBW-sorted elements and the seam start ----------------------------------


def _is_sorted(word):
    return all(g.sort_key <= h.sort_key for g, h in zip(word, word[1:]))


def _all_sorted(x):
    return all(_is_sorted(w) for w in x.terms)


def test_constructor_normal_orders_an_unsorted_word():
    # b c = c b + [b, c] = c b + a11 + a22
    x = UEAElement({(B12, C12): 1})
    assert x == normal_order((B12, C12))
    assert x.terms == {(C12, B12): 1, (A11,): 1, (A22,): 1}


def test_unit_product_keeps_a_constructed_element():
    x = UEAElement({(B12, C12): 1, (A12, A21, A11): Fraction(1, 2)})
    assert x * UEAElement.one() == x == UEAElement.one() * x


def test_hc_coefficient_of_a_constructed_unsorted_word():
    w = HighestWeight.symbolic(2)
    assert hc_coefficient(UEAElement({(B12, C12): 1}), w) == Poly.var("lam[1]") + Poly.var("lam[2]")


def test_constructor_keeps_the_scalar_rule_and_drops_zeros():
    x = UEAElement({(B12, C12): Fraction(2, 2), (C12, B12): -1, (A12,): 0})
    assert x.terms == {(A11,): 1, (A22,): 1} and all(type(c) is int for c in x.terms.values())
    assert UEAElement({}).terms == {} and UEAElement({(A12,): 0}).terms == {}


def test_sort_key_is_the_tuple_order_up_to_the_index_bound():
    from pfaffkit.rings import display_key

    top = uea.MAX_INDEX
    idx = (1, 2, 3, 63, 64, top - 1, top)
    gens = [Generator("a", i, j) for i in idx for j in idx]
    gens += [Generator(k, i, j) for k in "bc" for i in idx for j in idx if i < j]
    by_tuple = sorted(gens, key=lambda g: display_key(g.name)[:4])
    assert sorted(gens, key=lambda g: g.sort_key) == by_tuple
    assert all(type(g.sort_key) is int for g in gens)
    assert [g.root_class for g in (C12, A21, A11, A12, B12)] == [0, 0, 1, 2, 2]


def test_generator_index_past_the_bound_is_refused():
    top = uea.MAX_INDEX
    assert Generator("b", top - 1, top).j == top
    for kind, i, j in (("a", top + 1, 1), ("a", 1, top + 1), ("b", 1, top + 1), ("c", top, top + 1)):
        with pytest.raises(ValueError, match=f"at most {top}"):
            Generator(kind, i, j)
    # parse_element reports it, and an index past int's digit limit, as parse errors
    from pfaffkit.rings import PolyParseError

    for text in (f"a[{top + 1},1]", f"2*b[1,{top + 1}] + a[1,1]", "c[1," + "9" * 5000 + "]"):
        with pytest.raises(PolyParseError):
            parse_element(text)
    with pytest.raises(PolyParseError, match=f"at most {top}"):
        parse_element(f"a[1,{top + 1}]")


def _random_pbw(rng, gens, terms, repeat=None):
    """A sum of sorted words of length 0-3 with coefficients in 1/2 Z; with
    `repeat`, every word starts or ends with that letter."""
    out = {}
    for _ in range(terms):
        word = sorted((rng.choice(gens) for _ in range(rng.randint(0, 3))), key=lambda g: g.sort_key)
        if repeat is not None:
            word = [repeat] + word if rng.random() < 0.5 else word + [repeat]
            word.sort(key=lambda g: g.sort_key)
        out[tuple(word)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return UEAElement(out)


def test_seam_start_matches_termwise_normal_order_from_zero():
    # random PBW elements at n = 3, against the termwise normal_order of each
    # concatenation scanned from position 0: unit words, the same letter on
    # both sides of the seam, presorted and unsorted seams, a non-empty out
    gens = canonical_generators(3)
    rng = random.Random(2503)
    seams = {"unit": 0, "repeat": 0, "presorted": 0, "unsorted": 0}
    for trial in range(40):
        repeat = rng.choice(gens) if trial % 4 == 0 else None
        x = _random_pbw(rng, gens, rng.randint(1, 5), repeat) + int(trial % 3 == 0)
        y = _random_pbw(rng, gens, rng.randint(1, 5), repeat) - int(trial % 5 == 0)
        expected = UEAElement.zero()
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                expected = expected + normal_order(w1 + w2, c1 * c2)
                if not (w1 and w2):
                    seams["unit"] += 1
                elif w1[-1] is w2[0]:
                    seams["repeat"] += 1
                else:
                    seams["presorted" if w1[-1].sort_key < w2[0].sort_key else "unsorted"] += 1
        got = x * y
        assert got == expected and _all_sorted(got) and all(got.terms.values()), trial
        # into a non-empty out whose words the product cancels, scaled by -1
        out = dict(expected.terms)
        extra = {w: c for w, c in x.terms.items() if w not in out}
        out.update(extra)
        UEAElement._product_into(out, x.terms, y.terms, -1)
        assert out == extra and all(out.values()), trial
    assert min(seams.values()) >= 10, seams


def test_presorted_product_makes_no_drain(monkeypatch):
    # every concatenation is sorted, the same letter meets itself at a seam
    # and a unit word sits on each side, so no pair reaches the stack
    x = el(C12) + el(A11) + 2
    y = el(A11) + el(A12, B12) - Fraction(1, 2)
    expected = x * y

    def drain(out, stack):
        raise AssertionError("a presorted product reached the drain")

    monkeypatch.setattr(uea, "_normal_order_sums", drain)
    assert x * y == expected
    assert expected.terms[(A11, A11)] == 1 and expected.terms[(C12, A12, B12)] == 1
    # an unsorted seam still reaches it
    with pytest.raises(AssertionError, match="presorted"):
        el(B12) * el(C12)


def test_every_route_holds_only_sorted_words():
    from pfaffkit.grassmann import build_forms

    n = 3
    gens = canonical_generators(n)
    rng = random.Random(17)
    words = [tuple(rng.choice(gens) for _ in range(rng.randint(0, 4))) for _ in range(12)]
    built = UEAElement({w: k + 1 for k, w in enumerate(words)})
    z = nc_pfaffian(build_canonical_x(n))
    elements = [
        built,
        parse_element("b[1,2] c[1,2] a[2,1] + a[1,3] a[3,1]^2 - 1/2*b[2,3] a[1,1]"),
        built * built,
        z,
        nc_minor_summation_rhs(n),
        nc_pfaffian_unrestricted(build_canonical_x(2)),
    ]
    elements += [bracket(g, h) for g in gens for h in gens]
    elements += [ad(g, built) for g in gens] + [ad(g, z) for g in chevalley_generators(n)]
    forms = build_forms("uea", n=n)
    for form in (forms.omega, forms.xi, forms.theta, forms.theta_prime):
        elements += [c for m in range(1, n + 1) for c in form.power(m).terms.values()]
    for k, x in enumerate(elements):
        assert _all_sorted(x), k
    assert sum(len(x.terms) for x in elements) > 1000


def test_scalar_and_sum_arithmetic():
    e = el(A11) + 2 * el(B12)
    assert e - e == UEAElement.zero()
    assert Fraction(1, 2) * (e + e) == e


# --- the restricted Pfaffian -------------------------------------------------


def test_nc_pfaffian_n1():
    assert nc_pfaffian(build_canonical_x(1)) == el(A11)


def test_nc_pfaffian_n2_terms():
    z = nc_pfaffian(build_canonical_x(2))
    assert z.terms == {
        (A11, A22): Fraction(1),
        (A22,): Fraction(1),
        (A21, A12): Fraction(-1),
        (C12, B12): Fraction(1),
    }
    assert str(z) == "a[1,1] a[2,2] - a[2,1] a[1,2] + c[1,2] b[1,2] + a[2,2]"


def test_canonical_matrix_layout():
    # X is the shared anti-alternating type, and its signed entry X[i,j] is
    # the generator element X[i,j] at every pair of signed labels
    for n in (1, 2, 3):
        X = build_canonical_x(n)
        assert isinstance(X, AntiAlternatingMatrix)
        assert (X.p, X.q) == (n, n)
        labels = [s for s in range(-n, n + 1) if s]
        for i in labels:
            for j in labels:
                assert X.entry(i, j) == signed_generator(i, j), (i, j)


def test_minor_summation_matches():
    for n in (1, 2, 3, 4):
        assert nc_pfaffian(build_canonical_x(n)) == nc_minor_summation_rhs(n)


def test_minor_summation_explicit_matrix():
    # an explicit X is summed as given at the shift 0: the canonical one
    # agrees with nc_minor_summation_rhs, and with b and c set to zero only
    # the I = J = {} term, the shifted determinant of the whole a block, is left
    for n in (2, 3):
        X = build_canonical_x(n)
        assert minor_summation_rhs(X, shift=0) == nc_minor_summation_rhs(n)
        zero = [[UEAElement.zero()] * n for _ in range(n)]
        no_bc = AntiAlternatingMatrix(n, n, X.a, zero, zero)
        full = (1 << n) - 1
        assert minor_summation_rhs(no_bc, shift=0) == _minor_det(X.a, full, full, {}, Fraction(0))


def test_restricted_equals_unrestricted():
    # the subset recursion against the independent full permutation sum,
    # also with zero b and c blocks, whose zero entries empty a product
    for n in (1, 2, 3, 4):
        M = build_canonical_x(n)
        assert nc_pfaffian(M) == nc_pfaffian_unrestricted(M)
        if n > 1:
            zero = [[UEAElement.zero()] * n for _ in range(n)]
            no_bc = AntiAlternatingMatrix(n, n, M.a, zero, zero)
            assert nc_pfaffian(no_bc) == nc_pfaffian_unrestricted(no_bc)


def test_unrestricted_oracle_makes_no_engine_product(monkeypatch):
    # the oracle shares only the normal-ordering drain with the engine
    X = build_canonical_x(3)
    z = nc_pfaffian(X)

    def product(*args):
        raise AssertionError("the oracle must not multiply in the PBW basis")

    monkeypatch.setattr(uea, "_product_into", product)
    assert nc_pfaffian_unrestricted(X) == z


def test_column_determinant_order_matters():
    # det_leibniz multiplies columns left to right, so it is the column
    # determinant: the noncommutative 2x2 golden is m11 m22 - m21 m12
    # (first-column entries first)
    rows = ((el(A11), el(B12)), (el(C12), el(A22)))
    got = det_leibniz(rows)
    assert got == el(A11, A22) - el(C12, B12)
    # the same golden through the shifted determinant, whose columns carry
    # the shifts u + 1 and u: (a11 + 1) a22 - c12 b12 at u = 0, and
    # a11 (a22 - 1) - c12 b12 at u = -1; with b12 c12 in the last term
    # either would differ by [b12, c12] = a11 + a22
    zero = [[UEAElement.zero()] * 2 for _ in range(2)]
    X = AntiAlternatingMatrix(2, 2, [list(r) for r in rows], zero, zero)
    assert _minor_det(X.a, 0b11, 0b11, {}, Fraction(0)) == got + el(A22)
    assert _minor_det(X.a, 0b11, 0b11, {}, Fraction(-1)) == got - el(A11)


@pytest.mark.parametrize("u", [0, Fraction(-3, 2), 2, Fraction(1, 2)])
def test_shifted_determinant_matches_leibniz(u):
    # every (I, J) at n <= 3, against the column-order Leibniz sum of the
    # explicitly shifted rows, under a fresh memo and also under one memo per
    # (n, u), as minor_summation_rhs and the Xi power check share it.  A
    # shift with denominator 2 scales the lift by 2, so its memo holds the
    # int minors of 2 (a + shift) and each result is divided back
    for n in (1, 2, 3):
        X = build_canonical_x(n)
        memo = {}
        for r in range(n + 1):
            for I in combinations(range(1, n + 1), r):
                for J in combinations(range(1, n + 1), r):
                    rows = tuple(tuple(X.a[i - 1][j - 1] + (u + r - t if i == j else 0)
                                       for t, j in enumerate(J, start=1)) for i in I)
                    expected = det_leibniz(rows)
                    masks = index_mask(I), index_mask(J)
                    assert _minor_det(X.a, *masks, {}, Fraction(u)) == expected, (n, I, J)
                    assert _minor_det(X.a, *masks, memo, Fraction(u)) == expected, (n, I, J)
        assert len(memo) > 0
        assert memo[None].scale == Fraction(u).denominator
        assert all(type(c) is int for key, terms in memo.items() if key is not None for c in terms.values())


def test_abelianized_symbol_matches_commutative():
    from pfaffkit.pfaffian import AntiAlternatingMatrix, pfaffian_of_anti_alternating

    for n in (1, 2, 3):
        z = nc_pfaffian(build_canonical_x(n))
        sym = z.abelianized().homogeneous_part(n)
        assert sym == pfaffian_of_anti_alternating(AntiAlternatingMatrix.generic(n, n))


# --- centrality and the eigenvalue ------------------------------------------


def _perturbations(z, n, seed):
    """z plus seeded words of degree <= 3, and central variants of z."""
    rng = random.Random(seed)
    gens = canonical_generators(n)
    out = [z + 3, Fraction(-2, 3) * z]
    for _ in range(4):
        extra = UEAElement.zero()
        for _ in range(rng.randint(1, 3)):
            word = el(*(rng.choice(gens) for _ in range(rng.randint(1, 3))))
            extra = extra + Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) * word
        out.append(z + extra)
    return out


def test_chevalley_generators():
    assert chevalley_generators(1) == (A11,)
    for n in (2, 3, 4):
        gens = chevalley_generators(n)
        assert len(gens) == 2 * n and set(gens) <= set(canonical_generators(n))
        assert {Generator("b", n - 1, n), Generator("c", n - 1, n)} <= set(gens)
        assert list(gens) == sorted(gens, key=lambda g: g.sort_key)


def test_ad_is_the_commutator():
    for n in (1, 2, 3):
        z = nc_pfaffian(build_canonical_x(n))
        for k, w in enumerate([z] + _perturbations(z, n, seed=10 * n)):
            for g in canonical_generators(n):
                ge = UEAElement.from_generator(g)
                assert ad(g, w) == ge * w - w * ge, (n, k, g)


def test_ad_stores_integral_sums_as_ints():
    # [a11, a12] = a12, so ad(a11, 1/2 a12^2) = 1/2 (a12 a12 + a12 a12)
    got = ad(A11, el(A12, A12).scale(Fraction(1, 2)))
    assert got.terms == {(A12, A12): 1} and type(got.terms[(A12, A12)]) is int


def test_centrality():
    for n in (1, 2, 3, 4, 5):
        z = nc_pfaffian(build_canonical_x(n))
        assert centrality_failures(z, n) == []


def test_centrality_matches_all_generator_oracle(all_generator_failures):
    rejected = 0
    for n in (1, 2, 3, 4):
        z = nc_pfaffian(build_canonical_x(n))
        cases = [z, z + el(A11), z + el(B12)]
        cases += _perturbations(z, n, seed=n) if n < 4 else [z + el(A12), z + 5]
        for w in cases:
            fast, oracle = centrality_failures(w, n), all_generator_failures(w, n)
            assert set(fast) <= set(oracle) and bool(fast) == bool(oracle), (n, w)
            rejected += bool(fast)
    # the four seeded words at n = 2 and 3, a[1,2] at n = 4, a[1,1] at
    # n = 2, 3, 4 (at n = 1 the algebra is abelian) and b[1,2] at every n
    assert rejected == 16
    z2 = nc_pfaffian(build_canonical_x(2))
    assert centrality_failures(z2 * z2, 2) == all_generator_failures(z2 * z2, 2) == []


def test_non_central_element_detected():
    assert centrality_failures(el(A11), 2)
    z = nc_pfaffian(build_canonical_x(3))
    # a[1,1] has weight 0, so only the raising test sees it, and only e_1
    assert centrality_failures(z + el(A11), 3) == [A12]


def test_weight_test_catches_what_the_raising_generators_miss():
    # b[1,2] is a highest root vector: every e_i kills it, but its weight
    # eps_1 + eps_2 is not 0, so a[1,1] and a[2,2] fail to commute with it
    for n in (2, 3, 4):
        raising = [g for g in chevalley_generators(n) if g.kind == "b" or g.kind == "a" and g.i < g.j]
        assert len(raising) == n and not any(ad(g, el(B12)) for g in raising)
        assert centrality_failures(el(B12), n) == [A11, A22]
        # a[1,1] has weight 0; e_1 = a[1,2] fails on it, and at n = 2 so does e_2 = b[1,2]
        assert centrality_failures(el(A11), n) == ([A12, B12] if n == 2 else [A12])
        z = nc_pfaffian(build_canonical_x(n))
        assert centrality_failures(z + el(B12), n) == [A11, A22]


def test_rank_one_checks_a11():
    assert centrality_failures(nc_pfaffian(build_canonical_x(1)), 1) == []
    # a[1,2] lies outside the rank-1 algebra, so only a[1,1] can see it
    assert centrality_failures(el(A12), 1) == [A11]


def test_hc_coefficient_goldens():
    w = HighestWeight.symbolic(2)
    assert hc_coefficient(el(A11), w) == Poly.var("lam[1]")
    assert hc_coefficient(el(C12, B12), w) == Poly.zero()
    assert hc_coefficient(el(A11, A22), w) == Poly.var("lam[1]") * Poly.var("lam[2]")
    assert hc_coefficient(UEAElement.one(), w) == Poly.const(1)


def test_eigenvalue_symbolic():
    for n in (1, 2, 3):
        z = nc_pfaffian(build_canonical_x(n))
        w = HighestWeight.symbolic(n)
        assert hc_coefficient(z, w) == eigenvalue_product(w)


def test_eigenvalue_spot_values():
    z = nc_pfaffian(build_canonical_x(2))
    assert hc_coefficient(z, HighestWeight.numeric([3, 1])) == Fraction(4)
    assert eigenvalue_product(HighestWeight.numeric([3, 1])) == Fraction(4)
    assert hc_coefficient(z, HighestWeight.numeric([0, 0])) == Fraction(0)


def test_eigenvalue_factored_strings():
    assert eigenvalue_factored_str(HighestWeight.symbolic(1)) == "lam[1]"
    assert eigenvalue_factored_str(HighestWeight.symbolic(3)) == "(lam[1]+2)*(lam[2]+1)*lam[3]"


def test_factored_string_parses_back_to_product():
    from pfaffkit.rings import parse_poly

    for n in (1, 2, 3):
        w = HighestWeight.symbolic(n)
        assert parse_poly(eigenvalue_factored_str(w)) == eigenvalue_product(w)


def test_weight_validation():
    with pytest.raises(ValueError):
        HighestWeight.numeric([])
    with pytest.raises(ValueError):
        HighestWeight.symbolic(0)
    with pytest.raises(ValueError):
        HighestWeight(2, (Fraction(1),))


def test_weight_is_an_immutable_value():
    w = HighestWeight.numeric([3, 1])
    assert w == HighestWeight(2, (Fraction(3), Fraction(1))) and w != HighestWeight.numeric([1, 3])
    assert w != HighestWeight.symbolic(2) and HighestWeight.symbolic(2) == HighestWeight(2, None)
    assert len({w, HighestWeight.numeric([3, 1]), HighestWeight.symbolic(2)}) == 2
    assert pickle.loads(pickle.dumps(w)) == w
    for mutate in (lambda: setattr(w, "n", 3), lambda: setattr(w, "extra", 1), lambda: delattr(w, "values")):
        with pytest.raises(AttributeError):
            mutate()
    assert (w.n, w.values) == (2, (3, 1))


# --- text form ----------------------------------------------------------------


def test_text_roundtrip():
    for n in (1, 2, 3):
        z = nc_pfaffian(build_canonical_x(n))
        assert parse_element(str(z)) == z
    assert parse_element("0") == UEAElement.zero()
    # a repeated letter prints once, with its exponent
    e = el(A11, A11, A12) - Fraction(1, 2) * el(C12, C12, B12)
    assert str(e) == "a[1,1]^2 a[1,2] - 1/2*c[1,2]^2 b[1,2]"
    assert parse_element(str(e)) == e


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_text_roundtrip_random(rng):
    gens = canonical_generators(2)
    e = UEAElement.zero()
    for _ in range(rng.randint(0, 4)):
        word = el(*(rng.choice(gens) for _ in range(rng.randint(0, 3))))
        e = e + Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * word
    assert parse_element(str(e)) == e
