"""Exterior algebra with module coefficients: canonical 2-forms and their identities."""

import gc
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from pfaffkit import grassmann, rings
from pfaffkit.grassmann import (
    Forms,
    GrassmannElement,
    _linear_combination,
    _product,
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
from pfaffkit.rings import Combination, Poly, _Scalars
from pfaffkit.uea import UEAElement, build_canonical_x, nc_pfaffian
from conftest import canonical_generators


def w(labels, coeff=Fraction(1), p=2, q=2):
    return GrassmannElement.from_words(p, q, [(labels, coeff)])


def coefficients(x):
    """The coefficient values of x by mask, each wrapped by `coefficient`."""
    return {m: x.coefficient(m) for m in x.terms}


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
    for m1, c1 in coefficients(x).items():
        for m2, c2 in coefficients(y).items():
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
        assert coefficients(prod) == reference_product(x, y)
        assert (prod.p, prod.q) == pq
        for c in coefficients(prod).values():
            assert c != 0
            if isinstance(c, Combination):  # no zero inside a coefficient either
                assert all(v != 0 for v in c.terms.values())


def test_fused_product_drops_cancelled_masks():
    c = UEAElement.from_generator(canonical_generators(2)[0])
    x = GrassmannElement.from_words(2, 2, [([1], c), ([2], c)])
    assert (x * x).terms == {}  # c c e1 e2 + c c e2 e1 cancels on mask e1 e2
    y = GrassmannElement.from_words(2, 2, [([1], c), ([-1], UEAElement.one())])
    assert set((y * x).terms) == {0b0011, 0b1001, 0b1010}  # e1e2, e1e-1, e2e-1
    assert all(coefficients(y * x).values())


def test_fused_product_mixes_scalars_into_a_ring():
    # a scalar coefficient multiplies ring coefficients through the ring's product
    x = Poly.var("x")
    lhs = w([1], Fraction(3)) * w([2], x)
    assert lhs == w([1, 2], 3 * x)
    assert isinstance(lhs.coefficient(0b11), Poly)
    scalars = w([1], Fraction(1, 2)) * w([2], Fraction(4))
    assert coefficients(scalars) == {0b11: 2} and type(scalars.coefficient(0b11)) is int


def test_top_form_of_scalar_coefficients_is_an_int():
    # Omega of an int matrix: its powers and the top-form Pfaffian stay ints
    X = AntiAlternatingMatrix.from_upper_blocks(2, 2, [[1, 2], [3, 4]], [[5]], [[6]])
    omega = GrassmannElement.from_words(2, 2, (((i, -j), X.entry(i, j))
                                               for i in X.row_labels() for j in X.col_labels()))
    f = _rebuilt(build_forms("commutative", n=2), omega=omega, source=X)
    assert set(map(type, coefficients(omega.power(2)).values())) == {int}
    pf = pfaffian_from_top_form(f)
    assert pf == pfaffian_of_anti_alternating(X) and type(pf) is int


def test_product_rejects_mixed_colorings_and_rings():
    with pytest.raises(ValueError):
        w([1], 1) * w([1], 1, p=1, q=3)
    uea = w([1], UEAElement.one())
    poly = w([2], Poly.var("x"))
    with pytest.raises(TypeError):
        uea * poly


def test_scalar_forms_adopt_the_other_ring():
    # a form of scalars moves each scalar onto the other ring's unit key;
    # two rings that are not scalars do not mix
    a11 = UEAElement.from_generator(canonical_generators(2)[0])
    x = Poly.var("x")
    scalars = GrassmannElement.from_words(2, 2, [([1], Fraction(3, 2)), ([], 2)])
    uea = GrassmannElement.from_words(2, 2, [([2], a11)])
    poly = GrassmannElement.from_words(2, 2, [([1], x), ([-1], 1)])
    assert scalars.ring is _Scalars and uea.ring is UEAElement and poly.ring is Poly
    prod = scalars * uea
    assert prod.ring is UEAElement
    assert coefficients(prod) == {0b0011: a11.scale(Fraction(3, 2)), 0b0010: a11.scale(2)}
    total = scalars + poly
    assert total.ring is Poly
    assert coefficients(total) == {0b0001: x + Fraction(3, 2), 0: Poly.const(2), 0b1000: Poly.const(1)}
    assert all(type(c) is Poly for c in coefficients(total).values())
    assert total == poly + scalars and total - scalars == poly
    with pytest.raises(TypeError):
        poly * uea
    with pytest.raises(TypeError):
        poly + uea
    assert poly != uea


def test_coefficient_keeps_the_scalar_rule():
    x = GrassmannElement.from_words(2, 2, [([1], Fraction(4, 2)), ([2], Fraction(1, 2)), ([2], Fraction(1, 2)),
                                           ([-1], Fraction(3, 4))])
    got = coefficients(x)
    assert got == {0b0001: 2, 0b0010: 1, 0b1000: Fraction(3, 4)}
    assert [type(got[m]) for m in (0b0001, 0b0010, 0b1000)] == [int, int, Fraction]
    absent = x.coefficient(0b0100)
    assert absent == 0 and type(absent) is int
    scaled = x.scale(Fraction(4, 3))
    assert scaled.coefficient(0b1000) == 1 and type(scaled.coefficient(0b1000)) is int


@pytest.mark.parametrize("label,message", [(3, "label 3 exceeds row block size 2"),
                                           (0, "label 0 out of range for coloring (2, 2)"),
                                           (-3, "label -3 out of range for coloring (2, 2)")])
def test_from_words_rejects_a_bad_label(label, message):
    # also when the word's coefficient is 0, and after a valid word
    for coeff in (1, 0, Poly.var("x"), Poly.zero()):
        with pytest.raises(ValueError, match=re.escape(message)):
            GrassmannElement.from_words(2, 2, [([1], 1), ([2, label], coeff)])


def test_forms_arithmetic_neither_lifts_nor_wraps(monkeypatch):
    # products, sums, scale, linear combinations and powers stay on raw
    # term dicts; the top-form route wraps its one result and nothing else
    built = [build_forms("uea", n=3), build_forms("commutative", n=2)]
    expected = [pfaffian_from_top_form(build_forms("uea", n=3)), pfaffian_from_top_form(build_forms("commutative", n=2))]
    scalars = [GrassmannElement.from_words(f.p, f.q, [([1, -1], Fraction(1, 2)), ([], 3)]) for f in built]

    def lift(*args):
        raise AssertionError("lifted a coefficient")

    wrapped = []
    wrap, scalar_wrap = Combination._wrap.__func__, _Scalars._wrap
    monkeypatch.setattr(rings, "_lift", lift)
    monkeypatch.setattr(grassmann, "_lift", lift)
    monkeypatch.setattr(Combination, "_wrap", classmethod(lambda cls, terms: wrapped.append(cls) or wrap(cls, terms)))
    monkeypatch.setattr(_Scalars, "_wrap", staticmethod(lambda terms: wrapped.append(_Scalars) or scalar_wrap(terms)))
    for f, pf, s in zip(built, expected, scalars):
        x, y = f.omega, f.xi
        for got in (x * y, x + y, x - y, -x, x.scale(Fraction(1, 2)), x.power(f.half), x**2, s * y, y + s,
                    _linear_combination(f.p, f.q, [(2, x), (Fraction(-1, 3), y), (1, f.theta)])):
            assert got
        assert x**2 == x.power(2) and x.power(0) == 1 and not x.power(f.half + 1)
        assert x.commutator(y) == x * y - y * x and f.tau * y == y * f.tau
        assert not wrapped
        assert pfaffian_from_top_form(f) == pf
        assert wrapped == [type(pf)]
        wrapped.clear()
    assert xi_shifted_power(built[0], Fraction(1, 2), 2) and not wrapped


def test_form_pickle_round_trip_in_a_fresh_process(tmp_path):
    # a pickle carries coefficient values, so another process, which codes
    # the same variable names by other primes, reads back the same form
    x, y = Poly.var("x"), Poly.var("y")
    form = GrassmannElement.from_words(2, 2, [([1, -1], (x - 2 * y) ** 2), ([2], Fraction(1, 3)),
                                              ([], Poly.var("a[1,2]")), ([-2, 1], x)])
    form.power(2)  # the memo stays behind
    loaded = pickle.loads(pickle.dumps(form))
    assert loaded == form and loaded.ring is Poly and getattr(loaded, "_powers", None) is None
    path = tmp_path / "form.pickle"
    path.write_bytes(pickle.dumps(form))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = ("import pickle; from pfaffkit.rings import Poly; Poly.var('zz'); Poly.var('y');"
            f"f = pickle.loads(open({str(path)!r}, 'rb').read()); print(f); print(f.ring.__name__, sorted(f.terms))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{form}\nPoly {sorted(form.terms)}\n"


# --- memoised powers and falling products ----------------------------------------


@pytest.mark.parametrize("mode,n", [("uea", 2), ("uea", 3), ("commutative", 3)])
def test_memoised_powers_equal_binary_powers(mode, n):
    f = build_forms(mode, n=n)
    for form in (f.omega, f.theta, f.theta_prime, f.xi):
        # ask out of order, so later powers extend a memo that skipped ahead
        for m in (2, n + 1, 1, n):
            # `**` is the memo too, so binary powering is called by name
            assert form.power(m) == Combination.__pow__(form, m)
        assert form.power(n) is form.power(n)
        assert form.power(0) == f.omega.power(0)


def _typed_terms(x):
    # the raw terms with each scalar's type, so an int and an equal Fraction differ
    return x.ring, {m: {k: (type(c), c) for k, c in t.items()} for m, t in x.terms.items()}


@pytest.mark.parametrize("mode,shape", [("uea", n) for n in (1, 2, 3, 4)]
                         + [("commutative", (p, q)) for p in range(1, 5) for q in range(1, 5) if (p + q) % 2 == 0])
def test_powers_equal_the_chain_of_the_power_below_times_the_base(mode, shape):
    f = build_forms(mode, n=shape) if mode == "uea" else build_forms(mode, p=shape[0], q=shape[1])
    for form in (f.omega, f.xi, f.theta, f.theta_prime, f.tau):
        if form is None:  # tau exists only when p == q
            continue
        chain = form
        for m in range(2, f.half + 2):
            chain = chain * form
            assert _typed_terms(form.power(m)) == _typed_terms(chain)


def test_each_power_has_the_base_as_its_left_operand(monkeypatch):
    omega = build_forms("uea", n=3).omega
    mul = GrassmannElement.__mul__
    operands = []

    def spy(left, right):
        operands.append((left, right))
        return mul(left, right)

    monkeypatch.setattr(GrassmannElement, "__mul__", spy)
    top = omega.power(4)
    assert len(operands) == 3 and not top  # omega^4 is past the top degree 2n = 6
    assert all(left is omega for left, _ in operands)
    assert [right for _, right in operands] == [omega, omega.power(2), omega.power(3)]


@pytest.mark.parametrize("coeff,one", [(Poly.var("x"), Poly.const(1)),
                                        (UEAElement.from_generator(canonical_generators(1)[0]), UEAElement.one()),
                                        (Fraction(3, 2), 1)],
                         ids=["poly", "uea", "scalar"])
def test_power_zero_is_the_rings_one(coeff, one):
    x = w([1, -1], coeff)
    assert coefficients(x.power(0)) == {0: one}
    assert type(x.power(0).coefficient(0)) is type(one)
    assert coefficients(GrassmannElement.zero(2, 2).power(0)) == {0: 1}
    assert x.power(0) * x == x == x * x.power(0)
    if type(one) is int:  # integral products of scalar coefficients are ints, as in every ring
        z = w([2], Fraction(4, 2))
        for got in (z.power(0) * z, z * z.power(0), z * w([1], Fraction(1, 2))):
            assert set(map(type, coefficients(got).values())) == {int}
        assert coefficients(z * w([1], Fraction(1, 2))) == {0b11: -1}


def test_memoised_falling_product_equals_loop():
    for n in (3, 4):
        f = build_forms("uea", n=n)
        for u in (Fraction(-1), Fraction(1, 2), Fraction(2), 3, Fraction(-3, 2)):
            loops = [f.omega.power(0)]  # the direct left-to-right product, factor by factor
            for k in range(n + 1):
                loops.append(loops[-1] * (f.xi + f.tau.scale(Fraction(u) - k)))
            for r in (3, 0, 1, n + 1, 2, n):
                assert xi_shifted_power(f, u, r) == loops[r]
        assert set(f.products) == {(k, r - k, 0) for r in range(n + 1) for k in range(r + 1)}


@pytest.mark.parametrize("mode,n", [("uea", 2), ("uea", 3), ("commutative", 2), ("commutative", 3)])
def test_memoised_products_equal_products_from_scratch(mode, n):
    # tau^k Xi^j Theta'^a in both modes, and with k = 0 at a rectangular
    # commutative coloring, which has no tau
    for f in (build_forms(mode, n=n), build_forms("commutative", p=n - 1, q=n + 1)):
        taus = range(n + 1) if f.tau is not None else range(1)
        keys = [(k, j, a) for k in taus for j in range(n + 1 - k) for a in range(n + 1 - k - j)]
        random.Random(f"products:{mode}:{n}").shuffle(keys)  # out of order, so the power memos skip ahead
        for k, j, a in keys:
            scratch = f.omega.power(0)
            for factor, exp in ((f.tau, k), (f.xi, j), (f.theta_prime, a)):
                for _ in range(exp):
                    scratch = scratch * factor
            assert _product(f, k, j, a) == scratch
            assert _product(f, k, j, a) is _product(f, k, j, a)
        assert set(f.products) == set(keys)
        assert _product(f, 0, 2) is f.xi.power(2)  # no product by a 0th power
        assert _product(f, 0, 0, 2) == f.theta_prime.power(2)


def test_trinomial_sweep_forms_each_product_once():
    # one uea Forms at n = 3, m = 0..3, cold: Omega^2, Omega^3 and two more
    # powers each of Theta', Theta, Xi and tau (8), tau^k Xi^j for k, j >= 1
    # (3), tau^k Xi^j Theta'^a for a >= 1 and a nonzero e_k (9), and one
    # (sum_a ...) Theta^b per m and b >= 1 (6); warm, only those last 6.
    # Forming X(v, r) Theta'^a afresh for each (m, b, a) reads 29 and 16.
    # Commutative mode runs the same body with k = 0 only: 20 cold, 6 warm,
    # at (3, 3) and at the rectangular (2, 4).
    calls = []
    mul = GrassmannElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    GrassmannElement.__mul__ = counted
    try:
        counts = []
        for f in (build_forms("uea", n=3), build_forms("commutative", n=3), build_forms("commutative", p=2, q=4)):
            for _ in range(2):
                calls.clear()
                assert all(check_trinomial(3, m, f.mode, forms=f) for m in range(4))
                counts.append(len(calls))
    finally:
        GrassmannElement.__mul__ = mul
    assert counts == [27, 6, 20, 6, 20, 6]


def _generator(p, q, label):
    """e_label by itself, with the scalar coefficient 1."""
    return GrassmannElement(p, q, {1 << ((label if label > 0 else p + q + 1 + label) - 1): 1})


def _word_sum(p, q, words):
    """Sum of coeff e_l1 e_l2 ... over the words, each formed by products."""
    total = GrassmannElement.zero(p, q)
    for labels, coeff in words:
        term = GrassmannElement.scalar(p, q, coeff)
        for label in labels:
            term = term * _generator(p, q, label)
        total = total + term
    return total


@pytest.mark.parametrize("ring", ["poly", "uea"])
def test_from_words_equals_the_sum_of_its_words(ring):
    if ring == "poly":
        x, y = Poly.var("x"), Poly.var("y")
    else:
        x, y = (UEAElement.from_generator(g) for g in canonical_generators(2)[:2])
    words = [
        ([1, -1], x), ([-1, 1], x),  # collide and cancel
        ([2, 1], Fraction(3, 2)), ([1, 2], y), ([1, 2], 2),  # scalars and ring elements on one mask
        ([1, 1], x), ([1, -2, 1], y),  # a repeated label gives nothing
        ([-2], x * y), ([-2], -(x * y)), ([-2], 0),  # cancel, and a zero
        ([-2, 2, 1], Fraction(-1, 3)), ([1, 2, -2], x), ([], Fraction(5, 2)), ([-1], -1),
    ]
    got = GrassmannElement.from_words(2, 2, words)
    assert got == _word_sum(2, 2, words)
    assert set(got.terms) == {0b0011, 0b0111, 0b0000, 0b1000}
    assert type(got.coefficient(0b0011)) is type(x)
    assert got.coefficient(0) == Fraction(5, 2) and got.coefficient(0b1000) == -1  # scalars on the ring's unit
    assert all(coefficients(got).values())
    assert not GrassmannElement.from_words(2, 2, [])


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
    assert f1.products
    f2 = build_forms("uea", n=2)
    assert f2.products == {} and f2.products is not f1.products
    assert check_xi_power_formula(2, Fraction(1), 2, forms=f1) and f1.minor_dets
    assert f2.minor_dets == {} and f2.minor_dets is not f1.minor_dets
    assert check_theta_powers(2, 1, 1, forms=f1) and f1.block_pfs
    assert f2.block_pfs == {} and f2.block_pfs is not f1.block_pfs
    assert f1.theta_expansions
    assert f2.theta_expansions == {} and f2.theta_expansions is not f1.theta_expansions
    c1 = build_forms("commutative", n=2)
    assert check_trinomial(2, 2, mode="commutative", forms=c1) and c1.products
    assert check_theta_powers(2, 1, 1, mode="commutative", forms=c1) and c1.theta_expansions
    c2 = build_forms("commutative", n=2)
    assert c2.products == {} and c2.theta_expansions == {}
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
        assert check_theta_powers(2, 1, 1, forms=f) and check_top_form_route(forms=f)
        assert f.products and f.theta_expansions
        c = build_forms("commutative", n=2)
        assert check_trinomial(2, 2, mode="commutative", forms=c)
        assert check_theta_powers(2, 1, 1, mode="commutative", forms=c)
        assert c.products and c.theta_expansions
        del f, c
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
    return _rebuilt(f, **{name: form + GrassmannElement(f.p, f.q, {mask: f.omega.power(0).coefficient(0)})})


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["xi", "tau"])
def test_xi_power_and_uea_trinomial_detect_corrupted_forms(n, name):
    f = _corrupted(build_forms("uea", n=n), name)
    assert f.products == {} and f.minor_dets == {}
    for r in range(1, n + 1):
        for u in (Fraction(-1), Fraction(0), Fraction(2)):
            # tau enters Xi(u+r-1) ... Xi(u) unless the one factor is Xi(0)
            unseen = name == "tau" and r == 1 and u == 0
            assert check_xi_power_formula(n, u, r, forms=f) == unseen
    for m in range(1, n + 1):
        # the m = 1 expansion, Omega = Theta' + 2 Xi(0) + Theta, has no tau
        assert check_trinomial(n, m, forms=f) == (name == "tau" and m == 1)


@pytest.mark.parametrize("change", ["extra", "missing", "coefficient"])
def test_xi_power_formula_detects_a_changed_left_side(monkeypatch, change):
    # the left side with one more mask (a word of another degree, which only
    # the mask count sees), one mask fewer, or one coefficient plus 1; r = 0
    # is the scalar case, its one mask 0 against the empty minor 1
    n, us = 3, (Fraction(-1), Fraction(0), Fraction(2))
    f = build_forms("uea", n=n)
    assert all(check_xi_power_formula(n, u, r, forms=f) for r in range(n + 1) for u in us)
    xi_shifted_power = grassmann.xi_shifted_power
    top, e1_e_minus1 = (1 << 2 * n) - 1, 1 | 1 << 2 * n - 1

    def changed(forms, u, r):
        terms = coefficients(xi_shifted_power(forms, u, r))
        if change == "extra":
            terms[top if r != n else e1_e_minus1] = UEAElement.one()
        elif change == "missing":
            del terms[max(terms)]
        else:
            mask = min(terms)
            terms[mask] = terms[mask] + 1
        return GrassmannElement(forms.p, forms.q, terms)

    monkeypatch.setattr(grassmann, "xi_shifted_power", changed)
    for r in range(n + 1):
        for u in us:
            assert not check_xi_power_formula(n, u, r, forms=f), (r, u)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_powers_detect_a_corrupted_theta_prime_with_a_warm_memo(n):
    # every t >= 1 fails; past t = n // 2 any 2-form on the n negative slots
    # has a zero t-th power, so both sides vanish there.  The second sweep
    # reads every expansion from the memo.
    f = _corrupted(build_forms("uea", n=n), "theta_prime")
    for sweep in range(2):
        for s in range(n + 1):
            for t in range(n + 1):
                assert check_theta_powers(n, s, t, forms=f) == (t == 0 or 2 * t > n), (sweep, s, t)
        assert len(f.theta_expansions) == 2 * (n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_commutative_trinomial_detects_corrupted_xi(n):
    # and a corrupted Theta or Theta': the one body reads all three forms
    for name in ("xi", "theta", "theta_prime"):
        f = _corrupted(build_forms("commutative", n=n), name)
        assert not any(check_trinomial(n, m, mode="commutative", forms=f) for m in range(1, n + 1)), name


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
