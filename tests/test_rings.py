"""Sparse polynomial ring: arithmetic, parsing, printing."""

import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffkit import rings
from pfaffkit.grassmann import GrassmannElement
from pfaffkit.rings import (
    MAX_EXPONENT,
    MAX_PARSE_SIZE,
    Combination,
    Poly,
    PolyParseError,
    _decode,
    _Scalars,
    _lift,
    _mono_code,
    _rational,
    parse_poly,
    parse_rational,
)
from pfaffkit.uea import Generator, UEAElement

x = Poly.var("x")
y = Poly.var("y")


def mono(*factors):
    """The monomial code of (name, exponent) factors."""
    return _mono_code(factors)


def small_polys():
    coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
    names = st.sampled_from(["x", "y", "z"])
    monos = st.dictionaries(names, st.integers(min_value=1, max_value=3), max_size=2)
    term = st.tuples(monos, coeffs)
    return st.lists(term, max_size=4).map(
        lambda ts: sum((Poly({tuple(sorted(m.items())): c}) for m, c in ts), Poly.zero())
    )


def degree(p: Poly) -> int:
    """Total degree, read off the decoded monomials; -1 for the zero polynomial."""
    return max((sum(e for _, e in factors) for factors in _decode(p.terms)), default=-1)


def test_constants_and_vars():
    assert Poly.const(0) == Poly.zero()
    assert Poly.const(3).terms == {Poly._UNIT: 3}
    assert degree(x) == 1
    assert degree(x * x * y) == 3
    assert degree(Poly.const(5)) == 0 and degree(Poly.zero()) == -1


def test_arithmetic_goldens():
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert x - x == Poly.zero()
    assert 2 * x == x + x
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x


def test_pow_zero_is_one():
    assert (x + y) ** 0 == Poly.const(1)
    assert Poly.zero() ** 0 == Poly.const(1)


def test_homogeneous_part():
    p = x * x + 3 * x + Poly.const(7)
    assert p.homogeneous_part(2) == x * x
    assert p.homogeneous_part(1) == 3 * x
    assert p.homogeneous_part(0) == Poly.const(7)
    assert p.homogeneous_part(5) == Poly.zero()
    assert sum((p.homogeneous_part(d) for d in range(degree(p) + 1)), Poly.zero()) == p


def test_str_goldens():
    assert str(Poly.zero()) == "0"
    assert str(x - y) == "x - y"
    assert str(2 * x * x - x + 1) == "2*x^2 - x + 1"
    assert str(Poly.const(Fraction(-3, 4))) == "-3/4"


def test_parse_roundtrip_goldens():
    for text in ("0", "x - y", "2*x^2 - x + 1", "x*y + 3", "-3/4"):
        assert str(parse_poly(text)) == text
    assert parse_poly("x y") == x * y
    assert parse_poly("x - -y") == x + y


def test_parse_parens_and_powers():
    assert parse_poly("(x+1)*(x-1)") == x * x - 1
    assert parse_poly("2*(x+y)^2") == 2 * (x + y) ** 2
    assert parse_poly("a[1,2]") == Poly.var("a[1,2]")


def test_parse_errors_have_positions():
    for bad in ("x +", "* x", "((x)", "x^", "1//2"):
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    with pytest.raises(PolyParseError):
        parse_rational("x")


@pytest.mark.parametrize("text,value", [
    ("1_0", 10), ("1e3", 1000), ("6/2", 3), ("+3", 3), ("-0", 0), (" 4 ", 4), ("3.", 3),
    ("1E2", 100), ("\t5\n", 5),
    ("1.5", Fraction(3, 2)), ("1e-3", Fraction(1, 1000)), (".5", Fraction(1, 2)), ("-7/14", Fraction(-1, 2)),
])
def test_parse_rational_accepts_under_the_scalar_rule(text, value):
    # Fraction decides what parses; an integral value comes back as an int
    got = parse_rational(text)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("text", ["1/0", "x", "", "1 / 2", "1__0", "_1", "1/2/3", "0x10", "inf", "nan", "4/-2"])
def test_parse_rational_rejects(text):
    with pytest.raises(PolyParseError):
        parse_rational(text)


INT_ROUTE_TABLE = [
    "0", "-0", "+0", "7", "+3", "-12", "007", "-007", str(10**40), "-" + str(10**40), "9" * 4300, "9" * 4301,
    "1_0", "1__0", "_1", "1_", "\u0663", "-\u0661\u0662", "1e3", " 7 ", "7\n", "\t-5", "+-1", "--1", "-", "+",
    "", " ", "1 2", "3/4", "6/2", "1.0", "0x10", "\u00b2",
]


def test_parse_rational_int_route_matches_fraction_route():
    # the int fast path changes neither the accepted texts nor the values:
    # each literal parses as `Fraction` reads it, or fails as it fails
    for text in INT_ROUTE_TABLE:
        try:
            expected = _rational(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError):
            with pytest.raises(PolyParseError):
                parse_rational(text)
            continue
        got = parse_rational(text)
        assert got == expected and type(got) is type(expected), text[:20]


def _gen(kind, i, j):
    return UEAElement.from_generator(Generator(kind, i, j))


def _poly_case():
    return x * x - 3 * y + Fraction(1, 2), Poly.var("z") * y, Poly.const(1)


def _uea_case():
    a11, b12, c12 = _gen("a", 1, 1), _gen("b", 1, 2), _gen("c", 1, 2)
    return c12 * b12 + a11 * 2 - Fraction(3, 4), _gen("a", 2, 1), UEAElement.one()


def _grassmann_case():
    a11, b12 = _gen("a", 1, 1), _gen("b", 1, 2)
    x = GrassmannElement.from_words(2, 2, [([1], a11), ([-1, 2], b12 + 1), ((), a11 * b12)])
    return x, GrassmannElement.from_words(2, 2, [([2, -2], a11)]), GrassmannElement.scalar(2, 2, UEAElement.one())


@pytest.mark.parametrize("case", [_poly_case, _uea_case, _grassmann_case], ids=["poly", "uea", "grassmann"])
def test_combination_core(case, monkeypatch):
    x, t, unit = case()
    assert not set(t.terms) & set(x.terms)
    assert (x - x).terms == {}
    assert (x + t) - t == x and set(((x + t) + (-t)).terms) == set(x.terms)
    assert x.scale(3) == x + x + x
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert x**3 == x * x * x and x**1 == x and x**0 == unit
    zero = x - x
    # comparing with a scalar reads the terms dicts and builds no element
    for cls, names in ((Combination, ("__init__", "_wrap")), (GrassmannElement, ("__init__", "_raw"))):
        for name in names:
            monkeypatch.setattr(cls, name, lambda *a, **k: pytest.fail("built an element"))
    with pytest.raises(pytest.fail.Exception):
        x + x
    assert x != 0 and x != 1 and zero == 0 and unit == 1 and unit != 0


def test_product_cancellation_stores_no_zero():
    # x*y and y*x cancel inside the one product
    p = (x + y) * (x - y)
    assert mono(("x", 1), ("y", 1)) not in p.terms
    assert p.terms == {mono(("x", 2)): 1, mono(("y", 2)): -1}
    q = (x + y + 1) * (x - y + 1) * (x - 1)
    assert all(q.terms.values()) and q == (x * x - y * y + 2 * x + 1) * (x - 1)
    # scaled into an existing dict: every pair cancels what was there
    out = dict((x * y).terms)
    assert Poly._product_into(out, x.terms, y.terms, -1) == {}


def test_product_of_halves_stores_ints():
    half = Fraction(1, 2)
    p = (x * half + y * half) * (x * 2 + 2)
    assert p == x * x + x * y + x + y
    assert all(type(c) is int for c in p.terms.values())
    assert type(((x * half) * (y * half)).terms[mono(("x", 1), ("y", 1))]) is Fraction
    assert type((Poly.const(half) * Poly.const(2)).terms[Poly._UNIT]) is int


def test_sum_of_halves_stores_ints():
    half = Poly.var("x").scale(Fraction(1, 2))
    assert (half + half).terms == {mono(("x", 1)): 1}
    assert type((half + half).terms[mono(("x", 1))]) is int
    assert type((half - Poly.var("x") * Fraction(3, 2)).terms[mono(("x", 1))]) is int


def test_colliding_product_stores_ints():
    # x y arises twice, as 1/2 + 1/2: the sum is stored as the int 1
    p = (x.scale(Fraction(1, 2)) + y.scale(Fraction(1, 2))) * (x + y)
    assert p.terms[mono(("x", 1), ("y", 1))] == 1
    assert type(p.terms[mono(("x", 1), ("y", 1))]) is int


def _poly_raw():
    # (ring, left, right, the raw product left * right)
    left, right = (x + y.scale(Fraction(1, 2))).terms, (x - y + 1).terms
    return Poly, left, right, Poly._product_into({}, left, right)


def _uea_raw():
    b12, c12 = _gen("b", 1, 2), _gen("c", 1, 2)
    left, right = (b12 + c12.scale(Fraction(1, 2))).terms, (b12 - c12 + 1).terms
    return UEAElement, left, right, UEAElement._product_into({}, left, right)


@pytest.mark.parametrize("case", [_poly_raw, _uea_raw], ids=["poly", "uea"])
def test_raw_product_contract(case):
    ring, left, right, prod = case()
    assert prod and all(prod.values())
    # into a non-empty out whose keys all cancel: nothing is left, no zero stored
    out = dict(prod)
    assert ring._product_into(out, left, right, -1) == {}
    # half of it, then the other half: every key collides and sums to the product
    out = ring._product_into({}, left, right, Fraction(1, 2))
    assert ring._product_into(out, left, right, Fraction(1, 2)) == prod
    assert all(type(c) is int for k, c in out.items() if type(prod[k]) is int)
    # a zero scale adds nothing and stores nothing
    out = dict(prod)
    assert ring._product_into(out, left, right, 0) == prod
    assert ring._product_into({}, left, right, 0) == {}
    # an integral colliding sum is stored as an int, within one call and across two
    g, unit = next(iter(left)), ring._UNIT
    out = ring._product_into({}, {unit: Fraction(1, 2), g: Fraction(1, 2)}, {unit: 1, g: 1})
    assert out[g] == 1 and type(out[g]) is int
    out = ring._product_into({}, {g: Fraction(1, 2)}, {unit: 1})
    ring._product_into(out, {g: Fraction(1, 2)}, {unit: 1})
    assert out == {g: 1} and type(out[g]) is int


def _mono_mul_by_dict(m1, m2):
    # the definition: add exponents name by name, then sort
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def monomials():
    names = st.sampled_from(["a[1,2]", "a[2,1]", "b[1,2]", "c[1,3]", "x", "y", "z"])
    return st.dictionaries(names, st.integers(min_value=1, max_value=3), max_size=5).map(
        lambda d: tuple(sorted(d.items())))


@given(monomials(), monomials())
@settings(max_examples=300, deadline=None)
def test_monomial_code_product_matches_dict_definition(m1, m2):
    code1, code2 = _mono_code(m1), _mono_code(m2)
    assert _decode([code1 * code2, code1]) == [_mono_mul_by_dict(m1, m2), m1]


def test_tuple_key_constructor():
    # (name, exponent) keys are coded; keys naming one monomial add up
    assert Poly({(("x", 2), ("y", 1)): 3, (): Fraction(1, 2)}) == 3 * x * x * y + Fraction(1, 2)
    assert Poly({(("y", 1), ("x", 1)): 1, (("x", 1), ("y", 1)): -1}).terms == {}
    assert Poly({(("x", 1), ("x", 1)): 2}) == 2 * x * x
    assert Poly({(("x", 0),): 5}) == Poly.const(5) and str(Poly({(): Fraction(2, 4)})) == "1/2"
    assert Poly({(("x", 2),): Fraction(4, 2)}).terms == {mono(("x", 2)): 2}
    for bad in (-1, MAX_EXPONENT + 1, 1.0):
        with pytest.raises(ValueError):
            Poly({(("x", bad),): 1})


def test_pickle_round_trip_in_a_fresh_process(tmp_path):
    # a pickle names its variables, so another process, which codes the
    # same names by other primes, reads back the same polynomial
    p = (x - 2 * y) ** 2 * Poly.var("a[1,2]") + Fraction(1, 3)
    assert pickle.loads(pickle.dumps(p)) == p
    path = tmp_path / "p.pickle"
    path.write_bytes(pickle.dumps(p))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = ("import pickle, sys; from pfaffkit.rings import Poly, _decode; Poly.var('zz'); Poly.var('y');"
            f"p = pickle.loads(open({str(path)!r}, 'rb').read()); print(p); print(sorted(_decode(p.terms)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{p}\n{sorted(_decode(p.terms))}\n"


def test_exponent_bound():
    assert parse_poly(f"x^{MAX_EXPONENT}") == x**MAX_EXPONENT
    assert degree(parse_poly(f"x^000{MAX_EXPONENT}*y")) == MAX_EXPONENT + 1
    for text in (f"x^{MAX_EXPONENT + 1}", "x^1000000000*y", "2*x*(y+1)^" + "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert time.perf_counter() - start < 1
        assert err.value.pos == text.index("^") + 1
    with pytest.raises(ValueError):
        (x + 1) ** (MAX_EXPONENT + 1)
    # a larger exponent reached by multiplying is still read
    high = x**MAX_EXPONENT * x * y
    assert degree(high) == MAX_EXPONENT + 2


@pytest.mark.parametrize("text,what,pos", [
    ("((2^4096)^4096)^4096", "power", 9),
    ("(x+y+z+w+v)^300", "power", 11),
    ("(2^4096)^600*(2^4096)^600", "product", 12),
    ("(2^4096)^600 (2^4096)^600", "product", 13),
    ("x*(2^4096)^600 + y*(2^4096)^600", "sum", 15),
    ("x*(2^4096)^600 - -y*(2^4096)^600", "sum", 15),
])
def test_parse_size_bound(text, what, pos):
    # every operand is within the bound, the value formed from two of them
    # is not: refused at its operator, before it is formed
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match=f"the {what} at column {pos + 1} would exceed the size bound "
                                             f"{MAX_PARSE_SIZE} ") as err:
        parse_poly(text)
    assert time.perf_counter() - start < 1
    assert err.value.pos == pos


def test_parse_size_bound_admits_the_operands():
    assert parse_poly("(2^4096)^600") == 2 ** (4096 * 600)
    assert parse_poly("(x+y+z+w+v)^3") == (x + y + Poly.var("z") + Poly.var("w") + Poly.var("v")) ** 3
    assert parse_poly("(x+1)^4*(y+1)^4 (x-1)") == (x + 1) ** 4 * (y + 1) ** 4 * (x - 1)


@pytest.fixture
def fresh_names(monkeypatch):
    """Name tables of the test's own, so the names it registers leave the
    primes that later tests get unchanged."""
    for table in ("_PRIME_OF", "_NAME_OF"):
        monkeypatch.setattr(rings, table, dict(getattr(rings, table)))
    monkeypatch.setattr(rings, "_PRIMES", list(rings._PRIMES))
    monkeypatch.setattr(rings, "_sieve_limit", rings._sieve_limit)


def _best_of_three(call):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        value = call()
        best = min(best, time.perf_counter() - start)
    return value, best


def test_a_long_sum_of_small_monomials_parses(fresh_names):
    # 5 000 addends stay far below the sum bound, and go into one dict: the
    # sum takes no longer than adding its parsed addends one by one
    addends = [f"{i % 7 + 1}*v{i}" for i in range(5000)]
    expected = Poly({((f"v{i}", 1),): i % 7 + 1 for i in range(5000)})
    got, whole = _best_of_three(lambda: parse_poly(" + ".join(addends)))
    assert got == expected and len(got.terms) == 5000
    summed, one_by_one = _best_of_three(lambda: sum(map(parse_poly, addends), Poly.zero()))
    assert summed == expected and whole <= one_by_one


class _CountingNames(dict):
    """A prime -> name table that counts the entries read from it."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item


def test_printing_a_one_variable_poly_reads_one_name(fresh_names, monkeypatch):
    # the support of a coefficient stops at the first cofactor that is a
    # variable's prime, not after every name the process has seen
    for i in range(5000):
        Poly.var(f"n{i}")
    names = _CountingNames(rings._NAME_OF)
    monkeypatch.setattr(rings, "_NAME_OF", names)
    assert str(3 * Poly.var("n4999") - 1) == "3*n4999 - 1"
    assert names.reads == 1
    names.reads = 0
    assert str(Poly.const(5)) == "5" and names.reads == 0
    # a support of several variables divides the primes up to the last one's
    assert str(Poly.var("n0") * Poly.var("n4999") ** 2 + Poly.var("n17")) == "n0*n4999^2 + n17"
    assert str(Poly.var("n4999") ** 2) == "n4999^2"


def test_printing_refuses_an_exponent_over_the_bound():
    # x^4097 is reachable by multiplying, but its text would not parse back
    high = x**MAX_EXPONENT * x
    with pytest.raises(ValueError, match=f"exceeds the bound {MAX_EXPONENT}"):
        str(high)
    with pytest.raises(ValueError, match=f"exceeds the bound {MAX_EXPONENT}"):
        str(high * y - 1)
    # its degree still reads it
    assert degree(high) == MAX_EXPONENT + 1
    assert parse_poly(str(x**MAX_EXPONENT * y)) == x**MAX_EXPONENT * y


def test_pickling_refuses_an_exponent_over_the_bound():
    # the constructor would refuse x^4097 when the pickle is read back
    high = x**MAX_EXPONENT * x
    with pytest.raises(ValueError, match=f"exceeds the bound {MAX_EXPONENT}"):
        pickle.dumps(high)
    with pytest.raises(ValueError, match=f"exceeds the bound {MAX_EXPONENT}"):
        pickle.dumps(high * y - 1)
    at_bound = x**MAX_EXPONENT * y - 1
    assert pickle.loads(pickle.dumps(at_bound)) == at_bound


def test_scalar_grassmann_product_stores_ints():
    # scalar coefficients go through Poly's product on its unit key
    left = GrassmannElement.from_words(1, 1, [([1], Fraction(1, 2)), ((), Fraction(3, 2))])
    right = GrassmannElement.from_words(1, 1, [([-1], 2), ((), Fraction(2, 3))])
    prod = left * right
    assert {m: prod.coefficient(m) for m in prod.terms} == {0b11: 1, 0b01: Fraction(1, 3), 0b10: 3, 0: 1}
    assert type(prod.coefficient(0b11)) is int and type(prod.coefficient(0)) is int
    assert type(prod.coefficient(0b10)) is int
    # a lifted scalar follows the scalar rule, so an integral Fraction that
    # lands alone on its mask is stored as an int
    alone = GrassmannElement.from_words(2, 2, [([1], Fraction(2))])
    assert {m: alone.coefficient(m) for m in alone.terms} == {1: 2} and type(alone.coefficient(1)) is int
    assert _lift(([Fraction(4, 2), Fraction(1, 2), 0],)) == (_Scalars, [[{1: 2}, {1: Fraction(1, 2)}, {}]])
    assert type(_lift(([Fraction(4, 2)],))[1][0][0][1]) is int


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero() == p
    assert p * Poly.const(1) == p


@given(small_polys())
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(p):
    assert parse_poly(str(p)) == p
