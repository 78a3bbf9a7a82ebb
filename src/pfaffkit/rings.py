"""Exact scalars, the sparse-combination core, and polynomials.

Every computation in the package runs over exact rationals (ints when
integral, `fractions.Fraction` otherwise) or over rings built on them.
``Combination`` is the dict-of-terms base of ``Poly`` and of the
enveloping algebra, and ``parse_poly`` is the one expression parser.
``_lift`` turns the entries of a matrix, or the coefficients given to an
exterior-algebra element, into raw term dicts of their one coefficient
ring, so that a sum of products runs on ``_product_into`` into one dict,
and the ring's ``_wrap`` wraps the result once; an exterior-algebra
element keeps its coefficients as such raw dicts.  Plain scalars are a
ring too: ``_Scalars`` keeps them on Poly's unit key, so no caller tells
an all-scalar lift apart.  No floats anywhere: all comparisons in the
verification suites are exact equalities.

A ``Poly`` monomial is one int, the product of a prime per variable
raised to its exponent, so multiplying two monomials is one int product.
The primes are handed out per process as names are first seen, so the
codes never leave it: names are decoded where they are read (printing,
homogeneous parts, pickling).  Exponents in parsed text and in
``Poly.__pow__`` are bounded by ``MAX_EXPONENT``; a product may exceed
it, but then printing and pickling refuse, since the text or the pickle
would not read back.  ``parse_poly`` also bounds the size of each power
and product it forms by ``MAX_PARSE_SIZE``, so a short text cannot ask
for an unbounded computation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import compress
from math import comb, isqrt, lcm
from typing import Collection, Iterable, Mapping, Union

ScalarLike = Union[int, Fraction]

# A monomial is a positive int: the product of p^e over its factors
# (name, e), where p is the prime `_prime` gives the name, so 1 is the
# constant monomial and the product of two monomials is their int product.
# Codes are process-local: names are read back by `_decode` at the edges
# (printing, homogeneous parts, pickling), and a code is never printed or
# persisted.
Monomial = int

# The largest exponent that a parsed `^` or `Poly.__pow__` accepts, and so
# the largest that `Poly.sorted_terms` prints: x^e is coded by an int of
# about e * log2(p) bits, which takes e divisions to decode.
MAX_EXPONENT = 4096

_PRIMES: list[int] = []  # every prime below _sieve_limit, ascending
_sieve_limit = 0
_PRIME_OF: dict[str, int] = {}  # variable name -> its prime, in the order first seen
_NAME_OF: dict[int, str] = {}  # prime -> variable name


def _grow_primes() -> None:
    """Double the range of the sieve (64 at first) and list its primes."""
    global _sieve_limit
    _sieve_limit = limit = 2 * _sieve_limit or 64
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    _PRIMES[:] = compress(range(limit), sieve)


def _prime(name: str) -> int:
    """The prime coding variable `name`; a new name gets the next unused prime."""
    p = _PRIME_OF.get(name)
    if p is None:
        k = len(_PRIME_OF)
        if k == len(_PRIMES):
            _grow_primes()
        p = _PRIME_OF[name] = _PRIMES[k]
        _NAME_OF[p] = name
    return p


def _mono_code(factors: Iterable[tuple[str, int]]) -> Monomial:
    """The monomial of (name, exponent) pairs; a repeated name adds up."""
    mono = 1
    for name, e in factors:
        if type(e) is not int or not 0 <= e <= MAX_EXPONENT:
            raise ValueError(f"monomial exponents are ints in [0, {MAX_EXPONENT}], not {e!r}")
        mono *= _prime(name) ** e
    return mono


def _support(monos: Iterable[Monomial]) -> list[tuple[int, str]]:
    """The (prime, name) pairs of the variables in some monomial of
    `monos`: the primes in use that divide the lcm of the monomials."""
    support = lcm(*monos)
    return [(p, name) for p, name in _NAME_OF.items() if not support % p]


def _check_exponents(factors: Iterable[tuple[tuple[str, int], ...]], action: str) -> None:
    """Raise ValueError if a decoded monomial has an exponent above
    MAX_EXPONENT, which neither `parse_poly` nor the constructor accepts."""
    high = max((e for pairs in factors for _, e in pairs), default=0)
    if high > MAX_EXPONENT:
        raise ValueError(f"cannot {action} exponent {high}: it exceeds the bound {MAX_EXPONENT}")


def _decode(monos: Collection[Monomial]) -> list[tuple[tuple[str, int], ...]]:
    """The (name, exponent) pairs of each monomial, sorted by name; each is
    divided only by the primes of `_support(monos)`."""
    support = _support(monos)
    out = []
    for mono in monos:
        factors = []
        if mono != 1:
            for p, name in support:
                if not mono % p:
                    mono //= p
                    e = 1
                    while not mono % p:
                        mono //= p
                        e += 1
                    factors.append((name, e))
                    if mono == 1:
                        break
            factors.sort()
        out.append(tuple(factors))
    return out


class PolyParseError(ValueError):
    """Raised on malformed polynomial or rational literals."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message)
        self.pos = pos


_INT_LITERAL = re.compile(r"[+-]?[0-9]+")


def parse_rational(text: str) -> ScalarLike:
    """Parse a rational literal ('p', 'p/q', '1.5', '1e3', ...) under the
    scalar rule: an int when integral, else a Fraction.

    `Fraction` decides which texts are accepted; the result then goes
    through `_rational`.  A plain ASCII integer literal, which `Fraction`
    accepts with the same value, is read by `int` directly."""
    try:
        if _INT_LITERAL.fullmatch(text):
            return int(text)
        return _rational(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise PolyParseError(f"bad rational literal {text!r}: {exc}") from None


_GENERATOR_NAME = re.compile(r"^([abc])\[(\d+),(\d+)\]$")

# Display classes for generator-style names; the same ranking drives the
# normal ordering of the enveloping-algebra engine.
LOWERING, CARTAN, RAISING = 0, 1, 2
_KIND_RANK = {"c": 0, "a": 1, "b": 2}


@cache
def display_key(name: str):
    """Total order on variable names used when printing monomial factors.

    Names of the shape ``a[i,j]``/``b[i,j]``/``c[i,j]`` sort by root class
    (lowering, then diagonal, then raising) and within a class by
    (kind, i, j) with kind order c < a < b.  Anything else keeps plain
    name order in a middle band.  This makes printed products come out in
    normal order, e.g. ``c[1,2]*b[1,2]`` and ``a[2,1]*a[1,2]``.
    """
    m = _GENERATOR_NAME.match(name)
    if m is None:
        return (CARTAN, 9, 0, 0, name)
    kind, i, j = m.group(1), int(m.group(2)), int(m.group(3))
    if kind == "b":
        cls = RAISING
    elif kind == "c":
        cls = LOWERING
    elif i < j:
        cls = RAISING
    elif i > j:
        cls = LOWERING
    else:
        cls = CARTAN
    return (cls, _KIND_RANK[kind], i, j, name)


def _mono_degree(factors) -> int:
    return sum(e for _, e in factors)


def _mono_print_key(factors):
    # Ascending sort under this key yields graded-lex descending terms:
    # higher total degree first, then lexicographically larger exponent
    # vectors (variables in name order) first.
    return (-_mono_degree(factors), [(name, -e) for name, e in factors])


def format_monomial(factors) -> str:
    """The text of a decoded monomial, its factors in `display_key` order."""
    ordered = sorted(factors, key=lambda f: display_key(f[0]))
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in ordered)


def _rational(c):
    """The scalar rule: an integral Fraction becomes an int.

    Ints, other Fractions and ring elements pass unchanged.  An int and
    the equal Fraction compare and hash alike, and int arithmetic is much
    cheaper."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def add_into(out: dict, terms: Mapping, scale=1) -> dict:
    """Add scale * terms into `out` in place and return `out`.

    `scale` multiplies each coefficient on the left; the products and
    the sums on colliding keys follow the scalar rule of `_rational`.
    Zero coefficients of `terms` are skipped and keys whose sum cancels
    leave `out`, so `out` never holds a zero coefficient if it started
    without."""
    if not scale:
        return out
    unscaled = scale == 1
    for key, c in terms.items():
        if not unscaled:
            c = _rational(scale * c)
        s = out.get(key)
        if s is None:
            if c:
                out[key] = c
        elif s := _rational(s + c):
            out[key] = s
        else:
            del out[key]
    return out


_SCALAR_TYPES = frozenset((int, Fraction))


def _lift(groups: Iterable[Collection]) -> tuple[type, list[list]]:
    """Lift values to raw term dicts of their one coefficient ring.

    The values are ints, Fractions and elements of at most one
    `Combination` type, the ring (TypeError on two); if every value is a
    scalar, the ring is `_Scalars`.  Returns (ring, lifted), each group
    (a matrix row, or the coefficients given to an exterior-algebra
    element) lifted in one pass to the list of its values' raw terms, in
    its order.  A ring element gives its own ``terms``, which are read
    and never written; a nonzero scalar sits on the ring's unit key, under
    the scalar rule of `_rational`, and a zero gives {}.  ``ring._wrap``
    turns a raw sum back into a value.  Each group is read twice, so it
    must be a collection, not an iterator."""
    groups = list(groups)
    rings = {type(c) for group in groups for c in group} - _SCALAR_TYPES
    if len(rings) > 1:
        raise TypeError(f"mixed coefficient rings: {sorted(r.__name__ for r in rings)}")
    ring = rings.pop() if rings else _Scalars
    unit = ring._UNIT
    return ring, [[c.terms if type(c) is ring else {unit: _rational(c)} if c else {} for c in group]
                  for group in groups]


class Combination:
    """Sparse linear combination: ``terms`` maps keys to nonzero coefficients.

    The base owns the module operations: sums, differences, negation,
    scaling, equality and binary powering, plus the sign/magnitude printer.
    A scalar (int or Fraction) stands for the coefficient of the unit key
    ``_UNIT``, so ``x == 0`` or ``x + 1`` compares or adds dicts without
    building an element.  Subclasses supply the product, the print order
    ``sorted_terms`` and the key printer ``_format_key``: ``sorted_terms``
    gives (key, coefficient) pairs with each key as ``_format_key`` reads
    it, and the unit as the empty key.  Instances are treated as
    immutable; all arithmetic returns fresh objects.

    A coefficient ring (``Poly``, the enveloping algebra) supplies its
    product as the raw ``_product_into(out, left, right, scale)``: add
    scale * left * right, all three term dicts, into `out` in place and
    return it.  Its ``*`` is that call into an empty dict, and the exterior
    algebra multiplies its coefficients through the same call.  It also
    supplies ``_int_product_into``, the same contract for int coefficients
    and an int scale, which the Pfaffian kernels call on their lifts of
    ints (`pfaffian._Lift`); a ring may name its ``_product_into`` there.
    """

    __slots__ = ("terms",)

    _UNIT: object = ()

    def __init__(self, terms: Mapping | None = None):
        self.terms = add_into({}, {k: _rational(c) for k, c in (terms or {}).items()})

    @classmethod
    def _wrap(cls, terms: dict):
        """Element owning `terms`, which must already hold no zero coefficient.

        For a `UEAElement` the dict must hold only PBW-sorted words, as
        every element does: its product starts each scan at the seam."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c: ScalarLike):
        return cls._wrap({cls._UNIT: _rational(c)} if c else {})

    def _coerce(self, other) -> Mapping | None:
        """The terms of `other` as a combination of this type, or None."""
        if isinstance(other, type(self)):
            return other.terms
        if isinstance(other, (int, Fraction)):
            return {self._UNIT: _rational(other)} if other else {}
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(add_into(dict(self.terms), o))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(add_into(dict(self.terms), o, -1))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(add_into(dict(o), self.terms, -1))

    def scale(self, s):
        """s times every coefficient, with s on the left."""
        return self._wrap(add_into({}, self.terms, s))

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("powers need a nonnegative integer exponent")
        result = None
        base = self
        while exp:
            if exp & 1:
                result = base if result is None else result * base
            exp >>= 1
            if exp:
                base = base * base
        return self._wrap({self._UNIT: 1}) if result is None else result

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key, coeff in self.sorted_terms():
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if not key:
                body = str(mag)
            else:
                factors = self._format_key(key)
                body = factors if mag == 1 else f"{mag}*{factors}"
            pieces.append(f" - {body}" if neg else f" + {body}")
        text = "".join(pieces)
        return text[3:] if text.startswith(" + ") else "-" + text[3:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Poly(Combination):
    """Sparse polynomial with exact rational coefficients.

    ``terms`` maps monomials, coded as ints (see ``Monomial``), to nonzero
    coefficients, stored as ints when integral and as Fractions otherwise.
    The constructor takes monomials as (name, exponent) pairs and codes
    them; a pickle carries the pairs, so it reads back in any process."""

    __slots__ = ()

    _UNIT: Monomial = 1

    def __init__(self, terms: Mapping | None = None):
        self.terms = {}
        for factors, c in (terms or {}).items():
            add_into(self.terms, {_mono_code(factors): _rational(c)})

    def __reduce__(self):
        """Pickle the (name, exponent) pairs; raises ValueError on an
        exponent above MAX_EXPONENT, which the constructor would refuse
        when the pickle is read back."""
        factors = _decode(self.terms)
        _check_exponents(factors, "pickle")
        return Poly, (dict(zip(factors, self.terms.values())),)

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls._wrap({_prime(name): 1})

    def homogeneous_part(self, d: int) -> "Poly":
        """The sum of the terms of total degree exactly d."""
        degrees = map(_mono_degree, _decode(self.terms))
        return self._wrap({m: c for (m, c), k in zip(self.terms.items(), degrees) if k == d})

    __add__ = __radd__ = Combination.__add__

    def __pow__(self, exp: int):
        if isinstance(exp, int) and exp > MAX_EXPONENT:
            raise ValueError(f"exponent {exp} exceeds the bound {MAX_EXPONENT}")
        return Combination.__pow__(self, exp)

    @staticmethod
    def _product_into(out: dict, left: Mapping, right: Mapping, scale: ScalarLike = 1) -> dict:
        """Add scale * left * right into `out` in one fused loop.

        Each coefficient product goes straight into `out` under the product
        of the two monomial codes; what is stored, a new product or a
        colliding sum, follows the scalar rule of `_rational`, and a key
        whose sum cancels leaves at once, so `out` never holds a zero
        coefficient if it started without."""
        if not scale:
            return out
        get = out.get
        rows = right.items()
        for m1, c1 in left.items():
            c1 = scale * c1
            for m2, c2 in rows:
                m = m1 * m2
                c = c1 * c2
                s = get(m)
                if s is not None:
                    c = s + c
                    if not c:
                        del out[m]
                        continue
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                out[m] = c
        return out

    @staticmethod
    def _int_product_into(out: dict, left: Mapping, right: Mapping, scale: int = 1) -> dict:
        """`_product_into` for int coefficients and an int `scale`, as the
        kernels on a `pfaffian._Lift` multiply: every product and sum is an
        int, so no stored value needs the scalar rule."""
        if not scale:
            return out
        get = out.get
        rows = right.items()
        for m1, c1 in left.items():
            c1 = scale * c1
            for m2, c2 in rows:
                m = m1 * m2
                c = c1 * c2
                s = get(m)
                if s is not None:
                    c = s + c
                    if not c:
                        del out[m]
                        continue
                out[m] = c
        return out

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self._wrap(self._product_into({}, self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def sorted_terms(self) -> list[tuple[tuple[tuple[str, int], ...], ScalarLike]]:
        """(factors, coefficient) pairs in print order; each monomial is
        decoded once, and its degree and factors read from that decoding.
        Raises ValueError on an exponent above MAX_EXPONENT, whose text
        `parse_poly` would refuse."""
        factors = _decode(self.terms)
        _check_exponents(factors, "print")
        terms = list(zip(factors, self.terms.values()))
        terms.sort(key=lambda kv: _mono_print_key(kv[0]))
        return terms

    _format_key = staticmethod(format_monomial)


class _Scalars:
    """The coefficient ring that `_lift` names when every value is an int
    or a Fraction, and that an exterior-algebra element of scalars, or 0,
    names: a scalar rides on Poly's unit key and multiplies by
    Poly's `_product_into` (or its `_int_product_into` on a lift of
    ints), and `_wrap` reads a raw sum back as the scalar on that key (0
    when it is absent)."""

    _UNIT = Poly._UNIT
    _product_into = staticmethod(Poly._product_into)
    _int_product_into = staticmethod(Poly._int_product_into)

    @staticmethod
    def _wrap(terms: dict) -> ScalarLike:
        return terms.get(Poly._UNIT, 0)

    @staticmethod
    def const(c: ScalarLike) -> ScalarLike:
        return c


# --- the parser -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[\d+(?:,\d+)*\])?)"
    r"|(?P<op>[*^+\-()]))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split an expression into (kind, lexeme, offset) triples."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise PolyParseError(f"unexpected character {rest[0]!r}", pos)
        if m.group("number"):
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


# The largest value, in bits, that `parse_poly` forms by a power or a
# product: its term count times the bits of its largest term, monomial code
# and coefficient together.  Each `^` and `*` is checked on an estimate of
# its result before it is formed, so (x+1)^1000 still parses in a fraction
# of a second, while a nested power or a power of a long sum is refused
# without being expanded.  A code is as long as its primes, which names
# seen earlier in the process push up, so the bound is on what is really
# formed, and a value near it may parse in one process and not another.
MAX_PARSE_SIZE = 1 << 22


def _shape(p: Poly) -> tuple[int, int]:
    """(term count, bits of the largest term) of p; a Fraction coefficient
    counts its numerator and its denominator."""
    bits = 0
    for m, c in p.terms.items():
        if type(c) is Fraction:
            c = c.numerator * c.denominator
        bits = max(bits, m.bit_length() + c.bit_length())
    return len(p.terms), bits


def _check_size(what: str, pos: int, terms: int, bits: int) -> None:
    """Raise PolyParseError at `pos` if `terms` terms of `bits` bits each
    exceed MAX_PARSE_SIZE."""
    if terms * bits > MAX_PARSE_SIZE:
        raise PolyParseError(f"the {what} at column {pos + 1} would exceed the size bound "
                             f"{MAX_PARSE_SIZE} (terms times bits per term)", pos)


def parse_poly(text: str) -> Poly:
    """Parse a plain ASCII polynomial; str(p) parses back to p.

    Recursive descent over `tokenize`: terms joined by '+'/'-', where a
    run of signs folds into one (so "x + -1 * y" and "x - -y" parse); a
    term is a product of factors joined by '*' or by juxtaposition; a
    factor is a rational literal, a variable name or a parenthesised
    expression, with an optional '^' and nonnegative integer exponent of
    at most MAX_EXPONENT.  Before each power and each product is formed,
    its size is estimated from the `_shape` (t, b) of its operands: at most
    comb(t + e - 1, e) terms of e * (b + log2 t) bits for a power ^e, and
    ta * tb terms of ba + bb + log2 min(ta, tb) bits for a product.  An
    estimate past MAX_PARSE_SIZE is a PolyParseError at the operator's
    column ('^', '*', or the second factor of a juxtaposition).
    """
    tokens = tokenize(text)
    k = 0

    def peek():
        return tokens[k] if k < len(tokens) else (None, None, len(text))

    def is_op(tok, ops: str) -> bool:
        return tok[0] == "op" and tok[1] in ops

    def signs() -> int:
        nonlocal k
        sign = 1
        while is_op(peek(), "+-"):
            if peek()[1] == "-":
                sign = -sign
            k += 1
        return sign

    def expression() -> Poly:
        if peek()[0] is None:
            raise PolyParseError("empty expression", len(text))
        sign = signs()
        total = term()
        if sign < 0:
            total = -total
        while is_op(peek(), "+-"):
            sign = signs()
            total = total + term() if sign > 0 else total - term()
        return total

    def term() -> Poly:
        nonlocal k
        product = factor()
        while True:
            tok = peek()
            if is_op(tok, "*"):
                k += 1
            elif not (tok[0] in ("number", "name") or is_op(tok, "(")):
                return product
            right = factor()
            (ta, ba), (tb, bb) = _shape(product), _shape(right)
            if ta and tb:
                _check_size("product", tok[2], ta * tb, ba + bb + (min(ta, tb) - 1).bit_length())
            product = product * right

    def factor() -> Poly:
        nonlocal k
        kind, lex, pos = peek()
        k += 1
        if kind == "number":
            base = Poly.const(parse_rational(lex))
        elif kind == "name":
            base = Poly.var(lex)
        elif kind == "op" and lex == "(":
            base = expression()
            if not is_op(peek(), ")"):
                raise PolyParseError("expected ')'", peek()[2])
            k += 1
        else:
            raise PolyParseError(f"expected a factor, found {lex!r}" if kind else "unexpected end of input", pos)
        if is_op(peek(), "^"):
            caret = peek()[2]
            k += 1
            ek, el, epos = peek()
            if ek != "number" or "/" in el:
                raise PolyParseError("exponent must be a nonnegative integer", epos)
            k += 1
            digits = el.lstrip("0") or "0"  # int() refuses over 4300 digits
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise PolyParseError(f"exponent {el} exceeds the bound {MAX_EXPONENT}", epos)
            e = int(digits)
            t, b = _shape(base)
            if t and e:
                _check_size("power", caret, comb(t + e - 1, e), e * (b + (t - 1).bit_length()))
            return base ** e
        return base

    result = expression()
    kind, lex, pos = peek()
    if kind is not None:
        raise PolyParseError(f"trailing input starting at {lex!r}", pos)
    return result
