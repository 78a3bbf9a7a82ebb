"""Exact scalars, the sparse-combination core, and polynomials.

Every computation in the package runs over exact rationals (ints when
integral, `fractions.Fraction` otherwise; ``Scalar`` aliases Fraction) or
over rings built on them.  ``Combination`` is the dict-of-terms base of
``Poly``, of the enveloping algebra and of the exterior algebra, and
``parse_expression`` is the one expression parser.  ``_lift`` turns the
entries of a matrix, or the coefficients of exterior-algebra elements,
into raw term dicts of their one coefficient ring, so that a sum of
products runs on ``_product_into`` into one dict, and ``_unlift`` wraps
the result once.  No floats anywhere: all comparisons in the
verification suites are exact equalities.

A ``Poly`` monomial is one int, the product of a prime per variable
raised to its exponent, so multiplying two monomials is one int product.
The primes are handed out per process as names are first seen, so the
codes never leave it: names are decoded where they are read (printing,
variables, degrees, pickling).  Exponents in parsed text and in
``Poly.__pow__`` are bounded by ``MAX_EXPONENT``; a product may exceed
it, but then printing and pickling refuse, since the text or the pickle
would not read back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import compress
from math import isqrt, lcm
from typing import Callable, Collection, Iterable, Mapping, Union

Scalar = Fraction

ScalarLike = Union[int, Fraction]

# A monomial is a positive int: the product of p^e over its factors
# (name, e), where p is the prime `_prime` gives the name, so 1 is the
# constant monomial and the product of two monomials is their int product.
# Codes are process-local: names are read back by `_decode` at the edges
# (printing, variables, degrees), and a code is never printed or persisted.
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


def _lift(groups: Iterable[Collection]) -> tuple[type | None, list[list]]:
    """Lift values to raw term dicts of their one coefficient ring.

    The values are ints, Fractions and elements of at most one
    `Combination` type, the ring (TypeError on two).  Returns (ring,
    lifted), ring None if every value is a scalar, with each group lifted
    in one pass to a list: a dict group (the terms of an exterior-algebra
    element) to its (key, raw terms) pairs, any other collection of
    values (a matrix row) to the raw terms in its order.  A ring element
    gives its own ``terms``, which are read and never written; a nonzero
    scalar sits on the ring's unit key (Poly's when ring is None) and a
    zero gives {}.  Each group is read twice, so it must be a collection,
    not an iterator."""
    groups = list(groups)
    rings = {type(c) for group in groups for c in (group.values() if type(group) is dict else group)}
    rings -= _SCALAR_TYPES
    if len(rings) > 1:
        raise TypeError(f"mixed coefficient rings: {sorted(r.__name__ for r in rings)}")
    ring = rings.pop() if rings else None
    unit = (ring or Poly)._UNIT
    return ring, [
        [(k, c.terms if type(c) is ring else {unit: c} if c else {}) for k, c in group.items()]
        if type(group) is dict else
        [c.terms if type(c) is ring else {unit: c} if c else {} for c in group]
        for group in groups]


def _unlift(ring: type | None, terms: dict):
    """The value of a raw term dict of `ring` from `_lift`: an element of
    ring owning `terms`, or for ring None the scalar on Poly's unit key."""
    return ring._wrap(terms) if ring is not None else terms.get(Poly._UNIT, 0)


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
    algebra multiplies its coefficients through the same call.
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

    def variables(self) -> set[str]:
        return {name for _, name in _support(self.terms)}

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(_mono_degree, _decode(self.terms)))

    @property
    def constant_term(self) -> ScalarLike:
        return self.terms.get(self._UNIT, 0)

    def homogeneous_part(self, d: int) -> "Poly":
        """The sum of the terms of total degree exactly d."""
        degrees = map(_mono_degree, _decode(self.terms))
        return self._wrap({m: c for (m, c), k in zip(self.terms.items(), degrees) if k == d})

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self._UNIT in self.terms)

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

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self._wrap(self._product_into({}, self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        # scalar division only; dividing by a polynomial is not defined here
        if isinstance(other, Poly):
            if not other.is_constant or not other.terms:
                return NotImplemented
            other = other.constant_term
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.scale(1 / Fraction(other))

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


# --- shared tokenizer / parser -------------------------------------------

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


def parse_expression(text: str, var: Callable[[str], Combination],
                     const: Callable[[ScalarLike], Combination]) -> Combination:
    """Parse a plain ASCII expression into a ring element.

    Recursive descent over the shared tokenizer: terms joined by '+'/'-',
    where a run of signs folds into one (so "x + -1 * y" and "x - -y"
    parse); a term is a product of factors joined by '*' or by
    juxtaposition; a factor is a rational literal, a name or a
    parenthesised expression, with an optional '^' and nonnegative
    integer exponent.  Names become elements through `var` and literals
    through `const`; the ring's own product does the rest.
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

    def expression():
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

    def term():
        nonlocal k
        product = factor()
        while True:
            tok = peek()
            if is_op(tok, "*"):
                k += 1
            elif not (tok[0] in ("number", "name") or is_op(tok, "(")):
                return product
            product = product * factor()

    def factor():
        nonlocal k
        kind, lex, pos = peek()
        k += 1
        if kind == "number":
            base = const(parse_rational(lex))
        elif kind == "name":
            base = var(lex)
        elif kind == "op" and lex == "(":
            base = expression()
            if not is_op(peek(), ")"):
                raise PolyParseError("expected ')'", peek()[2])
            k += 1
        else:
            raise PolyParseError(f"expected a factor, found {lex!r}" if kind else "unexpected end of input", pos)
        if is_op(peek(), "^"):
            k += 1
            ek, el, epos = peek()
            if ek != "number" or "/" in el:
                raise PolyParseError("exponent must be a nonnegative integer", epos)
            k += 1
            digits = el.lstrip("0") or "0"  # int() refuses over 4300 digits
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise PolyParseError(f"exponent {el} exceeds the bound {MAX_EXPONENT}", epos)
            return base ** int(digits)
        return base

    result = expression()
    kind, lex, pos = peek()
    if kind is not None:
        raise PolyParseError(f"trailing input starting at {lex!r}", pos)
    return result


def parse_poly(text: str) -> Poly:
    """Parse a polynomial with parse_expression; str(p) parses back to p."""
    return parse_expression(text, Poly.var, Poly.const)
