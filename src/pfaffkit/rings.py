"""Exact scalars, the sparse-combination core, and polynomials.

Every computation in the package runs over exact rationals (ints when
integral, `fractions.Fraction` otherwise; ``Scalar`` aliases Fraction) or
over rings built on them.  ``Combination`` is the dict-of-terms base of
``Poly``, of the enveloping algebra and of the exterior algebra, and
``parse_expression`` is the one expression parser.  No floats anywhere:
all comparisons in the verification suites are exact equalities.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

Scalar = Fraction

ScalarLike = Union[int, Fraction]

# A monomial is a tuple of (name, exponent) pairs, sorted by name, with all
# exponents positive.  The empty tuple is the constant monomial.
Monomial = tuple

_ONE_MONO: Monomial = ()


class PolyParseError(ValueError):
    """Raised on malformed polynomial or rational literals."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message)
        self.pos = pos


class MissingIndeterminateError(KeyError):
    """Raised when evaluation lacks values for some variables."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(sorted(names))
        super().__init__(f"no value supplied for: {', '.join(self.names)}")


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


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials: one merge of their sorted factor lists,
    adding the exponents of a name on both sides."""
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 1:
        m1, m2 = m2, m1
    if len(m2) == 1:
        # one factor: insert it, or add its exponent, at its place in m1
        name = m2[0][0]
        for k, f in enumerate(m1):
            if name <= f[0]:
                if name == f[0]:
                    return m1[:k] + ((name, f[1] + m2[0][1]),) + m1[k + 1:]
                return m1[:k] + m2 + m1[k:]
        return m1 + m2
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    f1, f2 = m1[0], m2[0]
    while True:
        if f1[0] < f2[0]:
            out.append(f1)
            i += 1
            if i == n1:
                break
            f1 = m1[i]
        elif f2[0] < f1[0]:
            out.append(f2)
            j += 1
            if j == n2:
                break
            f2 = m2[j]
        else:
            out.append((f1[0], f1[1] + f2[1]))
            i += 1
            j += 1
            if i == n1 or j == n2:
                break
            f1, f2 = m1[i], m2[j]
    return tuple(out) + m1[i:] + m2[j:]


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _mono_print_key(mono: Monomial):
    # Ascending sort under this key yields graded-lex descending terms:
    # higher total degree first, then lexicographically larger exponent
    # vectors (variables in name order) first.
    return (-_mono_degree(mono), [(name, -e) for name, e in mono])


def format_monomial(mono: Monomial, sep: str = "*") -> str:
    factors = sorted(mono, key=lambda p: display_key(p[0]))
    return sep.join(n if e == 1 else f"{n}^{e}" for n, e in factors)


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


class ProductSum:
    """A sum of signed products sign * left * right, each added in place.

    Products of two scalars (int or Fraction) go into a plain scalar sum.
    The first factor from a coefficient ring (a `Combination`) fixes
    the ring and starts one raw term dict owned by this sum; each later
    product with a ring factor is added straight into it, through the
    ring's `_product_into` when both factors are ring elements and
    through `add_into` when one is a scalar, so no element is built per
    product.  Factors multiply in the order given.  `value` wraps the
    dict once, with the scalar sum at the ring's unit key."""

    __slots__ = ("scalar", "ring", "terms")

    def __init__(self):
        self.scalar = 0
        self.ring = None
        self.terms = None

    def add(self, left, right, sign: int = 1) -> None:
        """Add sign * left * right; ring factors all come from one ring.

        A factor is a ring element when it is a `Combination`; testing
        that class, not Fraction's abstract base, keeps the test cheap."""
        left_ring = isinstance(left, Combination)
        right_ring = isinstance(right, Combination)
        if not (left_ring or right_ring):
            self.scalar += sign * left * right
            return
        if self.terms is None:
            self.ring = type(left if left_ring else right)
            self.terms = {}
        if left_ring and right_ring:
            self.ring._product_into(self.terms, left.terms, right.terms, sign)
        elif left_ring:
            add_into(self.terms, left.terms, sign * right)
        else:
            add_into(self.terms, right.terms, sign * left)

    def value(self):
        """The sum, which ends it: a scalar under the rule of `_rational`
        while no ring factor was added, else an element of that ring
        owning the term dict.  A sum that cancelled gets a fresh empty
        dict, so it does not keep the capacity its products grew."""
        scalar = _rational(self.scalar)
        if self.terms is None:
            return scalar
        if scalar:
            add_into(self.terms, {self.ring._UNIT: scalar})
        return self.ring._wrap(self.terms or {})


class Combination:
    """Sparse linear combination: ``terms`` maps keys to nonzero coefficients.

    The base owns the module operations: sums, differences, negation,
    scaling, equality and binary powering, plus the sign/magnitude printer.
    A scalar (int or Fraction) stands for the coefficient of the unit key
    ``_UNIT``, so ``x == 0`` or ``x + 1`` compares or adds dicts without
    building an element.  Subclasses supply the product, the print order
    ``sorted_terms`` and the key printer ``_format_key``.  Instances are
    treated as immutable; all arithmetic returns fresh objects.

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
        """Element owning `terms`, which must already hold no zero coefficient."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c: ScalarLike):
        return cls({cls._UNIT: c})

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
            if key == self._UNIT:
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

    ``terms`` maps monomials to nonzero coefficients, stored as ints when
    integral and as Fractions otherwise."""

    __slots__ = ()

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls._wrap({((name, 1),): 1})

    def variables(self) -> set[str]:
        return {name for mono in self.terms for name, _ in mono}

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    @property
    def constant_term(self) -> ScalarLike:
        return self.terms.get(_ONE_MONO, 0)

    def homogeneous_part(self, d: int) -> "Poly":
        """The sum of the terms of total degree exactly d."""
        return self._wrap({m: c for m, c in self.terms.items() if _mono_degree(m) == d})

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    __add__ = __radd__ = Combination.__add__

    @staticmethod
    def _product_into(out: dict, left: Mapping, right: Mapping, scale: ScalarLike = 1) -> dict:
        """Add scale * left * right into `out` in one fused loop.

        Each coefficient product goes straight into `out`; what is stored,
        a new product or a colliding sum, follows the scalar rule of
        `_rational`, and a key whose sum cancels leaves at once, so `out`
        never holds a zero coefficient if it started without."""
        if not scale:
            return out
        get = out.get
        rows = right.items()
        for m1, c1 in left.items():
            c1 = scale * c1
            for m2, c2 in rows:
                m = _mono_mul(m1, m2)
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

    def evaluate(self, assignment: Mapping[str, ScalarLike]) -> Fraction:
        """Evaluate at an exact point; every variable must get a value."""
        missing = self.variables() - set(assignment)
        if missing:
            raise MissingIndeterminateError(missing)
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for name, e in mono:
                val *= Fraction(assignment[name]) ** e
            total += val
        return total

    def substitute(self, assignment: Mapping[str, "Poly | ScalarLike"]) -> "Poly":
        """Replace variables by polynomials; unlisted variables stay."""
        out: dict[Monomial, ScalarLike] = {}
        for mono, coeff in self.terms.items():
            term = Poly.const(1)
            for name, e in mono:
                repl = assignment.get(name)
                if repl is None:
                    repl = Poly.var(name)
                elif not isinstance(repl, Poly):
                    repl = Poly.const(repl)
                term = term * repl**e
            add_into(out, term.terms, coeff)
        return self._wrap(out)

    def sorted_terms(self) -> list[tuple[Monomial, ScalarLike]]:
        return sorted(self.terms.items(), key=lambda kv: _mono_print_key(kv[0]))

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
            return base ** int(el)
        return base

    result = expression()
    kind, lex, pos = peek()
    if kind is not None:
        raise PolyParseError(f"trailing input starting at {lex!r}", pos)
    return result


def parse_poly(text: str) -> Poly:
    """Parse a polynomial with parse_expression; str(p) parses back to p."""
    return parse_expression(text, Poly.var, Poly.const)
