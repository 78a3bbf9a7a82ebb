"""Exterior algebra with matrix-algebra coefficients.

Grassmann generators carry the signed labels of a coloring (p, q): e_i
for i in [p] and e_{-j} for j in [q], laid out in the slot order
1, ..., p, -q, ..., -1.  Coefficients live in a commutative polynomial
ring or in the enveloping algebra; they commute with the generators, and
in products the left factor's coefficient multiplies on the left.

The module builds the canonical 2-forms attached to an (anti-alternating)
matrix and verifies the closed formulas for their powers, including the
top-degree route to the Pfaffian.

An element keeps its coefficients raw: `GrassmannElement.terms` maps each
slot mask to a raw term dict of the one coefficient ring that
`GrassmannElement.ring` names (`Poly`, `UEAElement`, or `rings._Scalars`
when every coefficient is an int or a Fraction, and for 0), and it holds
no empty dict.  Values are lifted once on the way in, by the constructor
and `GrassmannElement.from_words` (`rings._lift`), and wrapped once on
the way out, by `GrassmannElement.coefficient` (and so
`top_coefficient`, printing and pickling).  In between nothing is lifted
or wrapped.  `GrassmannElement.__mul__` adds every coefficient pair of
disjoint masks through the ring's raw `_product_into(out, left, right,
scale)` into one dict per output mask, signed by the parity of the left
mask against `indexing.crossing_mask` of the right one (one mask per
right mask).  `_linear_combination` is the one linear operation, behind
`+`, `-`, negation and `scale`: it copies the first contribution to a
mask and adds the others into it with `rings.add_into`.  `==` compares
the raw dicts.  Operands of two rings meet under one rule, `_adopt`: an
element of scalars moves each scalar onto the other ring's unit key, and
two rings that are not `_Scalars` raise TypeError.

Powers of an element are memoised on it, Omega^m as Omega Omega^(m-1),
and its 0th power is the one of its ring; `**` is that memoised power.
tau has the ring's one for its coefficients and even degree, so it
commutes with everything, and a falling product is a linear combination
of memoised products, Xi(v) ... Xi(v-r+1) = sum_k e_k(v, ..., v-r+1)
tau^k Xi^(r-k) with e_k the elementary symmetric polynomials.  The
trinomial check has one body for both modes: it sums the same
combinations times Theta'^a, then times Theta^b, and in commutative mode
the falling product is Xi^r itself (the one coefficient 1), since Xi,
Theta and Theta' are even forms with commuting coefficients there.  So
one memo on the `Forms` (`_product`) holds every product
tau^k Xi^j Theta'^a, formed once for every shift v and every m.  The
block Pfaffians of the Theta power check are read through `pfaffian._pf`
on the whole b and c blocks, under one memo per block kept on the forms,
so each block is lifted once and every power shares its sub-Pfaffians;
each power's expansion is kept on the forms as well.
The Xi power check and the top-form route read raw terms: the former
lifts only its minors and compares each, times r!, with the left side's
raw dict at the minor's mask; the latter sums the raw coefficient pairs
of two powers and wraps the one result.
Each `build_forms` call starts with fresh forms and empty memos.
Both sides of every identity are still computed independently and
compared exactly; the left side Omega^m of the trinomial check is the
Omega Omega^(m-1) chain, not read from the memoised products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, Mapping, Sequence

from .indexing import crossing_mask, index_mask, merge_sign
from .pfaffian import AlternatingMatrix, AntiAlternatingMatrix, _det_raw, _pf, pfaffian_of_anti_alternating
from .rings import Poly, _lift, _rational, _Scalars, add_into
from .uea import UEAElement, build_canonical_x, nc_minor_summation_rhs


def _adopt(elements: Sequence["GrassmannElement"]) -> tuple[type, list[Mapping[int, dict]]]:
    """The one coefficient ring of the elements, and each one's raw terms in it.

    The adoption rule: an element of scalars (`_Scalars`, which 0 also
    names) moves each scalar onto the other ring's unit key; two rings
    that are not `_Scalars` raise TypeError."""
    rings = {x.ring for x in elements}
    if len(rings) > 1:
        rings.discard(_Scalars)
        if len(rings) > 1:
            raise TypeError(f"mixed coefficient rings: {sorted(r.__name__ for r in rings)}")
    ring = rings.pop() if rings else _Scalars
    unit, scalar = ring._UNIT, _Scalars._UNIT
    return ring, [x.terms if x.ring is ring else {m: {unit: t[scalar]} for m, t in x.terms.items()}
                  for x in elements]


def _linear_combination(p: int, q: int, scaled: Iterable[tuple[object, "GrassmannElement"]]) -> "GrassmannElement":
    """Sum of s * x over the (scalar s, element x) pairs.

    The first contribution to a mask is copied, scaled, and every later
    one is added into it (`add_into`), all on raw term dicts."""
    scaled = [(s, x) for s, x in scaled if s and x.terms]
    ring, lifted = _adopt([x for _, x in scaled])
    sums: dict[int, dict] = {}
    for (s, _), terms in zip(scaled, lifted):
        for m, t in terms.items():
            out = sums.get(m)
            if out is None:
                sums[m] = dict(t) if s == 1 else add_into({}, t, s)
            else:
                add_into(out, t, s)
    return GrassmannElement._raw(p, q, ring, sums)


class GrassmannElement:
    """Sparse exterior-algebra element over the coloring (p, q).

    ``terms`` maps slot bitmasks to the nonempty raw term dicts of the
    coefficient ring ``ring``; a mask encodes the ascending product of its
    slots, and mask 0 holds the scalar part.  The dicts may be shared with
    other elements and ring values, so they are read and never written.
    Instances are treated as immutable; all arithmetic returns fresh
    objects."""

    __slots__ = ("p", "q", "ring", "terms", "_powers")  # _powers: see power(); unset until then

    def __init__(self, p: int, q: int, terms: Mapping[int, object] | None = None):
        """The element of coefficient values (ring elements, ints and
        Fractions) by mask, lifted once."""
        terms = terms or {}
        ring, (lifted,) = _lift((list(terms.values()),))
        self.p, self.q = p, q
        self.terms = {m: t for m, t in zip(terms, lifted) if t}
        self.ring = ring if self.terms else _Scalars

    @classmethod
    def _raw(cls, p: int, q: int, ring, terms: dict[int, dict]) -> "GrassmannElement":
        """The element of raw term dicts of `ring` by mask; empty dicts drop."""
        res = cls.__new__(cls)
        res.p, res.q = p, q
        res.terms = {m: t for m, t in terms.items() if t}
        res.ring = ring if res.terms else _Scalars
        return res

    def _coerce(self, other) -> "GrassmannElement | None":
        """`other` as an element of this coloring (a scalar on mask 0), or None."""
        if isinstance(other, GrassmannElement):
            if (self.p, self.q) != (other.p, other.q):
                raise ValueError("mixed colorings")
            return other
        if isinstance(other, (int, Fraction)):
            return GrassmannElement.scalar(self.p, self.q, other)
        return None

    @property
    def slots(self) -> int:
        return self.p + self.q

    def _label(self, slot: int) -> int:
        return slot if slot <= self.p else slot - (self.p + self.q + 1)

    @classmethod
    def zero(cls, p: int, q: int) -> "GrassmannElement":
        return cls(p, q)

    @classmethod
    def scalar(cls, p: int, q: int, coeff) -> "GrassmannElement":
        return cls(p, q, {0: coeff})

    @classmethod
    def from_words(cls, p: int, q: int, words: Iterable[tuple[Sequence[int], object]]) -> "GrassmannElement":
        """Sum of coeff times the product of e_label factors, left to right,
        over the (labels, coeff) pairs.

        The coefficients are lifted once, each label's bit is read from one
        table, and each word's raw terms are added with its sign into one
        dict per mask."""
        words = list(words)
        ring, (lifted,) = _lift(([coeff for _, coeff in words],))
        bits = {label: 1 << slot for slot, label in enumerate([*range(1, p + 1), *range(-q, 0)])}
        sums: dict[int, dict] = {}
        for (labels, _), t in zip(words, lifted):
            mask, sign = 0, 1
            for label in labels:
                bit = bits.get(label)
                if bit is None:
                    if label > p:
                        raise ValueError(f"label {label} exceeds row block size {p}")
                    raise ValueError(f"label {label} out of range for coloring ({p}, {q})")
                if mask & bit:
                    break
                if (mask & -bit).bit_count() & 1:  # the factors already placed in later slots
                    sign = -sign
                mask |= bit
            else:
                out = sums.get(mask)
                if out is None:
                    out = sums[mask] = {}
                add_into(out, t, sign)
        return cls._raw(p, q, ring, sums)

    def __mul__(self, other: "GrassmannElement") -> "GrassmannElement":
        """Fused product: every coefficient pair of disjoint masks m1, m2 is
        added, with the sign of merging m2 into m1, straight into one raw
        term dict of the coefficient ring per output mask m1 | m2.  The
        sign is the parity of m1 against `crossing_mask(m2)`, one mask per
        m2."""
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._coerce(other)  # rejects mixed colorings
        ring, (left, right) = _adopt((self, other))
        product_into = ring._product_into
        right = [(m2, t2, crossing_mask(m2)) for m2, t2 in right.items()]
        sums: dict[int, dict] = {}
        for m1, t1 in left.items():
            for m2, t2, crossing in right:
                if not m1 & m2:
                    out = sums.get(m1 | m2)
                    if out is None:
                        out = sums[m1 | m2] = {}
                    product_into(out, t1, t2, -1 if (m1 & crossing).bit_count() & 1 else 1)
        return GrassmannElement._raw(self.p, self.q, ring, sums)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _linear_combination(self.p, self.q, ((1, self), (1, o)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _linear_combination(self.p, self.q, ((1, self), (-1, o)))

    def __neg__(self) -> "GrassmannElement":
        return _linear_combination(self.p, self.q, ((-1, self),))

    def scale(self, s) -> "GrassmannElement":
        """The scalar s times every coefficient."""
        return _linear_combination(self.p, self.q, ((s, self),))

    def commutator(self, other: "GrassmannElement") -> "GrassmannElement":
        return self * other - other * self

    def power(self, exp: int) -> "GrassmannElement":
        """self^exp; self^0 is the one of the coefficient ring, the scalar 1
        if the coefficients are scalars or self is 0.

        Positive powers are memoised on the element, each computed as self
        times the one below, so self^m after self^k costs m - k products.
        The value is that of the power below times self, by associativity.
        With the base on the left, the outer loop of the ring's raw product
        runs over the base's few one-word coefficients, and no inner loop
        starts for every word of the larger factor."""
        if exp < 0:
            raise ValueError("negative Grassmann powers do not exist")
        if exp == 0:
            return GrassmannElement._raw(self.p, self.q, self.ring, {0: {self.ring._UNIT: 1}})
        if exp == 1:
            return self
        # self^2, self^3, ...; holding self too would make a reference cycle
        powers = getattr(self, "_powers", None)
        if powers is None:
            powers = self._powers = [self * self]
        while len(powers) < exp - 1:
            powers.append(self * powers[-1])
        return powers[exp - 2]

    __pow__ = power

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            if isinstance(other, (int, Fraction)):  # the scalar's raw terms; nothing is built
                return self.terms == ({0: {self.ring._UNIT: _rational(other)}} if other else {})
            return NotImplemented
        self._coerce(other)  # rejects mixed colorings
        try:
            _, (left, right) = _adopt((self, other))
        except TypeError:  # no nonzero element of one ring equals one of another
            return False
        return left == right

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, mask: int):
        """The coefficient at `mask`, wrapped by the ring: a ring element, or
        a scalar under the scalar rule (an int when integral); the int 0
        when the mask is absent."""
        t = self.terms.get(mask)
        return 0 if t is None else self.ring._wrap(t)

    def top_coefficient(self):
        """Coefficient of the full ascending product e_1...e_p e_-q...e_-1."""
        return self.coefficient((1 << self.slots) - 1)

    def __reduce__(self):
        """Pickle the coefficient values, so no raw term dict (whose `Poly`
        monomial codes belong to this process) leaves it."""
        return GrassmannElement, (self.p, self.q, {m: self.coefficient(m) for m in self.terms})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            labels = [self._label(b + 1) for b in range(self.slots) if mask >> b & 1]
            estr = "".join(f"e[{lab}]" for lab in labels)
            cstr = str(self.coefficient(mask))
            plain = cstr and " " not in cstr and not cstr.startswith("-")
            if mask == 0:
                pieces.append(cstr if plain else f"({cstr})")
            elif cstr == "1":
                pieces.append(estr)
            else:
                pieces.append(f"{cstr} {estr}" if plain else f"({cstr}) {estr}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"GrassmannElement({self})"


class Forms:
    """The canonical 2-forms of a matrix, plus the data to cross-check them.

    `source` has UEAElement entries in uea mode and Poly ones otherwise,
    and each form holds raw term dicts of that ring (an empty form names
    `_Scalars`); `tau` is None unless p == q.  `products[k, j, a]` memoises
    tau^k Xi^j Theta'^a (`_product`), of which the falling Xi products
    and the trinomial check's sums are combinations.  `minor_dets[u]` is
    the `pfaffian._det_raw` memo of the a block at the shift u,
    `block_pfs[name]` the b or c block as an `AlternatingMatrix` with its
    `pfaffian._pf` memo, and `theta_expansions[name, s]` the block's
    expansion 2^s s! sum_I e_I Pf(block_I) that `check_theta_powers`
    compares with a power.  All four start empty."""

    __slots__ = ("mode", "p", "q", "omega", "xi", "theta", "theta_prime", "tau", "source", "products",
                 "minor_dets", "block_pfs", "theta_expansions")

    def __init__(self, mode: str, p: int, q: int, omega: GrassmannElement, xi: GrassmannElement,
                 theta: GrassmannElement, theta_prime: GrassmannElement, tau: GrassmannElement | None,
                 source: AntiAlternatingMatrix):
        self.mode, self.p, self.q, self.source = mode, p, q, source
        self.omega, self.xi, self.theta, self.theta_prime, self.tau = omega, xi, theta, theta_prime, tau
        self.products: dict = {}
        self.minor_dets: dict = {}
        self.block_pfs: dict = {}
        self.theta_expansions: dict = {}

    @property
    def half(self) -> int:
        return (self.p + self.q) // 2


def build_forms(mode: str = "uea", n: int | None = None, p: int | None = None, q: int | None = None) -> Forms:
    """Construct Omega, Xi, Theta, Theta' (and tau when square) for a
    canonical enveloping-algebra matrix or a generic commutative one.

    Both modes read the signed entries X[i,j] (rows 1..p, -q..-1, columns
    1..q, -p..-1) through `AntiAlternatingMatrix.entry`."""
    if mode == "uea":
        if n is None:
            raise ValueError("uea mode needs n")
        source = build_canonical_x(n)
        one: object = UEAElement.one()
    elif mode == "commutative":
        if p is None or q is None:
            if n is None:
                raise ValueError("commutative mode needs (p, q) or n")
            p = q = n
        source = AntiAlternatingMatrix.generic(p, q)
        one = Poly.const(1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    p, q, entry = source.p, source.q, source.entry
    rows, cols = source.row_labels(), source.col_labels()

    def form(words) -> GrassmannElement:
        return GrassmannElement.from_words(p, q, words)

    omega = form(((i, -j), entry(i, j)) for i in rows for j in cols)
    xi = form(((i, -j), entry(i, j)) for i in range(1, p + 1) for j in range(1, q + 1))
    theta = form(((i, j), entry(i, -j)) for i in range(1, p + 1) for j in range(1, p + 1))
    theta_prime = form(((-j, -i), entry(-j, i)) for i in range(1, q + 1) for j in range(1, q + 1))
    tau = form(((i, -i), one) for i in range(1, p + 1)) if p == q else None
    return Forms(mode, p, q, omega, xi, theta, theta_prime, tau, source)


def _forms_for(n: int, forms: Forms, mode: str = "uea") -> Forms:
    """`forms`; raises if n is not their rank or mode not their mode."""
    if n != forms.half:
        raise ValueError(f"n = {n} contradicts forms of rank {forms.half}")
    if mode != forms.mode:
        raise ValueError(f"mode {mode!r} contradicts forms of mode {forms.mode!r}")
    return forms


def check_structure(forms: Forms) -> bool:
    """Omega decomposes as Theta' + 2 Xi + Theta."""
    two_xi = forms.xi + forms.xi
    return forms.omega == forms.theta_prime + two_xi + forms.theta


def check_sl2(n: int, *, forms: Forms) -> bool:
    """[Theta, Theta'] = 4 tau Xi, [Theta, Xi] = 2 tau Theta,
    [Theta', Xi] = -2 tau Theta' in the uea forms."""
    f = _forms_for(n, forms)
    tau = f.tau
    ok1 = f.theta.commutator(f.theta_prime) == (tau * f.xi).scale(4)
    ok2 = f.theta.commutator(f.xi) == (tau * f.theta).scale(2)
    ok3 = f.theta_prime.commutator(f.xi) == (tau * f.theta_prime).scale(-2)
    return ok1 and ok2 and ok3


def _product(forms: Forms, k: int, j: int, a: int = 0) -> GrassmannElement:
    """tau^k Xi^j Theta'^a, memoised on the forms for every shift and m.

    tau^k Xi^j takes one product, none by a 0th power; a >= 1 takes one
    more, past it, unless it vanishes."""
    key = (k, j, a)
    got = forms.products.get(key)
    if got is None:
        if a:
            got = _product(forms, k, j)
            if got:
                got = got * forms.theta_prime.power(a)
        elif not k:
            got = forms.xi.power(j)
        elif not j:
            got = forms.tau.power(k)
        else:
            got = forms.tau.power(k) * forms.xi.power(j)
        forms.products[key] = got
    return got


def xi_shifted_power(forms: Forms, u, r: int) -> GrassmannElement:
    """Falling product Xi(u) Xi(u-1) ... Xi(u-r+1) in the uea forms.

    tau is central, so the product of the r factors Xi + (u-i) tau is
    sum_k e_k(u, u-1, ..., u-r+1) tau^k Xi^(r-k), a linear combination of
    the products memoised by `_product`.  Past r = n every product of r
    2-forms vanishes."""
    if forms.tau is None:
        raise ValueError("Xi(u) needs a square coloring")
    if r > forms.half:
        return GrassmannElement.zero(forms.p, forms.q)
    return _linear_combination(forms.p, forms.q, (
        (c, _product(forms, k, r - k)) for k, c in enumerate(_falling_coefficients(u, r))))


def _falling_coefficients(u, r: int) -> list:
    """[e_0, ..., e_r] of the r arguments u, u-1, ..., u-r+1."""
    u = _rational(Fraction(u))
    e = [1]  # e[k] = e_k of the factor arguments so far
    for i in range(r):
        a = u - i
        e = [_rational(x + a * y) for x, y in zip(e + [0], [0] + e)]
    return e


def check_xi_power_formula(n: int, u, r: int, *, forms: Forms) -> bool:
    """Xi^(r)(u+r-1) = r! sum_{|I|=|J|=r} e_I e_-J cdet(a^I_J + shift(u)).

    The determinant entry in column t carries the extra u + r - t on
    matched indices: every determinant is read raw by `pfaffian._det_raw`
    from its memo of the a block at the shift u, each I and J turned into
    a mask once.  A minor at the shift u does not depend on
    r, so its memo is kept on the forms, one per u, and the checks at
    every r share it.

    The memo holds the raw minors of d (a + shift), d its lift's common
    denominator, so d^r times the left side is compared with r! times
    each raw minor, term by term.  The word e_I e_-J (J descending) is in
    slot order, so its sign is +1.  The left side must hold exactly the
    masks of the nonzero minors."""
    forms = _forms_for(n, forms)
    lhs = xi_shifted_power(forms, Fraction(u) + r - 1, r)
    shift = Fraction(u)
    memo = forms.minor_dets.setdefault(shift, {})
    a = forms.source.a
    lift, _ = _det_raw(a, 0, 0, memo, shift)
    top = forms.p + forms.q + 1  # e_-j sits in slot top - j
    subsets = [(index_mask(K), index_mask(top - k for k in K)) for K in combinations(range(1, n + 1), r)]
    raw = {}
    for rows, _ in subsets:  # the row mask is e_I's mask
        for cols, high in subsets:
            _, minor = _det_raw(a, rows, cols, memo, shift)
            if minor:
                raw[rows | high] = minor
    by_mask = GrassmannElement._raw(forms.p, forms.q, lift.ring, raw)
    _, (left, right) = _adopt((lhs, by_mask))
    left_scale, right_scale = lift.scale ** r, factorial(r)

    def agrees(got, minor) -> bool:
        return got is not None and len(got) == len(minor) and all(
            left_scale * got.get(k, 0) == right_scale * c for k, c in minor.items())

    return len(left) == len(right) and all(agrees(left.get(mask), minor) for mask, minor in right.items())


def eta(forms: Forms, j: int, u) -> GrassmannElement:
    """The one-form eta_j(u) = sum_i e_i (a[i,j] + u delta_ij)."""
    a = forms.source.a
    return GrassmannElement.from_words(forms.p, forms.q, (
        ((i,), a[i - 1][j - 1] + Fraction(u) if i == j else a[i - 1][j - 1])
        for i in range(1, forms.p + 1)))


def check_eta_anticommute(n: int, u, *, forms: Forms) -> bool:
    """eta_i(u+1) eta_j(u) + eta_j(u+1) eta_i(u) = 0 for all i, j."""
    forms = _forms_for(n, forms)
    shifted = [eta(forms, j, Fraction(u) + 1) for j in range(1, n + 1)]
    plain = [eta(forms, j, Fraction(u)) for j in range(1, n + 1)]
    for i in range(n):
        for j in range(i, n):  # (j, i) gives the same sum
            if shifted[i] * plain[j] + shifted[j] * plain[i]:
                return False
    return True


def check_theta_powers(n: int, s: int, t: int, mode: str = "uea", *, forms: Forms) -> bool:
    """Theta^s = 2^s s! sum_{|I|=2s} e_I Pf(b_I) and the mirror statement
    Theta'^t = 2^t t! sum_{|J|=2t} e_-J Pf(c_J), each block's Pfaffians
    read by `_pf` under its memo on the forms.  Each expansion is built
    once per forms, in `theta_expansions`, and every call compares the
    power with it."""
    forms = _forms_for(n, forms, mode)
    X = forms.source

    def expands(form: GrassmannElement, exp: int, name: str, word) -> bool:
        rhs = forms.theta_expansions.get((name, exp))
        if rhs is None:
            got = forms.block_pfs.get(name)
            if got is None:
                got = forms.block_pfs[name] = (AlternatingMatrix._trusted(getattr(X, name)), {})
            B, memo = got
            coeff = 2**exp * factorial(exp)
            rhs = forms.theta_expansions[name, exp] = GrassmannElement.from_words(forms.p, forms.q, (
                (word(I), coeff * _pf(B, index_mask(I), memo))
                for I in combinations(range(1, B.size + 1), 2 * exp)))
        return form.power(exp) == rhs

    return (expands(forms.theta, s, "b", lambda I: I)
            and expands(forms.theta_prime, t, "c", lambda J: [-j for j in reversed(J)]))


def check_trinomial(n: int, m: int, mode: str = "uea", *, forms: Forms) -> bool:
    """Trinomial expansion of Omega^m,
    Omega^m = sum m!/(r! a! b!) 2^r X(b-a+r-1, r) Theta'^a Theta^b over
    r + a + b = m, summed as sum_b (sum_a c X(b-a+r-1, r) Theta'^a) Theta^b.

    uea mode: X(v, r) is the falling product Xi(v) ... Xi(v-r+1), so
    X(v, r) Theta'^a = sum_k e_k(v, ..., v-r+1) tau^k Xi^(r-k) Theta'^a.
    commutative mode: X(v, r) = Xi^r, the one term k = 0 with e_0 = 1;
    there Xi, Theta and Theta' are even forms with commuting coefficients,
    so the order of the factors is free.  Each tau^k Xi^j Theta'^a is
    read from `_product`.  The left side is `GrassmannElement.power`'s
    chain Omega Omega^(m-1), independent of those products."""
    forms = _forms_for(n, forms, mode)
    lhs = forms.omega.power(m)
    falling = forms.mode == "uea"
    outer = []
    for b in range(m + 1):
        inner = []
        for a in range(m + 1 - b):
            r = m - a - b
            c = factorial(m) * 2**r // (factorial(r) * factorial(a) * factorial(b))
            e = _falling_coefficients(b - a + r - 1, r) if falling else (1,)
            inner += [(c * e_k, _product(forms, k, r - k, a)) for k, e_k in enumerate(e) if e_k]
        x = _linear_combination(forms.p, forms.q, inner)
        outer.append((1, x * forms.theta.power(b) if b and x else x))
    return lhs == _linear_combination(forms.p, forms.q, outer)


def pfaffian_from_top_form(forms: Forms):
    """Pf X recovered as the top coefficient of Omega^n over 2^n n!.

    Omega^n is Omega^a Omega^b with b = n - a, so its top coefficient
    pairs each mask of Omega^a with the one complementary mask of Omega^b,
    signed by `merge_sign`, the left coefficient on the left.  The split
    is a = n // 2, which builds no power past Omega^b, unless Omega^n is
    already memoised on Omega: then a = n and Omega^b is the one.  The
    pairs are summed on raw terms, and the one result is scaled and
    wrapped by the ring.  Scalar coefficients give a scalar under the scalar rule (an int when
    integral), ring coefficients an element of the ring."""
    half = forms.half
    memoised = len(getattr(forms.omega, "_powers", ())) + 1  # see GrassmannElement.power
    a = half if memoised >= half else half // 2
    ring, (left, right) = _adopt((forms.omega.power(a), forms.omega.power(half - a)))
    product_into = ring._product_into
    full = (1 << forms.omega.slots) - 1
    top: dict = {}
    for m, c in left.items():
        rest = full ^ m
        if rest in right:
            product_into(top, c, right[rest], merge_sign(m, rest))
    return ring._wrap(add_into({}, top, Fraction(1, 2**half * factorial(half))))


def check_top_form_route(mode: str = "uea", n: int | None = None,
                         p: int | None = None, q: int | None = None,
                         forms: Forms | None = None) -> bool:
    """The top-form route agrees with the Pfaffian.

    In uea mode the top coefficient of Omega^n is compared with the right
    side of the minor summation formula, `nc_minor_summation_rhs`: this
    is the path of the exterior-calculus proof of that formula.  In
    commutative mode it is compared with the direct Pfaffian."""
    if forms is None:
        forms = build_forms(mode, n=n, p=p, q=q)
    via_top = pfaffian_from_top_form(forms)
    if forms.mode == "uea":
        return via_top == nc_minor_summation_rhs(forms.half)
    return via_top == pfaffian_of_anti_alternating(forms.source)
