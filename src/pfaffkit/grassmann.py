"""Exterior algebra with matrix-algebra coefficients.

Grassmann generators carry the signed labels of a coloring (p, q): e_i
for i in [p] and e_{-j} for j in [q], laid out in the slot order
1, ..., p, -q, ..., -1.  Coefficients live in a commutative polynomial
ring or in the enveloping algebra; they commute with the generators, and
in products the left factor's coefficient multiplies on the left.

The module builds the canonical 2-forms attached to an (anti-alternating)
matrix and verifies the closed formulas for their powers, including the
top-degree route to the Pfaffian.

Products are fused with the coefficient ring: each ring supplies the raw
`_product_into(out, left, right, scale)` of `rings.Combination`, and
`GrassmannElement.__mul__` adds every coefficient pair of disjoint masks
into one raw term dict per output mask, signed by `merge_sign`, wrapping
each dict once at the end; no coefficient element is built per pair.
Powers of an element are memoised on it, Omega^m as Omega^(m-1) Omega,
and its 0th power is the one of the ring its coefficients name.
tau has the ring's one for its coefficients and even degree, so it
commutes with everything, and a falling product is a linear combination
of memoised products, Xi(v) ... Xi(v-r+1) = sum_k e_k(v, ..., v-r+1)
tau^k Xi^(r-k) with e_k the elementary symmetric polynomials: the
products tau^k Xi^j are memoised on their `Forms`, and every shift v
reads them back.  Linear combinations of elements, there and in the
trinomial check, add each coefficient's raw terms into one dict per
mask.  The block Pfaffians of the Theta power check are read through
`pfaffian._pf` on the whole b and c blocks, one memo per block per call.
Each `build_forms` call starts with fresh forms and empty memos.
Both sides of every identity are still computed independently and
compared exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, Mapping, Sequence

from .indexing import index_mask, merge_sign
from .pfaffian import AlternatingMatrix, AntiAlternatingMatrix, _minor_det, _pf, pfaffian_of_anti_alternating
from .rings import Combination, Poly, ProductSum, _rational, add_into
from .uea import UEAElement, build_canonical_x, nc_pfaffian


def _coefficient_ring(*term_dicts: Mapping[int, object]):
    """The Combination type of the coefficients, None if all are scalars."""
    rings = {type(c) for terms in term_dicts for c in terms.values() if isinstance(c, Combination)}
    if len(rings) > 1:
        raise TypeError(f"mixed coefficient rings: {sorted(r.__name__ for r in rings)}")
    return rings.pop() if rings else None


def _raw(terms: Mapping[int, object], unit) -> list[tuple[int, Mapping]]:
    """(mask, raw coefficient terms) pairs; a scalar sits on the unit key."""
    return [(m, c.terms if isinstance(c, Combination) else {unit: c}) for m, c in terms.items()]


def _linear_combination(p: int, q: int, scaled: Iterable[tuple[object, "GrassmannElement"]]) -> "GrassmannElement":
    """Sum of s * x over the (scalar s, element x) pairs.

    Each coefficient's raw terms are added, scaled, straight into one dict
    per mask, and each dict becomes a coefficient once, at the end."""
    scaled = [(s, x) for s, x in scaled if s and x]
    ring = _coefficient_ring(*(x.terms for _, x in scaled))
    unit = (ring or Poly)._UNIT
    sums: dict[int, dict] = {}
    for s, x in scaled:
        for m, t in _raw(x.terms, unit):
            out = sums.get(m)
            if out is None:
                out = sums[m] = {}
            add_into(out, t, s)
    return GrassmannElement(p, q)._wrap_sums(sums, ring)


class GrassmannElement(Combination):
    """Sparse exterior-algebra element over the coloring (p, q).

    ``terms`` maps slot bitmasks to coefficients; a mask encodes the
    ascending product of its slots, and mask 0 holds the scalar part."""

    __slots__ = ("p", "q", "_powers")  # _powers: see power(); unset until then

    _UNIT = 0

    def __init__(self, p: int, q: int, terms: Mapping[int, object] | None = None):
        self.p = p
        self.q = q
        super().__init__(terms)

    def _wrap(self, terms: dict) -> "GrassmannElement":
        res = GrassmannElement.__new__(GrassmannElement)
        res.p, res.q, res.terms = self.p, self.q, terms
        return res

    def _coerce(self, other):
        if isinstance(other, GrassmannElement) and (self.p, self.q) != (other.p, other.q):
            raise ValueError("mixed colorings")
        return Combination._coerce(self, other)

    @property
    def slots(self) -> int:
        return self.p + self.q

    def _slot(self, label: int) -> int:
        if label > 0:
            if label > self.p:
                raise ValueError(f"label {label} exceeds row block size {self.p}")
            return label
        if label < 0 and -label <= self.q:
            return self.p + self.q + 1 + label
        raise ValueError(f"label {label} out of range for coloring ({self.p}, {self.q})")

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
        over the (labels, coeff) pairs, added in place."""
        elt = cls(p, q)
        for labels, coeff in words:
            mask, sign = 0, 1
            for label in labels:
                slot = elt._slot(label)
                bit = 1 << (slot - 1)
                if mask & bit:
                    break
                if (mask >> slot).bit_count() % 2:
                    sign = -sign
                mask |= bit
            else:
                add_into(elt.terms, {mask: coeff}, sign)
        return elt

    def __mul__(self, other: "GrassmannElement") -> "GrassmannElement":
        """Fused product: every coefficient pair of disjoint masks m1, m2 is
        added, with the sign of merging m2 into m1, straight into one raw
        term dict of the coefficient ring per output mask m1 | m2; each
        dict becomes a coefficient once, at the end."""
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._coerce(other)  # rejects mixed colorings
        ring = _coefficient_ring(self.terms, other.terms)
        coefficients = ring or Poly  # scalars multiply on Poly's unit key
        product_into, unit = coefficients._product_into, coefficients._UNIT
        right = _raw(other.terms, unit)
        sums: dict[int, dict] = {}
        for m1, t1 in _raw(self.terms, unit):
            for m2, t2 in right:
                if not m1 & m2:
                    out = sums.get(m1 | m2)
                    if out is None:
                        out = sums[m1 | m2] = {}
                    product_into(out, t1, t2, merge_sign(m1, m2))
        return self._wrap_sums(sums, ring)

    def _wrap_sums(self, sums: dict[int, dict], ring) -> "GrassmannElement":
        """Element of raw coefficient term dicts by mask; empty dicts drop."""
        if ring is None:
            return self._wrap({m: t[Poly._UNIT] for m, t in sums.items() if t})
        return self._wrap({m: ring._wrap(t) for m, t in sums.items() if t})

    def power(self, exp: int) -> "GrassmannElement":
        """self^exp; self^0 is the one of the coefficient ring that the
        coefficients name, or the scalar 1 if they are scalars or self is 0.

        Positive powers are memoised on the element, each computed as the
        one below times self, so self^m after self^k costs m - k products."""
        if exp < 0:
            raise ValueError("negative Grassmann powers do not exist")
        if exp == 0:
            ring = _coefficient_ring(self.terms)
            return GrassmannElement.scalar(self.p, self.q, ring.const(1) if ring else 1)
        if exp == 1:
            return self
        # self^2, self^3, ...; holding self too would make a reference cycle
        powers = getattr(self, "_powers", None)
        if powers is None:
            powers = self._powers = [self * self]
        while len(powers) < exp - 1:
            powers.append(powers[-1] * self)
        return powers[exp - 2]

    def top_coefficient(self):
        """Coefficient of the full ascending product e_1...e_p e_-q...e_-1."""
        return self.terms.get((1 << self.slots) - 1, Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            coeff = self.terms[mask]
            labels = [self._label(b + 1) for b in range(self.slots) if mask >> b & 1]
            estr = "".join(f"e[{lab}]" for lab in labels)
            cstr = str(coeff)
            plain = cstr and " " not in cstr and not cstr.startswith("-")
            if mask == 0:
                pieces.append(cstr if plain else f"({cstr})")
            elif cstr == "1":
                pieces.append(estr)
            else:
                pieces.append(f"{cstr} {estr}" if plain else f"({cstr}) {estr}")
        return " + ".join(pieces)


class Forms:
    """The canonical 2-forms of a matrix, plus the data to cross-check them.

    `source` has UEAElement entries in uea mode and Poly ones otherwise;
    `tau` is None unless p == q.  `tau_xi[k, j]` memoises tau^k Xi^j, of
    which the falling Xi products are combinations; it starts empty."""

    __slots__ = ("mode", "p", "q", "omega", "xi", "theta", "theta_prime", "tau", "source", "tau_xi")

    def __init__(self, mode: str, p: int, q: int, omega: GrassmannElement, xi: GrassmannElement,
                 theta: GrassmannElement, theta_prime: GrassmannElement, tau: GrassmannElement | None,
                 source: AntiAlternatingMatrix):
        self.mode, self.p, self.q, self.source = mode, p, q, source
        self.omega, self.xi, self.theta, self.theta_prime, self.tau = omega, xi, theta, theta_prime, tau
        self.tau_xi: dict = {}

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


def _tau_xi(forms: Forms, k: int, j: int) -> GrassmannElement:
    """tau^k Xi^j, memoised on the forms: one product, none by a 0th power."""
    key = (k, j)
    got = forms.tau_xi.get(key)
    if got is None:
        if not k:
            got = forms.xi.power(j)
        elif not j:
            got = forms.tau.power(k)
        else:
            got = forms.tau.power(k) * forms.xi.power(j)
        forms.tau_xi[key] = got
    return got


def xi_shifted_power(forms: Forms, u, r: int) -> GrassmannElement:
    """Falling product Xi(u) Xi(u-1) ... Xi(u-r+1) in the uea forms.

    tau is central, so the product of the r factors Xi + (u-i) tau is
    sum_k e_k(u, u-1, ..., u-r+1) tau^k Xi^(r-k), a linear combination of
    the products memoised by `_tau_xi`.  Past r = n every product of r
    2-forms vanishes."""
    if forms.tau is None:
        raise ValueError("Xi(u) needs a square coloring")
    if r > forms.half:
        return GrassmannElement.zero(forms.p, forms.q)
    u = _rational(Fraction(u))
    e = [1]  # e[k] = e_k of the factor arguments so far
    for i in range(r):
        a = u - i
        e = [_rational(x + a * y) for x, y in zip(e + [0], [0] + e)]
    return _linear_combination(forms.p, forms.q, ((c, _tau_xi(forms, k, r - k)) for k, c in enumerate(e)))


def check_xi_power_formula(n: int, u, r: int, *, forms: Forms) -> bool:
    """Xi^(r)(u+r-1) = r! sum_{|I|=|J|=r} e_I e_-J cdet(a^I_J + shift(u)).

    The determinant entry in column t carries the extra u + r - t on
    matched indices: every determinant is `pfaffian._minor_det` at the
    shift u under one memo, each I and J turned into a mask once."""
    forms = _forms_for(n, forms)
    lhs = xi_shifted_power(forms, Fraction(u) + r - 1, r)
    scale = factorial(r)
    a, shift = forms.source.a, Fraction(u)
    memo: dict = {}
    subsets = [(K, index_mask(K)) for K in combinations(range(1, n + 1), r)]
    rhs = GrassmannElement.from_words(forms.p, forms.q, (
        (list(I) + [-j for j in reversed(J)], scale * _minor_det(a, rows, cols, memo, shift))
        for I, rows in subsets for J, cols in subsets))
    return lhs == rhs


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
    read by `_pf` under one memo per call."""
    forms = _forms_for(n, forms, mode)
    X = forms.source

    def expands(form: GrassmannElement, exp: int, block: tuple, word) -> bool:
        B, memo = AlternatingMatrix._trusted(block), {}
        coeff = 2**exp * factorial(exp)
        rhs = GrassmannElement.from_words(forms.p, forms.q, (
            (word(I), coeff * _pf(B, index_mask(I), memo)) for I in combinations(range(1, len(block) + 1), 2 * exp)))
        return form.power(exp) == rhs

    return (expands(forms.theta, s, X.b, lambda I: I)
            and expands(forms.theta_prime, t, X.c, lambda J: [-j for j in reversed(J)]))


def check_trinomial(n: int, m: int, mode: str = "uea", *, forms: Forms) -> bool:
    """Trinomial expansion of Omega^m.

    uea mode: Omega^m = sum m!/(p! q! r!) 2^r Xi^(r)(q-p+r-1) Theta'^p Theta^q
    over p+q+r = m, with the falling Xi product shifted as shown.
    commutative mode: the unshifted expansion
    Omega^m = sum m!/(h! s! t!) 2^h Xi^h Theta^s Theta'^t."""
    forms = _forms_for(n, forms, mode)
    lhs = forms.omega.power(m)

    def multinomial(h: int, k: int, r: int) -> int:
        """m! 2^h / (h! k! r!), an integer since h + k + r = m."""
        return factorial(m) * 2**h // (factorial(h) * factorial(k) * factorial(r))

    def times_power(x: GrassmannElement, form: GrassmannElement, exp: int) -> GrassmannElement:
        return x * form.power(exp) if exp and x else x

    outer = []
    if forms.mode == "uea":
        # sum_b (sum_a c X(b-a+r-1, r) Theta'^a) Theta^b
        for b in range(m + 1):
            inner = []
            for a in range(m + 1 - b):
                r = m - a - b
                term = times_power(xi_shifted_power(forms, b - a + r - 1, r), forms.theta_prime, a)
                inner.append((multinomial(r, a, b), term))
            outer.append((1, times_power(_linear_combination(forms.p, forms.q, inner), forms.theta, b)))
    else:
        # sum_t (sum_h c Xi^h Theta^s) Theta'^t
        for t in range(m + 1):
            inner = []
            for h in range(m + 1 - t):
                s = m - h - t
                inner.append((multinomial(h, s, t), times_power(forms.xi.power(h), forms.theta, s)))
            outer.append((1, times_power(_linear_combination(forms.p, forms.q, inner), forms.theta_prime, t)))
    return lhs == _linear_combination(forms.p, forms.q, outer)


def pfaffian_from_top_form(forms: Forms):
    """Pf X recovered as the top coefficient of Omega^n over 2^n n!.

    Omega^n is Omega^a Omega^b with b = n - a, so its top coefficient
    pairs each mask of Omega^a with the one complementary mask of Omega^b,
    signed by `merge_sign`, the left coefficient on the left.  The split
    is a = n // 2, which builds no power past Omega^b, unless Omega^n is
    already memoised on Omega: then a = n and Omega^b is the one."""
    half = forms.half
    memoised = len(getattr(forms.omega, "_powers", ())) + 1  # see GrassmannElement.power
    a = half if memoised >= half else half // 2
    left, right = forms.omega.power(a).terms, forms.omega.power(half - a).terms
    full = (1 << forms.omega.slots) - 1
    top = ProductSum()
    for m, c in left.items():
        rest = full ^ m
        if rest in right:
            top.add(c, right[rest], merge_sign(m, rest))
    return top.value() * Fraction(1, 2**half * factorial(half))


def check_top_form_route(mode: str = "uea", n: int | None = None,
                         p: int | None = None, q: int | None = None,
                         forms: Forms | None = None) -> bool:
    """The top-form route agrees with the direct Pfaffian."""
    if forms is None:
        forms = build_forms(mode, n=n, p=p, q=q)
    via_top = pfaffian_from_top_form(forms)
    if forms.mode == "uea":
        return via_top == nc_pfaffian(forms.source)
    return via_top == pfaffian_of_anti_alternating(forms.source)
