"""PBW engine for the enveloping algebra of the split even orthogonal Lie algebra.

The Lie algebra is realised as the span of signed-index matrix elements
X[i,j] (i, j in {1..n, -n..-1}) subject to X[-j,-i] = -X[i,j] and
X[i,-i] = 0, with the bracket

    [X[i,j], X[k,l]] = d(j,k) X[i,l] + d(i,l) X[-j,-k]
                     - d(j,-l) X[i,-k] - d(i,-k) X[-j,l].

A generator basis is carved out by the coloring a[i,j] = X[i,j],
b[i,j] = X[i,-j] (i < j), c[i,j] = X[-j,i] (i < j); everything else
reduces to these.  Elements are kept in the PBW basis: words weakly
increasing under the order lowering < diagonal < raising, ties broken by
(kind, i, j) with kind order c < a < b, so raising factors sit rightmost.

The canonical matrix X = (X[i,j]) is a `pfaffian.AntiAlternatingMatrix`
in the square coloring (n, n) with `UEAElement` entries, so its signed
layout, X J, the minor summation block sum and its first-column minor
determinant `pfaffian._det_raw` (at a scalar shift, the shifted column
determinant, read on masks of the a block) are those of the commutative
layer; only the Pfaffian (ordered products) is specific to the
enveloping algebra.

`str` of an element prints its words as generator names, a repeated
letter once with its exponent (``a[1,1]^2 a[1,2] - 1/2*c[1,2]^2 b[1,2]``).
That text is output only: no command reads an element back, so the
package has no parser for it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod
from typing import Iterable, Mapping

from .indexing import cycle_sign
from .pfaffian import AntiAlternatingMatrix, minor_summation_rhs
from .rings import CARTAN, Combination, Poly, RAISING, ScalarLike, _prime, _rational, add_into, display_key

_KINDS = ("a", "b", "c")
_GENERATORS: dict[tuple[str, int, int], "Generator"] = {}
# Width of the i and j fields of `Generator.sort_key`; the whole key stays
# below 2**30, a one-digit int whose compares are cheapest.
_INDEX_BITS = 12
MAX_INDEX = (1 << _INDEX_BITS) - 1


class Generator:
    """One basis generator of the Lie algebra, named kind[i,j].

    Generators are immutable and interned: equal names give the same
    object, so words hash and compare by identity, and the PBW position
    `sort_key` is computed once per generator: one int that packs
    (root class, kind rank, i, j) into fixed-width fields, so that int
    order is the order of those tuples.  Indices past `MAX_INDEX` do not
    fit a field and are refused.

    `brackets` is the generator's bracket row, a cache: for each letter h
    already met on its right, the terms of [self, h] as `_bracket_terms`
    formed them.  The normal-ordering drain and `ad` read a bracket as
    `x.brackets.get(y)`, one lookup keyed by a letter."""

    __slots__ = ("kind", "i", "j", "sort_key", "brackets")

    def __new__(cls, kind: str, i: int, j: int) -> "Generator":
        g = _GENERATORS.get((kind, i, j))
        if g is None:
            if kind not in _KINDS:
                raise ValueError(f"unknown generator kind {kind!r}")
            if i < 1 or j < 1:
                raise ValueError("generator indices are 1-based positive integers")
            if kind in ("b", "c") and not i < j:
                raise ValueError(f"{kind}[i,j] generators need i < j, got ({i}, {j})")
            if i > MAX_INDEX or j > MAX_INDEX:
                raise ValueError(f"generator indices are at most {MAX_INDEX}, got ({i}, {j})")
            g = _GENERATORS[(kind, i, j)] = super().__new__(cls)
            root_class, kind_rank = display_key(f"{kind}[{i},{j}]")[:2]
            sort_key = (((root_class << 2 | kind_rank) << _INDEX_BITS | i) << _INDEX_BITS) | j
            for attr, value in (("kind", kind), ("i", i), ("j", j), ("sort_key", sort_key), ("brackets", {})):
                object.__setattr__(g, attr, value)
        return g

    def __setattr__(self, attr, value):
        raise AttributeError("generators are immutable")

    def __reduce__(self):
        return Generator, (self.kind, self.i, self.j)

    def __repr__(self) -> str:
        return f"Generator({self.kind!r}, {self.i}, {self.j})"

    @property
    def name(self) -> str:
        return f"{self.kind}[{self.i},{self.j}]"

    @property
    def root_class(self) -> int:
        """LOWERING, CARTAN or RAISING (see `rings.display_key`)."""
        return self.sort_key >> (2 * _INDEX_BITS + 2)

    def __str__(self) -> str:
        return self.name


Word = tuple[Generator, ...]


def _signed_pair(g: Generator) -> tuple[int, int]:
    """The X[i,j] realisation of a generator."""
    if g.kind == "a":
        return g.i, g.j
    if g.kind == "b":
        return g.i, -g.j
    return -g.j, g.i


class UEAElement(Combination):
    """Linear combination of PBW words with exact rational coefficients.

    Scalars enter as ints when integral and as Fractions otherwise (the two
    compare and hash alike), so products of integral elements never leave
    int arithmetic.  Every word held is PBW-sorted (non-decreasing in
    `sort_key`): the constructor normal-orders the words it is given, and
    each operation keeps the order."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Word, ScalarLike] | None = None):
        stack = [(w, c, 0) for w, c in (terms or {}).items() if c]
        self.terms = _normal_order_sums({}, stack) if stack else {}

    @classmethod
    def one(cls) -> "UEAElement":
        return cls._wrap({(): 1})

    @classmethod
    def from_generator(cls, g: Generator) -> "UEAElement":
        return cls._wrap({(g,): 1})

    __add__ = __radd__ = Combination.__add__

    def __mul__(self, other):
        # the element test first: for an element, the Fraction test would
        # run ABCMeta.__instancecheck__
        if isinstance(other, UEAElement):
            return UEAElement._wrap(_product_into({}, self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        # only scalars reach here, and they commute with everything
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def abelianized(self) -> Poly:
        """Image in the symmetric algebra: each generator to its name variable."""
        out: dict = {}
        for word, coeff in self.terms.items():
            add_into(out, {prod(_prime(g.name) for g in word): coeff})
        return Poly._wrap(out)

    @staticmethod
    def _run_lengths(word: Word) -> list[tuple[Generator, int]]:
        runs: list[tuple[Generator, int]] = []
        for g in word:
            if runs and runs[-1][0] == g:
                runs[-1] = (g, runs[-1][1] + 1)
            else:
                runs.append((g, 1))
        return runs

    def sorted_terms(self) -> list[tuple[Word, ScalarLike]]:
        def key(word: Word):
            return (-len(word), tuple(-g.sort_key for g in word))

        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def _format_key(self, word: Word) -> str:
        return " ".join(g.name if e == 1 else f"{g.name}^{e}" for g, e in self._run_lengths(word))


def signed_generator(i: int, j: int) -> UEAElement:
    """The element X[i,j], reduced to the canonical generator basis."""
    if i == 0 or j == 0:
        raise ValueError("signed indices exclude 0")
    if j == -i:
        return UEAElement.zero()
    if i > 0 and j > 0:
        return UEAElement.from_generator(Generator("a", i, j))
    if i > 0 and j < 0:
        jj = -j
        if i < jj:
            return UEAElement.from_generator(Generator("b", i, jj))
        return -UEAElement.from_generator(Generator("b", jj, i))
    if i < 0 and j > 0:
        ii = -i
        if j < ii:
            return UEAElement.from_generator(Generator("c", j, ii))
        return -UEAElement.from_generator(Generator("c", ii, j))
    return -UEAElement.from_generator(Generator("a", -j, -i))


def _bracket_terms(g: Generator, h: Generator) -> tuple[tuple[Word, ScalarLike], ...]:
    """The terms of [g, h] in the basis, filled into g's bracket row on
    first use.  They are kept as a tuple, so no caller can change them;
    `bracket` hands out a fresh element on every call."""
    terms = g.brackets.get(h)
    if terms is None:
        i, j = _signed_pair(g)
        k, l = _signed_pair(h)
        out: dict[Word, ScalarLike] = {}
        for hit, x, y, sign in ((j == k, i, l, 1), (i == l, -j, -k, 1),
                                (j == -l, i, -k, -1), (i == -k, -j, l, -1)):
            if hit:
                add_into(out, signed_generator(x, y).terms, sign)
        terms = g.brackets[h] = tuple(out.items())
    return terms


def bracket(g: Generator, h: Generator) -> UEAElement:
    """Lie bracket of two basis generators, expanded in the basis."""
    return UEAElement._wrap(dict(_bracket_terms(g, h)))


def _normal_order_sums(out: dict[Word, ScalarLike],
                       stack: list[tuple[Word, ScalarLike, int]]) -> dict[Word, ScalarLike]:
    """Drain a stack of (word, coeff, start) into `out`, in the PBW basis.

    The first out-of-order adjacent pair x y at or after `start` becomes
    y x + [x, y]; the bracket terms are strictly shorter, so the rewrite
    terminates.  Both rewrites leave the word sorted before the pair, so
    the scan of each restarts one step to its left.  The bracket terms,
    read off x's own row as `x.brackets.get(y)` (`_bracket_terms` fills it
    on a miss), are pushed; the swapped word, with the same coefficient, is
    rewritten on in place until it is sorted, so a swap costs no stack
    entry.  The normal form is unique, so the order in which words are
    rewritten does not change the result.  Each sorted word is added into
    `out` in place under the scalar rule of `rings._rational`, and a word
    whose sum cancels leaves at once, so `out` never holds a zero
    coefficient if it started without and no zero coefficient is pushed."""
    pop, push, get = stack.pop, stack.append, out.get
    while stack:
        w, c, t = pop()
        last = len(w) - 1
        while True:
            while t < last and w[t].sort_key <= w[t + 1].sort_key:
                t += 1
            if t >= last:
                break
            x, y = w[t], w[t + 1]
            head, tail = w[:t], w[t + 2:]
            back = t - 1 if t else 0
            terms = x.brackets.get(y)
            if terms is None:
                terms = _bracket_terms(x, y)
            for bw, bc in terms:
                push((head + bw + tail, c * bc, back))
            w, t = head + (y, x) + tail, back
        s = get(w)
        if s is not None:
            c = s + c
            if not c:
                del out[w]
                continue
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        out[w] = c
    return out


def _product_into(out: dict[Word, ScalarLike], left: Mapping[Word, ScalarLike],
                  right: Mapping[Word, ScalarLike], scale: ScalarLike = 1) -> dict[Word, ScalarLike]:
    """Add scale * left * right into `out`, both factors holding only
    PBW-sorted words, so a pair w1 w2 can be out of order only at the seam.

    A pair with an empty side, or with key(w1[-1]) <= key(w2[0]), is
    sorted already and is added straight into `out`, under the drain's
    scalar rule and cancellation.  Every other pair, with coefficient
    scale c1 c2, goes onto one normal-ordering stack whose scan starts at
    the seam, and the stack, if any, is drained once, straight into `out`."""
    if not scale:
        return out
    stack: list[tuple[Word, ScalarLike, int]] = []
    push, get = stack.append, out.get
    rows = right.items()
    for w1, c1 in left.items():
        c1 = scale * c1
        last, seam = (w1[-1].sort_key, len(w1) - 1) if w1 else (-1, 0)
        for w2, c2 in rows:
            w, c = w1 + w2, c1 * c2
            if w2 and last > w2[0].sort_key:
                push((w, c, seam))
                continue
            s = get(w)
            if s is not None:
                c = s + c
                if not c:
                    del out[w]
                    continue
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            out[w] = c
    if stack:
        _normal_order_sums(out, stack)
    return out


# the raw products of the coefficient-ring protocol (see rings.Combination)
UEAElement._product_into = UEAElement._int_product_into = staticmethod(_product_into)


def normal_order(word: Iterable[Generator], coeff: ScalarLike = 1) -> UEAElement:
    """Rewrite coeff * word into the PBW basis."""
    return UEAElement({tuple(word): coeff})


# `bench/workloads.py` names the type of the canonical X by this alias.
UEAMatrix = AntiAlternatingMatrix


def build_canonical_x(n: int) -> AntiAlternatingMatrix:
    """The matrix X = (X[i,j]) whose entries generate the Lie algebra, in
    the square coloring (n, n): a[i][j] = X[i,j], b[i][j] = X[i,-j] and
    c[i][j] = X[-j,i], so that X.entry(i, j) is X[i,j]."""
    idx = range(1, n + 1)
    return AntiAlternatingMatrix(
        n, n,
        [[signed_generator(i, j) for j in idx] for i in idx],
        [[signed_generator(i, -j) for j in idx] for i in idx],
        [[signed_generator(-j, i) for j in idx] for i in idx],
    )


def nc_pfaffian(X: AntiAlternatingMatrix) -> UEAElement:
    """Pf X = F(1..2n) / n!, F by recursion on position subsets S, after
    Rote's division-free Pfaffian algorithm.

    F(S) = sum over u < v in S of (-1)^(pos u + pos v - 1) X[u,v] F(S - {u,v})
    with F of the empty set 1, where pos is the 1-based position within S
    and X[u,v] is entry (u, v) of X J.  Unrolled, this is the sum over
    ordered pair sequences of sgn * products with factors multiplied left
    to right in pair order; F is built one subset size at a time, keeping
    only the previous size."""
    n = X.half
    at = X.to_alternating().rows
    level: dict[tuple[int, ...], dict[Word, ScalarLike]] = {(): {(): 1}}
    for size in range(2, 2 * n + 1, 2):
        below, level = level, {}
        for S in combinations(range(2 * n), size):
            out: dict[Word, ScalarLike] = {}
            for a, b in combinations(range(size), 2):
                entry = at[S[a]][S[b]].terms
                rest = below[S[:a] + S[a + 1:b] + S[b + 1:]]
                if entry and rest:
                    _product_into(out, entry, rest, -1 if (a + b) % 2 == 0 else 1)
            level[S] = out
    return UEAElement._wrap(level[tuple(range(2 * n))]).scale(Fraction(1, factorial(n)))


def nc_pfaffian_unrestricted(X: AntiAlternatingMatrix) -> UEAElement:
    """Same Pfaffian through the full permutation sum with weight 1/(2^n n!).

    The definition term by term: for each permutation of the 2n
    positions, the product of its pair entries is formed as free-algebra
    words, concatenated and never reordered (equal words merge), and
    added with its sign into one dict of free words.  The constructor's one
    normal-ordering drain, each scan from position 0, then brings that
    dict into the PBW basis, so no product of the engine is used."""
    n = X.half
    at = X.to_alternating().rows
    free: dict[Word, ScalarLike] = {}
    for perm in permutations(range(2 * n)):
        words = {(): cycle_sign(perm)}
        for k in range(0, 2 * n, 2):
            entry = at[perm[k]][perm[k + 1]].terms.items()
            longer: dict[Word, ScalarLike] = {}
            for w1, c1 in words.items():
                for w2, c2 in entry:
                    w = w1 + w2
                    longer[w] = longer.get(w, 0) + c1 * c2
            words = longer
        add_into(free, words)
    return UEAElement(free).scale(Fraction(1, 2**n * factorial(n)))


def nc_minor_summation_rhs(n: int) -> UEAElement:
    """Expansion of Pf X into shifted determinants times commuting Pfaffians.

    The block sum of `pfaffian.minor_summation_rhs` at the shift 0, over
    equal-size even subsets I, J of [n], each term sgn(Ic, I) sgn(Jc, J)
    det(a-minor on complements, shifted) Pf(c_J) Pf(b_I), multiplied in
    exactly that order; the entries of b_I (and of c_J) commute, so their
    Pfaffians are the commutative ones."""
    return minor_summation_rhs(build_canonical_x(n), shift=0)


def chevalley_generators(n: int) -> tuple[Generator, ...]:
    """A Lie generating set of the half-size-n algebra, in PBW order.

    For n >= 2 these are the 2n Chevalley generators e_i = a[i,i+1] and
    f_i = a[i+1,i] (i < n), e_n = b[n-1,n] and f_n = c[n-1,n]; the
    abelian n = 1 algebra is spanned by a[1,1]."""
    if n == 1:
        return (Generator("a", 1, 1),)
    gens = [Generator("a", i, i + 1) for i in range(1, n)]
    gens += [Generator("a", i + 1, i) for i in range(1, n)]
    gens += [Generator("b", n - 1, n), Generator("c", n - 1, n)]
    return tuple(sorted(gens, key=lambda g: g.sort_key))


def ad(g: Generator, z: UEAElement) -> UEAElement:
    """The commutator [g, z] = g z - z g, by the derivation rule.

    ad_g is a derivation, so [g, w_1...w_k] is the sum over positions i of
    w_1...[g, w_i]...w_k: each bracket term replaces one factor of a sorted
    word, and the scan of the one normal-ordering stack restarts just left
    of it.  Each [g, w_i] is read off g's bracket row, `g.brackets.get`
    (`_bracket_terms` fills it on a miss).  No product of degree k + 1 is
    formed."""
    stack: list[tuple[Word, ScalarLike, int]] = []
    row = g.brackets.get
    for w, c in z.terms.items():
        for i, h in enumerate(w):
            terms = row(h)
            if terms is None:
                terms = _bracket_terms(g, h)
            for bw, bc in terms:
                stack.append((w[:i] + bw + w[i + 1:], c * bc, i - 1 if i else 0))
    return UEAElement._wrap(_normal_order_sums({}, stack))


def centrality_failures(z: UEAElement, n: int) -> list[Generator]:
    """Generators of the half-size-n algebra that witness a z which is not
    central; z is central exactly when the list is empty.

    Under ad, U(g) is a union of finite-dimensional submodules, so a z of
    weight 0 that every raising Chevalley generator kills is a
    highest-weight vector of weight 0, spans a trivial submodule and
    commutes with all of g (Humphreys, Introduction to Lie Algebras and
    Representation Theory, sections 20-21).  Two tests follow:

    - weight 0: the letter weights of each word are summed, with no
      product formed (X[i,j] has weight eps_i - eps_j, eps_-k = -eps_k);
      each a[i,i], i <= n, whose eps_i component is nonzero in some word
      is listed, since that is the Cartan generator z fails to commute
      with;
    - the raising generators of `chevalley_generators(n)` (a[i,i+1] and
      b[n-1,n]) whose [g, z], computed by the derivation rule (`ad`), is
      not exactly zero.

    At n = 1 the algebra is spanned by a[1,1] and the weight test alone
    decides.  The list is in PBW order."""
    unbalanced: set[int] = set()
    for word in z.terms:
        weight = [0] * (n + 1)  # weight[k]: the eps_k component
        for g in word:
            i, j = _signed_pair(g)
            for k in (i, -j):  # eps_i - eps_j = eps_i + eps_-j
                if -n <= k <= n:
                    weight[abs(k)] += 1 if k > 0 else -1
        unbalanced.update(k for k in range(1, n + 1) if weight[k])
    cartan = [Generator("a", i, i) for i in sorted(unbalanced)]
    raising = [g for g in chevalley_generators(n) if g.root_class == RAISING and ad(g, z)]
    return cartan + raising


class HighestWeight:
    """A weight vector (lam_1, ..., lam_n); values None means symbolic.

    Weights are immutable values: two are equal, and hash alike, when
    their n and values are."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: tuple[Fraction, ...] | None):
        if n < 1:
            raise ValueError("weights need n >= 1")
        if values is not None and len(values) != n:
            raise ValueError(f"expected {n} components, got {len(values)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def __setattr__(self, attr, value):
        raise AttributeError("weights are immutable")

    def __delattr__(self, attr):
        raise AttributeError("weights are immutable")

    def __reduce__(self):
        return HighestWeight, (self.n, self.values)

    def __eq__(self, other):
        if type(other) is not HighestWeight:
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __repr__(self) -> str:
        return f"HighestWeight({self.n}, {self.values!r})"

    @classmethod
    def numeric(cls, values: Iterable[ScalarLike]) -> "HighestWeight":
        vals = tuple(Fraction(v) for v in values)
        return cls(len(vals), vals)

    @classmethod
    def symbolic(cls, n: int) -> "HighestWeight":
        return cls(n, None)

    @property
    def is_symbolic(self) -> bool:
        return self.values is None

    def component(self, i: int):
        if not 1 <= i <= self.n:
            raise ValueError(f"component {i} out of range for n={self.n}")
        if self.values is None:
            return Poly.var(f"lam[{i}]")
        return self.values[i - 1]


def hc_coefficient(z: UEAElement, weight: HighestWeight):
    """Eigenvalue of z on a highest weight vector.

    Words containing any raising or lowering factor act by zero there;
    the remaining words are products of diagonal generators a[i,i], each
    acting by lam_i, a `Poly` variable or a Fraction.  The n components
    are read once, under the scalar rule, keyed by their generators
    a[i,i], and a word counts only if every letter is a key.  A word of
    diagonal letters with one past n raises the `ValueError` of
    `HighestWeight.component`."""
    lams = {Generator("a", i, i): _rational(weight.component(i)) for i in range(1, weight.n + 1)}
    total = 0
    for word, coeff in z.terms.items():
        val = coeff
        for g in word:
            lam = lams.get(g)
            if lam is None:
                if all(h.root_class == CARTAN for h in word):  # g is a[i,i] with i > n
                    weight.component(g.i)
                break
            val = lam * val
        else:
            total = total + val
    return total


def eigenvalue_product(weight: HighestWeight):
    """The closed-form product prod_i (lam_i + n - i)."""
    n = weight.n
    total = 1
    for i in range(1, n + 1):
        total = (weight.component(i) + (n - i)) * total
    return total


def eigenvalue_factored_str(weight: HighestWeight) -> str:
    """Human-readable factored form, e.g. (lam[1]+2)*(lam[2]+1)*lam[3]."""
    if not weight.is_symbolic:
        return str(eigenvalue_product(weight))
    parts = []
    for i in range(1, weight.n + 1):
        shift = weight.n - i
        parts.append(f"(lam[{i}]+{shift})" if shift else f"lam[{i}]")
    return "*".join(parts)

