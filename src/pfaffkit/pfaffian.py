"""Pfaffians of alternating matrices and their minor expansions.

Independent evaluation routes are kept side by side: a recursive
first-row cofactor expansion over any commutative ring, fraction-free
Pfaffian condensation for rational matrices, a brute-force sum over
perfect matchings read along `_matching_walk` (a table of the walk
with one stored sign per matching, built once per matrix size from the
table two sizes down in byte operations, its signs checked by the tests
against `indexing.cycle_sign` of each matching's own pair sequence),
and, for anti-alternating matrices, the right-hand side of the minor
summation identity, which expands the Pfaffian into determinant times
sub-Pfaffian contributions over the block decomposition.
`pfaffian` picks its route by the entry types, as `linalg.det_exact`
does: int and Fraction matrices go to `_pf_condensed` (after clearing
denominators), every other ring to the recursion `_pf`.

`AntiAlternatingMatrix` is the one anti-alternating matrix type of the
package: its entries may be rationals, `Poly` or enveloping-algebra
elements (`uea.build_canonical_x`), and `entry(i, j)` reads them by
signed row and column labels.  `minor_summation_rhs` is the one block sum
of both identities; the commutative and the enveloping-algebra versions
differ only in the diagonal shift of its minor determinant.

The recursion `_pf` names a principal submatrix by an int mask, bit
k - 1 standing for index k (`indexing.index_mask`), and reads and fills
a memo keyed by the masks of one matrix, so every Pfaffian taken of that
matrix's principal submatrices shares it: `pfaffian` of a non-rational
matrix starts a fresh memo, the co-Pfaffian matrix reads each cofactor
Pf(A without i, j) at the full mask without bits i - 1 and j - 1 from
the memo that computed Pf A, and `complementary_minor_check` computes
Pf A, the co-Pfaffian matrix and their memos once per matrix and keeps
them on the matrix.  A memo is a plain argument, not a closure cell, so
it is freed when the call that made it returns.
Masks are the package's one index form: `complementary_minor_check`,
the one entry point that takes an index set as integers, checks it and
turns it into a mask once, and the block sum builds its masks from the
subsets it enumerates.  The shuffle signs
sgn(I, Ic) of that check and sgn(Ic, I), sgn(Jc, J) of the block sum
are `indexing.merge_sign` of the two masks.  `minor_summation_rhs`
keeps one memo per block for a call: Pf(b_I) and Pf(c_J) come from the
first-row kernel on the whole b and c blocks (so do the block Pfaffians
of `grassmann.check_theta_powers`, through `_pf`), and each a-minor
determinant from the first-column kernel on the complement masks, so
each block quantity is computed once.  `_det_raw`, memoised on the
(rows, cols) masks, is the one minor determinant of the package: a
first-column expansion, so the determinant for commuting entries and,
with the shift u + r - t on the diagonal of column t, the column
determinant of the enveloping algebra.

The cofactor sums run on raw term dicts of one coefficient ring, every
coefficient an int.  A matrix or block is lifted once (`rings._lift`: a
ring element gives its own terms, a scalar sits on the ring's unit key,
and an all-scalar matrix names the ring `rings._Scalars`) into a
`_Lift`, which a memo of `_pf` or `_det_raw` keeps under the key None;
a lift with Fraction coefficients is scaled once by their common
denominator d, taken from one scan of the cells the kernels read, so
the kernels run in ints on d A and only a returned value is divided
back, by d to its degree, as `pfaffian` does for rational matrices.
Each node of the kernels `_pf_terms` and `_det_terms` adds every signed
product entry * cofactor, the entry on the left, through the ring's
`_int_product_into` (its product without the scalar rule, which int
sums never need) straight into one fresh dict, and the memos hold those
dicts, only read once stored.  A leaf needs no product: a Pfaffian of
two indices, and a determinant of one row and one column, is its lifted
entry (shifted on the diagonal), which the memo shares with the lift.
A node to which no product survives holds the {} it was formed as.
`_pf`, the block sum and each reader of a `_det_raw` minor wrap a result
once, at the end, by the ring's `_wrap`: a scalar for an all-scalar
matrix (the int 0 when it vanishes), else an element of the ring (its
zero when it vanishes, whether no product was added or the products
cancelled), while the empty Pfaffian is the int 1, never wrapped;
`copfaffian_expansion_residuals` sums each residual the same way, by
the ring's `_product_into` on an unscaled lift, and the matching walk
of `pfaffian_definitional` runs on a `_Lift` of its own: each prefix
product and each signed leaf product goes through the ring's
`_int_product_into`, and the leaf sum is wrapped once.  The block
sum regroups as sum_I (sum_J sgn(Jc, J) det(a-minor) Pf(c_J))
sgn(Ic, I) Pf(b_I), which keeps every left factor on the left, so it
needs no intermediate element and multiplies by each Pf(b_I) once.  A
matrix whose entries are all ints
(`AlternatingMatrix.int_entries`) takes `_pf`'s own recursion in plain
int arithmetic instead, its memo holding ints, and the matching walk
sums in ints too.

Rational entries follow the rings' scalar rule (an int when integral,
else a Fraction), and so do the identities and zero fills here, so an
all-int matrix is expanded in int arithmetic from input to result.  The
rational checks multiply through by a nonzero integer once and then run
in ints: the Cayley map by a common denominator of Y, equivariance by one
of g, and the complementary-minor relation by a power of Pf A.
`random_orthogonal_cayley` checks its symmetric form once, not each draw
Y = S^{-1} W, which lies in the Lie algebra by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, islice
from math import lcm
from operator import attrgetter, eq, mul, neg
from typing import Callable, Iterable, Sequence

from .indexing import index_mask, merge_sign
from .linalg import (
    SingularMatrixError,
    clear_denominators,
    det_adjugate,
    det_exact,
    freeze,
    mat_mul,
    transpose,
)
from .rings import Poly, _lift, _rational, add_into

class ShapeError(ValueError):
    """Raised when a matrix violates the structural constraints of its type."""

    def __init__(self, message: str, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell


_INT_ONLY = frozenset((int,))


def _all_int(rows: tuple) -> bool:
    """Every entry's type is int (so no bool), in one pass of C-level calls."""
    return _INT_ONLY.issuperset(map(type, chain.from_iterable(rows)))


def _is_skew(rows: tuple) -> bool:
    """A == -A^T, the zero diagonal included: the row-major entries against
    the negated column-major ones, in one pass of C-level calls."""
    return all(map(eq, chain.from_iterable(rows), map(neg, chain.from_iterable(zip(*rows)))))


def _mirror(size: int, upper) -> list[list]:
    """The size x size skew grid whose strict upper triangle is `upper`:
    row i (from 1) holds the entries (i, i+1) .. (i, size).  The diagonal
    is the int 0 and each (j, i) is the negated (i, j)."""
    grid = [[0] * size for _ in range(size)]
    for i, row in enumerate(upper):
        for j, v in enumerate(row, start=i + 1):
            grid[i][j] = v
            grid[j][i] = -v
    return grid


class AlternatingMatrix:
    """Even-sized matrix with zero diagonal and A[j][i] == -A[i][j].

    Entries live in any commutative ring with exact equality; indexing is
    1-based to match the usual matrix conventions.  `int_entries` says
    whether every entry is an int, so that the cofactor sums can stay in
    int arithmetic without a test per term.  An int matrix is checked as
    A == -A^T in one C-level pass, which covers the zero diagonal too;
    other entries, or a failed pass, go through the entry-by-entry loop,
    which names the first bad cell.
    """

    __slots__ = ("rows", "int_entries", "_minors")

    def __init__(self, rows: Sequence[Sequence]):
        rows = freeze(rows)
        m = len(rows)
        if m % 2:
            raise ShapeError(f"alternating matrices must have even size, got {m}")
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ShapeError(f"row {i + 1} has length {len(row)}, expected {m}")
        int_entries = _all_int(rows)
        if not (int_entries and _is_skew(rows)):
            for i in range(m):
                if not rows[i][i] == 0:
                    raise ShapeError(f"nonzero diagonal entry at ({i + 1},{i + 1})", (i + 1, i + 1))
                for j in range(i + 1, m):
                    if not rows[j][i] == -rows[i][j]:
                        raise ShapeError(
                            f"entry ({j + 1},{i + 1}) is not the negative of ({i + 1},{j + 1})",
                            (j + 1, i + 1),
                        )
        self.rows = rows
        self.int_entries = int_entries
        self._minors = None  # per-matrix data of complementary_minor_check

    @classmethod
    def _trusted(cls, rows: tuple) -> "AlternatingMatrix":
        """Wrap a tuple of row tuples already known to be alternating."""
        out = cls.__new__(cls)
        out.rows = rows
        out.int_entries = _all_int(rows)
        out._minors = None
        return out

    @classmethod
    def from_upper(cls, size: int, value_at: Callable[[int, int], object]) -> "AlternatingMatrix":
        """Build from a callable giving the strict upper triangle (1-based),
        called row by row; the diagonal is the int 0."""
        return cls(_mirror(size, [[value_at(i, j) for j in range(i + 1, size + 1)] for i in range(1, size)]))

    @classmethod
    def generic(cls, size: int) -> "AlternatingMatrix":
        """Strict upper triangle filled with indeterminates a[i,j]."""
        return cls.from_upper(size, lambda i, j: Poly.var(f"a[{i},{j}]"))

    @classmethod
    def random_rational(cls, size: int, rng: random.Random) -> "AlternatingMatrix":
        """Strict upper triangle of seeded ints in -9..9."""
        return cls.from_upper(size, lambda i, j: rng.randint(-9, 9))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, AlternatingMatrix) and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"AlternatingMatrix(size={self.size})"


# The walks of `pfaffian_definitional` built so far, by matrix size: every
# even size from 2 up to the largest one asked for.
_WALKS: dict[int, bytes] = {}

# each depth byte d to d + 1
_DEEPER = bytes(range(1, 256)) + b"\0"


def _matching_walk(m: int) -> bytes:
    """The walk of `pfaffian_definitional` over the perfect matchings of
    range(m), m even and positive: built on the first call for m, then
    read back from `_WALKS`.

    A node pairs the first index its ancestors leave unmatched with one
    later index, the children of a node in ascending order of that
    partner, and the nodes are listed in preorder, four bytes each: row,
    column, depth, and a sign flag.  Every path from a depth-0 node down
    to depth m/2 - 1 is one matching, and the leaf at its end carries
    its sign: the flag is 1 when `cycle_sign` of the flat pair sequence
    (row, column of each node on the path, top down) is -1, else 0, and
    it is 0 at every inner node.  A subtree's node count depends on its
    depth alone, 1 at depth m/2 - 1 and 1 + (m - 2d - 3) times that of
    depth d + 1 at depth d, so a node stores no subtree end.  The walk
    holds (m - 1)!! leaves and n(m) = (m - 1)(1 + n(m - 2)) nodes:
    2 277 nodes in 9 108 bytes at size 10, 25 058 in about 100 KB at
    size 12.  It is a table of the walk's shape, the same for every
    matrix of the size, and holds no entry or product.

    The table of m is built from that of m - 2 (`_walk_above`), starting
    from the largest size already in `_WALKS`, and every size passed
    through is kept there too.  No sign is computed from a pair sequence
    here; `test_matching_walk_signs_at_12` and
    `test_matching_walk_structure` check every leaf flag against
    `cycle_sign` of its flat pair sequence."""
    walk = _WALKS.get(m)
    if walk is None:
        size = m - 2
        while size and size not in _WALKS:
            size -= 2
        walk = _WALKS.get(size, b"")
        while size < m:
            walk = _WALKS[size + 2] = _walk_above(walk, size)
            size += 2
    return walk


def _walk_above(sub: bytes, size: int) -> bytes:
    """The walk of size + 2 from `sub`, the walk of `size` (b"" at 0), in
    C-level byte operations with no work per node.

    Under the first pair (0, k) hangs the walk of the indices
    1..size + 1 without k, which is `sub` with its rows and columns
    relabelled i -> that list's i-th entry (one `bytes.translate` each,
    an increasing map, so the order stays), its depths one deeper, and
    its leaf flags flipped when k is even: putting k in front of the
    indices below it is k - 1 transpositions, so the sign of the flat
    pair sequence is (-1)^(k - 1) times that of the sub-matching's.  The
    four streams of the pieces for k = 1..size + 1 are then interleaved
    by extended-slice assignment."""
    m = size + 2
    rows, cols, flags = sub[0::4], sub[1::4], sub[3::4]
    depths = sub[2::4].translate(_DEEPER)
    leaves = depths.translate(bytes(m // 2 - 1) + b"\1" + bytes(256 - m // 2))  # 1 at depth m/2 - 1
    flipped = (int.from_bytes(flags, "big") ^ int.from_bytes(leaves, "big")).to_bytes(len(flags), "big")
    labels, later = bytes(range(size)), bytes(range(1, m))
    row_parts, col_parts, flag_parts = [], [], []
    for k in later:
        relabel = bytes.maketrans(labels, later[:k - 1] + later[k:])
        row_parts += b"\0", rows.translate(relabel)
        col_parts += bytes((k,)), cols.translate(relabel)
        flag_parts += b"\0", flags if k % 2 else flipped
    walk = bytearray(4 * (m - 1) * (1 + len(rows)))
    walk[0::4] = b"".join(row_parts)
    walk[1::4] = b"".join(col_parts)
    walk[2::4] = (b"\0" + depths) * (m - 1)
    walk[3::4] = b"".join(flag_parts)
    return bytes(walk)


def pfaffian_definitional(A: AlternatingMatrix):
    """Pfaffian as the signed sum over perfect matchings.

    One pass down `_matching_walk(A.size)`: each node multiplies its
    entry onto the product of its parent, left to right, and keeps it as
    the prefix of its depth, so a prefix is multiplied out once for all
    the matchings through it (at size 10, 2 277 entries read and 2 268
    products, against 945 x 4 = 3 780 for the matchings one by one).  A
    zero entry skips its whole subtree.  A leaf adds its product with the
    sign the walk stores for it, one stored flag per matching, never
    carried down the walk.  The table builds those flags by the cofactor
    rule, a flip under each first pair (0, k) with k even, so the route's
    independence of `_pf` rests on the tests that check every flag
    against `cycle_sign` of the matching's own flat pair sequence at each
    size up to 12, beyond every size a check or benchmark item uses.

    An all-int matrix walks in plain int arithmetic.  Any other matrix is
    lifted once into a `_Lift` of its rows, as `_pf` lifts it (d-scaled
    ints when the coefficients hold Fractions): each prefix is the ring's
    `_int_product_into` of its parent and its entry into a fresh dict, each
    leaf adds its signed product straight into one raw dict, and
    `_Lift.value` wraps that sum once.  The walk shares no expansion with
    `_pf`, only the lift and the ring's product.  The empty matrix gives
    the int 1; a vanishing sum, whether no matching survives or the
    matchings cancel, gives the ring's zero (the int 0 for an all-scalar
    matrix).
    """
    m = A.size
    if m == 0:
        return 1
    nodes = iter(_matching_walk(m))
    last = m // 2 - 1
    after = [0] * (last + 1)  # bytes after a node of each depth up to the end of its subtree
    for d in range(last - 1, -1, -1):
        after[d] = (m - 2 * d - 3) * (after[d + 1] + 4)
    if A.int_entries:
        rows = A.rows
        prefix = [1] * (last + 1)  # prefix[d]: the product of the entries above depth d
        total = 0
        for i, j, depth, negative in zip(nodes, nodes, nodes, nodes):
            entry = rows[i][j]
            if not entry:
                skip = after[depth]
                if skip:
                    next(islice(nodes, skip, skip), None)
                continue
            if depth < last:
                prefix[depth + 1] = prefix[depth] * entry
            elif negative:
                total -= prefix[depth] * entry
            else:
                total += prefix[depth] * entry
        return total
    lift = _Lift(*_lift(A.rows), alternating=True)
    rows, product_into = lift.lines, lift.product_into
    prefix = [lift.one] * (last + 1)
    terms: dict = {}
    for i, j, depth, negative in zip(nodes, nodes, nodes, nodes):
        entry = rows[i][j]
        if not entry:
            skip = after[depth]
            if skip:
                next(islice(nodes, skip, skip), None)
            continue
        if depth < last:
            prefix[depth + 1] = product_into({}, prefix[depth], entry) if depth else entry
        else:
            product_into(terms, prefix[depth], entry, -1 if negative else 1)
    return lift.value(terms, m // 2)


_DENOMINATOR = attrgetter("denominator")


def _upper(lines: list) -> Iterable[dict]:
    """The strict upper triangle of the square lifted `lines`, row by row:
    every cell that `_pf_terms` and the matching walk read."""
    return chain.from_iterable(islice(line, i + 1, None) for i, line in enumerate(lines))


def _common_denominator(cells: Iterable[dict], shift=None) -> int:
    """The least common denominator of every coefficient of the lifted
    `cells` and of a scalar `shift`; 1 when all of them are ints."""
    coefficients = chain.from_iterable(map(dict.values, cells))
    return lcm(*set(map(_DENOMINATOR, coefficients)), 1 if shift is None else shift.denominator)


class _Lift:
    """The entries of one matrix as raw term dicts of one coefficient ring,
    every coefficient an int.

    `ring` is the one `rings._lift` names, whose `_int_product_into` and
    unit key the kernels use and whose `_wrap` gives `value`: a
    `Combination` type, or `rings._Scalars` for an all-scalar matrix,
    whose raw values sit on Poly's unit key and wrap back to ints and
    Fractions.  `lines` holds the lifted rows of an `alternating` matrix
    for the Pfaffian kernel and the matching walk, which read only its
    strict upper triangle (`_upper`), and the lifted columns of a block
    for the determinant kernel, which reads all of them.  At a scalar
    `shift` the determinant's diagonal entry (k, k) gains shift + t in a
    column with t columns right of it; `shifted` builds it once per
    (k, t).

    `scale` is a common denominator d of the coefficients read and the
    shift (their least one, from one scan of the cells read, unless the
    caller names one, as the block sum does for its three blocks).  At
    d > 1 `lines` holds int copies of the entries read times d, an
    alternating lift {} below its diagonal, and `shifted` adds
    d (shift + t), so the kernels and their memos run in ints on the raw
    values of d A; `value` divides a result back by d to its degree.  At
    d = 1 the entries' own term dicts are kept, whose coefficients the
    scalar rule has made ints.  Either way every sum the kernels form is
    of ints, so they multiply by the ring's `_int_product_into`."""

    __slots__ = ("ring", "lines", "product_into", "unit", "one", "shift", "diagonal", "scale")

    def __init__(self, ring, lines: list, shift=None, scale: int | None = None, alternating: bool = False):
        if scale is None:
            scale = _common_denominator(_upper(lines) if alternating else chain.from_iterable(lines), shift)
        if scale > 1:
            def scaled(terms):
                return {k: c.numerator * (scale // c.denominator) for k, c in terms.items()}

            if alternating:
                lines = [[{}] * (i + 1) + list(map(scaled, islice(line, i + 1, None)))
                         for i, line in enumerate(lines)]
            else:
                lines = [list(map(scaled, line)) for line in lines]
            if shift is not None:
                shift = _rational(scale * shift)
        self.ring, self.lines, self.shift, self.diagonal, self.scale = ring, lines, shift, {}, scale
        self.product_into, self.unit = ring._int_product_into, ring._UNIT
        self.one = {self.unit: 1}

    def shifted(self, k: int, t: int) -> dict:
        entry = self.diagonal.get((k, t))
        if entry is None:
            entry = add_into(dict(self.lines[k][k]), {self.unit: _rational(self.shift + self.scale * t)})
            self.diagonal[k, t] = entry
        return entry

    def value(self, terms: dict, degree: int):
        """The public value of a raw sum whose products have `degree`
        factors: the ring's `_wrap` of it, so {} is the ring's zero (the
        int 0 of `_Scalars`).  At d = 1 that is an element wrapping
        `terms` (which a memo may share: elements are never written); at
        d > 1 an element owning a fresh dict of the coefficients divided
        by d ** degree, under the scalar rule."""
        if self.scale > 1:
            power = self.scale ** degree
            quotients: dict = {}  # a coefficient often recurs: divide each distinct one once
            divided = {}
            for k, c in terms.items():
                q = quotients.get(c)
                if q is None:  # one gcd, the constructor's, and none for an integral quotient
                    q = quotients[c] = Fraction(c, power) if c % power else c // power
                divided[k] = q
            terms = divided
        return self.ring._wrap(terms)


def _pf(A: AlternatingMatrix, mask: int, memo: dict):
    """Pfaffian of the principal submatrix of A on the index set `mask`
    (bit k - 1 for index k), by expansion along its first row.

    `memo` maps masks of A to their sub-Pfaffians; every call on the same
    A may share it, so each sub-Pfaffian is computed once.  The empty
    Pfaffian is the int 1.  An all-int A recurses here in int arithmetic,
    its memo holding ints; any other A is lifted once per memo (kept
    under the key None) and expanded by `_pf_terms`, its memo holding raw
    term dicts, and the result is wrapped as `_Lift.value` says.  With
    Fraction coefficients the memo holds the raw sub-Pfaffians of d A in
    ints, d the lift's common denominator, and a result of |mask| / 2
    factors is divided by d ** (|mask| / 2) on the way out.
    """
    if not mask:
        return 1
    if not A.int_entries:
        lift = memo.get(None)
        if lift is None:
            ring, rows = _lift(A.rows)
            lift = memo[None] = _Lift(ring, rows, alternating=True)
        terms = memo.get(mask)
        if terms is None:
            terms = _pf_terms(lift, mask, memo)
        return lift.value(terms, mask.bit_count() // 2)
    cached = memo.get(mask)
    if cached is not None:
        return cached
    low = mask & -mask
    rest = bits = mask ^ low
    row = A.rows[low.bit_length() - 1]
    total = 0
    positive = True
    while bits:
        bit = bits & -bits
        bits ^= bit
        a = row[bit.bit_length() - 1]
        if a:
            minor = rest ^ bit
            sub = memo.get(minor) if minor else 1
            if sub is None:
                sub = _pf(A, minor, memo)
            if positive:
                total += a * sub
            else:
                total -= a * sub
        positive = not positive
    memo[mask] = total
    return total


def _pf_terms(lift: _Lift, mask: int, memo: dict) -> dict:
    """Raw Pfaffian of the principal submatrix on the nonempty `mask`,
    stored in `memo`; callers read the memo first.

    Two indices i < j give the lifted entry (i, j) itself, {} for a zero,
    shared with the lift and never written.  Above that the lowest set
    bit is the first row; each later set bit, in increasing order, pairs
    with it, its cofactor the Pfaffian at `rest ^ bit` and its sign
    alternating over the set bits.  Each nonzero entry times its nonzero
    cofactor, the entry on the left, is added by the ring's
    `_int_product_into` into one fresh dict, which the node stores as
    formed: {} when no product survives."""
    low = mask & -mask
    rest = bits = mask ^ low
    row = lift.lines[low.bit_length() - 1]
    if mask.bit_count() == 2:
        memo[mask] = out = row[rest.bit_length() - 1]
        return out
    product_into = lift.product_into
    out: dict = {}
    sign = 1
    while bits:
        bit = bits & -bits
        bits ^= bit
        a = row[bit.bit_length() - 1]
        if a:
            minor = rest ^ bit
            sub = memo.get(minor)
            if sub is None:
                sub = _pf_terms(lift, minor, memo)
            if sub:
                product_into(out, a, sub, sign)
        sign = -sign
    memo[mask] = out
    return out


def _pf_condensed(rows: tuple) -> int:
    """Pfaffian of an int alternating matrix by fraction-free Pfaffian
    condensation, in O(m^3) int operations.

    After stage k, entry (i, j) with i < j beyond the first 2k indices
    holds the Pfaffian of the principal submatrix on those 2k indices
    together with i and j.  Tanner's identity (Knuth 1996, "Overlapping
    Pfaffians") gives stage k + 1 from stage k as
    (pivot * a[i][j] - a[2k][i] * a[2k+1][j] + a[2k][j] * a[2k+1][i]) // prev
    with 0-based indices, the pivot a[2k][2k+1] and prev the pivot before
    it, so each division is exact and every entry stays an int.  Only the
    upper triangle is updated.  A zero pivot swaps index 2k + 1 (row and
    column) with the first later j where a[2k][j] != 0, which negates the
    Pfaffian; with no such j row 2k vanishes and so does Pf A.  The last
    pivot, times the sign of the swaps, is Pf A.
    """
    m = len(rows)
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(0, m - 2, 2):
        top, nxt = a[k], a[k + 1]
        pivot = top[k + 1]
        if not pivot:
            swap = next((j for j in range(k + 2, m) if top[j]), None)
            if swap is None:
                return 0
            for i in range(k, m):  # the stages leave the lower triangle stale
                row = a[i]
                for j in range(i + 1, m):
                    a[j][i] = -row[j]
            a[k + 1], a[swap] = a[swap], a[k + 1]
            for row in a[k:]:
                row[k + 1], row[swap] = row[swap], row[k + 1]
            sign = -sign
            nxt = a[k + 1]
            pivot = top[k + 1]
        for i in range(k + 2, m):
            row = a[i]
            x, y = top[i], nxt[i]
            for j in range(i + 1, m):
                row[j] = (pivot * row[j] - x * nxt[j] + top[j] * y) // prev
        prev = pivot
    return sign * a[-2][-1] if m else 1


def pfaffian(A: AlternatingMatrix):
    """Pf A, routed by the entry types as `linalg.det_exact` routes det.

    All-int entries go to the condensation `_pf_condensed` (the result is
    an int); int and Fraction entries go there after their denominators
    are cleared, Pf A = Pf(d A) / d^(m/2) under the scalar rule; any other
    ring takes the first-row recursion `_pf` under a fresh memo."""
    rows = A.rows
    if A.int_entries:
        return _pf_condensed(rows)
    if all(type(x) is int or type(x) is Fraction for row in rows for x in row):
        scaled, d = clear_denominators(rows)
        return _rational(Fraction(_pf_condensed(scaled), d ** (A.size // 2)))
    return _pf(A, (1 << A.size) - 1, {})


def copfaffian_matrix(A: AlternatingMatrix, memo: dict | None = None) -> AlternatingMatrix:
    """The alternating matrix of all Pfaffian cofactors.

    Entry (i, j), i < j, is Pf A with rows and columns i and j removed,
    signed (-1)^(i+j-1) (1-based), and entry (j, i) is its negative; the
    diagonal is the int 0.  All cofactors share one mask-keyed
    sub-Pfaffian memo of A: `memo` if given (say, the one that computed
    Pf A), else a fresh one.  The grid is skew by construction, so it is
    wrapped without a second check.
    """
    if memo is None:
        memo = {}
    m = A.size
    full = (1 << m) - 1
    grid = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            g = _pf(A, full ^ 1 << i ^ 1 << j, memo)
            if not (i + j) % 2:  # 0-based i + j even: 1-based i + j - 1 odd
                g = -g
            grid[i][j] = g
            grid[j][i] = -g
    return AlternatingMatrix._trusted(tuple(map(tuple, grid)))


def copfaffian_expansion_residuals(A: AlternatingMatrix) -> dict[tuple[int, int], object]:
    """Residuals of the Laplacian-style expansion delta_ij Pf A = sum_k a_ik gamma_jk.

    All residuals are zero exactly when the expansion holds; the full grid
    is returned so failures name their (i, j)."""
    m = A.size
    memo: dict = {}
    pf = _pf(A, (1 << m) - 1, memo)
    gamma = copfaffian_matrix(A, memo)
    out: dict[tuple[int, int], object] = {}
    if A.int_entries and gamma.int_entries:
        for i, row in enumerate(A.rows, start=1):
            for j, gamma_row in enumerate(gamma.rows, start=1):
                total = sum(map(mul, row, gamma_row))
                out[(i, j)] = total - pf if i == j else total
        return out
    ring, lines = _lift(A.rows + gamma.rows)
    product_into = ring._product_into
    for i, row in enumerate(lines[:m], start=1):
        for j, gamma_row in enumerate(lines[m:], start=1):
            terms: dict = {}
            for a, g in zip(row, gamma_row):
                if a and g:
                    product_into(terms, a, g)
            total = ring._wrap(terms)
            out[(i, j)] = total - pf if i == j else total
    return out


def copfaffian_expansion_check(A: AlternatingMatrix) -> bool:
    return all(r == 0 for r in copfaffian_expansion_residuals(A).values())


def _minor_data(A: AlternatingMatrix) -> tuple:
    """(Pf A, its memo, Ahat, the memo of that) for A, computed on the
    first call and kept on A; raises while Pf A vanishes."""
    data = A._minors
    if data is None:
        memo: dict = {}
        pf = _pf(A, (1 << A.size) - 1, memo)
        if pf == 0:
            raise SingularMatrixError("Pfaffian vanishes; relation needs an invertible matrix")
        data = A._minors = (pf, memo, copfaffian_matrix(A, memo), {})
    return data


def complementary_minor_check(A: AlternatingMatrix, I: Iterable[int]) -> bool:
    """Check Pf(A_I)/Pf(A) == sgn(I, Ic) * Pf((Ahat/Pf A)_Ic) for rational A.

    Ahat is the co-Pfaffian matrix; Ic the complement of I.  Requires an
    invertible matrix and an even index set of distinct indices 1..m.
    With |Ic| = 2k, Pf((Ahat/Pf A)_Ic) = Pf(Ahat_Ic)/(Pf A)^k, so the
    relation is compared multiplied through by (Pf A)^(k+1):
    Pf(A_I) (Pf A)^k == sgn(I, Ic) Pf(Ahat_Ic) Pf A, which stays in int
    for an int A.  Pf A, Ahat and the sub-Pfaffian memos of both are
    computed once per matrix and kept on A, so a sweep over every I of one
    matrix computes each sub-Pfaffian once; each I is still compared exactly.
    """
    I = tuple(sorted(I))
    if len(I) % 2:
        raise ValueError(f"index set must have even size, got {len(I)}")
    m = A.size
    mask = 0
    for k in I:
        if not 1 <= k <= m or mask >> (k - 1) & 1:
            raise ValueError(f"index set must hold distinct indices in 1..{m}, got {I}")
        mask |= 1 << (k - 1)
    comp = ((1 << m) - 1) ^ mask
    pf, memo, ahat, ahat_memo = _minor_data(A)
    lhs = _pf(A, mask, memo) * pf ** ((m - len(I)) // 2)
    rhs = merge_sign(mask, comp) * _pf(ahat, comp, ahat_memo) * pf
    return lhs == rhs


class AntiAlternatingMatrix:
    """2n x 2n matrix X with tX J + J X = 0, stored through its coloring.

    A coloring (p, q) with p + q = 2n splits X into a p x q block `a`, a
    skew p x p block `b`, a skew q x q block `c`, and a fourth block that
    is determined by `a`.  Rows carry the signed labels 1..p, -q..-1 and
    columns 1..q, -p..-1, so anti-alternation holds by construction.
    Entries may come from any ring with exact equality, commutative or
    not (rationals, `Poly`, `uea.UEAElement`).
    """

    __slots__ = ("p", "q", "a", "b", "c")

    def __init__(self, p: int, q: int, a_rows, b_rows, c_rows):
        if p < 1 or q < 1 or (p + q) % 2:
            raise ShapeError(f"coloring needs p, q >= 1 with p + q even, got ({p}, {q})")
        self.p, self.q = p, q
        self.a = freeze(a_rows)
        self.b = freeze(b_rows)
        self.c = freeze(c_rows)
        if len(self.a) != p or any(len(r) != q for r in self.a):
            raise ShapeError(f"block a must be {p}x{q}")
        for name, block, size in (("b", self.b, p), ("c", self.c, q)):
            if len(block) != size or any(len(r) != size for r in block):
                raise ShapeError(f"block {name} must be {size}x{size}")
            for i in range(size):
                if not block[i][i] == 0:
                    raise ShapeError(f"block {name} needs a zero diagonal", (i + 1, i + 1))
                for j in range(i + 1, size):
                    if not block[j][i] == -block[i][j]:
                        raise ShapeError(f"block {name} is not skew at ({j + 1},{i + 1})", (j + 1, i + 1))

    @classmethod
    def from_upper_blocks(cls, p: int, q: int, a_rows, b_upper, c_upper) -> "AntiAlternatingMatrix":
        """Build from `a` plus the strict upper triangles of `b` and `c`.

        `b_upper` is a list of p-1 rows, row i holding b[i][i+1..p];
        likewise `c_upper` with q-1 rows.  Skewness is then automatic.
        """
        for size, upper, name in ((p, b_upper, "b"), (q, c_upper, "c")):
            if len(upper) != max(size - 1, 0):
                raise ShapeError(f"block {name} needs {size - 1} triangle rows, got {len(upper)}")
            for i, row in enumerate(upper, start=1):
                if len(row) != size - i:
                    raise ShapeError(f"block {name} row {i} needs {size - i} entries, got {len(row)}")
        return cls(p, q, a_rows, _mirror(p, b_upper), _mirror(q, c_upper))

    @classmethod
    def generic(cls, p: int, q: int) -> "AntiAlternatingMatrix":
        """Fully symbolic matrix with entries a[i,j], b[i,j], c[i,j]."""
        a_rows = [[Poly.var(f"a[{i},{j}]") for j in range(1, q + 1)] for i in range(1, p + 1)]
        b_upper = [[Poly.var(f"b[{i},{j}]") for j in range(i + 1, p + 1)] for i in range(1, p)]
        c_upper = [[Poly.var(f"c[{i},{j}]") for j in range(i + 1, q + 1)] for i in range(1, q)]
        return cls.from_upper_blocks(p, q, a_rows, b_upper, c_upper)

    @property
    def half(self) -> int:
        return (self.p + self.q) // 2

    @property
    def size(self) -> int:
        return self.p + self.q

    def row_labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.p + 1)) + tuple(range(-self.q, 0))

    def col_labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.q + 1)) + tuple(range(-self.p, 0))

    def entry(self, i: int, j: int):
        """X[i,j] at the signed row label i and column label j:
        a[i][j], b[i][-j], c[j][-i] or -a[-j][-i] by the signs of i, j."""
        p, q = self.p, self.q
        if not (1 <= i <= p or -q <= i <= -1) or not (1 <= j <= q or -p <= j <= -1):
            raise ValueError(f"signed entry ({i}, {j}) out of range for coloring ({p}, {q})")
        if i > 0:
            return self.a[i - 1][j - 1] if j > 0 else self.b[i - 1][-j - 1]
        return self.c[j - 1][-i - 1] if j > 0 else -self.a[-j - 1][-i - 1]

    def full(self) -> tuple:
        """The 2n x 2n matrix in its signed row/column layout, read off the
        blocks as `entry` reads each cell: row i of 1..p is a[i] then b[i]
        reversed, and row -k of -q..-1 is column k of c then column k of a,
        negated and reversed."""
        a_cols, c_cols = tuple(zip(*self.a)), tuple(zip(*self.c))
        top = tuple(a_row + b_row[::-1] for a_row, b_row in zip(self.a, self.b))
        return top + tuple(c_cols[k] + tuple(-x for x in reversed(a_cols[k])) for k in reversed(range(self.q)))

    def to_alternating(self) -> AlternatingMatrix:
        """X J, which is alternating; its Pfaffian is Pf X by definition.

        X J is the signed layout with its columns reversed, so its entry
        (r, c) is X[i, -k] for the row labels i of r and k of c, and
        X[i, -k] = -X[k, -i] by anti-alternation.  It is skew by
        construction, so it is wrapped without a second check."""
        return AlternatingMatrix._trusted(tuple(row[::-1] for row in self.full()))


def pfaffian_of_anti_alternating(X: AntiAlternatingMatrix):
    """Pf X := Pf(X J)."""
    return pfaffian(X.to_alternating())


def _det_raw(M: tuple, rows: int, cols: int, memo: dict, shift=None):
    """The lift of M and the raw column determinant of the minor of M on
    the masks `rows` and `cols` (bit k - 1 for index k, equal bit
    counts), by expansion along the lowest set column bit (`_det_terms`);
    for commuting entries, the determinant.

    At a scalar `shift` u the entry (k, k) gains u plus the number of
    remaining columns: u + r - t in column t of r.  `memo` maps (rows,
    cols) to raw minors of M at one shift, so each minor is computed
    once; the lift is made on the first call and kept under the key None,
    with the empty minor's unit under (0, 0).  With a Fraction
    coefficient or shift the memo holds the raw minors of d M shifted by
    d u in ints, d the common denominator of both, and the lift's
    `value(terms, |cols|)` divides a minor back by d ** |cols|."""
    lift = memo.get(None)
    if lift is None:
        ring, lines = _lift(M)
        lift = memo[None] = _Lift(ring, list(zip(*lines)), shift)
        memo[0, 0] = lift.one
    terms = memo.get((rows, cols))
    if terms is None:
        terms = _det_terms(lift, rows, cols, memo)
    return lift, terms


def _det_terms(lift: _Lift, rows: int, cols: int, memo: dict) -> dict:
    """Raw column determinant of the minor on the masks `rows` and the
    nonempty `cols`, stored in `memo`; callers read the memo first.

    One row i and one column k give the lifted entry (i, k) itself, or at
    i = k with a shift its `_Lift.shifted` entry, {} for a zero, shared
    and never written.  Above that each set row bit, in increasing order,
    gives an entry of the lowest column (shifted on the diagonal) that
    multiplies its cofactor at `rows ^ bit` on the left, the sign
    alternating over the set row bits; each such product with no zero
    factor is added by the ring's `_int_product_into` into one fresh
    dict, which the node stores as formed: {} when no product survives."""
    low = cols & -cols
    rest = cols ^ low
    col = low.bit_length() - 1
    column = lift.lines[col]
    if not rest:
        if rows == low and lift.shift is not None:
            entry = lift.shifted(col, 0)
        else:
            entry = column[rows.bit_length() - 1]
        memo[rows, cols] = entry
        return entry
    if rows & low and lift.shift is not None:
        column = list(column)
        column[col] = lift.shifted(col, rest.bit_count())
    product_into = lift.product_into
    out: dict = {}
    sign = 1
    bits = rows
    while bits:
        bit = bits & -bits
        bits ^= bit
        a = column[bit.bit_length() - 1]
        if a:
            minor = (rows ^ bit, rest)
            sub = memo.get(minor)
            if sub is None:
                sub = _det_terms(lift, rows ^ bit, rest, memo)
            if sub:
                product_into(out, a, sub, sign)
        sign = -sign
    memo[rows, cols] = out
    return out


def minor_summation_rhs(X: AntiAlternatingMatrix, shift=None):
    """Expansion of Pf X as a sum of det(a-minor) * Pf(c-minor) * Pf(b-minor).

    The sum runs over even subsets I of the b-rows and J of the c-rows of
    matching co-size; each term carries the shuffle signs of (complement,
    subset) on both sides.  The determinant is `_det_terms` of the a block
    at `shift` on the complement masks of I and J; the enveloping-algebra
    identity takes the shift 0.  Every Pf(b_I) is read through one memo of
    `_pf_terms` on the whole b block, and every Pf(c_J) through one of c:
    the entries within b, and within c, commute in all three rings.  The
    three blocks are lifted once, to one ring, and the sum is regrouped as
    sum_I (sum_J sgn(Jc, J) d Pf(c_J)) sgn(Ic, I) Pf(b_I): each factor keeps
    its place in the product d Pf(c_J) Pf(b_I), which that identity needs,
    and Pf(b_I) multiplies once per I.  The three lifts share one common
    denominator D of the coefficients the kernels read (all of a, the
    strict upper triangles of b and c) and the shift, so the memos and the
    sum hold raw values of D X in ints; each term has X.half factors, and
    the sum is divided by D ** X.half once, at the end.  A vanishing sum,
    whether no term was added or the terms cancelled, is the ring's zero
    (the int 0 for an all-scalar X).
    """
    p, q = X.p, X.q
    ring, lines = _lift(X.a + X.b + X.c)
    b_lines, c_lines = lines[p:2 * p], lines[2 * p:]
    # one d for all three, since each term mixes their factors, from the cells the kernels read
    scale = _common_denominator(chain(chain.from_iterable(lines[:p]), _upper(b_lines), _upper(c_lines)), shift)
    a = _Lift(ring, list(zip(*lines[:p])), shift, scale)
    b = _Lift(ring, b_lines, scale=scale, alternating=True)
    c = _Lift(ring, c_lines, scale=scale, alternating=True)
    product_into, one = a.product_into, a.one
    b_memo, c_memo, det_memo = {0: one}, {0: one}, {(0, 0): one}
    full_p, full_q = (1 << p) - 1, (1 << q) - 1
    total: dict = {}
    for isize in range(0, p + 1, 2):
        jsize = q - p + isize
        if jsize < 0 or jsize > q:
            continue
        # the c side does not depend on I: Pf(c_J) once per J, zeros dropped
        c_side = []
        for J in combinations(range(1, q + 1), jsize):
            mask = index_mask(J)
            pf_c = c_memo.get(mask)
            if pf_c is None:
                pf_c = _pf_terms(c, mask, c_memo)
            if pf_c:
                comp = full_q ^ mask
                c_side.append((merge_sign(comp, mask), comp, pf_c))
        for I in combinations(range(1, p + 1), isize):
            mask = index_mask(I)
            pf_b = b_memo.get(mask)
            if pf_b is None:
                pf_b = _pf_terms(b, mask, b_memo)
            if not pf_b:
                continue
            comp = full_p ^ mask
            inner: dict = {}
            for sign_j, comp_j, pf_c in c_side:
                d = det_memo.get((comp, comp_j))
                if d is None:
                    d = _det_terms(a, comp, comp_j, det_memo)
                if not d:
                    continue
                if pf_c is one:  # J empty: Pf(c_J) = 1, so d is added as it is
                    add_into(inner, d, sign_j)
                else:
                    product_into(inner, d, pf_c, sign_j)
            if inner:
                if mask:
                    product_into(total, inner, pf_b, merge_sign(comp, mask))
                else:  # the first I, empty: Pf(b_I) = 1 and the sign is +1
                    total = inner
    return a.value(total, X.half)


def verify_minor_summation(p: int, q: int) -> bool:
    """Compare both routes on the fully symbolic matrix of coloring (p, q)."""
    X = AntiAlternatingMatrix.generic(p, q)
    return pfaffian_of_anti_alternating(X) == minor_summation_rhs(X)


def _cayley(Yn, d: int):
    """The Cayley transform (I - Y)(I + Y)^{-1} of Y = Yn/d, where Yn is an
    int matrix and d != 0.

    With M = d I + Yn, I + Y = M/d, and (I - Y)(I + Y)^{-1} = 2(I + Y)^{-1} - I
    = 2d adj(M)/det(M) - I, so only the last step leaves the ints."""
    M = tuple(tuple(x + d if i == j else x for j, x in enumerate(row)) for i, row in enumerate(Yn))
    det, adj = det_adjugate(M)
    return tuple(tuple(_rational(Fraction(2 * d * x - (det if i == j else 0), det)) for j, x in enumerate(row))
                 for i, row in enumerate(adj))


def random_orthogonal_cayley(S, rng: random.Random):
    """Random special-orthogonal test point for the form S via the Cayley map.

    Draws Y = S^{-1} W with W alternating, its strict upper triangle of
    ints in -3..3, and retries until I + Y is invertible.  With S = Sn/s
    for the int matrix Sn, Y = s adj(Sn) W / det(Sn), so the Cayley map
    gets the int numerator s adj(Sn) W and the denominator det(Sn).
    Each draw has tY S + S Y = tW + W = 0 once S is symmetric, so S is
    checked before drawing (ShapeError unless square and symmetric,
    SingularMatrixError if singular), and no draw is."""
    m = len(S)
    Sn, s = clear_denominators(S)
    if Sn != transpose(Sn):
        raise ShapeError("the form S must be square and symmetric")
    det_s, adj_s = det_adjugate(Sn)
    s_adj = tuple(tuple(s * x for x in row) for row in adj_s)
    while True:
        W = AlternatingMatrix.from_upper(m, lambda i, j: rng.randint(-3, 3)).rows
        try:
            return _cayley(mat_mul(s_adj, W), det_s)
        except SingularMatrixError:
            continue


def equivariance_check(A: AlternatingMatrix, g) -> bool:
    """Pf(g A tg) == det(g) Pf(A) for a rational matrix g.

    Tested as Pf(G A tG) == det(G) Pf(A) with the int matrix G = d g, d the
    common denominator of g: both sides are the former ones times d^m.
    G A tG is alternating by construction, so only its strict upper
    triangle, the part a Pfaffian reads, is formed, entry (i, j) as row i
    of G A dotted with row j of G, and the grid is mirrored and wrapped
    without a second check."""
    G = clear_denominators(g)[0]
    GA = mat_mul(G, A.rows)
    m = len(GA)
    upper = [[sum(map(mul, GA[i], G[j])) for j in range(i + 1, m)] for i in range(m - 1)]
    conjugated = AlternatingMatrix._trusted(tuple(map(tuple, _mirror(m, upper))))
    return pfaffian(conjugated) == det_exact(G) * pfaffian(A)
