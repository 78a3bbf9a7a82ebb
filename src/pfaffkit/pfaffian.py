"""Pfaffians of alternating matrices and their minor expansions.

Three independent evaluation routes are kept side by side: a recursive
first-row cofactor expansion, a brute-force sum over perfect matchings
whose signs come from each matching's own pair sequence, and, for
anti-alternating matrices, the right-hand side of the minor summation
identity, which expands the Pfaffian into determinant times
sub-Pfaffian contributions over the block decomposition.

`AntiAlternatingMatrix` is the one anti-alternating matrix type of the
package: its entries may be rationals, `Poly` or enveloping-algebra
elements (`uea.build_canonical_x`), and `entry(i, j)` reads them by
signed row and column labels.  `minor_summation_rhs` is the one block sum
of both identities; the commutative and the enveloping-algebra versions
differ only in the diagonal shift of its minor determinant.

The recursion `_pf` names a principal submatrix by an int mask, bit
k - 1 standing for index k (`indexing.index_mask`), and reads and fills
a memo keyed by the masks of one matrix, so every Pfaffian taken of that
matrix's principal submatrices shares it: `pfaffian` starts a fresh
memo, the co-Pfaffian matrix reads each cofactor Pf(A without i, j) at
the full mask without bits i - 1 and j - 1 from the memo that computed
Pf A, and `complementary_minor_check` computes Pf A, the co-Pfaffian
matrix and their memos once per matrix and keeps them on the matrix.
Each caller turns its index set into a mask once; the shuffle signs
sgn(I, Ic) of that check and sgn(Ic, I), sgn(Jc, J) of the block sum
are `indexing.merge_sign` of the two masks.  `minor_summation_rhs`
keeps one memo per block for a call: Pf(b_I) and Pf(c_J) come from
`_pf` on the whole b and c blocks (so do the block Pfaffians of
`grassmann.check_theta_powers`), and each a-minor determinant from
`_minor_det` on the complement masks, so each block quantity is
computed once.  `_minor_det`, memoised on the (rows, cols) masks, is the
one minor determinant of the package: a first-column expansion, so the
determinant for commuting entries and, with the shift u + r - t on the
diagonal of column t, the column determinant of the enveloping algebra.

The cofactor sums of `_pf`, `_minor_det`, `minor_summation_rhs` and
`copfaffian_expansion_residuals` add every signed product straight into
one `rings.ProductSum`: one raw term dict per sum, filled through the
coefficient ring's `_product_into` and wrapped once, so no running total
is copied per term.  A matrix whose entries are all ints
(`AlternatingMatrix.int_entries`, read once per node) sums in plain int
arithmetic instead, with no type test per term.

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
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .indexing import cycle_sign, index_mask, index_set, merge_sign
from .linalg import (
    SingularMatrixError,
    clear_denominators,
    det_adjugate,
    det_exact,
    freeze,
    is_zero_matrix,
    mat_add,
    mat_mul,
    transpose,
)
from .rings import Combination, Poly, ProductSum, _rational, add_into

class ShapeError(ValueError):
    """Raised when a matrix violates the structural constraints of its type."""

    def __init__(self, message: str, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell


def _all_int(rows: tuple) -> bool:
    return all(type(x) is int for row in rows for x in row)


class AlternatingMatrix:
    """Even-sized matrix with zero diagonal and A[j][i] == -A[i][j].

    Entries live in any commutative ring with exact equality; indexing is
    1-based to match the usual matrix conventions.  `int_entries` says
    whether every entry is an int, so that the cofactor sums can stay in
    int arithmetic without a test per term.
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
        self.int_entries = _all_int(rows)
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
        """Build from a callable giving the strict upper triangle (1-based);
        the diagonal is the int 0."""
        grid = [[0] * size for _ in range(size)]
        for i in range(1, size + 1):
            for j in range(i + 1, size + 1):
                v = value_at(i, j)
                grid[i - 1][j - 1] = v
                grid[j - 1][i - 1] = -v
        return cls(grid)

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

    def entry(self, i: int, j: int):
        return self.rows[i - 1][j - 1]

    def submatrix(self, indices: Iterable[int]) -> "AlternatingMatrix":
        """Principal submatrix on the given increasing 1-based indices, even
        in number (else ShapeError, as in the constructor)."""
        idx = index_set(indices, self.size)
        if len(idx) % 2:
            raise ShapeError(f"alternating matrices must have even size, got {len(idx)}")
        return AlternatingMatrix._trusted(tuple(tuple(self.rows[i - 1][j - 1] for j in idx) for i in idx))

    def scale(self, s) -> "AlternatingMatrix":
        return AlternatingMatrix._trusted(tuple(tuple(s * x for x in row) for row in self.rows))

    def __eq__(self, other):
        return isinstance(other, AlternatingMatrix) and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"AlternatingMatrix(size={self.size})"


def pfaffian_definitional(A: AlternatingMatrix):
    """Pfaffian as the signed sum over perfect matchings.

    One depth-first walk over the matchings: a node pairs the first
    unmatched index with each later one, and carries the flat pair
    sequence (first, partner, first, partner, ...) and the product of its
    entries, multiplied left to right, so a prefix is multiplied out once
    for all the matchings through it; the last two unmatched indices
    form the last pair at once.  A zero entry ends its subtree.  Each
    matching's sign is recomputed from scratch at its leaf as the sign
    of the flat pair sequence, keeping this route independent from the
    cofactor recursion.  Scalar products sum as scalars (so an all-int
    matrix sums in ints) and ring products go into one raw term dict,
    wrapped once; with no nonzero matching the sum is the int 0.
    """
    m = A.size
    if m == 0:
        return 1
    rows = A.rows
    scalar = 0
    ring = None
    terms: dict = {}
    stack = [((), tuple(range(m)), None)]
    while stack:
        flat, rest, prefix = stack.pop()
        first = rest[0]
        row = rows[first]
        for k in range(1, len(rest)):
            entry = row[rest[k]]
            if not entry:
                continue
            pairs = flat + (first, rest[k])
            prod = entry if prefix is None else prefix * entry
            left = rest[1:k] + rest[k + 1:]
            if len(left) > 2:
                stack.append((pairs, left, prod))
                continue
            if left:
                entry = rows[left[0]][left[1]]
                if not entry:
                    continue
                pairs += left
                prod = prod * entry
            if isinstance(prod, Combination):
                ring = type(prod)
                add_into(terms, prod.terms, cycle_sign(pairs))
            else:
                scalar += cycle_sign(pairs) * prod
    scalar = _rational(scalar)
    if ring is None:
        return scalar
    if scalar:
        add_into(terms, {ring._UNIT: scalar})
    return ring._wrap(terms)


def _pf(A: AlternatingMatrix, mask: int, memo: dict):
    """Pfaffian of the principal submatrix of A on the index set `mask`
    (bit k - 1 for index k), by expansion along its first row.

    The lowest set bit is the first row; each later set bit, in increasing
    order, pairs with it, its cofactor the Pfaffian at `rest ^ bit` and its
    sign alternating over the set bits.  `memo` maps masks of A to their
    Pfaffians; every call on the same A may share it, so each sub-Pfaffian
    is computed once, and a memoised value is only read, never added into.
    The empty Pfaffian is the int 1 and one whose cofactor entries all
    vanish the int 0, so an all-int matrix has int sub-Pfaffians
    throughout.  Each entry multiplies its cofactor Pfaffian on the left.
    """
    if not mask:
        return 1
    cached = memo.get(mask)
    if cached is not None:
        return cached
    low = mask & -mask
    rest = bits = mask ^ low
    row = A.rows[low.bit_length() - 1]
    ints = A.int_entries
    total = 0 if ints else ProductSum()  # an int matrix sums in int arithmetic
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
            if not ints:
                total.add(a, sub, 1 if positive else -1)
            elif positive:
                total += a * sub
            else:
                total -= a * sub
        positive = not positive
    if not ints:
        total = total.value()
    memo[mask] = total
    return total


def pfaffian(A: AlternatingMatrix):
    """Pfaffian by recursive expansion along the first remaining row,
    memoised on index subsets of A."""
    return _pf(A, (1 << A.size) - 1, {})


def cofactor_pfaffian(A: AlternatingMatrix, i: int, j: int, memo: dict | None = None):
    """Entry (i, j) of the co-Pfaffian matrix.

    Zero on the diagonal; off the diagonal it is the Pfaffian of A with
    rows/columns i and j removed, carrying the sign (-1)^(i+j-1) for
    i < j and (-1)^(i+j) for i > j.  `memo` is a sub-Pfaffian memo of A,
    keyed by masks (see `_pf`), to read from and add to.  Both indices
    must lie in 1..size.
    """
    if not (1 <= i <= A.size and 1 <= j <= A.size):
        raise ValueError(f"cofactor ({i}, {j}) out of range for size {A.size}")
    if i == j:
        return 0
    keep = ((1 << A.size) - 1) ^ (1 << (i - 1)) ^ (1 << (j - 1))
    pf = _pf(A, keep, {} if memo is None else memo)
    exponent = i + j - 1 if i < j else i + j
    return -pf if exponent % 2 else pf


def copfaffian_matrix(A: AlternatingMatrix, memo: dict | None = None) -> AlternatingMatrix:
    """The alternating matrix of all Pfaffian cofactors.

    All cofactors share one mask-keyed sub-Pfaffian memo of A: `memo` if
    given (say, the one that computed Pf A), else a fresh one.  The grid
    is skew by construction, so it is wrapped without a second check.
    """
    if memo is None:
        memo = {}
    m = A.size
    grid = [[0] * m for _ in range(m)]
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            g = cofactor_pfaffian(A, i, j, memo)
            grid[i - 1][j - 1] = g
            grid[j - 1][i - 1] = -g
    return AlternatingMatrix._trusted(tuple(map(tuple, grid)))


def copfaffian_expansion_residuals(A: AlternatingMatrix) -> dict[tuple[int, int], object]:
    """Residuals of the Laplacian-style expansion delta_ij Pf A = sum_k a_ik gamma_jk.

    All residuals are zero exactly when the expansion holds; the full grid
    is returned so failures name their (i, j)."""
    m = A.size
    memo: dict = {}
    pf = _pf(A, (1 << m) - 1, memo)
    gamma = copfaffian_matrix(A, memo)
    ints = A.int_entries and gamma.int_entries
    out = {}
    for i, row in enumerate(A.rows, start=1):
        for j, gamma_row in enumerate(gamma.rows, start=1):
            if ints:
                total = sum(a * g for a, g in zip(row, gamma_row))
            else:
                total = ProductSum()
                for a, g in zip(row, gamma_row):
                    if a:
                        total.add(a, g)
                total = total.value()
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

        def mirror(size, upper, name):
            if len(upper) != max(size - 1, 0):
                raise ShapeError(f"block {name} needs {size - 1} triangle rows, got {len(upper)}")
            grid = [[0] * size for _ in range(size)]
            for i, row in enumerate(upper, start=1):
                if len(row) != size - i:
                    raise ShapeError(f"block {name} row {i} needs {size - i} entries, got {len(row)}")
                for offset, v in enumerate(row):
                    j = i + 1 + offset
                    grid[i - 1][j - 1] = v
                    grid[j - 1][i - 1] = -v
            return grid

        return cls(p, q, a_rows, mirror(p, b_upper, "b"), mirror(q, c_upper, "c"))

    @classmethod
    def generic(cls, p: int, q: int) -> "AntiAlternatingMatrix":
        """Fully symbolic matrix with entries a[i,j], b[i,j], c[i,j]."""
        a_rows = [[Poly.var(f"a[{i},{j}]") for j in range(1, q + 1)] for i in range(1, p + 1)]
        b_upper = [[Poly.var(f"b[{i},{j}]") for j in range(i + 1, p + 1)] for i in range(1, p)]
        c_upper = [[Poly.var(f"c[{i},{j}]") for j in range(i + 1, q + 1)] for i in range(1, q)]
        return cls.from_upper_blocks(p, q, a_rows, b_upper, c_upper)

    @classmethod
    def random_rational(cls, p: int, q: int, rng: random.Random) -> "AntiAlternatingMatrix":
        """Blocks a and the strict upper triangles of b, c of seeded ints in -9..9."""
        a_rows = [[rng.randint(-9, 9) for _ in range(q)] for _ in range(p)]
        b_upper = [[rng.randint(-9, 9) for _ in range(i + 1, p + 1)] for i in range(1, p)]
        c_upper = [[rng.randint(-9, 9) for _ in range(i + 1, q + 1)] for i in range(1, q)]
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
        """The 2n x 2n matrix in its signed row/column layout."""
        cols = self.col_labels()
        return tuple(tuple(self.entry(i, j) for j in cols) for i in self.row_labels())

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


def _minor_det(M: tuple, rows: int, cols: int, memo: dict, shift=None):
    """Column determinant of the minor of M on the masks `rows` and `cols`
    (bit k - 1 for index k, equal bit counts), by expansion along the
    lowest set column bit; for commuting entries, the determinant.

    Each set row bit, in increasing order, gives an entry that multiplies
    its cofactor at `rows ^ bit` on the left, the sign alternating over the
    set row bits, all through one `ProductSum`.  At a scalar `shift` u the
    entry (k, k) gains u plus the number of remaining columns: u + r - t in
    column t of r.  `memo` maps (rows, cols) to minors of M at one shift,
    so each minor is computed once.  A zero entry or cofactor is skipped:
    the empty minor is the int 1 and one with a zero row the int 0.
    """
    if not cols:
        return 1
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    low = cols & -cols
    rest = cols ^ low
    col = low.bit_length() - 1
    bits = rows
    total = ProductSum()
    positive = True
    while bits:
        bit = bits & -bits
        bits ^= bit
        row = bit.bit_length() - 1
        a = M[row][col]
        if shift is not None and row == col:
            a = a + (shift + rest.bit_count())
        if a:
            minor = (rows ^ bit, rest)
            sub = memo.get(minor) if rest else 1
            if sub is None:
                sub = _minor_det(M, *minor, memo, shift)
            if sub:
                total.add(a, sub, 1 if positive else -1)
        positive = not positive
    total = memo[key] = total.value()
    return total


def minor_summation_rhs(X: AntiAlternatingMatrix, shift=None):
    """Expansion of Pf X as a sum of det(a-minor) * Pf(c-minor) * Pf(b-minor).

    The sum runs over even subsets I of the b-rows and J of the c-rows of
    matching co-size; each term carries the shuffle signs of (complement,
    subset) on both sides.  The determinant is `_minor_det` of the a block
    at `shift` on the complement masks of I and J, under one memo per
    call; the enveloping-algebra identity takes the shift 0.  Every
    Pf(b_I) is read through one sub-Pfaffian memo of the whole b block,
    and every Pf(c_J) through one of c: the entries within b, and within
    c, commute in all three rings.  Factors multiply in the order
    written, which that identity needs: each signed (d Pf(c_J)) Pf(b_I)
    is added into one `ProductSum`.
    """
    B, C = AlternatingMatrix._trusted(X.b), AlternatingMatrix._trusted(X.c)
    b_memo: dict = {}
    c_memo: dict = {}
    det_memo: dict = {}
    p, q = X.p, X.q
    full_p, full_q = (1 << p) - 1, (1 << q) - 1
    total = ProductSum()
    for isize in range(0, p + 1, 2):
        jsize = q - p + isize
        if jsize < 0 or jsize > q:
            continue
        # the c side does not depend on I: Pf(c_J) once per J, zeros dropped
        c_side = []
        for J in combinations(range(1, q + 1), jsize):
            mask = index_mask(J)
            pf_c = _pf(C, mask, c_memo)
            if pf_c:
                comp = full_q ^ mask
                c_side.append((merge_sign(comp, mask), comp, pf_c))
        for I in combinations(range(1, p + 1), isize):
            mask = index_mask(I)
            pf_b = _pf(B, mask, b_memo)
            if not pf_b:
                continue
            comp = full_p ^ mask
            sign_i = merge_sign(comp, mask)
            for sign_j, comp_j, pf_c in c_side:
                d = _minor_det(X.a, comp, comp_j, det_memo, shift)
                if d:
                    total.add(d * pf_c, pf_b, sign_i * sign_j)
    return total.value()


def verify_minor_summation(p: int, q: int) -> bool:
    """Compare both routes on the fully symbolic matrix of coloring (p, q)."""
    X = AntiAlternatingMatrix.generic(p, q)
    return pfaffian_of_anti_alternating(X) == minor_summation_rhs(X)


class NotInLieAlgebraError(ValueError):
    """Raised when a matrix fails tY S + S Y = 0 for the given form S."""


def _cayley(Yn, d: int):
    """The Cayley transform (I - Y)(I + Y)^{-1} of Y = Yn/d, where Yn is an
    int matrix and d != 0.

    With M = d I + Yn, I + Y = M/d, and (I - Y)(I + Y)^{-1} = 2(I + Y)^{-1} - I
    = 2d adj(M)/det(M) - I, so only the last step leaves the ints."""
    M = tuple(tuple(x + d if i == j else x for j, x in enumerate(row)) for i, row in enumerate(Yn))
    det, adj = det_adjugate(M)
    return tuple(tuple(_rational(Fraction(2 * d * x - (det if i == j else 0), det)) for j, x in enumerate(row))
                 for i, row in enumerate(adj))


def cayley_orthogonal(Y, S):
    """g = (I - Y)(I + Y)^{-1} for rational Y in the orthogonal Lie algebra
    of the rational form S, its entries under the scalar rule.

    The result satisfies tg S g = S exactly; I + Y must be invertible
    (else SingularMatrixError).  The membership tY S + S Y = 0 is tested
    as tYn Sn + Sn Yn = 0 on the int numerators Yn of Y and Sn of S.
    """
    Yn, d = clear_denominators(Y)
    Sn = clear_denominators(S)[0]
    if not is_zero_matrix(mat_add(mat_mul(transpose(Yn), Sn), mat_mul(Sn, Yn))):
        raise NotInLieAlgebraError("tY S + S Y != 0")
    return _cayley(Yn, d)


def random_orthogonal_cayley(S, rng: random.Random, lo: int = -3, hi: int = 3):
    """Random special-orthogonal test point for the form S via the Cayley map.

    Draws Y = S^{-1} W with W alternating and retries until I + Y is
    invertible.  With S = Sn/s for the int matrix Sn, Y = s adj(Sn) W / det(Sn),
    so the Cayley map gets the int numerator s adj(Sn) W and the
    denominator det(Sn).  Each draw has tY S + S Y = tW + W = 0 once S is
    symmetric, so S is checked before drawing (ShapeError unless square
    and symmetric, SingularMatrixError if singular), and no draw is."""
    m = len(S)
    Sn, s = clear_denominators(S)
    if Sn != transpose(Sn):
        raise ShapeError("the form S must be square and symmetric")
    det_s, adj_s = det_adjugate(Sn)
    s_adj = tuple(tuple(s * x for x in row) for row in adj_s)
    while True:
        W = AlternatingMatrix.from_upper(m, lambda i, j: rng.randint(lo, hi)).rows
        try:
            return _cayley(mat_mul(s_adj, W), det_s)
        except SingularMatrixError:
            continue


def equivariance_check(A: AlternatingMatrix, g) -> bool:
    """Pf(g A tg) == det(g) Pf(A) for a rational matrix g.

    Tested as Pf(G A tG) == det(G) Pf(A) with the int matrix G = d g, d the
    common denominator of g: both sides are the former ones times d^m."""
    G = clear_denominators(g)[0]
    conjugated = AlternatingMatrix(mat_mul(mat_mul(G, A.rows), transpose(G)))
    return pfaffian(conjugated) == det_exact(G) * pfaffian(A)
