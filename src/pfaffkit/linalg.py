"""Dense exact matrix helpers.

Matrices are tuples of tuples.  Rational entries follow the rings' scalar
rule (an int when integral, else a Fraction); entries may also be any
commutative ring elements supporting +, -, *, == (polynomials in
particular).  The division-based routines require rational entries.  All
rational work is fraction-free elimination of int matrices (Bareiss): an
all-int matrix is eliminated as it is, so integer work stays in int, and
any other rational matrix after its denominators are cleared once, so
`det_exact` and the Cayley map of the Pfaffian layer (through the int
adjugate) divide only in their last step.  Other entries take the
Leibniz sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm
from operator import mul
from typing import Sequence

from .indexing import cycle_sign
from .rings import _rational

Matrix = tuple


class SingularMatrixError(ZeroDivisionError):
    """Raised when an exact inverse or quotient does not exist."""


def freeze(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def anti_identity(m: int) -> Matrix:
    """J_m: ones on the anti-diagonal."""
    return tuple(tuple(1 if i + j == m - 1 else 0 for j in range(m)) for i in range(m))


def transpose(M: Matrix) -> Matrix:
    return tuple(zip(*M)) if M else ()

def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if A and B and len(A[0]) != len(B):
        raise ValueError("inner dimensions do not match")
    Bt = transpose(B)
    return tuple(tuple(sum(map(mul, row, col)) for col in Bt) for row in A)


def det_leibniz(M: Matrix):
    """Permutation-sum determinant over any commutative ring.

    Factors multiply left to right in column order, so the same routine is
    reused as the column determinant for matrices of commuting entries.
    """
    m = len(M)
    if m == 0:
        return 1
    total = None
    for perm in permutations(range(m)):
        prod = M[perm[0]][0]
        for t in range(1, m):
            prod = prod * M[perm[t]][t]
        signed = prod if cycle_sign(perm) == 1 else -prod
        total = signed if total is None else total + signed
    return total


def det_bareiss(M: Matrix) -> int:
    """Fraction-free (Bareiss) elimination determinant for int matrices.

    After step k every entry of the trailing block is a (k+1)-minor of M,
    so each division by the previous pivot is exact and every
    intermediate stays an int (Bareiss 1968, Math. Comp. 22)."""
    m = len(M)
    rows = [list(row) for row in M]
    sign, prev = 1, 1
    for k in range(m - 1):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, m) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, m):
            row = rows[i]
            a = row[k]
            for j in range(k + 1, m):
                row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
        prev = pivot
    return sign * rows[-1][-1] if m else 1


def det_exact(M: Matrix):
    """Determinant: fraction-free elimination when every entry is an int
    (the result is then an int), the same on d*M for rational entries with
    the common denominator d, so det M = det(d*M)/d^m under the scalar
    rule, and the Leibniz sum otherwise."""
    kinds = {type(x) for row in M for x in row}
    if kinds <= {int}:
        return det_bareiss(M)
    if kinds <= {int, Fraction}:
        Mn, d = clear_denominators(M)
        return _rational(Fraction(det_bareiss(Mn), d ** len(M)))
    return det_leibniz(M)


def clear_denominators(M: Matrix) -> tuple[Matrix, int]:
    """(d*M, d) for a rational matrix M, where d >= 1 is the least common
    denominator of its entries; d*M is all int."""
    d = lcm(*(x.denominator for row in M for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in M), d


def det_adjugate(M: Matrix) -> tuple[int, Matrix]:
    """(det M, adj M) of a nonsingular int matrix, all in int, where
    adj M = det M * M^{-1}; raises SingularMatrixError.

    Fraction-free Gauss-Jordan elimination of [M | I]: step k clears
    column k above and below the pivot, and every entry then is a minor of
    [M | I], so each division by the previous pivot is exact (Bareiss 1968,
    Math. Comp. 22).  The last pivot is det(PM) for the row swaps P, and
    the right block ends as that pivot times M^{-1}.  Columns left of the
    pivot are never read again, so they are not updated."""
    m = len(M)
    rows = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(M)]
    sign, prev = 1, 1
    for k in range(m):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, m) if rows[r][k]), None)
            if swap is None:
                raise SingularMatrixError("matrix is singular")
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(m):
            if i == k:
                continue
            row = rows[i]
            a = row[k]
            for j in range(k + 1, 2 * m):
                row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
        prev = pivot
    return sign * prev, tuple(tuple(sign * x for x in row[m:]) for row in rows)

