"""Pfaffians, copfaffians, the minor summation, and orthogonal equivariance."""

import gc
import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffkit.indexing import complement_sign, index_mask, split_sign
from pfaffkit.linalg import (
    SingularMatrixError,
    anti_identity,
    det_exact,
    det_leibniz,
    identity,
    inverse_fraction,
    mat_add,
    mat_mul,
    mat_sub,
    transpose,
)
from pfaffkit.pfaffian import (
    AlternatingMatrix,
    AntiAlternatingMatrix,
    NotInLieAlgebraError,
    ShapeError,
    _minor_det,
    _pf,
    cayley_orthogonal,
    cofactor_pfaffian,
    complementary_minor_check,
    copfaffian_expansion_check,
    copfaffian_matrix,
    equivariance_check,
    copfaffian_expansion_residuals,
    minor_summation_rhs,
    pfaffian,
    pfaffian_definitional,
    pfaffian_of_anti_alternating,
    random_orthogonal_cayley,
    verify_minor_summation,
)
from pfaffkit.rings import Poly, _decode, _rational
from pfaffkit.uea import build_canonical_x
from pfaffkit.verify import GENERIC_SYMMETRIC_S


def a(i, j):
    return Poly.var(f"a[{i},{j}]")


# --- plain Pfaffian ---------------------------------------------------------


def test_empty_matrix():
    assert pfaffian(AlternatingMatrix([])) == 1
    assert pfaffian_definitional(AlternatingMatrix([])) == 1


def test_two_by_two():
    A = AlternatingMatrix.generic(2)
    assert pfaffian(A) == a(1, 2)


def test_four_by_four_golden():
    A = AlternatingMatrix.generic(4)
    expected = a(1, 2) * a(3, 4) - a(1, 3) * a(2, 4) + a(1, 4) * a(2, 3)
    assert pfaffian(A) == expected == pfaffian_definitional(A)
    assert str(pfaffian(A)) == "a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]"


def test_odd_size_rejected():
    with pytest.raises(ShapeError):
        AlternatingMatrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])


def test_not_alternating_rejected():
    with pytest.raises(ShapeError):
        AlternatingMatrix([[0, 1], [1, 0]])
    with pytest.raises(ShapeError):
        AlternatingMatrix([[1, 1], [-1, 0]])


def test_matching_sum_of_the_generic_matrix_has_one_unit_term_per_matching():
    # (2m-1)!! perfect matchings, each its own monomial with coefficient +-1
    for m in range(1, 6):
        pf = pfaffian_definitional(AlternatingMatrix.generic(2 * m))
        assert len(pf.terms) == prod(range(1, 2 * m, 2))
        assert set(pf.terms.values()) <= {1, -1}
        for factors in _decode(pf.terms):
            assert all(e == 1 for _, e in factors)
            ends = [int(x) for name, _ in factors for x in name[2:-1].split(",")]
            assert sorted(ends) == list(range(1, 2 * m + 1))


def _sparse_entry(kind, rng, i, j):
    if rng.random() < 0.2:
        return 0
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "fraction":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return a(i, j) * rng.randint(1, 3)


def test_matching_sum_skips_zero_entries_and_keeps_the_result_type():
    # zero entries and zero rows cut whole subtrees of the matching walk
    rng = random.Random(31)
    for kind in ("int", "fraction", "poly"):
        for size in (2, 4, 6, 8, 8):  # two draws at the largest size
            for zero_row in (None, None, 1, size):
                A = AlternatingMatrix.from_upper(
                    size, lambda i, j: 0 if zero_row in (i, j) else _sparse_entry(kind, rng, i, j))
                pf, oracle = pfaffian(A), pfaffian_definitional(A)
                assert oracle == pf, (kind, size, zero_row)
                if kind == "poly":
                    # distinct monomials never cancel, so the sum is a Poly
                    # exactly when some matching avoids every zero entry
                    assert type(oracle) is (Poly if oracle != 0 else int)
                else:
                    assert type(oracle) is type(pf) is type(_rational(Fraction(oracle)))
                if zero_row == 1:
                    assert type(oracle) is type(pf) is int and oracle == 0
    # matchings that cancel leave a Poly zero with no terms, as in `pfaffian`
    one = Poly.const(1)
    A = AlternatingMatrix.from_upper(4, lambda i, j: 0 if (i, j) == (1, 4) else one)
    for pf in (pfaffian(A), pfaffian_definitional(A)):
        assert type(pf) is Poly and not pf.terms


def test_routes_agree_symbolic():
    for size in (2, 4, 6):
        A = AlternatingMatrix.generic(size)
        assert pfaffian(A) == pfaffian_definitional(A)


def test_routes_agree_random():
    rng = random.Random(2)
    for _ in range(5):
        A = AlternatingMatrix.random_rational(8, rng)
        assert pfaffian(A) == pfaffian_definitional(A)


def test_pfaffian_squares_to_determinant():
    rng = random.Random(3)
    for size in (2, 4, 6):
        A = AlternatingMatrix.generic(size)
        assert pfaffian(A) ** 2 == det_exact(A.rows)
    for _ in range(10):
        A = AlternatingMatrix.random_rational(8, rng)
        assert pfaffian(A) ** 2 == det_exact(A.rows)


def test_scaling_law():
    A = AlternatingMatrix.generic(4)
    assert pfaffian(A.scale(Fraction(3))) == Fraction(9) * pfaffian(A)


# --- copfaffians ------------------------------------------------------------


def test_cofactor_goldens():
    A2 = AlternatingMatrix.generic(2)
    assert cofactor_pfaffian(A2, 1, 2) == 1
    assert cofactor_pfaffian(A2, 2, 1) == -1
    A4 = AlternatingMatrix.generic(4)
    assert cofactor_pfaffian(A4, 1, 1) == 0
    assert cofactor_pfaffian(A4, 1, 3) == -a(2, 4)
    assert cofactor_pfaffian(A4, 3, 1) == a(2, 4)


@pytest.mark.parametrize("i, j", [(0, 1), (1, 9), (5, 1), (-1, 2), (0, 0)])
def test_cofactor_rejects_out_of_range(i, j):
    with pytest.raises(ValueError):
        cofactor_pfaffian(AlternatingMatrix.generic(4), i, j)


@pytest.mark.parametrize("indices", [(0, 1), (1, 5), (3, 2), (2, 2)])
def test_submatrix_rejects_bad_indices(indices):
    with pytest.raises(ValueError):
        AlternatingMatrix.generic(4).submatrix(indices)


def test_copfaffian_matrix_is_alternating():
    A = AlternatingMatrix.generic(4)
    G = copfaffian_matrix(A)
    assert G.size == 4
    assert G.entry(1, 2) == -G.entry(2, 1)


def test_expansion_symbolic():
    for size in (2, 4, 6):
        assert copfaffian_expansion_check(AlternatingMatrix.generic(size))


def test_expansion_random():
    rng = random.Random(4)
    for _ in range(20):
        assert copfaffian_expansion_check(AlternatingMatrix.random_rational(8, rng))


def test_complementary_minor_all_subsets():
    A = _nonsingular_rational(6, 5)
    for m in (0, 2, 4, 6):
        for I in combinations(range(1, 7), m):
            assert complementary_minor_check(A, I)


def _nonsingular_rational(size, seed):
    rng = random.Random(seed)
    while True:
        A = AlternatingMatrix.random_rational(size, rng)
        if pfaffian(A) != 0:
            return A


@pytest.mark.parametrize("A", [AlternatingMatrix.random_rational(8, random.Random(11)),
                               AlternatingMatrix.generic(6)], ids=["rational-8", "generic-6"])
def test_copfaffian_matrix_matches_fresh_cofactors(A):
    G = copfaffian_matrix(A)
    m = A.size
    for i in range(1, m + 1):
        assert G.entry(i, i) == 0
        for j in range(1, m + 1):
            if i == j:
                continue
            keep = tuple(k for k in range(1, m + 1) if k not in (i, j))
            sign = (-1) ** (i + j - 1 if i < j else i + j)
            fresh = pfaffian(A.submatrix(keep))
            assert G.entry(i, j) == sign * fresh
            assert cofactor_pfaffian(A, i, j) == sign * fresh


def test_complementary_minor_reused_matrix_matches_fresh():
    A = _nonsingular_rational(8, 12)
    for m in range(0, 9, 2):
        for I in combinations(range(1, 9), m):
            reused = complementary_minor_check(A, I)
            assert reused == complementary_minor_check(AlternatingMatrix(A.rows), I)
            assert reused


def test_complementary_minor_rejects_singular_and_bad_index_sets():
    # Pf = a12*a34 - a13*a24 + a14*a23 = 1*1 - 1*1 + 0 = 0
    S = AlternatingMatrix.from_upper(4, lambda i, j: Fraction(0) if (i, j) in ((1, 4), (2, 3)) else Fraction(1))
    assert pfaffian(S) == 0
    for _ in range(2):
        with pytest.raises(SingularMatrixError):
            complementary_minor_check(S, (1, 2))
    A = _nonsingular_rational(4, 13)
    for bad in ((1,), (1, 2, 3), (1, 1), (0, 1), (4, 5)):
        with pytest.raises(ValueError):
            complementary_minor_check(A, bad)


def test_pfaffian_memo_leaves_no_cyclic_garbage():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        pfaffian(AntiAlternatingMatrix.generic(4, 4).to_alternating())
        assert gc.collect() == 0
        A = _nonsingular_rational(6, 14)
        assert copfaffian_expansion_check(A)
        assert complementary_minor_check(A, (1, 2))
        del A
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# --- anti-alternating matrices ---------------------------------------------


def test_coloring_validation():
    with pytest.raises(ShapeError):
        AntiAlternatingMatrix.generic(1, 2)  # odd total
    with pytest.raises(ShapeError):
        AntiAlternatingMatrix.generic(0, 2)


def test_full_layout_golden():
    X = AntiAlternatingMatrix.generic(2, 2)
    b, c = Poly.var("b[1,2]"), Poly.var("c[1,2]")
    expected = (
        (a(1, 1), a(1, 2), b, Poly.zero()),
        (a(2, 1), a(2, 2), Poly.zero(), -b),
        (c, Poly.zero(), -a(2, 2), -a(1, 2)),
        (Poly.zero(), -c, -a(2, 1), -a(1, 1)),
    )
    assert X.full() == expected


def test_signed_entry_golden():
    # coloring (2, 4): X[i,j] = a[i][j], b[i][-j], c[j][-i] or -a[-j][-i]
    X = AntiAlternatingMatrix.generic(2, 4)
    assert X.entry(2, 3) == a(2, 3)
    assert X.entry(1, -2) == Poly.var("b[1,2]")
    assert X.entry(2, -1) == -Poly.var("b[1,2]")
    assert X.entry(-3, 2) == Poly.var("c[2,3]")
    assert X.entry(-2, 3) == -Poly.var("c[2,3]")
    assert X.entry(-4, -1) == -a(1, 4)
    assert X.entry(-1, -1) == -a(1, 1)
    assert X.entry(1, -1) == X.entry(-3, 3) == 0


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (3, 1), (-5, 1), (1, 5), (1, -3)])
def test_signed_entry_rejects_out_of_range(i, j):
    # coloring (2, 4): rows 1..2, -4..-1; columns 1..4, -2..-1
    X = AntiAlternatingMatrix.generic(2, 4)
    assert X.entry(2, 4) == a(2, 4) and X.entry(-4, -2) == -a(2, 4)
    with pytest.raises(ValueError):
        X.entry(i, j)


def _block_minor(X, block, indices):
    """The principal minor of the b or c block of X on `indices`."""
    return AlternatingMatrix._trusted(getattr(X, block)).submatrix(indices)


def _a_minor(X, rows, cols):
    """The minor of the a block of X on the given rows and columns."""
    return tuple(tuple(X.a[i - 1][j - 1] for j in cols) for i in rows)


@pytest.mark.parametrize("block", ["b", "c"], ids=["b_minor", "c_minor"])
@pytest.mark.parametrize("indices", [(0, 1), (1, 4), (2, 1), (1, 1)])
def test_block_minors_reject_bad_indices(block, indices):
    X = AntiAlternatingMatrix.generic(3, 3)
    with pytest.raises(ValueError):
        _block_minor(X, block, indices)
    assert _block_minor(X, block, (1, 3)).size == 2


@pytest.mark.parametrize("indices", [(1,), (1, 2, 3)])
def test_odd_principal_submatrices_are_rejected(indices):
    # an odd principal submatrix is not an AlternatingMatrix, as in the constructor
    X = AntiAlternatingMatrix.generic(3, 3)
    for take in (AlternatingMatrix.generic(4).submatrix, lambda I: _block_minor(X, "b", I),
                 lambda I: _block_minor(X, "c", I)):
        with pytest.raises(ShapeError):
            take(indices)


def test_full_satisfies_defining_relation():
    # tX J + J X = 0
    for p, q in ((1, 1), (2, 2), (1, 3), (3, 1), (2, 4)):
        X = AntiAlternatingMatrix.generic(p, q)
        F = [list(r) for r in X.full()]
        J = anti_identity(p + q)
        lhs = mat_mul(transpose(F), J)
        rhs = mat_mul(J, F)
        n2 = p + q
        assert all(lhs[i][j] + rhs[i][j] == Poly.zero() for i in range(n2) for j in range(n2))


def test_to_alternating_is_x_times_j():
    X = AntiAlternatingMatrix.generic(2, 2)
    F = [list(r) for r in X.full()]
    XJ = mat_mul(F, anti_identity(4))
    A = X.to_alternating()
    assert [list(r) for r in A.rows] == [list(r) for r in XJ]


def test_to_alternating_passes_the_checked_constructor():
    # X J is wrapped unchecked; the checked constructor accepts it unchanged
    rng = random.Random(19)
    subjects = [AntiAlternatingMatrix.generic(p, q) for p, q in ((1, 1), (2, 2), (1, 3), (3, 1), (2, 4), (4, 2))]
    subjects += [AntiAlternatingMatrix.random_rational(p, q, rng) for p, q in ((1, 3), (3, 1), (3, 5), (5, 3), (3, 3))]
    subjects += [build_canonical_x(n) for n in (1, 2, 3)]
    for X in subjects:
        A = X.to_alternating()
        assert AlternatingMatrix(A.rows) == A, (X.p, X.q)


def test_pfaffian_goldens_by_coloring():
    assert str(pfaffian_of_anti_alternating(AntiAlternatingMatrix.generic(1, 1))) == "a[1,1]"
    assert (
        str(pfaffian_of_anti_alternating(AntiAlternatingMatrix.generic(2, 2)))
        == "a[1,1]*a[2,2] - a[2,1]*a[1,2] + c[1,2]*b[1,2]"
    )
    assert (
        str(pfaffian_of_anti_alternating(AntiAlternatingMatrix.generic(1, 3)))
        == "c[2,3]*a[1,1] - c[1,3]*a[1,2] + c[1,2]*a[1,3]"
    )


def test_minor_summation_identity():
    for total in (2, 4, 6):
        for p in range(1, total):
            assert verify_minor_summation(p, total - p)


def test_minor_summation_random_points():
    rng = random.Random(6)
    for p, q in ((2, 2), (1, 3), (2, 4), (3, 3)):
        for _ in range(5):
            X = AntiAlternatingMatrix.random_rational(p, q, rng)
            assert pfaffian_of_anti_alternating(X) == minor_summation_rhs(X)


def _unhoisted_minor_summation_rhs(X):
    """The block sum with every Pfaffian taken inside the (I, J) loop."""
    rows, cols = tuple(range(1, X.p + 1)), tuple(range(1, X.q + 1))
    total = Fraction(0)
    for isize in range(0, X.p + 1, 2):
        jsize = X.q - X.p + isize
        if not 0 <= jsize <= X.q:
            continue
        for I in combinations(rows, isize):
            for J in combinations(cols, jsize):
                ci = tuple(k for k in rows if k not in I)
                cj = tuple(k for k in cols if k not in J)
                sign = complement_sign(I, rows) * complement_sign(J, cols)
                total = total + sign * (det_leibniz(_a_minor(X, ci, cj)) * pfaffian(_block_minor(X, "c", J))
                                        * pfaffian(_block_minor(X, "b", I)))
    return total


def _indices(mask):
    """The 1-based indices of a mask, bit k - 1 standing for index k."""
    return tuple(k for k in range(1, mask.bit_length() + 1) if mask >> (k - 1) & 1)


def test_minor_summation_rhs_computes_each_block_quantity_once(monkeypatch):
    module = importlib.import_module("pfaffkit.pfaffian")  # the package re-exports a function by this name
    real_pf, real_det = module._pf, module._minor_det
    computed = Counter()

    def content(M, rows, cols):
        # a minor named by its generic entries, whatever memo or numbering reaches it
        return tuple(str(M[i - 1][j - 1]) for i in rows for j in cols)

    def counting_pf(A, mask, memo):
        if mask and mask not in memo:
            computed["pf", content(A.rows, _indices(mask), _indices(mask))] += 1
        return real_pf(A, mask, memo)

    def counting_det(M, rows, cols, memo, shift=None):
        if cols and (rows, cols) not in memo:
            computed["det", content(M, _indices(rows), _indices(cols))] += 1
        return real_det(M, rows, cols, memo, shift)

    X = AntiAlternatingMatrix.generic(5, 5)
    monkeypatch.setattr(module, "_pf", counting_pf)
    monkeypatch.setattr(module, "_minor_det", counting_det)
    rhs = minor_summation_rhs(X)
    monkeypatch.undo()
    assert set(computed.values()) == {1}
    # every nonempty even principal minor of b and of c: 10 of size 2, 5 of size 4
    expected = {("pf", content(block, K, K)) for block in (X.b, X.c)
                for size in (2, 4) for K in combinations(range(1, 6), size)}
    assert {key for key in computed if key[0] == "pf"} == expected
    # every a-minor on the complements of I and J (sizes 5, 3, 1)
    for size in (1, 3, 5):
        for rows in combinations(range(1, 6), size):
            for cols in combinations(range(1, 6), size):
                assert computed["det", content(X.a, rows, cols)] == 1
    assert rhs == pfaffian_of_anti_alternating(X)


def _partly_zero_rational(p, q, rng):
    """Coloring (p, q) with seeded Fraction entries, about a third of them 0."""
    def entry():
        return 0 if rng.random() < 1 / 3 else Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    return AntiAlternatingMatrix.from_upper_blocks(
        p, q, [[entry() for _ in range(q)] for _ in range(p)],
        [[entry() for _ in range(i + 1, p + 1)] for i in range(1, p)],
        [[entry() for _ in range(i + 1, q + 1)] for i in range(1, q)])


@pytest.mark.parametrize("p,q", [(4, 4), (3, 5)])
def test_memoised_minor_determinant_matches_leibniz(p, q):
    rng = random.Random(31)
    for X in (AntiAlternatingMatrix.generic(p, q), _partly_zero_rational(p, q, rng)):
        memo = {}  # one memo for every minor of the a block, as in minor_summation_rhs
        for size in range(min(p, q) + 1):
            for rows in combinations(range(1, p + 1), size):
                for cols in combinations(range(1, q + 1), size):
                    d = _minor_det(X.a, index_mask(rows), index_mask(cols), memo)
                    assert d == det_leibniz(_a_minor(X, rows, cols)), (rows, cols)
        assert pfaffian_of_anti_alternating(X) == minor_summation_rhs(X)


def test_shifted_minor_determinant_of_commuting_entries_matches_det_exact():
    # at a rational shift u the entry (i, i) of column t gains u + r - t;
    # with int entries that is the ordinary determinant of the shifted rows
    rng = random.Random(53)
    a_rows = tuple(tuple(rng.randint(-9, 9) for _ in range(5)) for _ in range(4))
    u = Fraction(-5, 3)
    memo = {}  # one memo at one shift
    for size in range(5):
        for rows in combinations(range(1, 5), size):
            for cols in combinations(range(1, 6), size):
                shifted = tuple(tuple(a_rows[i - 1][j - 1] + (u + size - t if i == j else 0)
                                      for t, j in enumerate(cols, start=1)) for i in rows)
                d = _minor_det(a_rows, index_mask(rows), index_mask(cols), memo, u)
                assert d == det_exact(shifted), (rows, cols)


def test_minor_summation_rhs_equals_unhoisted_sum():
    rng = random.Random(16)
    for p, q in ((2, 4), (3, 3), (4, 2), (1, 5)):
        X = AntiAlternatingMatrix.generic(p, q)
        assert minor_summation_rhs(X) == _unhoisted_minor_summation_rhs(X)
        Y = AntiAlternatingMatrix.random_rational(p, q, rng)
        assert minor_summation_rhs(Y) == _unhoisted_minor_summation_rhs(Y)


# --- fused cofactor sums -----------------------------------------------------


def _mixed_entry(rng, name):
    """An int, a Fraction, a constant or variable Poly, or an int or Poly zero."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if kind == 2:
        return Poly.const(rng.randint(-5, 5))
    if kind == 3:
        return Poly.var(name)
    return 0 if kind == 4 else Poly.zero()


def _mixed_coloring(p, q, rng):
    return AntiAlternatingMatrix.from_upper_blocks(
        p, q, [[_mixed_entry(rng, f"a[{i},{j}]") for j in range(1, q + 1)] for i in range(1, p + 1)],
        [[_mixed_entry(rng, f"b[{i},{j}]") for j in range(i + 1, p + 1)] for i in range(1, p)],
        [[_mixed_entry(rng, f"c[{i},{j}]") for j in range(i + 1, q + 1)] for i in range(1, q)])


def _no_zero_coefficient(value):
    return not isinstance(value, Poly) or 0 not in value.terms.values()


@pytest.mark.parametrize("seed", range(6))
def test_fused_sums_agree_with_the_oracles_on_mixed_entries(seed):
    rng = random.Random(seed)
    for size in (2, 4, 6):
        A = AlternatingMatrix.from_upper(size, lambda i, j: _mixed_entry(rng, f"x[{i},{j}]"))
        memo = {}  # one memo for every principal sub-Pfaffian
        for even in range(0, size + 1, 2):
            for I in combinations(range(1, size + 1), even):
                pf = _pf(A, index_mask(I), memo)
                assert pf == pfaffian_definitional(A.submatrix(I)) and _no_zero_coefficient(pf)
    for p, q in ((3, 3), (2, 4), (4, 2)):
        X = _mixed_coloring(p, q, rng)
        memo = {}
        for size in range(min(p, q) + 1):
            for rows in combinations(range(1, p + 1), size):
                for cols in combinations(range(1, q + 1), size):
                    d = _minor_det(X.a, index_mask(rows), index_mask(cols), memo)
                    assert d == det_leibniz(_a_minor(X, rows, cols)) and _no_zero_coefficient(d)
        assert minor_summation_rhs(X) == pfaffian_definitional(X.to_alternating())


def test_fused_sums_of_int_and_integral_fraction_matrices_are_ints():
    rng = random.Random(41)
    A = _int_alternating(6, rng)
    for M in (A, _fraction_copy(A)):
        memo = {}
        assert _pf(M, 0b111111, memo) == pfaffian_definitional(A)
        assert all(type(v) is int for v in memo.values())
        assert all(type(r) is int and r == 0 for r in copfaffian_expansion_residuals(M).values())
    X = AntiAlternatingMatrix.random_rational(3, 5, rng)
    F = AntiAlternatingMatrix(3, 5, *([[Fraction(x) for x in row] for row in block] for block in (X.a, X.b, X.c)))
    for Y in (X, F):
        memo = {}
        for rows in combinations(range(1, 4), 2):
            for cols in combinations(range(1, 6), 2):
                assert type(_minor_det(Y.a, index_mask(rows), index_mask(cols), memo)) is int
        rhs = minor_summation_rhs(Y)
        assert type(rhs) is int and rhs == pfaffian_of_anti_alternating(X)


def test_cancelling_cofactors_give_a_poly_zero_without_zero_coefficients():
    x, y = Poly.var("x"), Poly.var("y")
    # Pf = a12 a34 - a13 a24 + a14 a23 = x y - x y + 0
    upper = {(1, 2): x, (3, 4): y, (1, 3): x, (2, 4): y, (1, 4): Poly.zero(), (2, 3): Poly.zero()}
    pf = pfaffian(AlternatingMatrix.from_upper(4, lambda i, j: upper[i, j]))
    assert pf == 0 and type(pf) is Poly and pf.terms == {}
    # a rank-two matrix u v^T - v u^T: every sub-Pfaffian of size 4 or more cancels
    u = [Poly.var(f"u{i}") for i in range(6)]
    v = [Poly.var(f"v{i}") for i in range(6)]
    R = AlternatingMatrix.from_upper(6, lambda i, j: u[i - 1] * v[j - 1] - v[i - 1] * u[j - 1])
    memo = {}
    assert _pf(R, 0b111111, memo) == 0
    assert all(_no_zero_coefficient(value) for value in memo.values())
    assert all(value == 0 for mask, value in memo.items() if mask.bit_count() >= 4)


def test_an_all_zero_first_row_gives_the_int_zero():
    for zero in (0, Poly.zero()):
        A = AlternatingMatrix.from_upper(4, lambda i, j: zero if i == 1 else Poly.var(f"x[{i},{j}]"))
        assert pfaffian(A) == 0 and type(pfaffian(A)) is int
    a_rows = [[0, 0], [Poly.var("y"), 1]]
    assert type(_minor_det(a_rows, 0b11, 0b11, {})) is int
    assert _minor_det(a_rows, 0b11, 0b11, {}) == 0
    assert _pf(AlternatingMatrix.generic(4), 0, {}) == 1 and _minor_det(a_rows, 0, 0, {}) == 1


def _snapshot(memo):
    return {key: (value, dict(value.terms) if isinstance(value, Poly) else value) for key, value in memo.items()}


def test_a_second_sum_on_a_shared_memo_leaves_earlier_values_unchanged():
    A = AlternatingMatrix.generic(6)
    memo = {}
    _pf(A, 0b1111, memo)
    before = _snapshot(memo)
    pf = _pf(A, 0b111111, memo)
    copfaffian_matrix(A, memo)
    after = _snapshot(memo)
    assert all(after[key][0] is value and after[key][1] == terms for key, (value, terms) in before.items())
    assert pf == pfaffian_definitional(A)
    # memoised a-minors are read as cofactors by a second sweep of every
    # a-minor, which hands them back as the same, unchanged objects
    X = AntiAlternatingMatrix.generic(3, 3)
    det_memo = {}
    pairs = [(index_mask(rows), index_mask(cols)) for size in range(4)
             for rows in combinations(range(1, 4), size) for cols in combinations(range(1, 4), size)]
    first = {key: _minor_det(X.a, *key, det_memo) for key in pairs if key[1].bit_count() < 3}
    before = _snapshot(det_memo)
    second = {key: _minor_det(X.a, *key, det_memo) for key in pairs}
    after = _snapshot(det_memo)
    assert all(second[key] is value for key, value in first.items())
    assert all(after[key][0] is value and after[key][1] == terms for key, (value, terms) in before.items())
    assert second[0b111, 0b111] == det_leibniz(X.a)
    assert minor_summation_rhs(X) == pfaffian_of_anti_alternating(X)


@pytest.mark.parametrize("kind", ["int-8", "generic-6"])
def test_pf_on_every_mask_matches_the_matching_sum(kind):
    # one memo for all 2^m masks; bit k - 1 stands for index k
    A = _int_alternating(8, random.Random(43)) if kind == "int-8" else AlternatingMatrix.generic(6)
    memo = {}
    for mask in range(1 << A.size):
        indices = tuple(k for k in range(1, A.size + 1) if mask >> (k - 1) & 1)
        expected = pfaffian_definitional(A.submatrix(indices)) if len(indices) % 2 == 0 else 0
        assert _pf(A, mask, memo) == expected, indices


@pytest.mark.parametrize("n", [3, 4])
def test_pf_of_the_canonical_b_and_c_blocks_matches_the_matching_sum(n):
    X = build_canonical_x(n)
    for block in (X.b, X.c):
        B, memo = AlternatingMatrix._trusted(block), {}
        for size in range(0, n + 1, 2):
            for I in combinations(range(1, n + 1), size):
                assert _pf(B, index_mask(I), memo) == pfaffian_definitional(B.submatrix(I))


# --- orthogonal group action ------------------------------------------------


def S_values():
    return [
        anti_identity(4),
        anti_identity(6),
        tuple(tuple(Fraction(v) for v in row) for row in ((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3))),
    ]


def test_cayley_produces_orthogonal():
    rng = random.Random(7)
    for S in S_values():
        for _ in range(5):
            g = random_orthogonal_cayley(S, rng)
            got = mat_mul(mat_mul(transpose(g), S), g)
            assert [list(r) for r in got] == [list(r) for r in S]


def test_cayley_golden_n1():
    # diag(t, -t) preserves the split form, and t = 2 maps to diag(-1/3, -3)
    S = anti_identity(2)
    Y = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-2)]]
    g = cayley_orthogonal(Y, S)
    assert [list(r) for r in g] == [[Fraction(-1, 3), Fraction(0)], [Fraction(0), Fraction(-3)]]


def test_cayley_rejects_non_members():
    with pytest.raises(NotInLieAlgebraError):
        cayley_orthogonal(((1, 0), (0, 1)), anti_identity(2))


def test_equivariance():
    rng = random.Random(8)
    for S in S_values():
        n2 = len(S)
        for _ in range(10):
            g = random_orthogonal_cayley(S, rng)
            A = AlternatingMatrix.random_rational(n2, rng)
            assert equivariance_check(A, g)


@given(st.integers(min_value=1, max_value=3), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_pfaffian_vanishes_on_rank_two_updates(m, rng):
    # Pf of u v^t - v u^t padded into 2m x 2m is zero for m > 1
    n = 2 * m
    u = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    v = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    rows = [[u[i] * v[j] - v[i] * u[j] for j in range(n)] for i in range(n)]
    A = AlternatingMatrix(rows)
    if m > 1:
        assert pfaffian(A) == 0


# --- integer entries ----------------------------------------------------------


def _int_alternating(size, rng, lo=-9, hi=9):
    return AlternatingMatrix.from_upper(size, lambda i, j: rng.randint(lo, hi))


def _fraction_copy(A):
    return AlternatingMatrix([[Fraction(x) for x in row] for row in A.rows])


def _all_int(rows):
    return all(type(x) is int for row in rows for x in row)


def test_integral_constructors_store_ints():
    rng = random.Random(21)
    assert _all_int(AlternatingMatrix.random_rational(6, rng).rows)
    assert _all_int(AntiAlternatingMatrix.random_rational(3, 5, rng).full())
    X = AntiAlternatingMatrix.from_upper_blocks(2, 2, [[1, 2], [3, 4]], [[5]], [[6]])
    assert _all_int(X.full())
    # polynomial entries keep the int 0 on the diagonal
    assert AlternatingMatrix.generic(4).rows[0][0] == 0 and type(AlternatingMatrix.generic(4).rows[0][0]) is int


@given(st.integers(min_value=0, max_value=4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_int_and_fraction_entries_agree(half, rng):
    A = _int_alternating(2 * half, rng)
    F = _fraction_copy(A)
    pf = pfaffian(A)
    assert type(pf) is int and type(pfaffian_definitional(A)) is int
    assert pf == pfaffian(F) == pfaffian_definitional(A) == pfaffian_definitional(F)
    G = copfaffian_matrix(A)
    assert _all_int(G.rows) and G == copfaffian_matrix(F)
    d = det_exact(A.rows)
    assert type(d) is int and d == det_exact(F.rows) == pf * pf
    residuals = copfaffian_expansion_residuals(A)
    assert all(type(r) is int and r == 0 for r in residuals.values())


def test_int_identities_of_the_commutative_layer():
    assert type(pfaffian(AlternatingMatrix([]))) is int
    assert type(pfaffian_definitional(AlternatingMatrix([]))) is int
    A = _int_alternating(4, random.Random(22))
    assert type(cofactor_pfaffian(A, 2, 2)) is int
    zero = AlternatingMatrix.from_upper(4, lambda i, j: 0)
    assert pfaffian(zero) == 0 and type(pfaffian(zero)) is int
    X = AntiAlternatingMatrix.random_rational(3, 3, random.Random(23))
    rhs = minor_summation_rhs(X)
    assert type(rhs) is int and rhs == pfaffian_of_anti_alternating(X)
    # a coloring whose block sum is empty: every b- and c-Pfaffian vanishes
    Z = AntiAlternatingMatrix.from_upper_blocks(2, 2, [[1, 2], [3, 4]], [[0]], [[0]])
    assert type(minor_summation_rhs(Z)) is int


def test_complementary_minor_stays_exact_on_large_ints():
    # entries near 10^9: Pf A is near 10^27 and no quotient of these
    # Pfaffians is a float, so only an exact quotient passes
    rng = random.Random(24)
    while True:
        A = _int_alternating(6, rng, 10**9 - 50, 10**9 + 50)
        if pfaffian(A) != 0:
            break
    assert _all_int(A.rows)
    for m in range(0, 7, 2):
        for I in combinations(range(1, 7), m):
            assert complementary_minor_check(A, I)


# --- the rational checks over one common denominator --------------------------

FRACTION_FORM = ((Fraction(1, 2), Fraction(1, 3), 0, 0), (Fraction(1, 3), 2, 0, 0),
                 (0, 0, 0, Fraction(3, 4)), (0, 0, Fraction(3, 4), 0))


def _old_random_orthogonal_cayley(S, rng, lo, hi, draws):
    # the former route: Y = S^-1 W, g = (I - Y)(I + Y)^-1, retried while
    # I + Y is singular; `draws` counts the W drawn
    m = len(S)
    s_inv = inverse_fraction(S)
    while True:
        W = AlternatingMatrix.from_upper(m, lambda i, j: rng.randint(lo, hi)).rows
        draws.append(W)
        Y = mat_mul(s_inv, W)
        try:
            return mat_mul(mat_sub(identity(m), Y), inverse_fraction(mat_add(identity(m), Y)))
        except SingularMatrixError:
            continue


def test_random_orthogonal_cayley_matches_the_old_formula():
    forms = (anti_identity(4), anti_identity(6), anti_identity(8), GENERIC_SYMMETRIC_S, FRACTION_FORM)
    retries = 0
    for k, S in enumerate(forms):
        for lo, hi in ((-3, 3), (-1, 1)):
            new_rng, old_rng = random.Random(k), random.Random(k)
            draws = []
            for _ in range(10):
                g = random_orthogonal_cayley(S, new_rng, lo, hi)
                assert g == _old_random_orthogonal_cayley(S, old_rng, lo, hi, draws)
                assert mat_mul(mat_mul(transpose(g), S), g) == tuple(map(tuple, S))
            assert new_rng.getstate() == old_rng.getstate()
            retries += len(draws) - 10
    assert retries > 0  # the retry on a singular I + Y ran


def test_random_orthogonal_cayley_checks_the_form_before_drawing():
    # a symmetric S puts every draw in the Lie algebra; any other S is
    # refused before the rng is touched
    for S in (((1, 2), (3, 1)), ((1, 0, 0), (0, 1, 0)), ((0, 1), (Fraction(1, 2), 0))):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ShapeError):
            random_orthogonal_cayley(S, rng)
        assert rng.getstate() == state
    rng = random.Random(5)
    with pytest.raises(SingularMatrixError):
        random_orthogonal_cayley(((1, 1), (1, 1)), rng)
    assert rng.getstate() == random.Random(5).getstate()


def test_cayley_singular_one_plus_y_raises():
    # Y = diag(-1, 1) lies in o(J2), and I + Y = diag(0, 2) is singular
    with pytest.raises(SingularMatrixError):
        cayley_orthogonal(((-1, 0), (0, 1)), anti_identity(2))
    with pytest.raises(SingularMatrixError):
        cayley_orthogonal(((Fraction(-1), 0), (0, Fraction(1))), anti_identity(2))


def _old_complementary_minor_check(A, I):
    # the former scaled form: Pf(A_I)/Pf A == sgn(I, Ic) Pf((Ahat/Pf A)_Ic)
    universe = tuple(range(1, A.size + 1))
    comp = tuple(k for k in universe if k not in I)
    pf = pfaffian(A)
    scaled = copfaffian_matrix(A).scale(Fraction(1) / pf)
    return Fraction(pfaffian(A.submatrix(I)), pf) == split_sign(universe, I, comp) * pfaffian(scaled.submatrix(comp))


@pytest.mark.parametrize("entry", [lambda rng: rng.randint(-9, 9),
                                   lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 4))],
                         ids=["int", "fraction"])
def test_complementary_minor_matches_the_scaled_formula(entry):
    rng = random.Random(31)
    while True:
        A = AlternatingMatrix.from_upper(6, lambda i, j: entry(rng))
        if pfaffian(A) != 0:
            break
    for m in range(0, 7, 2):
        for I in combinations(range(1, 7), m):
            assert complementary_minor_check(A, I) is True
            assert _old_complementary_minor_check(A, I) is True


def test_equivariance_with_fraction_entries():
    rng = random.Random(32)
    for S in (anti_identity(4), GENERIC_SYMMETRIC_S, FRACTION_FORM):
        for _ in range(5):
            g = random_orthogonal_cayley(S, rng)
            A = AlternatingMatrix.from_upper(4, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            assert equivariance_check(A, g)
    # the law holds for every g, orthogonal or not, singular or not
    for _ in range(10):
        g = tuple(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)) for _ in range(4))
        A = AlternatingMatrix.from_upper(4, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        assert equivariance_check(A, g)
    singular = ((1, 2, 0, 0), (Fraction(1, 2), 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert equivariance_check(A, singular)
