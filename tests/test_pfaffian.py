"""Pfaffians, copfaffians, the minor summation, and orthogonal equivariance."""

import gc
import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, takewhile
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffkit.grassmann import build_forms, pfaffian_from_top_form
from pfaffkit.indexing import cycle_sign, index_mask
from pfaffkit.linalg import (
    SingularMatrixError,
    anti_identity,
    clear_denominators,
    det_adjugate,
    det_exact,
    det_leibniz,
    mat_mul,
    transpose,
)
from pfaffkit.pfaffian import (
    AlternatingMatrix,
    AntiAlternatingMatrix,
    ShapeError,
    _cayley,
    _matching_walk,
    _pf,
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
from pfaffkit.uea import Generator, UEAElement, build_canonical_x
from pfaffkit.verify import GENERIC_SYMMETRIC_S
from conftest import minor_det, random_anti_alternating


def a(i, j):
    return Poly.var(f"a[{i},{j}]")


def _principal(rows, indices):
    """The principal submatrix on increasing 1-based `indices` of a square
    grid (an AlternatingMatrix's rows, or a b or c block)."""
    return AlternatingMatrix(tuple(tuple(rows[i - 1][j - 1] for j in indices) for i in indices))


def _shuffle_sign(left, right):
    """The sign of sorting left + right, by an inversion count."""
    seq = tuple(left) + tuple(right)
    return (-1) ** sum(x > y for k, x in enumerate(seq) for y in seq[k + 1:])


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


def _first_bad_cell(rows):
    """The cell the constructor names: rows in order, each diagonal entry
    before the column below it."""
    m = len(rows)
    for i in range(m):
        if rows[i][i] != 0:
            return i + 1, i + 1
        for j in range(i + 1, m):
            if rows[j][i] != -rows[i][j]:
                return j + 1, i + 1
    return None


@pytest.mark.parametrize("size", range(0, 13, 2))
def test_int_skewness_names_the_first_bad_cell(size):
    rng = random.Random(f"int-skew:{size}")
    for _ in range(40):
        grid = [list(row) for row in AlternatingMatrix.random_rational(size, rng).rows]
        good = AlternatingMatrix(grid)
        assert good.int_entries and good.rows == tuple(map(tuple, grid))
        if not size:
            continue
        for _ in range(rng.randint(1, 3)):  # break diagonal entries or skew pairs
            i, j = rng.randrange(size), rng.randrange(size)
            grid[i][j] += rng.choice([-1, 1]) * rng.randint(1, 10**20)
        cell = _first_bad_cell(grid)
        if cell is None:
            continue
        with pytest.raises(ShapeError) as err:
            AlternatingMatrix(grid)
        assert err.value.cell == cell
        j, i = cell
        assert str(err.value) == (f"nonzero diagonal entry at ({i},{i})" if i == j
                                  else f"entry ({j},{i}) is not the negative of ({i},{j})")


def test_int_skewness_checks_the_diagonal_and_each_pair():
    # a nonzero diagonal with every off-diagonal pair skew
    with pytest.raises(ShapeError) as err:
        AlternatingMatrix([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 7, 6], [-3, -5, -6, 0]])
    assert err.value.cell == (3, 3)
    # one broken pair in the last row, the diagonal clean
    with pytest.raises(ShapeError) as err:
        AlternatingMatrix([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, 6, 0]])
    assert err.value.cell == (4, 3)
    # mixed int and Fraction entries take the entry-by-entry loop
    A = AlternatingMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    assert not A.int_entries
    with pytest.raises(ShapeError) as err:
        AlternatingMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert err.value.cell == (2, 1)


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


def _poly_fraction_entry(rng, i, j, top=9):
    """a[i,j] times a Fraction, plus a Fraction constant (possibly 0)."""
    return a(i, j) * Fraction(rng.randint(1, top), rng.randint(1, 4)) + Fraction(rng.randint(-top, top), rng.randint(1, 3))


def _sparse_entry(kind, rng, i, j):
    if rng.random() < 0.2:
        return 0
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "fraction":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if kind == "poly-fraction":
        return _poly_fraction_entry(rng, i, j, 5)
    return a(i, j) * rng.randint(1, 3)


def _has_ring_entry(A):
    return any(isinstance(x, Poly) for row in A.rows for x in row)


def _is_the_zero_of(value, A):
    """The one rule for a vanishing Pfaffian or minor: a matrix with a ring
    entry vanishes to the ring's zero, a Poly with no terms, and an int or
    Fraction matrix to the int 0."""
    if _has_ring_entry(A):
        return type(value) is Poly and not value.terms
    return type(value) is int and value == 0


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
                    # a Poly whenever A has a Poly entry, vanishing or not
                    assert type(oracle) is type(pf) is (Poly if _has_ring_entry(A) else int)
                else:
                    assert type(oracle) is type(pf) is type(_rational(Fraction(oracle)))
                if zero_row == 1:
                    assert oracle == 0 and _is_the_zero_of(oracle, A) and _is_the_zero_of(pf, A)
    # matchings that cancel leave a Poly zero with no terms, as in `pfaffian`
    one = Poly.const(1)
    A = AlternatingMatrix.from_upper(4, lambda i, j: 0 if (i, j) == (1, 4) else one)
    for pf in (pfaffian(A), pfaffian_definitional(A)):
        assert type(pf) is Poly and not pf.terms


def _permutation_sum_pfaffian(A):
    """Pf A = sum over all permutations s of range(m) of
    sgn(s) prod_i a[s(2i-1)][s(2i)], over 2^k k! (m = 2k): every matching
    in every order of its pairs and of each pair, the sign read with
    `cycle_sign`.  Ring terms are summed in one plain dict."""
    m = A.size
    rows = A.rows
    scalar, sums = 0, {}
    for perm in permutations(range(m)):
        term = 1
        for i in range(0, m, 2):
            entry = rows[perm[i]][perm[i + 1]]
            if not entry:
                break
            term = term * entry
        else:
            term = cycle_sign(perm) * term
            if isinstance(term, Poly):
                for key, c in term.terms.items():
                    sums[key] = sums.get(key, 0) + c
            else:
                scalar += term
    total = Poly._wrap({key: c for key, c in sums.items() if c}) + scalar if sums else scalar
    return total * Fraction(1, 2 ** (m // 2) * factorial(m // 2))


def _oracle_draws(kind, rng):
    """(matrix, whether every matching meets a zero entry) pairs: dense and
    sparse draws at sizes 2..8, and each size with a zero first and a zero
    last row; at size 6, a draw whose only zeros join the first three
    indices to the other three, an odd block that every matching must
    leave.  No dense Fraction draw at size 8, whose 8! products of four
    Fractions take about 0.6 s, and at size 8 only the vanishing draws of
    Poly entries with Fraction coefficients (a sparse one takes about
    1.8 s)."""
    dense = {"int": lambda i, j: rng.randint(-9, 9),
             "fraction": lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
             "poly": a,
             "poly-fraction": lambda i, j: _poly_fraction_entry(rng, i, j)}[kind]
    for size in (2, 4, 6, 8):
        if size < 8 or kind in ("int", "poly"):
            yield AlternatingMatrix.from_upper(size, dense), False
        if size < 8 or kind != "poly-fraction":
            yield AlternatingMatrix.from_upper(size, lambda i, j: _sparse_entry(kind, rng, i, j)), False
        for zero_row in (1, size):
            yield AlternatingMatrix.from_upper(
                size, lambda i, j: 0 if zero_row in (i, j) else _sparse_entry(kind, rng, i, j)), True
        if size == 6:
            yield AlternatingMatrix.from_upper(size, lambda i, j: 0 if i <= 3 < j else dense(i, j)), True


@pytest.mark.parametrize("kind", ["int", "fraction", "poly", "poly-fraction"])
def test_matching_sum_equals_the_permutation_sum(kind):
    rng = random.Random(41)
    for A, vanishes in _oracle_draws(kind, rng):
        pf = pfaffian_definitional(A)
        assert pf == _permutation_sum_pfaffian(A), (kind, A.rows)
        if vanishes:  # no matching survives: the ring's zero, the int 0 for scalars
            assert pf == 0 and _is_the_zero_of(pf, A), (kind, A.rows)
    # matchings that cancel: a Poly zero on both sides
    one, x, y = Poly.const(1), Poly.var("x"), Poly.var("y")
    upper = {(1, 2): x, (3, 4): y, (1, 3): x, (2, 4): y, (1, 4): 0, (2, 3): 0}
    for A in (AlternatingMatrix.from_upper(4, lambda i, j: 0 if (i, j) == (1, 4) else one),
              AlternatingMatrix.from_upper(4, lambda i, j: upper[i, j])):
        pf = pfaffian_definitional(A)
        assert type(pf) is Poly and not pf.terms and _permutation_sum_pfaffian(A) == 0


def test_matching_sum_makes_no_poly_product():
    # the walk multiplies raw term dicts through the lift, never Poly elements
    A = AlternatingMatrix.generic(8)
    expected = pfaffian(A)
    original, calls = Poly.__mul__, []

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    Poly.__mul__ = counted
    try:
        pf = pfaffian_definitional(A)
    finally:
        Poly.__mul__ = original
    assert not calls
    assert type(pf) is Poly and pf == expected and len(pf.terms) == 105


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_matching_walk_structure(m):
    walk = _matching_walk(m)
    assert type(walk) is bytes and _matching_walk(m) is walk
    nodes = [tuple(walk[k:k + 4]) for k in range(0, len(walk), 4)]  # row, column, depth, sign flag
    last = m // 2 - 1
    count = 0
    for size in range(2, m + 1, 2):  # n(m) = (m - 1)(1 + n(m - 2)), n(0) = 0
        count = (size - 1) * (1 + count)
    assert len(nodes) == count
    assert sum(depth == last for _, _, depth, _ in nodes) == prod(range(1, m, 2))
    path, matchings = [], set()
    for k, (i, j, depth, negative) in enumerate(nodes):
        del path[depth:]
        assert depth == len(path)
        matched = {x for pair in path for x in pair}
        # the first unmatched index, with a later unmatched one
        assert i == min(set(range(m)) - matched) and i < j and j not in matched
        path.append((i, j))
        # the subtree's node count depends on the depth alone
        size = 1
        for d in range(last - 1, depth - 1, -1):
            size = 1 + (m - 2 * d - 3) * size
        below = list(takewhile(lambda node: node[2] > depth, nodes[k + 1:]))
        assert len(below) == size - 1
        # the next sibling follows the subtree, paired with a later partner
        if k + size < len(nodes) and nodes[k + size][2] == depth:
            assert nodes[k + size][0] == i and nodes[k + size][1] > j
        if depth == last:
            flat = [x for pair in path for x in pair]
            assert negative == (cycle_sign(flat) < 0)
            matchings.add(frozenset(path))
        else:
            assert negative == 0
    assert len(matchings) == prod(range(1, m, 2))


def test_matching_walk_signs_at_12():
    # one pass down the walk, linear in its 25 058 nodes
    m, last = 12, 5
    walk = _matching_walk(m)
    assert len(walk) == 4 * 25_058
    path, flats = [], []
    for i, j, depth, negative in zip(*(iter(walk),) * 4):
        del path[depth:]
        assert depth == len(path)
        matched = {x for pair in path for x in pair}
        assert i == min(set(range(m)) - matched) and i < j and j not in matched
        path.append((i, j))
        if depth == last:
            flat = [x for pair in path for x in pair]
            assert negative == (cycle_sign(flat) < 0), flat
            flats.append(flat)
        else:
            assert negative == 0
    # the leaves in ascending order of their flat pair sequences, each matching once
    assert len(flats) == 10_395 and flats == sorted(flats)
    assert len({frozenset(zip(flat[0::2], flat[1::2])) for flat in flats}) == 10_395


def test_matching_walk_built_at_12_first_equals_built_upward(monkeypatch):
    module = importlib.import_module("pfaffkit.pfaffian")
    monkeypatch.setattr(module, "_WALKS", {})
    _matching_walk(12)
    assert sorted(module._WALKS) == [2, 4, 6, 8, 10, 12]
    built_down = dict(module._WALKS)
    module._WALKS.clear()
    for m in range(2, 13, 2):
        assert _matching_walk(m) == built_down[m], m
    assert sorted(module._WALKS) == [2, 4, 6, 8, 10, 12]


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
    assert pfaffian(AlternatingMatrix([[3 * x for x in row] for row in A.rows])) == 9 * pfaffian(A)


# --- copfaffians ------------------------------------------------------------


def test_cofactor_goldens():
    G2 = copfaffian_matrix(AlternatingMatrix.generic(2)).rows
    assert G2[0][1] == 1
    assert G2[1][0] == -1
    G4 = copfaffian_matrix(AlternatingMatrix.generic(4)).rows
    assert G4[0][0] == 0
    assert G4[0][2] == -a(2, 4)
    assert G4[2][0] == a(2, 4)


def test_copfaffian_matrix_is_alternating():
    A = AlternatingMatrix.generic(4)
    G = copfaffian_matrix(A)
    assert G.size == 4
    assert G.rows[0][1] == -G.rows[1][0]


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
        assert G.rows[i - 1][i - 1] == 0
        for j in range(1, m + 1):
            if i == j:
                continue
            keep = tuple(k for k in range(1, m + 1) if k not in (i, j))
            sign = (-1) ** (i + j - 1 if i < j else i + j)
            assert G.rows[i - 1][j - 1] == sign * pfaffian(_principal(A.rows, keep))


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


def _uea_coloring(p, q):
    """Coloring (p, q) whose entries are distinct enveloping-algebra generators."""
    names = iter(range(1, 2 * (p + q) ** 2))

    def gen():
        return UEAElement.from_generator(Generator("a", 1, next(names)))

    return AntiAlternatingMatrix.from_upper_blocks(
        p, q, [[gen() for _ in range(q)] for _ in range(p)],
        [[gen() for _ in range(i + 1, p + 1)] for i in range(1, p)],
        [[gen() for _ in range(i + 1, q + 1)] for i in range(1, q)])


@pytest.mark.parametrize("p, q", [(1, 1), (1, 3), (2, 2), (3, 5)])
def test_full_layout_reads_every_cell_as_entry_does(p, q):
    rng = random.Random(p * 10 + q)
    for X in (random_anti_alternating(p, q, rng), AntiAlternatingMatrix.generic(p, q),
              _uea_coloring(p, q)):
        expected = tuple(tuple(X.entry(i, j) for j in X.col_labels()) for i in X.row_labels())
        full = X.full()
        assert full == expected
        assert [type(x) for row in full for x in row] == [type(x) for row in expected for x in row]


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
    return _principal(getattr(X, block), indices)


def _a_minor(X, rows, cols):
    """The minor of the a block of X on the given rows and columns."""
    return tuple(tuple(X.a[i - 1][j - 1] for j in cols) for i in rows)


@pytest.mark.parametrize("indices", [(1,), (1, 2, 3)])
def test_odd_principal_submatrices_are_rejected(indices):
    # an odd principal submatrix is not an AlternatingMatrix, as in the constructor
    X = AntiAlternatingMatrix.generic(3, 3)
    for take in (lambda I: _principal(AlternatingMatrix.generic(4).rows, I), lambda I: _block_minor(X, "b", I),
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
    subjects += [random_anti_alternating(p, q, rng) for p, q in ((1, 3), (3, 1), (3, 5), (5, 3), (3, 3))]
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
            X = random_anti_alternating(p, q, rng)
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
                sign = _shuffle_sign(ci, I) * _shuffle_sign(cj, J)
                total = total + sign * (det_leibniz(_a_minor(X, ci, cj)) * pfaffian(_block_minor(X, "c", J))
                                        * pfaffian(_block_minor(X, "b", I)))
    return total


def _indices(mask):
    """The 1-based indices of a mask, bit k - 1 standing for index k."""
    return tuple(k for k in range(1, mask.bit_length() + 1) if mask >> (k - 1) & 1)


def test_minor_summation_rhs_computes_each_block_quantity_once(monkeypatch):
    module = importlib.import_module("pfaffkit.pfaffian")  # the package re-exports a function by this name
    real_pf, real_det = module._pf_terms, module._det_terms
    computed = Counter()

    def content(M, rows, cols):
        # a minor named by its generic entries, whatever memo or numbering
        # reaches it; a kernel's entries are raw term dicts
        return tuple(str(Poly._wrap(x) if type(x) is dict else x) for x in
                     (M[i - 1][j - 1] for i in rows for j in cols))

    # every kernel call computes a node, so each is counted
    def counting_pf(lift, mask, memo):
        computed["pf", content(lift.lines, _indices(mask), _indices(mask))] += 1
        return real_pf(lift, mask, memo)

    def counting_det(lift, rows, cols, memo):
        # the determinant kernel's lift holds the columns of the a block
        computed["det", content(tuple(zip(*lift.lines)), _indices(rows), _indices(cols))] += 1
        return real_det(lift, rows, cols, memo)

    X = AntiAlternatingMatrix.generic(5, 5)
    monkeypatch.setattr(module, "_pf_terms", counting_pf)
    monkeypatch.setattr(module, "_det_terms", counting_det)
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
                    d = minor_det(X.a, index_mask(rows), index_mask(cols), memo)
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
                d = minor_det(a_rows, index_mask(rows), index_mask(cols), memo, u)
                assert d == det_exact(shifted), (rows, cols)


def test_minor_summation_rhs_equals_unhoisted_sum():
    rng = random.Random(16)
    for p, q in ((2, 4), (3, 3), (4, 2), (1, 5)):
        X = AntiAlternatingMatrix.generic(p, q)
        assert minor_summation_rhs(X) == _unhoisted_minor_summation_rhs(X)
        Y = random_anti_alternating(p, q, rng)
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
    """True for a scalar, and for a Poly or raw term dict without a zero coefficient."""
    terms = value if type(value) is dict else value.terms if isinstance(value, Poly) else {}
    return 0 not in terms.values()


def _minors(memo):
    """The memoised minors, raw term dicts or ints, without the lift kept under None."""
    return {key: value for key, value in memo.items() if key is not None}


@pytest.mark.parametrize("seed", range(6))
def test_fused_sums_agree_with_the_oracles_on_mixed_entries(seed):
    rng = random.Random(seed)
    for size in (2, 4, 6):
        A = AlternatingMatrix.from_upper(size, lambda i, j: _mixed_entry(rng, f"x[{i},{j}]"))
        memo = {}  # one memo for every principal sub-Pfaffian
        for even in range(0, size + 1, 2):
            for I in combinations(range(1, size + 1), even):
                pf = _pf(A, index_mask(I), memo)
                assert pf == pfaffian_definitional(_principal(A.rows, I)) and _no_zero_coefficient(pf)
    for p, q in ((3, 3), (2, 4), (4, 2)):
        X = _mixed_coloring(p, q, rng)
        memo = {}
        for size in range(min(p, q) + 1):
            for rows in combinations(range(1, p + 1), size):
                for cols in combinations(range(1, q + 1), size):
                    d = minor_det(X.a, index_mask(rows), index_mask(cols), memo)
                    assert d == det_leibniz(_a_minor(X, rows, cols)) and _no_zero_coefficient(d)
        assert minor_summation_rhs(X) == pfaffian_definitional(X.to_alternating())


def test_fused_sums_of_int_and_integral_fraction_matrices_are_ints():
    rng = random.Random(41)
    A = _int_alternating(6, rng)
    for M in (A, _fraction_copy(A)):
        memo = {}
        pf = _pf(M, 0b111111, memo)
        assert type(pf) is int and pf == pfaffian_definitional(A)
        # the int recursion memoises ints, the lifted one raw dicts of int coefficients
        assert all(type(v) is int or all(type(c) is int for c in v.values()) for v in _minors(memo).values())
        assert all(type(r) is int and r == 0 for r in copfaffian_expansion_residuals(M).values())
    X = random_anti_alternating(3, 5, rng)
    F = AntiAlternatingMatrix(3, 5, *([[Fraction(x) for x in row] for row in block] for block in (X.a, X.b, X.c)))
    for Y in (X, F):
        memo = {}
        for rows in combinations(range(1, 4), 2):
            for cols in combinations(range(1, 6), 2):
                assert type(minor_det(Y.a, index_mask(rows), index_mask(cols), memo)) is int
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
    assert all(_no_zero_coefficient(value) for value in _minors(memo).values())
    assert all(not value for mask, value in _minors(memo).items() if mask.bit_count() >= 4)


def test_an_all_zero_first_row_gives_the_rings_zero():
    # no product survives: the ring's zero for a Poly matrix, the int 0
    # for an int or Fraction one, by every route
    for zero in (0, Poly.zero()):
        A = AlternatingMatrix.from_upper(4, lambda i, j: zero if i == 1 else Poly.var(f"x[{i},{j}]"))
        for pf in (pfaffian(A), pfaffian_definitional(A)):
            assert pf == 0 and _is_the_zero_of(pf, A)
    for entry in (lambda i, j: i * j, lambda i, j: Fraction(i, j)):
        A = AlternatingMatrix.from_upper(4, lambda i, j: 0 if i == 1 else entry(i, j))
        for pf in (pfaffian(A), pfaffian_definitional(A), _pf(A, 0b1111, {})):
            assert pf == 0 and _is_the_zero_of(pf, A)
    a_rows = [[0, 0], [Poly.var("y"), 1]]
    d = minor_det(a_rows, 0b11, 0b11, {})
    assert d == 0 and type(d) is Poly and not d.terms
    assert _pf(AlternatingMatrix.generic(4), 0, {}) == 1 and minor_det(a_rows, 0, 0, {}) == 1


def _snapshot(memo):
    """Each memoised minor and a copy of its raw term dict."""
    return {key: (value, dict(value)) for key, value in _minors(memo).items()}


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
    # a-minor, which hands them back wrapping the same, unchanged term dicts
    X = AntiAlternatingMatrix.generic(3, 3)
    det_memo = {}
    pairs = [(index_mask(rows), index_mask(cols)) for size in range(4)
             for rows in combinations(range(1, 4), size) for cols in combinations(range(1, 4), size)]
    first = {key: minor_det(X.a, *key, det_memo) for key in pairs if key[1].bit_count() < 3}
    before = _snapshot(det_memo)
    second = {key: minor_det(X.a, *key, det_memo) for key in pairs}
    after = _snapshot(det_memo)
    assert all(second[key] == value and type(second[key]) is type(value) for key, value in first.items())
    assert all(second[key].terms is value.terms for key, value in first.items() if isinstance(value, Poly))
    assert all(after[key][0] is value and after[key][1] == terms for key, (value, terms) in before.items())
    assert second[0b111, 0b111] == det_leibniz(X.a)
    assert minor_summation_rhs(X) == pfaffian_of_anti_alternating(X)
    # a scaled memo holds the raw minors of d a, so each read divides a
    # copy: equal values of the same type, in fresh elements
    Y = _fraction_coefficient_coloring(3, 3)
    det_memo = {}
    first = {key: minor_det(Y.a, *key, det_memo) for key in pairs if key[1].bit_count() < 3}
    before = _snapshot(det_memo)
    second = {key: minor_det(Y.a, *key, det_memo) for key in pairs}
    after = _snapshot(det_memo)
    assert det_memo[None].scale > 1
    assert all(second[key] == value and type(second[key]) is type(value) for key, value in first.items())
    assert all(second[key].terms is not value.terms for key, value in first.items() if isinstance(value, Poly))
    assert any(isinstance(value, Poly) for value in first.values())
    assert all(after[key][0] is value and after[key][1] == terms for key, (value, terms) in before.items())
    assert second[0b111, 0b111] == det_leibniz(Y.a)
    assert minor_summation_rhs(Y) == pfaffian_definitional(Y.to_alternating())


def _fraction_coefficient_coloring(p, q):
    """Coloring (p, q) of Polys with Fraction coefficients: the entry
    (i, j) of each block is its variable times i/(j + 1), plus 1/(i + j)
    in the a block."""
    def entry(block, i, j):
        value = Poly.var(f"{block}[{i},{j}]").scale(Fraction(i, j + 1))
        return value + Fraction(1, i + j) if block == "a" else value

    return AntiAlternatingMatrix.from_upper_blocks(
        p, q, [[entry("a", i, j) for j in range(1, q + 1)] for i in range(1, p + 1)],
        [[entry("b", i, j) for j in range(i + 1, p + 1)] for i in range(1, p)],
        [[entry("c", i, j) for j in range(i + 1, q + 1)] for i in range(1, q)])


@pytest.mark.parametrize("kind", ["int-8", "generic-6"])
def test_pf_on_every_mask_matches_the_matching_sum(kind):
    # one memo for all 2^m masks; bit k - 1 stands for index k
    A = _int_alternating(8, random.Random(43)) if kind == "int-8" else AlternatingMatrix.generic(6)
    memo = {}
    for mask in range(1 << A.size):
        indices = tuple(k for k in range(1, A.size + 1) if mask >> (k - 1) & 1)
        expected = pfaffian_definitional(_principal(A.rows, indices)) if len(indices) % 2 == 0 else 0
        assert _pf(A, mask, memo) == expected, indices


@pytest.mark.parametrize("n", [3, 4])
def test_pf_of_the_canonical_b_and_c_blocks_matches_the_matching_sum(n):
    X = build_canonical_x(n)
    for block in (X.b, X.c):
        B, memo = AlternatingMatrix._trusted(block), {}
        for size in range(0, n + 1, 2):
            for I in combinations(range(1, n + 1), size):
                assert _pf(B, index_mask(I), memo) == pfaffian_definitional(_principal(block, I))


def _sparse_poly_entry(rng, name):
    """0, a Poly zero, or one or two terms with Fraction coefficients."""
    kind = rng.randrange(4)
    if kind < 2:
        return 0 if kind else Poly.zero()
    coefficient = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4))
    entry = Poly.var(name).scale(coefficient)
    return entry + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if kind == 3 else entry


def _coprime_entry(rng, name):
    """0, a Poly zero, or a sparse Poly whose coefficients have the large
    coprime denominators 7, 11, 13, 17, 19 or 23."""
    kind = rng.randrange(4)
    if kind < 2:
        return 0 if kind else Poly.zero()

    def coefficient():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.choice((7, 11, 13, 17, 19, 23)))

    entry = Poly.var(name).scale(coefficient())
    return entry + coefficient() if kind == 3 else entry


@pytest.mark.parametrize("seed", range(3))
def test_sparse_fraction_poly_matrices_match_the_oracles(seed):
    # small denominators, then large coprime ones: a lift scales by their
    # least common multiple, and the block sum's three blocks share it
    for entry, rng in ((_sparse_poly_entry, random.Random(60 + seed)), (_coprime_entry, random.Random(90 + seed))):
        for size in (2, 4, 6, 8):
            A = AlternatingMatrix.from_upper(size, lambda i, j: entry(rng, f"x[{i},{j}]"))
            pf = pfaffian(A)
            assert pf == pfaffian_definitional(A) and _no_zero_coefficient(pf)
        for p, q in ((1, 1), (2, 2), (1, 3), (3, 1), (2, 4), (3, 3), (4, 4), (3, 5), (5, 3), (2, 6), (4, 2), (1, 5)):
            X = AntiAlternatingMatrix.from_upper_blocks(
                p, q, [[entry(rng, f"a[{i},{j}]") for j in range(1, q + 1)] for i in range(1, p + 1)],
                [[entry(rng, f"b[{i},{j}]") for j in range(i + 1, p + 1)] for i in range(1, p)],
                [[entry(rng, f"c[{i},{j}]") for j in range(i + 1, q + 1)] for i in range(1, q)])
            rhs = minor_summation_rhs(X)
            assert rhs == _unhoisted_minor_summation_rhs(X) == pfaffian_definitional(X.to_alternating()), (p, q)
            assert _no_zero_coefficient(rhs)


# --- kernels over one common denominator -------------------------------------


def _specialised_coloring(p, q, rng):
    """Coloring (p, q) with each entry kept symbolic, fixed to a constant
    Poly of a seeded rational, or set to a Poly zero, with probabilities
    1/2, 1/4, 1/4: the partly specialised colorings of the benchmark."""
    def entry(name):
        r = rng.random()
        if r < 0.5:
            return Poly.var(name)
        if r < 0.75:
            return Poly.const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))
        return Poly.zero()

    return AntiAlternatingMatrix.from_upper_blocks(
        p, q, [[entry(f"a[{i},{j}]") for j in range(1, q + 1)] for i in range(1, p + 1)],
        [[entry(f"b[{i},{j}]") for j in range(i + 1, p + 1)] for i in range(1, p)],
        [[entry(f"c[{i},{j}]") for j in range(i + 1, q + 1)] for i in range(1, q)])


def _obeys_the_scalar_rule(value):
    """No zero coefficient, and each coefficient an int or a Fraction that is not integral."""
    coefficients = value.terms.values() if isinstance(value, Poly) else (value,)
    return _no_zero_coefficient(value) and all(
        type(c) is int or type(c) is Fraction and c.denominator > 1 for c in coefficients)


@pytest.mark.parametrize("total", [8, 10])
def test_specialised_colorings_run_the_kernels_in_ints(total, monkeypatch):
    module = importlib.import_module("pfaffkit.pfaffian")
    rng = random.Random(70 + total)
    real_pf, real_det = module._pf_terms, module._det_terms
    block_memos = {}  # the memos of the block sum, by id, seen through its kernels

    def seeing_pf(lift, mask, memo):
        block_memos[id(memo)] = memo
        return real_pf(lift, mask, memo)

    def seeing_det(lift, rows, cols, memo):
        block_memos[id(memo)] = memo
        return real_det(lift, rows, cols, memo)

    scaled = 0
    for p in range(1, total):
        X = _specialised_coloring(p, total - p, rng)
        A = X.to_alternating()
        pf_memo = {}
        pf = _pf(A, (1 << total) - 1, pf_memo)
        det_memo = {}
        for size in range(min(p, total - p) + 1):
            for rows in combinations(range(1, p + 1), size):
                for cols in combinations(range(1, total - p + 1), size):
                    d = minor_det(X.a, index_mask(rows), index_mask(cols), det_memo)
                    assert _obeys_the_scalar_rule(d)
        block_memos.clear()
        monkeypatch.setattr(module, "_pf_terms", seeing_pf)
        monkeypatch.setattr(module, "_det_terms", seeing_det)
        rhs = minor_summation_rhs(X)
        monkeypatch.undo()
        scaled += pf_memo[None].scale > 1
        for memo in (pf_memo, det_memo, *block_memos.values()):
            assert all(type(c) is int for terms in _minors(memo).values() for c in terms.values()), (p, total - p)
        assert pf == rhs == pfaffian_of_anti_alternating(X)
        assert _obeys_the_scalar_rule(pf) and _obeys_the_scalar_rule(rhs)
        if total <= 8:
            assert pf == pfaffian_definitional(A)
    assert scaled == total - 1  # every coloring holds a non-integral coefficient


class _Watch:
    """The kernels and every lift of `pfaffian`, watched until `monkeypatch`
    is undone: `lifts` holds each `_Lift` built, `nodes` each kernel node
    computed as (kind, lift, memo, key), and `calls` the innermost kernel
    node active at each product call of a lift, as (kind, size) with the
    mask's bit count for "pf" and the column count for "det", or None
    outside every kernel."""

    def __init__(self, monkeypatch):
        module = importlib.import_module("pfaffkit.pfaffian")
        real_pf, real_det, real_lift = module._pf_terms, module._det_terms, module._Lift
        self.lifts, self.nodes, self.calls = [], [], []
        active = []
        watch = self

        class WatchedLift(real_lift):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                watch.lifts.append(self)
                product = self.product_into

                def counted(out, left, right, scale=1):
                    watch.calls.append(active[-1] if active else None)
                    return product(out, left, right, scale)

                self.product_into = counted

        def node(kind, real, size):
            def run(lift, *key_and_memo):
                *key, memo = key_and_memo
                self.nodes.append((kind, lift, memo, tuple(key) if kind == "det" else key[0]))
                active.append((kind, size(*key)))
                try:
                    return real(lift, *key_and_memo)
                finally:
                    active.pop()
            return run

        monkeypatch.setattr(module, "_Lift", WatchedLift)
        monkeypatch.setattr(module, "_pf_terms", node("pf", real_pf, int.bit_count))
        monkeypatch.setattr(module, "_det_terms", node("det", real_det, lambda rows, cols: cols.bit_count()))


def _lift_coefficients(lift):
    """Every coefficient a lift holds: its lines and its shifted diagonal entries."""
    cells = [terms for line in lift.lines for terms in line] + list(lift.diagonal.values())
    return [c for terms in cells for c in terms.values()]


@pytest.mark.parametrize("kind", ["poly", "poly-fraction", "fraction"])
def test_every_lift_holds_int_coefficients(kind, monkeypatch):
    # d = 1 keeps the entries' own term dicts, whose coefficients the scalar
    # rule made ints; d > 1 scales them to ints, so the kernels may use the
    # ring's int product
    X = {"poly": lambda: AntiAlternatingMatrix.generic(3, 3),
         "poly-fraction": lambda: _fraction_coefficient_coloring(3, 3),
         "fraction": lambda: _partly_zero_rational(3, 3, random.Random(8))}[kind]()
    A = X.to_alternating()
    watch = _Watch(monkeypatch)
    pf = pfaffian_of_anti_alternating(X)
    rhs = [minor_summation_rhs(X, shift) for shift in (None, 0, Fraction(1, 2))]
    definitional = pfaffian_definitional(A)
    for shift in (None, 0, Fraction(1, 2)):
        memo = {}
        for size in range(4):
            for rows in combinations(range(1, 4), size):
                for cols in combinations(range(1, 4), size):
                    minor_det(X.a, index_mask(rows), index_mask(cols), memo, shift)
        assert all(type(c) is int for terms in _minors(memo).values() for c in terms.values())
    monkeypatch.undo()
    # the all-scalar Pfaffian is condensed, with no lift; each other route lifts once per call
    assert len(watch.lifts) == (kind != "fraction") + 3 * 3 + 1 + 3
    assert all(type(c) is int for lift in watch.lifts for c in _lift_coefficients(lift))
    assert any(lift.diagonal for lift in watch.lifts)
    # a generic matrix is scaled only at the shift 1/2: three block lifts and one minor memo
    assert sum(lift.scale > 1 for lift in watch.lifts) == (4 if kind == "poly" else len(watch.lifts))
    assert pf == rhs[0] == definitional


@pytest.mark.parametrize("seed", range(4))
def test_int_product_equals_the_product_on_int_terms(seed):
    rng = random.Random(seed)
    monos = [next(iter(Poly.var(name).terms)) * k for name in "xyz" for k in (1, 2, 3)]

    def terms():
        return {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in rng.sample(monos, rng.randint(1, 5))}

    for _ in range(30):
        left, right = terms(), terms()
        scale = rng.choice((-2, -1, 0, 1, 3))
        start = terms()
        for out in (start, Poly._product_into({}, left, right, -scale), {}):
            expected = Poly._product_into(dict(out), left, right, scale)
            got = Poly._int_product_into(dict(out), left, right, scale)
            assert got == expected and all(type(c) is int and c for c in got.values())
    # the product of the negated terms cancels every key of `out`
    assert Poly._int_product_into(Poly._product_into({}, left, right), left, right, -1) == {}


@pytest.mark.parametrize("kind", ["generic-6", "coloring-3-3"])
def test_leaf_nodes_are_the_lifted_entries_without_a_product(kind, monkeypatch):
    watch = _Watch(monkeypatch)
    if kind == "generic-6":
        A = AlternatingMatrix.generic(6)
        memo = {}
        pfs = {I: _pf(A, index_mask(I), memo) for even in (2, 4, 6) for I in combinations(range(1, 7), even)}
        monkeypatch.undo()
        assert all(pf == pfaffian_definitional(_principal(A.rows, I)) for I, pf in pfs.items())
    else:
        X = AntiAlternatingMatrix.generic(3, 3)
        rhs = minor_summation_rhs(X)
        minor_summation_rhs(X, 0)
        memo, u = {}, Fraction(-1, 2)
        shifted = {(rows, cols): minor_det(X.a, index_mask(rows), index_mask(cols), memo, u)
                   for size in (1, 2, 3) for rows in combinations(range(1, 4), size)
                   for cols in combinations(range(1, 4), size)}
        monkeypatch.undo()
        assert rhs == pfaffian_of_anti_alternating(X) == pfaffian_definitional(X.to_alternating())
        # at a shift u the entry (i, i) of column t of r gains u + r - t
        for (rows, cols), d in shifted.items():
            r = len(cols)
            assert d == det_leibniz(tuple(tuple(X.a[i - 1][j - 1] + (u + r - t if i == j else 0)
                                                for t, j in enumerate(cols, start=1)) for i in rows))
    # no product is made while a two-index or a one-by-one node is the innermost
    assert ("pf", 2) not in watch.calls and ("det", 1) not in watch.calls
    assert (("pf", 4) if kind == "generic-6" else ("det", 2)) in watch.calls  # the watch sees products
    leaves = 0
    for node, lift, memo, key in watch.nodes:
        if node == "pf" and key.bit_count() == 2:
            i, j = (k - 1 for k in _indices(key))
            assert memo[key] is lift.lines[i][j]
            leaves += 1
        elif node == "det" and key[1].bit_count() == 1:
            (row,), (col,) = (_indices(mask) for mask in key)
            entry = lift.diagonal[col - 1, 0] if row == col and lift.shift is not None else lift.lines[col - 1][row - 1]
            assert memo[key] is entry
            leaves += 1
    # generic-6: the 15 pairs; coloring-3-3: the 3 pairs of b and of c and the
    # 9 entries of a at two shifts, and the 9 entries at the shift u
    assert leaves == (15 if kind == "generic-6" else 2 * (3 + 3 + 9) + 9)


def _all_terms(*values):
    """A copy of the term dict of every ring element among `values`, nested in tuples."""
    out = []
    for v in values:
        if isinstance(v, tuple):
            out.extend(_all_terms(*v))
        elif hasattr(v, "terms"):
            out.append((v, dict(v.terms)))
    return out


def _unchanged(snapshot):
    return all(v.terms == terms for v, terms in snapshot)


@pytest.mark.parametrize("kind", ["poly", "fraction", "uea"])
def test_every_route_reads_its_inputs_and_memoised_values_without_writing(kind):
    # "fraction" is a coloring of Fraction coefficients, so every lift below
    # is scaled and its memos hold its own int copies
    X = {"poly": lambda: AntiAlternatingMatrix.generic(3, 3), "uea": lambda: build_canonical_x(3),
         "fraction": lambda: _fraction_coefficient_coloring(3, 3)}[kind]()
    shift = 0 if kind == "uea" else None
    A = X.to_alternating()
    inputs = _all_terms(X.a, X.b, X.c, A.rows)
    # a shared memo: the values of a first sweep are only read by a second
    B, memo = AlternatingMatrix._trusted(X.b), {}
    for I in combinations(range(1, 4), 2):
        _pf(B, index_mask(I), memo)
    pf_memo = _snapshot(memo)
    det_memo = {}
    for rows in combinations(range(1, 4), 2):
        for cols in combinations(range(1, 4), 2):
            minor_det(X.a, index_mask(rows), index_mask(cols), det_memo, shift)
    minors = _snapshot(det_memo)
    minor_det(X.a, 0b111, 0b111, det_memo, shift)
    minor_summation_rhs(X, shift)
    assert (memo[None].scale > 1) is (det_memo[None].scale > 1) is (kind == "fraction")
    if kind == "fraction":
        assert copfaffian_expansion_check(A)
        assert minor_summation_rhs(X) == pfaffian_definitional(A)
    elif kind == "poly":
        assert copfaffian_expansion_check(A)
        forms = build_forms("commutative", p=3, q=3)
        assert pfaffian_from_top_form(forms) == pfaffian(forms.source.to_alternating())
    else:
        forms = build_forms("uea", n=3)
        omega = _all_terms(tuple(map(forms.omega.coefficient, forms.omega.terms)))
        assert pfaffian_from_top_form(forms) == minor_summation_rhs(forms.source, 0)
        assert _unchanged(omega)
    assert _unchanged(inputs)
    assert all(_snapshot(memo)[key][0] is value and value == terms for key, (value, terms) in pf_memo.items())
    assert all(_snapshot(det_memo)[key][0] is value and value == terms for key, (value, terms) in minors.items())


def test_cofactor_sums_keep_each_entry_on_the_left():
    # the entries of the canonical X of rank 2 do not commute, so a product
    # in the other order gives another element
    X = build_canonical_x(2)
    (a11, a12), (a21, a22) = X.a
    b12, c12 = X.b[0][1], X.c[0][1]
    assert a21 * a12 != a12 * a21 and c12 * b12 != b12 * c12
    assert minor_det(X.a, 0b11, 0b11, {}) == a11 * a22 - a21 * a12
    assert minor_summation_rhs(X) == a11 * a22 - a21 * a12 + c12 * b12
    # Pf = x12 x34 - x13 x24 + x14 x23, each first-row entry on the left
    x = {(1, 2): a12, (3, 4): a21, (1, 3): b12, (2, 4): c12, (1, 4): a11, (2, 3): a22}
    A = AlternatingMatrix.from_upper(4, lambda i, j: x[i, j])
    assert _pf(A, 0b1111, {}) == a12 * a21 - b12 * c12 + a11 * a22
    assert _pf(A, 0b1111, {}) != a21 * a12 - c12 * b12 + a22 * a11


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
    # diag(t, -t) preserves the split form, and t = 2 maps to diag(-1/3, -3),
    # from the int numerator over d = 1 and over d = 3 alike
    for Yn, d in ((((2, 0), (0, -2)), 1), (((6, 0), (0, -6)), 3)):
        g = _cayley(Yn, d)
        assert g == ((Fraction(-1, 3), 0), (0, -3))
        assert mat_mul(mat_mul(transpose(g), anti_identity(2)), g) == anti_identity(2)


def test_equivariance():
    rng = random.Random(8)
    for S in S_values():
        n2 = len(S)
        for _ in range(10):
            g = random_orthogonal_cayley(S, rng)
            A = AlternatingMatrix.random_rational(n2, rng)
            assert equivariance_check(A, g)
    # the identity holds for every square g, so the conjugate's upper
    # triangle is also checked on Fraction and Poly entries under a g
    # that is no isometry
    g = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)) for _ in range(4))
    for A in (AlternatingMatrix.generic(4), AlternatingMatrix.from_upper(4, lambda i, j: Fraction(i - 2 * j, 3))):
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
    assert _all_int(random_anti_alternating(3, 5, rng).full())
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
    assert type(copfaffian_matrix(A).rows[1][1]) is int
    zero = AlternatingMatrix.from_upper(4, lambda i, j: 0)
    assert pfaffian(zero) == 0 and type(pfaffian(zero)) is int
    X = random_anti_alternating(3, 3, random.Random(23))
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


# --- Pfaffian condensation of rational matrices -------------------------------


def _sparse_int_alternating(size, rng):
    # entry (1, 2) is always 0, so the first stage always swaps or stops,
    # and later pivots vanish often
    def value(i, j):
        return 0 if (i, j) == (1, 2) or rng.random() < 0.6 else rng.randint(-3, 3)

    return AlternatingMatrix.from_upper(size, value)


def _low_rank_int_alternating(size, rng):
    # a sum of size // 2 - 1 rank-two terms u v^t - v u^t: Pf = 0 from size 4
    # on, and a stage meets a pivot row that vanishes
    rows = [[0] * size for _ in range(size)]
    for _ in range(size // 2 - 1):
        u = [rng.randint(-4, 4) for _ in range(size)]
        v = [rng.randint(-4, 4) for _ in range(size)]
        for i in range(size):
            for j in range(size):
                rows[i][j] += u[i] * v[j] - v[i] * u[j]
    return AlternatingMatrix(rows)


def _big_int_alternating(size, rng):
    return AlternatingMatrix.from_upper(size, lambda i, j: rng.choice((-1, 1)) * (10**20 + rng.randint(-50, 50)))


def _recursion(A):
    return _pf(A, (1 << A.size) - 1, {})


@pytest.mark.parametrize("build", [_int_alternating, _sparse_int_alternating,
                                   _low_rank_int_alternating, _big_int_alternating],
                         ids=["dense", "sparse", "low-rank", "near-1e20"])
def test_condensation_matches_the_recursion_on_int_matrices(build):
    rng = random.Random(41)
    for size in range(0, 13, 2):
        for _ in range(12 if size <= 8 else 4):
            A = build(size, rng)
            pf = pfaffian(A)
            assert type(pf) is int and pf == _recursion(A)
            if size <= 10:
                assert pf == pfaffian_definitional(A)


def test_condensation_on_zero_pivots():
    # the first row vanishes: no swap partner, Pf = 0
    A = AlternatingMatrix.from_upper(6, lambda i, j: 0 if i == 1 else i * j)
    assert pfaffian(A) == 0 == _recursion(A)
    # a[1][2] = 0 with one partner far away: the swap flips the sign back
    B = AlternatingMatrix.from_upper(4, lambda i, j: {(1, 4): 2, (2, 3): 5}.get((i, j), 0))
    assert pfaffian(B) == 10 == _recursion(B)
    # the pivot of the second stage, 1*0 - 1*1 + 1*1, vanishes
    C = AlternatingMatrix.from_upper(6, lambda i, j: {(3, 4): 0}.get((i, j), 1))
    assert pfaffian(C) == _recursion(C) == pfaffian_definitional(C)


def test_condensation_matches_the_recursion_on_fraction_matrices():
    rng = random.Random(42)

    def fraction(i, j):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    def mixed(i, j):
        return rng.randint(-9, 9) if rng.random() < 0.5 else fraction(i, j)

    for entry in (fraction, mixed):
        for size in range(0, 11, 2):
            for _ in range(8):
                A = AlternatingMatrix.from_upper(size, entry)
                pf, ref = pfaffian(A), _recursion(A)
                assert pf == ref and type(pf) is type(ref)
    # an integral Pfaffian of a Fraction matrix is an int
    half = AlternatingMatrix.from_upper(2, lambda i, j: Fraction(4, 2))
    assert type(pfaffian(half)) is int and pfaffian(half) == 2


@pytest.mark.parametrize("size", [14, 16, 20])
def test_pfaffian_squares_to_the_bareiss_determinant_at_large_sizes(size):
    rng = random.Random(size)
    A = _int_alternating(size, rng)
    assert pfaffian(A) ** 2 == det_exact(A.rows)
    F = AlternatingMatrix.from_upper(size, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
    assert pfaffian(F) ** 2 == det_exact(F.rows)


def test_pfaffian_routes_by_entry_type(monkeypatch):
    module = importlib.import_module("pfaffkit.pfaffian")  # the package re-exports a function by this name
    real_pf = module._pf
    calls = []

    def counting_pf(A, mask, memo):
        calls.append(mask)
        return real_pf(A, mask, memo)

    monkeypatch.setattr(module, "_pf", counting_pf)
    rng = random.Random(43)
    pfaffian(_int_alternating(8, rng))
    pfaffian(_fraction_copy(_int_alternating(8, rng)))
    pfaffian(AlternatingMatrix.from_upper(6, lambda i, j: Fraction(i, j)))
    assert calls == []
    pfaffian(AlternatingMatrix.generic(4))
    assert calls


# --- the rational checks over one common denominator --------------------------

FRACTION_FORM = ((Fraction(1, 2), Fraction(1, 3), 0, 0), (Fraction(1, 3), 2, 0, 0),
                 (0, 0, 0, Fraction(3, 4)), (0, 0, Fraction(3, 4), 0))


def inverse_fraction(M):
    """The former exact inverse of a rational matrix: with M = Mn/d for the
    int matrix Mn, M^{-1} = d adj(Mn) / det(Mn); raises SingularMatrixError."""
    Mn, d = clear_denominators(M)
    det, adj = det_adjugate(Mn)
    return tuple(tuple(_rational(Fraction(d * x, det)) for x in row) for row in adj)


def _old_random_orthogonal_cayley(S, rng, draws):
    # the former route: Y = S^-1 W, g = (I - Y)(I + Y)^-1, retried while
    # I + Y is singular; `draws` counts the W drawn
    m = len(S)
    s_inv = inverse_fraction(S)
    while True:
        W = AlternatingMatrix.from_upper(m, lambda i, j: rng.randint(-3, 3)).rows
        draws.append(W)
        Y = mat_mul(s_inv, W)
        try:
            i_minus_y = tuple(tuple(int(i == j) - y for j, y in enumerate(row)) for i, row in enumerate(Y))
            i_plus_y = tuple(tuple(int(i == j) + y for j, y in enumerate(row)) for i, row in enumerate(Y))
            return mat_mul(i_minus_y, inverse_fraction(i_plus_y))
        except SingularMatrixError:
            continue


def test_random_orthogonal_cayley_matches_the_old_formula():
    forms = (anti_identity(4), anti_identity(6), anti_identity(8), GENERIC_SYMMETRIC_S, FRACTION_FORM)
    retries = 0
    for k, S in enumerate(forms):
        new_rng, old_rng = random.Random(k), random.Random(k)
        draws = []
        for _ in range(10):
            g = random_orthogonal_cayley(S, new_rng)
            assert g == _old_random_orthogonal_cayley(S, old_rng, draws)
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
    # Y = diag(-1, 1) lies in o(J2), and I + Y = diag(0, 2) is singular, from
    # the int numerator over d = 1 and over d = 2 alike
    for Yn, d in ((((-1, 0), (0, 1)), 1), (((-2, 0), (0, 2)), 2)):
        with pytest.raises(SingularMatrixError):
            _cayley(Yn, d)


def _old_complementary_minor_check(A, I):
    # the former scaled form: Pf(A_I)/Pf A == sgn(I, Ic) Pf((Ahat/Pf A)_Ic)
    universe = tuple(range(1, A.size + 1))
    comp = tuple(k for k in universe if k not in I)
    pf = pfaffian(A)
    scaled = [[x / Fraction(pf) for x in row] for row in copfaffian_matrix(A).rows]
    return (Fraction(pfaffian(_principal(A.rows, I)), pf)
            == _shuffle_sign(I, comp) * pfaffian(_principal(scaled, comp)))


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


@pytest.mark.parametrize("kind", ["poly", "fraction", "rational", "uea"])
def test_block_sum_adds_each_empty_j_term_without_a_unit_product(kind, monkeypatch):
    # for J empty Pf(c_J) is the memos' unit, so each determinant is added
    # with its sign: no product call has a lift's unit dict on the right
    # (a scalar sub-Pfaffian or entry equal to 1 is another dict)
    module = importlib.import_module("pfaffkit.pfaffian")
    real_lift = module._Lift
    ones, units = [], []

    class WatchedLift(real_lift):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            ones.append(self.one)
            product = self.product_into

            def watched(out, left, right, scale=1):
                units.append(any(right is one for one in ones))
                return product(out, left, right, scale)

            self.product_into = watched

    rng = random.Random(38)
    shapes = [(2, 2), (3, 3), (3, 1), (4, 2), (2, 4)]
    X = {"poly": [AntiAlternatingMatrix.generic(p, q) for p, q in shapes],
         "fraction": [_fraction_coefficient_coloring(p, q) for p, q in shapes],
         "rational": [random_anti_alternating(p, q, rng) for p, q in shapes],
         "uea": [build_canonical_x(n) for n in (1, 2, 3)]}[kind]
    shift = 0 if kind == "uea" else None
    monkeypatch.setattr(module, "_Lift", WatchedLift)
    got = [minor_summation_rhs(x, shift) for x in X]
    monkeypatch.undo()
    assert units and not any(units)
    if kind == "uea":
        from pfaffkit.uea import nc_pfaffian

        assert got == [nc_pfaffian(x) for x in X]
    else:
        assert got == [pfaffian_definitional(x.to_alternating()) for x in X]
