"""Dense exact linear algebra helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffkit.linalg import (
    SingularMatrixError,
    anti_identity,
    clear_denominators,
    det_adjugate,
    det_bareiss,
    det_exact,
    det_leibniz,
    mat_mul,
    transpose,
)
from pfaffkit.rings import Poly, _rational


def rand_matrix(n, rng):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def test_det_goldens():
    assert det_leibniz([]) == 1
    assert det_leibniz([[Fraction(5)]]) == 5
    assert det_leibniz([[1, 2], [3, 4]]) == -2
    assert det_exact([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2


def test_det_leibniz_matches_elimination():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rand_matrix(n, rng)
        # denominators cleared once: det M = det(d M) / d^m, an int when integral
        d = det_exact(m)
        assert d == det_leibniz(m) and type(d) is type(_rational(Fraction(d)))


def test_det_exact_dispatches_on_entries():
    x = Poly.var("x")
    m = [[x, Poly.const(1)], [Poly.const(1), x]]
    assert det_exact(m) == x * x - 1


def test_anti_identity_shape():
    J = anti_identity(4)
    assert [row.index(1) for row in J] == [3, 2, 1, 0]
    assert J == transpose(J)
    assert mat_mul(J, J) == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


# --- integer entries ------------------------------------------------------------


def int_matrices(max_size=5, bound=20):
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda n: st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n))


@given(int_matrices())
@settings(max_examples=200, deadline=None)
def test_bareiss_matches_fraction_and_leibniz(m):
    d = det_bareiss(m)
    assert type(d) is int
    assert d == det_exact([[Fraction(x) for x in row] for row in m]) == det_leibniz(m)
    assert det_exact(m) == d and type(det_exact(m)) is int


@given(int_matrices(max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_bareiss_on_singular_matrices(m, rng):
    # a repeated row (or a zero row at size 1) makes any matrix singular
    if not m:
        return
    rows = [list(r) for r in m]
    if len(rows) == 1:
        rows[0] = [0]
    else:
        i, j = rng.sample(range(len(rows)), 2)
        rows[j] = list(rows[i])
    assert det_bareiss(rows) == 0 == det_leibniz(rows)


def test_bareiss_goldens():
    assert det_bareiss([]) == 1 and type(det_bareiss([])) is int
    assert det_bareiss([[-7]]) == -7
    # zero leading pivots need a row swap, once and twice
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == 30
    assert det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    # a zero pivot column below the pivot: singular without finishing
    assert det_bareiss([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 0
    big = [[10**9 + 7, 3, 10**9], [2, 10**9 - 1, 5], [10**9 + 9, 1, 10**9 + 3]]
    assert det_bareiss(big) == det_leibniz(big)


def test_det_exact_routes_by_entry_type():
    m = [[2, 1], [1, 3]]
    assert type(det_exact(m)) is int
    # an integral rational determinant is an int under the scalar rule
    assert type(det_exact([[Fraction(2), 1], [1, 3]])) is int
    assert det_exact([[Fraction(2), 1], [1, 3]]) == det_exact(m) == 5
    assert det_exact([[Fraction(1, 2), 1], [1, 3]]) == Fraction(1, 2)


def test_scalar_rule_for_constructed_entries():
    assert all(type(x) is int for row in anti_identity(4) for x in row)


# --- the fraction-free adjugate ---------------------------------------------------


def _adjugate_oracle(m):
    # adj[i][j] = (-1)^(i+j) det(m without row j and column i), by Leibniz
    n = len(m)
    return tuple(tuple((-1) ** (i + j) * det_leibniz([[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
                       for j in range(n)) for i in range(n))


def _check_adjugate(m):
    d = det_leibniz(m)
    if d == 0:
        with pytest.raises(SingularMatrixError):
            det_adjugate(m)
        return
    det, adj = det_adjugate(m)
    assert det == d and type(det) is int
    assert all(type(x) is int for row in adj for x in row)
    assert adj == _adjugate_oracle(m)
    scalar = tuple(tuple(d if i == j else 0 for j in range(len(m))) for i in range(len(m)))
    assert mat_mul(m, adj) == scalar == mat_mul(adj, m)


@given(int_matrices())
@settings(max_examples=200, deadline=None)
def test_det_adjugate_matches_leibniz(m):
    _check_adjugate(m)


@given(int_matrices(max_size=4, bound=3), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_det_adjugate_rejects_singular_matrices(m, rng):
    # a repeated row makes the matrix singular; small entries also give
    # singular matrices that need row swaps before elimination stops
    _check_adjugate(m)
    if len(m) > 1:
        rows = [list(r) for r in m]
        i, j = rng.sample(range(len(rows)), 2)
        rows[j] = list(rows[i])
        with pytest.raises(SingularMatrixError):
            det_adjugate(rows)


def test_det_adjugate_goldens():
    assert det_adjugate([]) == (1, ())
    assert det_adjugate([[-7]]) == (-7, ((1,),))
    # zero leading pivots need a row swap, once and twice
    assert det_adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))
    for m in ([[0, 2, 0], [0, 0, 3], [5, 0, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 1, 2], [0, 3, 4], [5, 6, 0]]):
        _check_adjugate(m)
    big = [[10**9 + 7, 3, 10**9], [2, 10**9 - 1, 5], [10**9 + 9, 1, 10**9 + 3]]
    _check_adjugate(big)
    _check_adjugate([[x * 10**20 + 1 for x in row] for row in big])
    for singular in ([[0]], [[1, 2, 3], [2, 4, 6], [1, 1, 1]], [[0, 1], [0, 2]]):
        with pytest.raises(SingularMatrixError):
            det_adjugate(singular)


def test_clear_denominators():
    M = [[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(4)]]
    assert clear_denominators(M) == (((3, 18), (-4, 24)), 6)
    assert clear_denominators([[2, -1]]) == (((2, -1),), 1)
    assert clear_denominators(()) == ((), 1)
    assert all(type(x) is int for row in clear_denominators(M)[0] for x in row)
