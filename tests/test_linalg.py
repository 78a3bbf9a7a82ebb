"""Dense exact linear algebra helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffkit.linalg import (
    SingularMatrixError,
    anti_identity,
    det_bareiss,
    det_exact,
    det_fraction,
    det_leibniz,
    identity,
    inverse_fraction,
    mat_mul,
    transpose,
)
from pfaffkit.rings import Poly


def rand_matrix(n, rng):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def test_det_goldens():
    assert det_leibniz([]) == 1
    assert det_leibniz([[Fraction(5)]]) == 5
    assert det_leibniz([[1, 2], [3, 4]]) == -2
    assert det_fraction([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2


def test_det_leibniz_matches_elimination():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rand_matrix(n, rng)
        assert det_leibniz(m) == det_fraction(m)


def test_det_exact_dispatches_on_entries():
    x = Poly.var("x")
    m = [[x, Poly.const(1)], [Poly.const(1), x]]
    assert det_exact(m) == x * x - 1


def test_inverse():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = rand_matrix(n, rng)
        if det_fraction(m) == 0:
            continue
        inv = inverse_fraction(m)
        assert mat_mul(m, inv) == identity(n)
    with pytest.raises(SingularMatrixError):
        inverse_fraction([[Fraction(0)]])


def test_anti_identity_shape():
    J = anti_identity(4)
    assert [row.index(1) for row in J] == [3, 2, 1, 0]
    assert J == transpose(J)
    assert mat_mul(J, J) == identity(4)


# --- integer entries ------------------------------------------------------------


def int_matrices(max_size=5, bound=20):
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda n: st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n))


@given(int_matrices())
@settings(max_examples=200, deadline=None)
def test_bareiss_matches_fraction_and_leibniz(m):
    d = det_bareiss(m)
    assert type(d) is int
    assert d == det_fraction(m) == det_leibniz(m)
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
    assert type(det_exact([[Fraction(2), 1], [1, 3]])) is Fraction
    assert det_exact([[Fraction(2), 1], [1, 3]]) == det_exact(m) == 5


def test_scalar_rule_for_constructed_entries():
    assert all(type(x) is int for M in (identity(3), anti_identity(4)) for row in M for x in row)
    inv = inverse_fraction([[2, 0], [1, 1]])
    assert inv == ((Fraction(1, 2), 0), (Fraction(-1, 2), 1))
    assert [type(x) for row in inv for x in row] == [Fraction, int, Fraction, int]
