"""Matrix file parsing and round-trips."""

from fractions import Fraction

import pytest

from pfaffkit.matrixio import MatrixParseError, dumps, load_path, loads
from pfaffkit.pfaffian import AlternatingMatrix, AntiAlternatingMatrix, ShapeError
from pfaffkit.rings import Poly

COLORED = """
# a (2, 2) coloring with symbolic entries
2 2 2
a
a[1,1] a[1,2]
a[2,1] a[2,2]
b
b[1,2]
c
c[1,2]
"""

FULL = """
full 4
0 1/2 3 -1
-1/2 0 2 0
-3 -2 0 5
1 0 -5 0
"""


def test_loads_colored():
    X = loads(COLORED)
    assert isinstance(X, AntiAlternatingMatrix)
    assert (X.p, X.q) == (2, 2)
    assert X.a[0][1] == Poly.var("a[1,2]")


def test_loads_full_rational():
    A = loads(FULL, ring="rational")
    assert isinstance(A, AlternatingMatrix)
    assert A.entry(1, 2) == Fraction(1, 2)
    assert A.entry(2, 1) == Fraction(-1, 2)


def test_comments_and_blanks_skipped():
    text = "# heading\n\nfull 2\n0 7   # trailing note\n-7 0\n"
    A = loads(text, ring="rational")
    assert A.entry(1, 2) == 7


def test_dumps_roundtrip_colored():
    X = loads(COLORED)
    again = loads(dumps(X))
    assert again.full() == X.full()


def test_dumps_roundtrip_full():
    A = loads(FULL, ring="rational")
    again = loads(dumps(A), ring="rational")
    assert again == A


def test_bad_header():
    with pytest.raises(MatrixParseError):
        loads("hello\n")
    with pytest.raises(MatrixParseError):
        loads("full x\n")
    with pytest.raises(MatrixParseError):
        loads("2 2 3\n")  # p + q != 2n


def test_wrong_entry_count_reports_position():
    with pytest.raises(MatrixParseError) as err:
        loads("full 4\n0 1\n", ring="rational")
    assert err.value.line == 2


def test_trailing_content_rejected():
    with pytest.raises(MatrixParseError):
        loads(FULL + "\n0 0 0 0\n", ring="rational")


def test_full_layout_still_validates_shape():
    with pytest.raises(ShapeError):
        loads("full 2\n0 1\n1 0\n", ring="rational")


def test_unknown_ring():
    with pytest.raises(ValueError):
        loads(FULL, ring="float")


def test_load_path(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text(FULL)
    A = load_path(str(f), ring="rational")
    assert A.size == 4
