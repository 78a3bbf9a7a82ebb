"""Matrix file parsing and round-trips."""

import random
from fractions import Fraction

import pytest

from pfaffkit import matrixio
from pfaffkit.matrixio import MatrixParseError, dumps, load_path, loads
from pfaffkit.pfaffian import AlternatingMatrix, AntiAlternatingMatrix, ShapeError
from pfaffkit.rings import Poly, parse_rational

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
    assert A.entry(1, 2) == Fraction(1, 2) and type(A.entry(1, 2)) is Fraction
    assert A.entry(2, 1) == Fraction(-1, 2)
    assert type(A.entry(1, 3)) is int and not A.int_entries


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
    # digits that str.isdigit accepts and int refuses, a doubled sign, a
    # negative size, and a size far past memory: the row counts are not
    # built up front, so it fails at its first short row
    for text, line in (("full \u00b2\n", 1), ("1 1 \u00b9\n", 1), ("--1 1 1\n", 1), ("full -2\n", 1),
                       ("full 1000000000000\n0 1\n", 2)):
        with pytest.raises(MatrixParseError) as err:
            loads(text)
        assert err.value.line == line, text


def test_wrong_entry_count_reports_position():
    with pytest.raises(MatrixParseError) as err:
        loads("full 4\n0 1\n", ring="rational")
    assert err.value.line == 2


def test_trailing_content_rejected():
    with pytest.raises(MatrixParseError):
        loads(FULL + "\n0 0 0 0\n", ring="rational")


def test_full_layout_still_validates_shape():
    for text, message, cell in [
        ("full 2\n0 1\n1 0\n", "entry (2,1) is not the negative of (1,2)", (2, 1)),
        ("full 2\n1 1\n-1 0\n", "nonzero diagonal entry at (1,1)", (1, 1)),
        ("full 4\n0 1 2 3\n-1 0 4 5\n-2 -4 0 6\n-3 -5 6 0\n", "entry (4,3) is not the negative of (3,4)", (4, 3)),
    ]:
        with pytest.raises(ShapeError) as err:
            loads(text, ring="rational")
        assert (str(err.value), err.value.cell) == (message, cell)


def test_unknown_ring():
    with pytest.raises(ValueError):
        loads(FULL, ring="float")


def test_load_path(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text(FULL)
    A = load_path(str(f), ring="rational")
    assert A.size == 4


# --- int rows: the pattern-matched path against the token loop ---------------


def _int_token(v: int, rng: random.Random) -> str:
    """An ASCII int literal for v: plain, with a '+', or zero-padded."""
    sign = "-" if v < 0 else rng.choice(["", "+"])
    return sign + "0" * rng.choice([0, 0, 0, 2]) + str(abs(v))


def _int_text(rows_by_block, rng: random.Random) -> str:
    """The rows as text, joined by random runs of spaces and tabs, some
    lines indented or followed by spaces and a comment."""
    lines = []
    for row in rows_by_block:
        if isinstance(row, str):
            lines.append(row)
            continue
        seps = [rng.choice([" ", "  ", "\t", " \t "]) for _ in row]
        line = rng.choice(["", " ", "\t"]) + "".join(
            sep + _int_token(v, rng) for sep, v in zip([""] + seps, row))
        lines.append(line + rng.choice(["", "  ", "\t", " # note"]))
    return "\n".join(lines) + "\n"


def _by_tokens(text: str):
    """The matrix read one `parse_rational` call per token."""
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    header, *body = [tokens for tokens in lines if tokens]

    def rows(start, stop=None):
        return [[parse_rational(t) for t in tokens] for tokens in body[start:stop]]

    if header[0] == "full":
        return AlternatingMatrix(rows(0))
    p, q = int(header[1]), int(header[2])
    # body: 'a', p rows, 'b', p - 1 rows, 'c', q - 1 rows
    return AntiAlternatingMatrix.from_upper_blocks(p, q, rows(1, 1 + p), rows(2 + p, 1 + 2 * p), rows(2 + 2 * p))


def _entries(M):
    if isinstance(M, AntiAlternatingMatrix):
        return (M.p, M.q, M.a, M.b, M.c)
    return M.rows


def _random_entry(rng: random.Random) -> int:
    return rng.choice([rng.randint(-9, 9), rng.randint(-10**30, 10**30)])


@pytest.mark.parametrize("size", range(0, 13, 2))
def test_int_full_rows_read_as_the_token_loop_reads_them(size):
    rng = random.Random(f"int-full:{size}")
    for _ in range(10):
        A = AlternatingMatrix.from_upper(size, lambda i, j: _random_entry(rng))
        text = _int_text([f"full {size}", *A.rows], rng)
        got = loads(text, ring="rational")
        assert got.rows == _by_tokens(text).rows == A.rows
        assert got.int_entries and all(type(x) is int for row in got.rows for x in row)


@pytest.mark.parametrize("size", range(2, 13, 2))
def test_int_colored_rows_read_as_the_token_loop_reads_them(size):
    rng = random.Random(f"int-colored:{size}")
    for _ in range(10):
        p = rng.randint(1, size - 1)
        q = size - p
        a = [[_random_entry(rng) for _ in range(q)] for _ in range(p)]
        b = [[_random_entry(rng) for _ in range(p - i)] for i in range(1, p)]
        c = [[_random_entry(rng) for _ in range(q - i)] for i in range(1, q)]
        text = _int_text([f"{size // 2} {p} {q}", "a", *a, "b", *b, "c", *c], rng)
        got = loads(text, ring="rational")
        assert _entries(got) == _entries(_by_tokens(text)) \
            == _entries(AntiAlternatingMatrix.from_upper_blocks(p, q, a, b, c))
        assert all(type(x) is int for block in (got.a, got.b, got.c) for row in block for x in row)


NBSP = "\u00a0"


@pytest.mark.parametrize("text, rows", [
    ("full 2\n0 +5\n-5 0\n", ((0, 5), (-5, 0))),
    ("full 2\n-0 7\n-7 +0\n", ((0, 7), (-7, 0))),
    ("full 2\n0 007\n-7 0\n", ((0, 7), (-7, 0))),
    ("full 2\n0 1_0\n-10 0\n", ((0, 10), (-10, 0))),
    ("full 2\n0 \u0661\n-1 0\n", ((0, 1), (-1, 0))),  # Arabic-Indic one
    ("full 2\n0 3.0\n-3 0\n", ((0, 3), (-3, 0))),
    ("full 2\n0\t4\n\t-4  0\t\n", ((0, 4), (-4, 0))),
    (f"full 2\n0{NBSP}4\n-4{NBSP}0\n", ((0, 4), (-4, 0))),
    ("full 2\n0 4   \n-4 0  # note\n", ((0, 4), (-4, 0))),
])
def test_int_token_readings(text, rows):
    A = loads(text, ring="rational")
    assert A.rows == rows
    assert all(type(x) is int for row in A.rows for x in row) and A.int_entries


@pytest.mark.parametrize("text, message, line, col", [
    ("full 4\n0 1 2 3\n-1 0 4\n", "expected 4 entries for row 2, found 3", 3, 1),
    ("full 4\n0 1\n", "expected 4 entries for row 1, found 2", 2, 1),
    ("full 2\n0 1 2\n-1 0\n", "expected 2 entries for row 1, found 3", 2, 1),
    ("2 2 2\na\n1 2\n3 4\nb\n-5 1\nc\n6\n", "expected 1 entries for b row 1, found 2", 6, 1),
    ("full 2\n0  1x\n-1 0\n",
     "bad entry '1x': bad rational literal '1x': Invalid literal for Fraction: '1x'", 2, 4),
    ("2 2 2\na\n1 2\n3 4\nb\n-5\nc\n", "unexpected end of file, expected c row 1", 7, 1),
    ("full 4\n0 1 2 3\n", "unexpected end of file, expected row 2", 2, 1),
])
def test_int_row_errors_keep_text_line_and_column(text, message, line, col):
    with pytest.raises(MatrixParseError) as err:
        loads(text, ring="rational")
    assert str(err.value) == f"line {line}, column {col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


def test_integer_past_the_digit_limit_is_a_parse_error():
    # int() refuses more than 4300 digits; the reader reports the token
    digits = "7" * 5000
    with pytest.raises(MatrixParseError) as err:
        loads(f"full 2\n0 {digits}\n-{digits} 0\n", ring="rational")
    assert (err.value.line, err.value.col) == (2, 3)
    assert str(err.value).startswith(f"line 2, column 3: bad entry '{digits}': bad rational literal")
    assert "Exceeds the limit (4300 digits)" in str(err.value)


def test_int_rows_make_no_per_token_call(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr(matrixio, "parse_rational", counting)
    loads("full 2\n0\t+3 # note\n-3 0\n", ring="rational")
    assert calls == []
    loads("full 4\n0 1/2 0 0\n-1/2 0 0 0\n0 0 0 1\n0 0 -1 0\n", ring="rational")
    assert calls == ["0", "1/2", "0", "0", "-1/2", "0", "0", "0"]
    calls.clear()
    loads(f"full 2\n0{NBSP}\u0661\n-1 0\n", ring="rational")
    assert calls == ["0", "\u0661"]
