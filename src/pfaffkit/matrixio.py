"""Plain-text matrix files.

Two layouts, chosen by the header line:

``n p q``  -- an anti-alternating matrix through its (p, q) coloring:
a label line ``a`` followed by p rows of q entries, then ``b`` with the
p-1 strict-upper-triangle rows of the skew block, then ``c`` with its
q-1 rows.  The mirrored halves are filled in automatically, so files in
this layout cannot violate anti-alternation.

``full 2m`` -- a full alternating matrix as 2m rows of 2m entries.

Header sizes are ASCII integer literals.  The rows are counted off as
they are read, so a header that promises more rows than the file holds
fails at the first short or missing row, whatever size it names.

Entries are whitespace-separated, so each entry must itself be free of
spaces: a rational like ``-3/4`` or a polynomial literal like
``2*x[1,2]+1``.  Blank lines and ``#`` comments are skipped.

Over the rationals a row of plain ASCII integers separated by spaces or
tabs is read with one pattern match and ``int`` per entry; these are the
tokens `parse_rational` reads with ``int`` too.  Every other row, and an
integer ``int`` refuses, goes through the token loop, which reports the
line and column of a bad entry.  The grammar is the same on both paths.
"""

from __future__ import annotations

import re
from typing import Callable

from .pfaffian import AlternatingMatrix, AntiAlternatingMatrix, ShapeError
from .rings import _INT_LITERAL, Poly, PolyParseError, parse_poly, parse_rational


class MatrixParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\S+")
# a row of the literals `parse_rational` reads with `int`, separated by spaces or tabs
_INT_ROW = re.compile(rf"[ \t]*{_INT_LITERAL.pattern}(?:[ \t]+{_INT_LITERAL.pattern})*[ \t]*")


def _content_lines(text: str):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            out.append((lineno, body))
    return out


def _entry_parser(ring: str) -> Callable[[str], object]:
    if ring == "rational":
        return parse_rational
    if ring == "poly":
        return parse_poly
    raise ValueError(f"unknown ring {ring!r}; expected 'rational' or 'poly'")


class _LineReader:
    def __init__(self, text: str):
        self.lines = _content_lines(text)
        self.k = 0

    def next_line(self, what: str, r: int | None = None):
        """The next content line; `what`, numbered `r` if given, names it
        in the end-of-file error."""
        if self.k >= len(self.lines):
            last = self.lines[-1][0] if self.lines else 1
            what = what if r is None else f"{what} {r}"
            raise MatrixParseError(f"unexpected end of file, expected {what}", last)
        lineno, body = self.lines[self.k]
        self.k += 1
        return lineno, body

    def done(self) -> bool:
        return self.k >= len(self.lines)


def _read_rows(reader: _LineReader, label: str, counts, parse_entry) -> list:
    """One row per count, the r-th named `label r` (from 1) in errors."""
    return [_parse_row(*reader.next_line(label, r), count, parse_entry, label, r)
            for r, count in enumerate(counts, start=1)]


def _parse_row(lineno: int, body: str, count: int, parse_entry, label: str, r: int):
    if parse_entry is parse_rational and _INT_ROW.fullmatch(body):
        try:
            row = list(map(int, body.split()))
        except ValueError:  # past int's digit limit: the token loop reports it
            pass
        else:
            if len(row) == count:
                return row
    tokens = list(_TOKEN.finditer(body))
    if len(tokens) != count:
        raise MatrixParseError(f"expected {count} entries for {label} {r}, found {len(tokens)}", lineno)
    row = []
    for tok in tokens:
        try:
            row.append(parse_entry(tok.group()))
        except PolyParseError as exc:
            raise MatrixParseError(f"bad entry {tok.group()!r}: {exc}", lineno, tok.start() + 1) from None
    return row


def _expect_label(reader: _LineReader, label: str):
    lineno, body = reader.next_line(f"block label {label!r}")
    if body.strip() != label:
        raise MatrixParseError(f"expected block label {label!r}, found {body.strip()!r}", lineno)


def _header_ints(fields: list, count: int, lineno: int, message: str) -> list:
    """`count` header fields read as ints: ASCII integer literals, as in
    the int-row fast path, within int's digit limit; else a parse error
    carrying `message`."""
    if len(fields) == count and all(map(_INT_LITERAL.fullmatch, fields)):
        try:
            return [int(f) for f in fields]
        except ValueError:  # past int's digit limit
            pass
    raise MatrixParseError(message, lineno)


def loads(text: str, ring: str = "poly"):
    """Parse matrix text into an AlternatingMatrix or AntiAlternatingMatrix."""
    parse_entry = _entry_parser(ring)
    reader = _LineReader(text)
    lineno, header = reader.next_line("a header line")
    fields = header.split()
    if fields and fields[0] == "full":
        size = _header_ints(fields[1:], 1, lineno, "full header must read 'full <size>'")[0]
        if size < 0:
            raise MatrixParseError("full header must read 'full <size>'", lineno)
        rows = _read_rows(reader, "row", (size for _ in range(size)), parse_entry)
        _expect_eof(reader)
        return AlternatingMatrix(rows)
    n, p, q = _header_ints(fields, 3, lineno, "header must read 'n p q' or 'full <size>'")
    if p + q != 2 * n or p < 1 or q < 1:
        raise MatrixParseError(f"coloring ({p}, {q}) does not match half-size {n}", lineno)
    _expect_label(reader, "a")
    a_rows = _read_rows(reader, "a row", (q for _ in range(p)), parse_entry)
    _expect_label(reader, "b")
    b_upper = _read_rows(reader, "b row", range(p - 1, 0, -1), parse_entry)
    _expect_label(reader, "c")
    c_upper = _read_rows(reader, "c row", range(q - 1, 0, -1), parse_entry)
    _expect_eof(reader)
    return AntiAlternatingMatrix.from_upper_blocks(p, q, a_rows, b_upper, c_upper)


def _expect_eof(reader: _LineReader):
    if not reader.done():
        lineno, body = reader.lines[reader.k]
        raise MatrixParseError(f"unexpected trailing content {body.strip()!r}", lineno)


def load_path(path: str, ring: str = "poly"):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), ring=ring)


def _entry_str(x) -> str:
    return str(x).replace(" ", "")


def dumps(M) -> str:
    """Render a matrix back into the file format (inverse of loads)."""
    lines = []
    if isinstance(M, AntiAlternatingMatrix):
        p, q = M.p, M.q
        lines.append(f"{(p + q) // 2} {p} {q}")
        lines.append("a")
        for row in M.a:
            lines.append(" ".join(_entry_str(x) for x in row))
        lines.append("b")
        for i in range(1, p):
            lines.append(" ".join(_entry_str(M.b[i - 1][j - 1]) for j in range(i + 1, p + 1)))
        lines.append("c")
        for i in range(1, q):
            lines.append(" ".join(_entry_str(M.c[i - 1][j - 1]) for j in range(i + 1, q + 1)))
    elif isinstance(M, AlternatingMatrix):
        lines.append(f"full {M.size}")
        for row in M.rows:
            lines.append(" ".join(_entry_str(x) for x in row))
    else:
        raise TypeError(f"cannot serialise {type(M).__name__}")
    return "\n".join(lines) + "\n"
