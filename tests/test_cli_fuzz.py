"""A seeded fuzz battery for `pfaffkit pfaffian`: mutated matrix files.

Small matrix texts (size at most 6) are mutated by deleting or
duplicating a token, swapping in non-ASCII digits, writing nested or
oversized powers, blowing up the header, and inserting CR, NUL and tab
bytes.  Every case must end with exit 0, 2 or 3 over both rings, and no
exception may escape `cli.main`.
"""

import random

import pytest

from pfaffkit.cli import main

SEEDS = [
    "2 2 2\na\na[1,1] a[1,2]\na[2,1] a[2,2]\nb\nb[1,2]\nc\nc[1,2]\n",
    "# a (2, 2) coloring\n2 2 2\na\nx 1/2\n-3 y^2\nb\n2*x+1\nc\n-y\n",
    "full 4\n0 1/2 3 -1\n-1/2 0 2 0\n-3 -2 0 5\n1 0 -5 0\n",
    "full 4\n0 1 -2 3\n-1 0 4 -5\n2 -4 0 6\n-3 5 -6 0\n",
    "full 6\n0 1/2 3 -1 1e1 6/2\n-1/2 0 2 +3 0 -7\n-3 -2 0 5 1.5 1_0\n"
    "1 -3 -5 0 -0 2\n-10 0 -1.5 0 0 -4/3\n-3 7 -10 -2 4/3 0\n",
    "3 2 4\na\n1 -2/3 3 0.5\n2 1e1 -1 6/2\nb\n+3\nc\n1 -1 2\n1_0 -0\n5/2\n",
    "full 6\n0 1/2*x 3/4 -2/3*y+1 1/5*x*y 0\n-1/2*x 0 7/6*z 1/3 -z 5/2\n"
    "-3/4 -7/6*z 0 x-1/7 2/9*y 4/11\n2/3*y-1 -1/3 -x+1/7 0 3/8*x*z -1\n"
    "-1/5*x*y z -2/9*y -3/8*x*z 0 1/13*y\n0 -5/2 -4/11 1 -1/13*y 0\n",
]

# Arabic-Indic, Devanagari and fullwidth one, superscript two, and a
# Unicode minus sign
NON_ASCII = ["١", "१", "１", "²", "−"]
NESTED = ["x^2^3", "(x^2)^3", "((x+1)^64)^64", "(2^4096)^4096", "x^4096*x^4096", "((y^9)^9)^9",
          "x^-1", "x^(2)", "(1/2)^4096"]
HEADERS = ["full 1000000000000", "full " + "9" * 5000, "9999999999 9999999999 9999999999",
           "4 1000000 -999992", "full -6", "3 3 3", "full 6 6", "2 2 2 2",
           "full " + "9" * 20, " ".join(["9" * 20] * 3)]

# Cases that once escaped `main`: a header size past the C ssize_t range
# (a CR inside a long header leaves such a size) raised OverflowError.
KEPT = ["full 99999999999999999999\n0 1\n",
        "99999999999999999999 99999999999999999999 99999999999999999999\na\n0 1\n",
        "full 9999999999999999999999999\r9999\n0 1\n-1 0\n"]


def _mutate(text: str, rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:  # delete a token
        tokens = text.split(" ")
        del tokens[rng.randrange(len(tokens))]
        return " ".join(tokens)
    if kind == 1:  # duplicate a token
        tokens = text.split(" ")
        k = rng.randrange(len(tokens))
        tokens.insert(k, tokens[k])
        return " ".join(tokens)
    if kind == 2:  # a non-ASCII digit or sign in place of an ASCII character
        k = rng.choice([i for i, ch in enumerate(text) if ch.isdigit() or ch == "-"])
        return text[:k] + rng.choice(NON_ASCII) + text[k + 1:]
    if kind == 3:  # a nested or oversized power in place of a token
        tokens = text.split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(NESTED)
        return " ".join(tokens)
    if kind == 4:  # a huge or inconsistent header
        lines = text.split("\n")
        k = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
        lines[k] = rng.choice(HEADERS)
        return "\n".join(lines)
    k = rng.randrange(len(text) + 1)  # CR, NUL or tab bytes
    return text[:k] + rng.choice(["\r", "\0", "\t", "\r\n", "\0\0", "\t\r"]) + text[k:]


def _cases(count: int, seed: int):
    yield from KEPT
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(SEEDS)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        yield text


@pytest.mark.parametrize("ring", ["poly", "rational"])
def test_mutated_matrix_files_keep_the_exit_contract(tmp_path, capsys, ring):
    path = tmp_path / "fuzz.txt"
    codes = {}
    for text in _cases(150, 20240):
        path.write_text(text, encoding="utf-8")
        code = main(["pfaffian", str(path), "--ring", ring])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), text
        assert bool(out) == (code == 0) and bool(err) == (code != 0), text
        assert "Traceback" not in err, text
        codes[code] = codes.get(code, 0) + 1
    assert len(codes) >= 2  # the battery reaches more than one outcome
