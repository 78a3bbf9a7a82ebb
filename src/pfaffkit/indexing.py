"""Index masks and shuffle signs.

The package names an index set by an int mask, bit k - 1 standing for
index k (`index_mask`).  Splitting a sorted index set into two pieces
carries the sign of the permutation that rearranges it, (-1)^c for the
c crossings that `merge_sign` counts on the two masks: the shuffle
signs sgn(Ic, I), sgn(Jc, J) of the minor summation formula.
`cycle_sign` is the sign of a permutation of range(m), read off its
cycles with no sort.  The Leibniz determinant and the permutation-sum
Pfaffian of the enveloping algebra apply it to each term's index
sequence.  The matching-sum Pfaffian builds its walk's signs from the
walk two sizes down, not from this function; the tests check each
stored leaf sign against it, applied to the matching's flat pair
sequence, at every size up to 12.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def cycle_sign(perm: Sequence[int]) -> int:
    """Sign of `perm`, a permutation of range(m): (-1)^(m - c) for its c
    cycles."""
    seen = [False] * len(perm)
    even = True
    for start in range(len(perm)):
        if seen[start]:
            continue
        seen[start] = True
        k = perm[start]
        while k != start:  # a cycle of length L flips the sign L - 1 times
            seen[k] = True
            k = perm[k]
            even = not even
    return 1 if even else -1


def index_mask(indices: Iterable[int]) -> int:
    """The mask of 1-based `indices`: bit k - 1 for index k."""
    mask = 0
    for k in indices:
        mask |= 1 << (k - 1)
    return mask


def merge_sign(left: int, right: int) -> int:
    """(-1)^c for the c pairs x in `left`, y in `right` with x > y, both
    given as masks: the sign of interleaving two ascending sequences into
    one."""
    count = 0
    while right:
        low = right & -right
        count += (left >> low.bit_length()).bit_count()
        right ^= low
    return -1 if count & 1 else 1
