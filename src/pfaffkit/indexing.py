"""Index sets and shuffle signs.

Index sets are strictly increasing tuples of 1-based indices; inside the
sub-Pfaffian recursion and the sign kernel an index set is an int mask,
bit k - 1 standing for index k (`index_mask`).  Splitting a sorted index
set into two pieces carries the sign of the permutation that rearranges
it, (-1)^c for the c crossings that `merge_sign` counts on the two masks.
`cycle_sign` is the sign of a permutation of range(m), read off its
cycles with no sort.  The Leibniz determinant and the permutation-sum
Pfaffian of the enveloping algebra apply it to each term's index
sequence; the matching-sum Pfaffian applies it to each matching's flat
pair sequence once per matrix size, when it builds its walk.
`permutation_sign` is `cycle_sign` of the sorting order of any sequence.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _check_sorted_unique(elements: Sequence[int], what: str) -> tuple[int, ...]:
    elems = tuple(elements)
    for a, b in zip(elems, elems[1:]):
        if a >= b:
            raise ValueError(f"{what} must be strictly increasing, got {elems}")
    return elems


def index_set(indices: Iterable[int], size: int) -> tuple[int, ...]:
    """`indices` as a tuple, checked to be strictly increasing within 1..size."""
    idx = _check_sorted_unique(indices, "indices")
    if idx and not (idx[0] >= 1 and idx[-1] <= size):
        raise ValueError(f"indices must lie in 1..{size}, got {idx}")
    return idx


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


def permutation_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting `seq`.  The sort is stable, so
    equal values count as in order, as in an inversion count."""
    return cycle_sign(sorted(range(len(seq)), key=seq.__getitem__))


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


def split_sign(whole: Iterable[int], left: Iterable[int], right: Iterable[int]) -> int:
    """Sign of the permutation rearranging sorted `whole` into (left, right).

    Both pieces are read in increasing order; the sign is (-1)^c where c
    counts pairs (x, y) with x in left, y in right and x > y.  The pieces
    must partition `whole`.
    """
    K = _check_sorted_unique(sorted(whole), "whole")
    I = _check_sorted_unique(sorted(left), "left part")
    J = _check_sorted_unique(sorted(right), "right part")
    if set(I) & set(J):
        raise ValueError("parts overlap")
    if tuple(sorted(I + J)) != K:
        raise ValueError("parts do not partition the whole set")
    rank = {x: r for r, x in enumerate(K)}  # any ints: only the order counts
    return merge_sign(sum(1 << rank[x] for x in I), sum(1 << rank[y] for y in J))


def complement_sign(part: Iterable[int], universe: Iterable[int]) -> int:
    """Sign sgn(complement, part) of splitting `universe` as (complement, part)."""
    part_t = tuple(sorted(part))
    univ = tuple(sorted(universe))
    inside = set(part_t)
    comp = tuple(x for x in univ if x not in inside)
    if len(inside) != len(part_t) or not inside <= set(univ):
        raise ValueError("part must be a subset of the universe")
    return split_sign(univ, comp, part_t)
