"""Index sets and interleaving signs."""

from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffkit.indexing import (
    complement_sign,
    cycle_sign,
    index_mask,
    index_set,
    merge_sign,
    permutation_sign,
    split_sign,
)


def test_split_sign_goldens():
    assert split_sign((1, 2, 3), (2,), (1, 3)) == -1
    assert split_sign((1, 2, 3, 4), (2, 4), (1, 3)) == -1
    assert split_sign((1, 2, 3, 4), (1, 2), (3, 4)) == 1
    assert split_sign((), (), ()) == 1


def test_split_sign_validates():
    with pytest.raises(ValueError):
        split_sign((1, 2, 3), (1,), (2,))  # union too small
    with pytest.raises(ValueError):
        split_sign((1, 2), (1, 2), (2,))


def _perm_sign(seq):
    s = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                s = -s
    return s


def test_split_sign_matches_permutation_oracle():
    # sign of rearranging `whole` into left followed by right
    for n in range(1, 7):
        whole = tuple(range(1, n + 1))
        for k in range(n + 1):
            for left in combinations(whole, k):
                right = tuple(v for v in whole if v not in left)
                assert split_sign(whole, left, right) == _perm_sign(left + right)


def test_split_sign_reads_only_the_order_of_its_indices():
    # zero, negative and gapped indices rank like 1..n
    assert split_sign((-2, 0, 5), (0,), (-2, 5)) == split_sign((1, 2, 3), (2,), (1, 3)) == -1
    assert split_sign((-2, 0, 5), (5,), (-2, 0)) == split_sign((1, 2, 3), (3,), (1, 2)) == 1


def test_index_mask_sets_bit_k_minus_one_for_index_k():
    assert index_mask(()) == 0
    assert index_mask((1,)) == 0b1
    assert index_mask((2, 4, 5)) == 0b11010
    assert index_mask(iter(range(1, 9))) == 0xFF


def test_merge_sign_matches_permutation_sign_of_the_concatenation():
    # every disjoint (left, right) pair on up to 8 slots: each slot is in
    # left, in right or in neither
    for n in range(9):
        for places in product(range(3), repeat=n):
            left = tuple(k for k in range(n) if places[k] == 1)
            right = tuple(k for k in range(n) if places[k] == 2)
            masks = sum(1 << k for k in left), sum(1 << k for k in right)
            assert merge_sign(*masks) == permutation_sign(left + right), (left, right)


def test_complement_sign_is_split_with_complement_first():
    universe = (1, 2, 3, 4, 5, 6)
    for k in range(7):
        for part in combinations(universe, k):
            rest = tuple(v for v in universe if v not in part)
            assert complement_sign(part, universe) == split_sign(universe, rest, part)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=80, deadline=None)
def test_split_sign_multiplicativity(n, data):
    # merging in two stages gives the same sign as one stage
    whole = tuple(range(1, n + 1))
    left = tuple(sorted(data.draw(st.sets(st.sampled_from(whole), max_size=n))))
    right = tuple(v for v in whole if v not in left)
    assert split_sign(whole, left, right) * split_sign(whole, left, right) == 1
    assert split_sign(whole, left, right) == _perm_sign(left + right)


def test_cycle_sign_matches_inversion_count():
    for m in range(8):
        for perm in permutations(range(m)):
            assert cycle_sign(perm) == _perm_sign(perm)


def test_permutation_sign_matches_inversion_count():
    for n in range(7):
        for perm in permutations(range(n)):
            assert permutation_sign(perm) == _perm_sign(perm)
    # only the relative order counts, so 1-based and gapped values agree
    assert permutation_sign((3, 1, 2)) == permutation_sign((30, 10, 20)) == 1
    assert permutation_sign((2, 1)) == -1
    # equal values count as in order, as in the inversion count
    for seq in product(range(3), repeat=5):
        assert permutation_sign(seq) == _perm_sign(seq)


def test_index_set_accepts_increasing_in_range():
    assert index_set((), 0) == ()
    assert index_set([1, 3, 4], 4) == (1, 3, 4)
    assert index_set(iter((2,)), 2) == (2,)


@pytest.mark.parametrize("indices", [(0, 1), (1, 5), (-1,), (2, 1), (1, 1)])
def test_index_set_rejects_out_of_range_or_unordered(indices):
    with pytest.raises(ValueError):
        index_set(indices, 4)
