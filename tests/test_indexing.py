"""Index masks and interleaving signs."""

from itertools import permutations, product

from pfaffkit.indexing import crossing_mask, cycle_sign, index_mask, merge_sign


def _perm_sign(seq):
    s = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                s = -s
    return s


def test_merge_sign_goldens():
    # sgn of rearranging 1..n into (left, right), each read in increasing order
    assert merge_sign(index_mask((2,)), index_mask((1, 3))) == -1
    assert merge_sign(index_mask((2, 4)), index_mask((1, 3))) == -1
    assert merge_sign(index_mask((1, 2)), index_mask((3, 4))) == 1
    assert merge_sign(index_mask((3, 4)), index_mask((1, 2))) == 1
    assert merge_sign(0, 0) == 1


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
            assert merge_sign(*masks) == _perm_sign(left + right), (left, right)


def _counted_merge_sign(left, right):
    """The crossing count one set bit of `right` at a time."""
    count = 0
    while right:
        low = right & -right
        count += (left >> low.bit_length()).bit_count()
        right ^= low
    return -1 if count & 1 else 1


def test_crossing_mask_parity_matches_the_counted_crossings():
    # every disjoint (left, right) pair of 9-bit masks
    for places in product(range(3), repeat=9):
        left = sum(1 << k for k in range(9) if places[k] == 1)
        right = sum(1 << k for k in range(9) if places[k] == 2)
        expected = _counted_merge_sign(left, right)
        assert (-1 if (left & crossing_mask(right)).bit_count() & 1 else 1) == expected, (left, right)
        assert merge_sign(left, right) == expected


def test_cycle_sign_matches_inversion_count():
    for m in range(8):
        for perm in permutations(range(m)):
            assert cycle_sign(perm) == _perm_sign(perm)
