"""Shared test oracles."""

from fractions import Fraction

import pytest

from pfaffkit import grassmann, uea
from pfaffkit.pfaffian import AntiAlternatingMatrix, _det_raw
from pfaffkit.uea import Generator, UEAElement


def canonical_generators(n: int) -> tuple[Generator, ...]:
    """The n(2n-1) basis generators for half-size n, in PBW order."""
    gens = [Generator("a", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    gens += [Generator(k, i, j) for k in ("b", "c") for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return tuple(sorted(gens, key=lambda g: g.sort_key))


def random_anti_alternating(p: int, q: int, rng) -> AntiAlternatingMatrix:
    """The block a and the strict upper triangles of b, c, of seeded ints in -9..9."""
    a_rows = [[rng.randint(-9, 9) for _ in range(q)] for _ in range(p)]
    b_upper = [[rng.randint(-9, 9) for _ in range(i + 1, p + 1)] for i in range(1, p)]
    c_upper = [[rng.randint(-9, 9) for _ in range(i + 1, q + 1)] for i in range(1, q)]
    return AntiAlternatingMatrix.from_upper_blocks(p, q, a_rows, b_upper, c_upper)


def minor_det(M, rows: int, cols: int, memo: dict, shift=None):
    """The value of the minor of M on the masks `rows` and `cols` at
    `shift`: the lift's `value` of the raw `pfaffian._det_raw` minor,
    read from or added to `memo`."""
    lift, terms = _det_raw(M, rows, cols, memo, shift)
    return lift.value(terms, cols.bit_count())


def push_every_swap_drain(out, stack):
    """The PBW drain that pushes every rewrite: an out-of-order pair x y
    pushes the swapped word y x and each bracket term, all scanned again
    from one step left of the pair.  The oracle for `uea._normal_order_sums`,
    which rewrites the swapped word in place instead; both add each
    sorted word into `out` under the scalar rule and drop cancelled words."""
    while stack:
        w, c, t = stack.pop()
        last = len(w) - 1
        while t < last and w[t].sort_key <= w[t + 1].sort_key:
            t += 1
        if t >= last:
            c = out.get(w, 0) + c
            if not c:
                out.pop(w, None)
                continue
            out[w] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
            continue
        x, y = w[t], w[t + 1]
        head, tail = w[:t], w[t + 2:]
        back = t - 1 if t else 0
        stack.append((head + (y, x) + tail, c, back))
        for bw, bc in uea._bracket_terms(x, y):
            stack.append((head + bw + tail, c * bc, back))
    return out


def _all_generator_failures(z, n):
    # the definition: g z and z g normal ordered in full, for every basis generator
    failures = []
    for g in canonical_generators(n):
        ge = UEAElement.from_generator(g)
        if ge * z != z * ge:
            failures.append(g)
    return failures


@pytest.fixture
def all_generator_failures():
    """Basis generators of the half-size-n algebra whose products with z
    differ in the two orders: the oracle for `uea.centrality_failures`."""
    return _all_generator_failures


@pytest.fixture
def z_builds(monkeypatch):
    """The ranks of the z builds made while a test runs, by route: the
    recursion `nc_pfaffian` and the formula `nc_minor_summation_rhs`, each
    counted wherever a pfaffkit module binds it."""
    builds = {"nc_pfaffian": [], "nc_minor_summation_rhs": []}

    def counting(name, route, rank):
        def build(arg):
            builds[name].append(rank(arg))
            return route(arg)
        return build

    for module in (uea, grassmann):
        for name, rank in (("nc_pfaffian", lambda X: X.half), ("nc_minor_summation_rhs", lambda n: n)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name), rank))
    return builds
