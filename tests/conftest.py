"""Shared test oracles."""

import pytest

from pfaffkit import grassmann, uea
from pfaffkit.pfaffian import AntiAlternatingMatrix
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
