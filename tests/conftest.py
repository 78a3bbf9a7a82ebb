"""Shared test oracles."""

import pytest

from pfaffkit import grassmann, uea
from pfaffkit.uea import UEAElement, canonical_generators


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
