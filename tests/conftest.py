"""Shared test oracles."""

import pytest

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
