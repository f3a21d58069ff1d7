"""Shared test configuration.

The ``dncalc`` hypothesis profile makes every property test reproducible:
derandomized examples, no example database, and no deadline, since one
example of exact jet or symbol arithmetic can outlast the default one.
"""

import pytest
from hypothesis import settings

import dncalc.dn

settings.register_profile(
    "dncalc", max_examples=120, deadline=None, derandomize=True, database=None
)
settings.load_profile("dncalc")


@pytest.fixture
def factorisations(monkeypatch):
    """A one-element list counting the factorisations the forward model
    (``dncalc.dn``) runs while the test does: its sigma runs, from which it
    derives the other two data kinds."""
    count = [0]
    orig = dncalc.dn.factorize_gauge

    def counted(*args, **kwargs):
        count[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(dncalc.dn, "factorize_gauge", counted)
    return count
