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
    (``dncalc.dn``) runs while the test does."""
    count = [0]
    for name in ("factorize_scalar", "factorize_gauge"):
        orig = getattr(dncalc.dn, name)

        def counted(*args, _orig=orig, **kwargs):
            count[0] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(dncalc.dn, name, counted)
    return count
