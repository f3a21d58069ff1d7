"""Shared test configuration.

The ``dncalc`` hypothesis profile makes every property test reproducible:
derandomized examples, no example database, and no deadline, since one
example of exact jet or symbol arithmetic can outlast the default one.
"""

from hypothesis import settings

settings.register_profile(
    "dncalc", max_examples=120, deadline=None, derandomize=True, database=None
)
settings.load_profile("dncalc")
