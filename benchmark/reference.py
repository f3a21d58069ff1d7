"""A fixed pure-Python reference loop, timed between the tasks of a run.

The machine the benchmark runs on is shared: its speed for one process
drifts by a quarter or more over minutes, so two runs of the same code
minutes apart can differ by that much in raw seconds.  The run therefore
also times this loop before the first task and after every task, and
reports round and task times as multiples of its mean time over the run
(unit ``ref``).  The loop is written here, calls no dncalc code and never
changes with dncalc, so a faster dncalc lowers the ratios while a slower
machine leaves them as they are.

The work resembles dncalc's hot path: a truncated product of two sparse
bivariate polynomials with ``Fraction`` coefficients, stored in dicts keyed
by exponent tuples.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

#: products per call; one call took 0.05-0.14 s on the machine of the
#: README's reference figures, depending on its load
REPEATS = 170
ORDERS = (5, 4)


def _operand(rng):
    return {
        (i, j): Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        for i in range(ORDERS[0] + 1)
        for j in range(ORDERS[1] + 1)
        if rng.random() < 0.8
    }


def reference_seconds() -> float:
    """Time one call of the reference loop, in seconds."""
    rng = random.Random(0)
    a, b = _operand(rng), _operand(rng)
    kr, ky = ORDERS
    start = time.perf_counter()
    for _ in range(REPEATS):
        out = {}
        for (ia, ja), va in a.items():
            for (ib, jb), vb in b.items():
                i, j = ia + ib, ja + jb
                if i <= kr and j <= ky:
                    key = (i, j)
                    out[key] = out.get(key, 0) + va * vb
    return time.perf_counter() - start
