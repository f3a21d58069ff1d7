"""Seeded random instances for property runs.

Metric blocks are identity-dominated symmetric jets (strict diagonal
dominance of the constant term keeps them positive definite); weights are
random jets vanishing at the base point, as anything that gets exponentiated
must be for its exponential to stay in the rational field.  Tangential
content is kept at low degree: truncation budgets gate derivatives, not
content, so this keeps property runs fast without weakening any identity
being tested.

Genericity contract: every random weight has a nonzero pure-radial
coefficient r^m for each m = 1..kr, so d_r V, d_r^2 V, ... are nonzero at
the base point.  Hence at a metric with zero boundary drift (flat, or any
metric without an r^1 term) the gauge two-root quadratic for d_r V has two
distinct roots.  These coefficients are drawn last, so the metric and the
other weight terms do not depend on them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .geometry import BoundaryMetricJet
from .jets import Jet, JetSpace


def _random_value(rng: random.Random):
    return Fraction(rng.randint(-2, 2), rng.randint(1, 4))


def _random_index(rng: random.Random, n: int, kr: int, ky: int, tangential_degree: int):
    m = rng.randint(0, kr)
    rest = [0] * (n - 1)
    for _ in range(rng.randint(0, min(ky, tangential_degree))):
        rest[rng.randrange(n - 1)] += 1
    return (m, *rest)


def random_weight(
    rng: random.Random,
    space: JetSpace,
    kr: int,
    ky: int,
    tangential_degree: int = 2,
) -> Jet:
    """Random weight jet with V(base point) = 0 and a nonzero pure-radial
    coefficient r^m for every m = 1..kr."""
    coeffs = {}
    for _ in range(6):
        idx = _random_index(rng, space.n, kr, ky, tangential_degree)
        if idx == (0,) * space.n:
            continue
        coeffs[idx] = _random_value(rng)
    for m in range(1, kr + 1):
        value = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 4))
        idx = (m,) + (0,) * (space.n - 1)
        if not coeffs.get(idx):
            coeffs[idx] = value
    return space.jet(coeffs, kr, ky)


def random_metric(
    rng: random.Random,
    space: JetSpace,
    kr: int,
    ky: int,
    tangential_degree: int = 2,
) -> BoundaryMetricJet:
    nt = space.n - 1
    rows = [[None] * nt for _ in range(nt)]
    for a in range(nt):
        for b in range(a, nt):
            coeffs = {}
            for _ in range(5):
                idx = _random_index(rng, space.n, kr, ky, tangential_degree)
                if idx == (0,) * space.n:
                    continue
                # small perturbations keep the constant term diagonally dominant
                coeffs[idx] = _random_value(rng) / 4
            base = Fraction(1) if a == b else Fraction(0)
            coeffs[(0,) * space.n] = base + Fraction(rng.randint(-1, 1), 8)
            rows[a][b] = space.jet(coeffs, kr, ky)
            rows[b][a] = rows[a][b]
    return BoundaryMetricJet(rows)


def random_instance(
    seed: int,
    n: int = 3,
    kr: int = 5,
    ky: int = 4,
    tangentially_constant: bool = False,
):
    """A (metric, weight) pair; the same seed always returns the same pair."""
    rng = random.Random(seed)
    space = JetSpace(n)
    tdeg = 0 if tangentially_constant else 2
    metric = random_metric(rng, space, kr, ky, tangential_degree=tdeg)
    weight = random_weight(rng, space, kr, ky, tangential_degree=tdeg)
    return metric, weight
