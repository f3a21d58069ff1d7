import random

import pytest

from dncalc.errors import MetricError, NotInvertibleError
from dncalc.geometry import (
    BoundaryMetricJet,
    compute_q_symbols,
    gauge_s,
    gauge_sigma,
    gradient_square,
    laplace_beltrami,
    radial_drift,
    schroedinger_potential,
)
from dncalc.jets import Jet, JetSpace
from dncalc.randomgen import random_instance
from fractions import Fraction as mpq
from dncalc.symbols import HomSymbol
from helpers import with_budgets


KR, KY = 5, 4


def space(n=3):
    return JetSpace(n)


def flat_metric(sp=None, kr=KR, ky=KY):
    return BoundaryMetricJet.flat(sp or space(), kr, ky)


def random_metric(rng, sp=None, kr=KR, ky=KY):
    sp = sp or space()
    nt = sp.n - 1
    rows = [[None] * nt for _ in range(nt)]
    for a in range(nt):
        for b in range(a, nt):
            coeffs = {(0,) * sp.n: (mpq(1) if a == b else 0) + mpq(rng.randint(-1, 1), 8)}
            for _ in range(4):
                m = rng.randint(0, kr)
                rest = [0] * nt
                for _ in range(rng.randint(0, 2)):
                    rest[rng.randrange(nt)] += 1
                if (m, *rest) == (0,) * sp.n:
                    continue
                coeffs[(m, *rest)] = mpq(rng.randint(-2, 2), rng.randint(2, 4))
            rows[a][b] = sp.jet(coeffs, kr, ky)
            rows[b][a] = rows[a][b]
    return BoundaryMetricJet(rows)


def random_weight(rng, sp=None, kr=KR, ky=KY):
    sp = sp or space()
    coeffs = {}
    for _ in range(5):
        m = rng.randint(0, kr)
        rest = [0] * (sp.n - 1)
        for _ in range(rng.randint(0, 2)):
            rest[rng.randrange(sp.n - 1)] += 1
        if (m, *rest) == (0,) * sp.n:
            continue
        coeffs[(m, *rest)] = mpq(rng.randint(-2, 2), rng.randint(1, 3))
    return sp.jet(coeffs, kr, ky)


def test_metric_derive_identity():
    g = flat_metric()
    sp = g.space
    assert g.delta == sp.one(KR, KY)
    for a in range(2):
        for b in range(2):
            expected = sp.one(KR, KY) if a == b else sp.zero(KR, KY)
            assert g.g_upper[a][b] == expected


def test_metric_derive_diagonal():
    sp = space()
    one = sp.one(KR, KY)
    r = sp.coordinate(0, KR, KY)
    g = BoundaryMetricJet([[one + r.scale(2), sp.zero(KR, KY)], [sp.zero(KR, KY), one]])
    assert g.delta == one + r.scale(2)
    assert g.g_upper[0][0] == (one + r.scale(2)).reciprocal()
    assert g.g_upper[1][1] == one


def test_metric_inverse_oracle_random():
    rng = random.Random(21)
    for _ in range(8):
        g = random_metric(rng)
        sp = g.space
        nt = sp.n - 1
        for a in range(nt):
            for c in range(nt):
                acc = sp.zero(g.kr, g.ky)
                for b in range(nt):
                    acc = acc + g.g_upper[a][b] * g.g_lower[b][c]
                assert acc == (sp.one(g.kr, g.ky) if a == c else sp.zero(g.kr, g.ky))


def test_metric_requires_spd():
    sp = space()
    one = sp.one(KR, KY)
    with pytest.raises(MetricError):
        BoundaryMetricJet([[one.scale(-1), sp.zero(KR, KY)], [sp.zero(KR, KY), one]])


def exact_fields(m):
    """Orders, blocks and determinants of a metric, each jet as its exact
    (kr, ky, den, num) form."""

    def exact(j):
        return j.kr, j.ky, j.den, dict(j.num)

    blocks = tuple(
        tuple(tuple(exact(j) for j in row) for row in block)
        for block in (m.g_lower, m.g_upper)
    )
    return m.kr, m.ky, blocks, exact(m.delta), exact(m.delta_inv)


@pytest.mark.parametrize(
    "make",
    (
        lambda: flat_metric(),
        lambda: random_instance(5, n=3)[0],
        lambda: random_instance(41, n=4)[0],
    ),
    ids=("flat", "random-n3", "random-n4"),
)
def test_every_construction_matches_the_one_from_g_lower(make):
    m = make()

    def rebuilt(fn):
        return BoundaryMetricJet([[fn(j) for j in row] for row in m.g_lower])

    assert exact_fields(BoundaryMetricJet.from_upper(m.g_upper)) == exact_fields(m)
    # an entry of higher orders is cut to the common orders of the block
    upper = [list(row) for row in m.g_upper]
    upper[0][0] = with_budgets(upper[0][0], m.kr + 1, m.ky + 1)
    assert exact_fields(BoundaryMetricJet.from_upper(upper)) == exact_fields(m)
    for kr, ky in ((m.kr - 1, m.ky - 1), (m.kr + 1, m.ky - 1)):
        expected = rebuilt(lambda j: j.truncated(kr, ky))
        assert exact_fields(m.truncated(kr, ky)) == exact_fields(expected)
    expected = rebuilt(Jet.restricted_to_boundary)
    assert exact_fields(m.restricted_to_boundary()) == exact_fields(expected)


def test_a_bad_block_raises_the_same_error_from_either_side():
    sp = space()
    one, zero, r = sp.one(KR, KY), sp.zero(KR, KY), sp.coordinate(0, KR, KY)
    with pytest.raises(MetricError, match="symmetric"):
        BoundaryMetricJet.from_upper([[one, r], [zero, one]])
    with pytest.raises(MetricError, match="positive definite"):
        BoundaryMetricJet.from_upper([[one.scale(-1), zero], [zero, one]])
    with pytest.raises(NotInvertibleError):
        BoundaryMetricJet.from_upper([[one, one], [one, one]])
    # a lower block is checked before it is inverted
    with pytest.raises(MetricError, match="positive definite"):
        BoundaryMetricJet([[one, one], [one, one]])


def test_radial_drift_flat():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    assert radial_drift(g).is_zero
    assert radial_drift(g, v).is_zero


def test_radial_drift_linear_delta():
    sp = space()
    one = sp.one(KR, KY)
    r = sp.coordinate(0, KR, KY)
    g = BoundaryMetricJet([[one + r.scale(2), sp.zero(KR, KY)], [sp.zero(KR, KY), one]])
    e = radial_drift(g)
    # -1/2 * 2/(1+2r) at r=0 is -1
    assert e.constant_term() == mpq(-1)


def test_radial_drift_weighted():
    g = flat_metric()
    a = mpq(3, 2)
    v = g.space.coordinate(0, KR, KY).scale(a)
    assert radial_drift(g, v) == g.space.constant(a, KR - 1, KY)


def test_potential_zero_weight():
    g = flat_metric()
    assert schroedinger_potential(g, g.space.zero(KR, KY)).is_zero


def test_potential_linear_weight():
    g = flat_metric()
    a = mpq(2, 3)
    v = g.space.coordinate(0, KR, KY).scale(a)
    u = schroedinger_potential(g, v)
    assert u == g.space.constant(a * a / 4, KR - 2, KY)


def test_potential_quadratic_weight():
    g = flat_metric()
    sp = g.space
    b = mpq(5, 2)
    r = sp.coordinate(0, KR, KY)
    v = (r * r).scale(b / 2)
    u = schroedinger_potential(g, v)
    expected = sp.constant(-b / 2, KR - 2, KY) + (r * r).truncated(KR - 2, KY).scale(
        b * b / 4
    )
    assert u == expected


def test_q_symbols_flat_zero_weight():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    for gauge in (gauge_s(g, v), gauge_sigma(g, v), None):
        q2, q1, q0 = compute_q_symbols(g, v, gauge)
        assert q2 == HomSymbol.q2_symbol(g.ctx)
        assert q1.is_zero
        assert q0.is_zero


def test_q0_in_flat_gauge_is_potential():
    rng = random.Random(22)
    for _ in range(5):
        g = random_metric(rng)
        v = random_weight(rng, g.space)
        gauge = gauge_sigma(g, v)
        _, _, q0 = compute_q_symbols(g, v, gauge)
        assert q0 == HomSymbol.from_jet(g.ctx, schroedinger_potential(g, v))


def test_q0_weight_gauge_quadratic_example():
    g = flat_metric()
    sp = g.space
    b = mpq(3)
    r = sp.coordinate(0, KR, KY)
    v = (r * r).scale(b / 2)
    _, q1, q0 = compute_q_symbols(g, v, gauge_s(g, v))
    assert q1.is_zero  # radial weight: no tangential potential components
    expected = sp.constant(-b / 2, KR - 2, KY) + (r * r).truncated(KR - 2, KY).scale(
        b * b / 4
    )
    assert q0 == HomSymbol.from_jet(g.ctx, expected)


def test_q0_weight_gauge_matches_direct_formula_random():
    # -(1/2) delta^{-1/2} d_r(delta^{1/2} d_r V) + (d_r V)^2/4, radial terms only
    rng = random.Random(23)
    for _ in range(5):
        g = random_metric(rng)
        sp = g.space
        v = random_weight(rng, sp)
        _, _, q0 = compute_q_symbols(g, v, gauge_s(g, v))
        vr = v.partial(0)
        direct = (
            vr.partial(0) + (g.dlog_delta(0) * vr).scale(mpq(1, 2))
        ).scale(mpq(-1, 2)) + (vr * vr).scale(mpq(1, 4))
        assert q0 == HomSymbol.from_jet(g.ctx, direct)


def test_gauge_difference_vanishes_for_radial_weight():
    # the two distinguished gauges have identical q0, q1 whenever the weight
    # has no tangential dependence
    rng = random.Random(24)
    sp = space()
    for _ in range(5):
        g_rows = [[None, None], [None, None]]
        one = sp.one(KR, KY)
        r = sp.coordinate(0, KR, KY)
        g = BoundaryMetricJet(
            [
                [one + (r * r).scale(mpq(1, 3)), sp.zero(KR, KY)],
                [sp.zero(KR, KY), one + r.scale(mpq(-1, 4))],
            ]
        )
        v = r.scale(mpq(rng.randint(-2, 2), 3)) + (r * r).scale(mpq(rng.randint(-1, 1), 2))
        _, q1s, q0s = compute_q_symbols(g, v, gauge_s(g, v))
        _, q1o, q0o = compute_q_symbols(g, v, gauge_sigma(g, v))
        assert q1s == q1o
        assert q0s == q0o


@pytest.mark.parametrize(
    "seed, kwargs",
    [(31, dict(n=3)), (32, dict(n=3)), (41, dict(n=4, kr=4, ky=3))],
    ids=["n3-31", "n3-32", "n4-41"],
)
def test_scalar_q1_matches_direct_formula_on_y_dependent_instances(seed, kwargs):
    # q1 = i(-div_b + sum_a g^{ab} d_a V) xi_b with
    # div_b = d_a g^{ab} + g^{ab} d_a delta / (2 delta), written out here
    # from the metric block alone; the weight depends on y, so the gauge
    # part of the drift is live
    g, v = random_instance(seed, **kwargs)
    nt = g.n - 1
    assert any(not v.partial(a + 1).is_zero for a in range(nt))
    delta_inv = g.delta.reciprocal()
    drift = []
    for b in range(nt):
        acc = g.space.zero(g.kr, g.ky)
        for a in range(nt):
            gab = g.g_upper[a][b]
            div = gab.partial(a + 1) + (
                gab * g.delta.partial(a + 1) * delta_inv
            ).scale(mpq(1, 2))
            acc = acc - div + gab * v.partial(a + 1)
        drift.append(acc)
    _, q1, q0 = compute_q_symbols(g, v, None)
    assert q1 == HomSymbol.linear_form(g.ctx, drift).times_i()
    assert q0.is_zero


def radial_trace(g):
    """h = g_{ab} d_r g^{ab}, the trace of the first radial derivative."""
    nt = g.n - 1
    terms = [
        g.g_lower[a][b] * g.g_upper[a][b].partial(0) for a in range(nt) for b in range(nt)
    ]
    return sum(terms[1:], terms[0])


def test_h_equals_twice_drift_random():
    rng = random.Random(25)
    for _ in range(6):
        g = random_metric(rng)
        assert radial_trace(g) == radial_drift(g).scale(2)


def test_dlog_delta_two_ways():
    rng = random.Random(26)
    for _ in range(6):
        g = random_metric(rng)
        assert g.dlog_delta(0) == -radial_trace(g)


def test_gradient_and_laplacian_flat():
    g = flat_metric()
    sp = g.space
    r = sp.coordinate(0, KR, KY)
    y1 = sp.coordinate(1, KR, KY)
    f = r * r + y1 * y1
    assert laplace_beltrami(g, f) == sp.constant(4, KR - 2, KY - 2)
    assert gradient_square(g, f) == (r * r + y1 * y1).truncated(KR - 1, KY - 1).scale(4)
