import pytest

import dncalc.dn
from dncalc.dn import (
    DNSymbolData,
    dn_symbol_gauge,
    dn_symbol_scalar,
    shared_forward_runs,
)
from dncalc.errors import DataError
from dncalc.factorization import factorize_gauge, factorize_scalar
from dncalc.jets import JetSpace
from dncalc.randomgen import random_instance
from fractions import Fraction as mpq
from dncalc.geometry import HALF, BoundaryMetricJet, gauge_s, gauge_sigma
from dncalc.serialize import dn_to_json
from dncalc.symbols import FormalSymbol, HomSymbol, compose
from helpers import rescaled


KR, KY = 5, 4


def flat_metric(n=3, kr=KR, ky=KY):
    return BoundaryMetricJet.flat(JetSpace(n), kr, ky)


def test_flat_scalar_dn():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    dn = dn_symbol_scalar(g, v, 4)
    bctx = dn.ctx
    assert dn.symbol.grade(1) == -HomSymbol.xi_norm(bctx)
    for j in (0, -1, -2):
        assert dn.symbol.grade(j).is_zero
    assert dn.density_sq == g.space.one(0, KY)


def test_flat_gauge_dn_both_gauges():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    for tag in ("s", "sigma"):
        dn = dn_symbol_gauge(g, v, 4, tag)
        assert dn.symbol.grade(1) == -HomSymbol.xi_norm(dn.ctx)
        assert dn.density_sq == g.space.one(0, KY)


def test_constant_weight_only_changes_density():
    # constant weights drop out of the drift and the tangential potential,
    # so the symbol grades do not see them; the density exp(-2 V0) is not
    # rational and is not checked here
    g = flat_metric()
    sp = g.space
    v = sp.constant(mpq(7, 10), KR, KY)
    fac = factorize_scalar(g, v, 3)
    base = factorize_scalar(g, sp.zero(KR, KY), 3)
    assert fac.symbol.grades() == base.symbol.grades()
    for j in fac.symbol.grades():
        assert fac.symbol.grade(j) == base.symbol.grade(j)


def test_principal_square_is_q2_times_density_sq():
    metric, weight = random_instance(31)
    xi = (mpq(2), mpq(3, 2))
    dn0 = dn_symbol_scalar(metric, weight, 4)
    dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
    bmetric = metric.restricted_to_boundary()
    q2v = dn0.ctx.q2_value(xi)
    # lambda0 and the weight gauge carry e^{-2V} delta; the flat gauge delta
    dens0 = (weight.scale(-2).exp() * metric.delta).restricted_to_boundary()
    assert dn0.principal_square_eval(xi) == q2v * dens0
    assert dn_sig.principal_square_eval(xi) == q2v * bmetric.delta


def test_gauge_sigma_principal_determinant_is_delta_power():
    # det of the squared principal form q2 * delta equals delta^{n-2} * delta
    # ... restated: det(delta g^{ab}) = delta^{n-2}; n=3 here
    metric, weight = random_instance(32)
    dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
    bmetric = metric.restricted_to_boundary()
    nt = metric.n - 1
    form = [
        [bmetric.g_upper[a][b] * bmetric.delta for b in range(nt)] for a in range(nt)
    ]
    det = form[0][0] * form[1][1] - form[0][1] * form[1][0]
    assert det == bmetric.delta  # delta^{n-2} with n = 3
    # and the form itself is what principal_square_eval samples
    e0 = (mpq(1), mpq(0))
    assert dn_sig.principal_square_eval(e0) == form[0][0]


def test_rescale_invariance_of_honest_accessors():
    metric, weight = random_instance(33)
    dn = dn_symbol_gauge(metric, weight, 4, "s")
    sp = metric.space
    unit = sp.one(KR, KY) + sp.coordinate(1, KR, KY).scale(mpq(1, 3))
    scaled = rescaled(dn, unit)
    xi = (mpq(1), mpq(2))
    assert dn.principal_square_eval(xi) == scaled.principal_square_eval(xi)
    for j in (0, -1, -2):
        ev_a, od_a = dn.grade_ratio_eval(j, xi)
        ev_b, od_b = scaled.grade_ratio_eval(j, xi)
        assert ev_a == ev_b and od_a == od_b


def test_density_ratio_between_gauges_recovers_weight_factor():
    metric, weight = random_instance(34)
    dn_s = dn_symbol_gauge(metric, weight, 4, "s")
    dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
    xi = (mpq(1), mpq(1))
    ratio = dn_s.density_ratio_sq(dn_sig, xi)
    expected = weight.scale(-2).exp().restricted_to_boundary()
    assert ratio == expected


def test_tangentially_constant_gauges_agree_up_to_density():
    metric, weight = random_instance(35, tangentially_constant=True)
    dn_s = dn_symbol_gauge(metric, weight, 4, "s")
    dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
    for j in dn_s.symbol.grades():
        assert dn_s.symbol.grade(j) == dn_sig.symbol.grade(j)
    factor = weight.scale(-2).exp().restricted_to_boundary()
    assert dn_s.density_sq == factor * dn_sig.density_sq


def test_bad_gauge_tag_rejected():
    metric, weight = random_instance(36)
    with pytest.raises(DataError):
        dn_symbol_gauge(metric, weight, 4, "tau")


def test_shared_runs_key_on_the_exact_inputs(factorisations):
    metric, weight = random_instance(37)
    truncated = weight.truncated(weight.kr - 1, weight.ky)
    assert truncated == weight  # equal jets, different representations
    other = JetSpace(3, "p1")
    with shared_forward_runs():
        first = dn_symbol_scalar(metric, weight, 2)
        assert dn_symbol_scalar(metric, weight, 2) is first
        assert factorisations[0] == 1
        dn_symbol_scalar(metric, truncated, 2)
        dn_symbol_scalar(metric, weight, 3)
        dn_symbol_gauge(metric, weight, 2, "s")
        assert factorisations[0] == 3  # Lambda1 s reads the sigma run of Lambda0
        dn_symbol_gauge(metric, weight, 2, "sigma")
        assert factorisations[0] == 3
        assert dn_symbol_gauge(metric, weight, 2, "s").gauge_tag == "s"
        # the same flat metric and zero weight over another base point
        dn_symbol_scalar(flat_metric(), flat_metric().space.zero(KR, KY), 2)
        dn_symbol_scalar(
            BoundaryMetricJet.flat(other, KR, KY), other.zero(KR, KY), 2
        )
        assert factorisations[0] == 5


def test_shared_runs_end_with_their_block(factorisations):
    metric, weight = random_instance(38)
    dn_symbol_scalar(metric, weight, 2)
    dn_symbol_scalar(metric, weight, 2)
    assert factorisations[0] == 2  # outside a block every call runs
    with shared_forward_runs():
        outer = dn_symbol_scalar(metric, weight, 2)
        with shared_forward_runs():
            inner = dn_symbol_scalar(metric, weight, 2)
        assert inner is not outer and factorisations[0] == 4
        assert dn_symbol_scalar(metric, weight, 2) is outer
        with pytest.raises(DataError):
            with shared_forward_runs():
                dn_symbol_scalar(metric, weight, 2)
                dn_symbol_gauge(metric, weight, 2, "tau")
        assert dn_symbol_scalar(metric, weight, 2) is outer
    assert factorisations[0] == 5
    dn_symbol_scalar(metric, weight, 2)
    assert factorisations[0] == 6


def direct_dn_data(metric, weight, depth):
    """Lambda0, Lambda1 s and Lambda1 sigma, each restricted to the boundary
    from its own factorisation, with the squared densities of the paper."""
    bmetric = metric.restricted_to_boundary()

    def data(map_kind, tag, result, density_sq):
        symbol = result.symbol.restricted_to_boundary(bmetric.ctx)
        density_sq = density_sq.restricted_to_boundary()
        return DNSymbolData(map_kind, tag, symbol, density_sq, bmetric, metric.n, depth)

    s, sigma = gauge_s(metric, weight), gauge_sigma(metric, weight)
    weighted = weight.scale(-2).exp() * metric.delta
    return (
        data("lambda0", None, factorize_scalar(metric, weight, depth), weighted),
        data("lambda1", "s", factorize_gauge(metric, s, depth, weight=weight), weighted),
        data(
            "lambda1",
            "sigma",
            factorize_gauge(metric, sigma, depth, weight=weight),
            metric.delta,
        ),
    )


@pytest.mark.parametrize(
    "seed, n, kr, ky, depth", [(11, 3, 5, 4, 4), (42, 4, 4, 3, 3)], ids=["n3", "n4"]
)
def test_the_three_data_kinds_are_one_conjugation_apart(seed, n, kr, ky, depth):
    # Lambda1 s = e^{V/2} o Lambda1 sigma o e^{-V/2}, Lambda0 = Lambda1 s +
    # d_r V / 2 at grade 0, and both weighted densities are e^{-2V} times
    # sigma's, all at r = 0 and exactly; the derived data agree to the byte
    metric, weight = random_instance(seed, n=n, kr=kr, ky=ky)
    lam0, lam_s, lam_sigma = direct_dn_data(metric, weight, depth)
    v0 = weight.restricted_to_boundary()
    assert not (v0 - v0.constant_term()).is_zero  # the conjugation is not trivial
    bctx, lo = lam_sigma.ctx, lam_sigma.symbol.lo

    def conjugated(left, right):
        left = FormalSymbol.single(HomSymbol.from_jet(bctx, left))
        right = FormalSymbol.single(HomSymbol.from_jet(bctx, right))
        return compose(compose(left, lam_sigma.symbol, lowest=lo), right, lowest=lo)

    e_plus, e_minus = v0.scale(HALF).exp(), v0.scale(-HALF).exp()
    twisted = conjugated(e_plus, e_minus)
    shift = HomSymbol.from_jet(bctx, weight.partial(0).restricted_to_boundary().scale(HALF))
    assert list(twisted.grades()) == list(lam_s.symbol.grades()) == list(lam0.symbol.grades())
    for j in lam_s.symbol.grades():
        assert twisted.grade(j) == lam_s.symbol.grade(j)
        assert lam0.symbol.grade(j) == lam_s.symbol.grade(j) + (
            shift if j == 0 else HomSymbol.zero(bctx, j)
        )
    assert lam0.density_sq == lam_s.density_sq == v0.scale(-2).exp() * lam_sigma.density_sq
    untwisted = conjugated(e_minus, e_plus)
    assert any(untwisted.grade(j) != lam_s.symbol.grade(j) for j in lam_s.symbol.grades())
    with shared_forward_runs():
        derived = (
            dn_symbol_scalar(metric, weight, depth),
            dn_symbol_gauge(metric, weight, depth, "s"),
            dn_symbol_gauge(metric, weight, depth, "sigma"),
        )
    for got, want in zip(derived, (lam0, lam_s, lam_sigma)):
        assert dn_to_json(got) == dn_to_json(want)


@pytest.mark.parametrize(
    "seed, kwargs, depth",
    [(1000, {}, 3), (41, {"n": 4, "kr": 5, "ky": 4, "tangentially_constant": True}, 4)],
    ids=["n3", "n4-y-independent"],
)
def test_the_three_kinds_are_one_conjugation_apart_over_the_whole_collar(
    seed, kwargs, depth
):
    # the identities behind the derived data hold for the factorisations on
    # the whole collar, not only at r = 0: the sigma run conjugated by
    # e^{+-(V - V(0))/2} is the gauge-s run, and adding d_r V / 2 at grade 0
    # gives the scalar run, budgets and denominator powers included
    metric, weight = random_instance(seed, **kwargs)
    ctx = metric.ctx
    sigma = factorize_gauge(metric, gauge_sigma(metric, weight), depth, weight=weight).symbol
    s = factorize_gauge(metric, gauge_s(metric, weight), depth, weight=weight).symbol
    scalar = factorize_scalar(metric, weight, depth).symbol
    v = weight - weight.constant_term()

    def conjugated(left, right):
        left = FormalSymbol.single(HomSymbol.from_jet(ctx, left.exp()))
        right = FormalSymbol.single(HomSymbol.from_jet(ctx, right.exp()))
        return compose(compose(left, sigma, lowest=sigma.lo), right, lowest=sigma.lo)

    twisted = conjugated(v.scale(HALF), v.scale(-HALF))
    shift = HomSymbol.from_jet(ctx, weight.partial(0).scale(HALF))
    assert not shift.is_zero
    assert list(twisted.grades()) == list(s.grades()) == list(scalar.grades())
    for j in s.grades():
        want_scalar = twisted.grade(j) + shift if j == 0 else twisted.grade(j)
        for got, want in ((s.grade(j), twisted.grade(j)), (scalar.grade(j), want_scalar)):
            assert got == want
            assert (got.kr, got.ky, got.p) == (want.kr, want.ky, want.p)
    if seed == 1000:
        untwisted = conjugated(v.scale(-HALF), v.scale(HALF))
        assert [j for j in s.grades() if untwisted.grade(j) != s.grade(j)] == [0, -1]


def test_rescaling_derived_data_keeps_its_ratios():
    # the data are a representation up to a positive unit factor; Lambda1 s,
    # derived from the sigma run, must leave the rescale-invariant ratios
    # where rescaling its representation leaves them
    metric, weight = random_instance(11)
    with shared_forward_runs():
        dn_s = dn_symbol_gauge(metric, weight, 4, "s")
        dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
    sp = metric.space
    unit = sp.one(KR, KY) + sp.coordinate(2, KR, KY).scale(mpq(2, 7))
    scaled = rescaled(dn_s, unit)
    assert not scaled.agrees_with(dn_s)
    factor = weight.restricted_to_boundary().scale(-2).exp()
    for xi in ((mpq(1), mpq(2)), (mpq(-3), mpq(1, 2))):
        assert scaled.density_ratio_sq(dn_sig, xi) == dn_s.density_ratio_sq(dn_sig, xi)
        assert dn_s.density_ratio_sq(dn_sig, xi) == factor
        for j in dn_s.symbol.grades():
            assert scaled.grade_ratio_eval(j, xi) == dn_s.grade_ratio_eval(j, xi)


def test_lambda1_s_and_lambda0_take_one_composition(monkeypatch):
    # Lambda1 s twists each grade of sigma by e^{V/2} (a xi-free left factor
    # has no xi-derivative) and composes once with e^{-V/2}; Lambda0 reads
    # the block's Lambda1 s data and adds the shift, composing nothing
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    monkeypatch.setattr(dncalc.dn, "compose", counted)
    metric, weight = random_instance(11, kr=4, ky=3)
    with shared_forward_runs():
        lam_s = dn_symbol_gauge(metric, weight, 3, "s")
        lam0 = dn_symbol_scalar(metric, weight, 3)
    assert len(calls) == 1
    assert lam0.density_sq == lam_s.density_sq
    assert lam0.symbol.grade(0) != lam_s.symbol.grade(0)
