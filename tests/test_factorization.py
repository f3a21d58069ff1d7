import time
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

from dncalc.errors import BudgetExhaustedError, DepthError
from dncalc.factorization import (
    _Recursion,
    _defining_expression,
    factorize_gauge,
    factorize_scalar,
    perturb_component,
    verify_residual,
)
from dncalc.geometry import (
    BoundaryMetricJet,
    GaugeData,
    compute_q_symbols,
    gauge_s,
    gauge_sigma,
    radial_drift,
)
from dncalc import jets
from dncalc.jets import JetSpace
from dncalc.randomgen import random_instance
from fractions import Fraction as mpq
from dncalc.symbols import (
    FormalSymbol,
    HomSymbol,
    Parts,
    SymbolContext,
    XiPoly,
    compose,
    xi_derivative_times,
)
from helpers import (
    assert_same_form,
    eval_pair,
    long_hand_compose,
    long_hand_product,
    long_hand_quotient_rule,
    long_hand_sum,
    long_hand_terms,
)


KR, KY = 5, 4


def flat_metric(n=3, kr=KR, ky=KY):
    return BoundaryMetricJet.flat(JetSpace(n), kr, ky)


def test_flat_factorizations_vanish_below_principal():
    g = flat_metric()
    v = g.space.zero(KR, KY)
    for result in (
        factorize_gauge(g, gauge_sigma(g, v), 4, weight=v),
        factorize_gauge(g, gauge_s(g, v), 4, weight=v),
        factorize_scalar(g, v, 4),
    ):
        w = HomSymbol.xi_norm(g.ctx)
        assert result.symbol.grade(1) == -w
        for j in (0, -1, -2):
            assert result.symbol.grade(j).is_zero
        assert verify_residual(result) is None


def over_norm(g, value):
    """value / ||xi'|| = value * w / q2 as a degree -1 symbol (value a scalar)."""
    nxi = g.ctx.nxi
    odd = XiPoly(nxi, 0, {(0,) * nxi: g.space.constant(value, KR, KY)})
    return HomSymbol(g.ctx, -1, XiPoly(nxi, 1, {}), odd, 1, KR, KY).normalized()


def test_gauge_quadratic_weight_example():
    # flat metric, V = b r^2 / 2 in the weight gauge:
    # s_0 = 0 and s_{-1}|_{r=0} = b / (4 ||xi'||)
    g = flat_metric()
    sp = g.space
    b = mpq(3, 2)
    r = sp.coordinate(0, KR, KY)
    v = (r * r).scale(b / 2)
    res = factorize_gauge(g, gauge_s(g, v), 4, weight=v)
    assert res.symbol.grade(0).is_zero
    bctx = g.restricted_to_boundary().ctx
    expected = over_norm(g, b / 4).restricted_to_boundary(bctx)
    assert res.symbol.grade(-1).restricted_to_boundary(bctx) == expected
    assert verify_residual(res) is None


def test_gauge_linear_weight_example():
    # flat metric, V = a r in the weight gauge:
    # s_0 = 0 and s_{-1} = -a^2/(8 ||xi'||) everywhere on the collar
    g = flat_metric()
    sp = g.space
    a = mpq(2)
    v = sp.coordinate(0, KR, KY).scale(a)
    res = factorize_gauge(g, gauge_s(g, v), 4, weight=v)
    assert res.symbol.grade(0).is_zero
    assert res.symbol.grade(-1) == over_norm(g, -a * a / 8)
    assert verify_residual(res) is None


def test_scalar_linear_weight_example():
    # flat metric, V = a r: c_0 = a/2, c_{-1} = -a^2/(8 ||xi'||)
    g = flat_metric()
    sp = g.space
    a = mpq(3)
    v = sp.coordinate(0, KR, KY).scale(a)
    res = factorize_scalar(g, v, 4)
    assert res.symbol.grade(0) == HomSymbol.from_jet(g.ctx, sp.constant(a / 2, KR, KY))
    assert res.symbol.grade(-1) == over_norm(g, -a * a / 8)
    assert verify_residual(res) is None


def test_scalar_quadratic_weight_example():
    # flat metric, V = b r^2/2: c_0|_{r=0} = 0, c_{-1}|_{r=0} = b/(4||xi'||)
    g = flat_metric()
    sp = g.space
    b = mpq(5)
    r = sp.coordinate(0, KR, KY)
    v = (r * r).scale(b / 2)
    res = factorize_scalar(g, v, 4)
    bctx = g.restricted_to_boundary().ctx
    assert res.symbol.grade(0).restricted_to_boundary(bctx).is_zero
    expected = over_norm(g, b / 4).restricted_to_boundary(bctx)
    assert res.symbol.grade(-1).restricted_to_boundary(bctx) == expected
    assert verify_residual(res) is None


def test_components_are_homogeneous():
    metric, weight = random_instance(101)
    res = factorize_scalar(metric, weight, 4)
    lam = mpq(2)
    xi = (mpq(3, 2), mpq(1, 3))
    lxi = tuple(lam * x for x in xi)
    for j in res.symbol.grades():
        s = res.symbol.grade(j)
        ev, od = eval_pair(s, xi)
        lev, lod = eval_pair(s, lxi)
        assert lev == ev.scale(lam**j)
        assert lod == od.scale(lam ** (j - 1))


def test_residual_passes_on_random_instances_both_modes():
    for seed in (7, 8):
        metric, weight = random_instance(seed)
        for tag in ("s", "sigma"):
            gauge = gauge_s(metric, weight) if tag == "s" else gauge_sigma(metric, weight)
            res = factorize_gauge(metric, gauge, 4, weight=weight)
            assert verify_residual(res) is None
        res = factorize_scalar(metric, weight, 4)
        assert verify_residual(res) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_depth_one_gauge_s_factorisation_passes_its_verifier(n):
    # a_r = d_r V / 2 is nonzero, and the one reliable grade at depth 1, the
    # principal grade 2 of the identity, holds no a_r term
    metric, weight = random_instance(3, n=n, kr=2, ky=2)
    gauge = gauge_s(metric, weight)
    assert not gauge.a_r.is_zero
    res = factorize_gauge(metric, gauge, 1, weight=weight)
    assert verify_residual(res) is None


def test_residual_passes_custom_gauge():
    metric, weight = random_instance(9)
    sp = metric.space
    a_r = weight * weight  # arbitrary radial potential
    a_tan = tuple(weight.partial(i + 1) for i in range(metric.n - 1))
    pot = weight.scale(3)
    gauge = GaugeData(a_r, a_tan, pot)
    res = factorize_gauge(metric, gauge, 4, weight)
    assert verify_residual(res) is None


def test_injected_fault_detection():
    metric, weight = random_instance(10)
    res = factorize_scalar(metric, weight, 4)
    for grade in (0, -1, -2):
        bad = perturb_component(res, grade)
        assert verify_residual(bad) == grade
    gres = factorize_gauge(metric, gauge_s(metric, weight), 4, weight=weight)
    for grade in (0, -2):
        bad = perturb_component(gres, grade)
        assert verify_residual(bad) == grade


def test_budget_and_depth_errors():
    g = flat_metric(kr=2, ky=2)
    v = g.space.zero(2, 2)
    with pytest.raises(BudgetExhaustedError):
        factorize_scalar(g, v, 4)
    g5 = flat_metric()
    with pytest.raises(DepthError):
        factorize_scalar(g5, g5.space.zero(KR, KY), 0)


def test_gauge_and_scalar_agree_for_tangentially_constant_data():
    # with no tangential dependence the two distinguished gauges produce the
    # same factorisation symbol, and the scalar symbol matches the gauge one
    # after removing the drift difference; here we check the first statement.
    metric, weight = random_instance(11, tangentially_constant=True)
    res_s = factorize_gauge(metric, gauge_s(metric, weight), 4, weight=weight)
    res_o = factorize_gauge(metric, gauge_sigma(metric, weight), 4, weight=weight)
    for j in res_s.symbol.grades():
        assert res_s.symbol.grade(j) == res_o.symbol.grade(j)


@pytest.mark.parametrize("n", [3, 4])
def test_a_grade_claims_no_more_tangential_order_than_its_terms_carry(n):
    # s_j comes from a grade whose terms include D_y^K s_1 with |K| = 1 - j,
    # of tangential budget ky - 1 + j; on y-independent data that derivative
    # is zero, and its budget must still bound the grade
    metric, weight = random_instance(3, n=n, kr=5, ky=4, tangentially_constant=True)
    results = {
        "scalar": factorize_scalar(metric, weight, 4),
        "s": factorize_gauge(metric, gauge_s(metric, weight), 4, weight=weight),
        "sigma": factorize_gauge(metric, gauge_sigma(metric, weight), 4, weight=weight),
    }
    for name, res in results.items():
        for j in res.symbol.grades():
            if j <= 0:
                assert res.symbol.grade(j).ky == 4 - 1 + j, (name, j)


def test_early_refusal_of_q2_divisions_changes_no_symbol(monkeypatch):
    # the q2 division refuses most attempts from the lowest (r, y) order
    # alone; with that test accepting everything, every grade must keep the
    # same denominator power and numerators
    def factorisations(metric, weight):
        return [
            factorize_scalar(metric, weight, 3),
            factorize_gauge(metric, gauge_s(metric, weight), 3, weight=weight),
            factorize_gauge(metric, gauge_sigma(metric, weight), 3, weight=weight),
        ]

    for metric, weight in (
        random_instance(1000),
        random_instance(41, n=4, tangentially_constant=True),
    ):
        checked = factorisations(metric, weight)
        with monkeypatch.context() as m:
            m.setattr(SymbolContext, "_lowest_order_divisible", lambda self, poly: True)
            unchecked = factorisations(metric, weight)
            assert all(verify_residual(ref) is None for ref in unchecked)
        for res, ref in zip(checked, unchecked):
            assert verify_residual(res) is None
            for j in res.symbol.grades():
                s, t = res.symbol.grade(j), ref.symbol.grade(j)
                assert s.p == t.p and s.a == t.a and s.b == t.b


def y_dependent_n4_instance():
    """A sparse n = 4 instance at orders (KR, KY): the metric depends on y2
    and y3, the weight on y1, and d_r V != 0, so gauge s has a_r != 0."""
    sp = JetSpace(4)
    one, zero = sp.one(KR, KY), sp.zero(KR, KY)
    r, y1, y2, y3 = (sp.coordinate(i, KR, KY) for i in range(4))
    g01 = (r * y3).scale(mpq(1, 3))
    rows = [
        [one + r.scale(mpq(1, 2)), g01, zero],
        [g01, one - (r * y2).scale(mpq(1, 2)), zero],
        [zero, zero, one + (r * r).scale(mpq(1, 4))],
    ]
    weight = r + (r * y1).scale(mpq(1, 2)) - (r * r).scale(mpq(1, 3))
    return BoundaryMetricJet(rows), weight


def rebuilt(sym):
    """A new symbol from the same parts and budgets, so its memo is empty."""
    return HomSymbol(sym.ctx, sym.degree, sym.a, sym.b, sym.p, sym.kr, sym.ky)


def test_the_verifier_reuses_the_derivative_chains_of_the_solver(monkeypatch):
    # the recursion has formed every d_xi chain the verifier's composition
    # needs, and d_r of every grade the verifier checks, on the same
    # component objects.  The verifier computes only, in gauge s, the D_y
    # chains (|K| <= 2) of the a_r symbol, which the recursion forms on jets
    metric, weight = y_dependent_n4_instance()
    results = {
        "scalar": factorize_scalar(metric, weight, 4),
        "gauge": factorize_gauge(metric, gauge_s(metric, weight), 4, weight=weight),
    }
    calls = {}
    for name in ("xi_partial", "base_partial"):
        orig = getattr(HomSymbol, name)

        def counted(self, direction, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, direction)

        monkeypatch.setattr(HomSymbol, name, counted)
    expected = {
        "scalar": {"xi_partial": 0, "base_partial": 0},
        "gauge": {"xi_partial": 0, "base_partial": 9},
    }
    for mode, res in results.items():
        calls.update(xi_partial=0, base_partial=0)
        assert verify_residual(res) is None
        assert calls == expected[mode]


@pytest.mark.parametrize("mode", ["scalar", "gauge"])
def test_n4_fault_detection_at_every_determined_grade(mode):
    # the first verification fills the derivative memos of every component.
    # A perturbed component is a new symbol and must not read the memo of
    # the one it replaces.  The verifier reports only the highest violated
    # grade, so every grade of the identity is compared with the one over
    # rebuilt components, whose memos are empty.  Only the grade -1 bump has
    # derivatives that reach a verified grade: the grade 0 bump is constant,
    # and those of the grade -2 bump enter below the verified range
    metric, weight = y_dependent_n4_instance()
    if mode == "scalar":
        res = factorize_scalar(metric, weight, 4)
    else:
        gauge = gauge_s(metric, weight)
        assert not gauge.a_r.is_zero
        res = factorize_gauge(metric, gauge, 4, weight=weight)
    assert verify_residual(res) is None
    for grade in (0, -1, -2):
        assert verify_residual(perturb_component(res, grade)) == grade
    bad = perturb_component(res, -1)
    fresh = replace(bad, symbol=bad.symbol.map_components(rebuilt))
    assert _defining_expression(bad) == _defining_expression(fresh)


def canonical(term):
    """A grade-sum term in canonical form: a symbol as it is, ``Parts`` by
    their own normalisation."""
    return term.normalized() if isinstance(term, Parts) else term


def test_every_symbol_operation_of_a_factorisation_equals_the_long_hand_formula(monkeypatch):
    # every product, derivative and sum that verified scalar, s and sigma
    # factorisations of two small y-dependent instances form has the power,
    # budgets and coefficient jets of the long-hand formula.  A product that
    # feeds a grade sum is formed as parts (``times``), whose canonical form
    # is checked; a sum of parts is checked against the long-hand sum of its
    # terms' canonical forms.  The long hand's own == forms sums, which are
    # not checked again
    long_hands = {
        "__mul__": long_hand_product,
        "times": long_hand_product,
        "xi_partial": lambda s, a: long_hand_quotient_rule(s, "xi_partial", a),
        "base_partial": lambda s, d: long_hand_quotient_rule(s, "base_partial", d),
        "sum": lambda terms, ctx, j: long_hand_sum([canonical(t) for t in terms], ctx, j),
    }
    checked = dict.fromkeys(long_hands, 0)
    busy = [False]

    def wrapped(name, op):
        def check(*args):
            out = op(*args)
            if not busy[0]:
                busy[0] = True
                try:
                    assert_same_form(canonical(out), long_hands[name](*args))
                finally:
                    busy[0] = False
                checked[name] += 1
            return out

        return staticmethod(check) if name == "sum" else check

    for name in long_hands:
        monkeypatch.setattr(HomSymbol, name, wrapped(name, getattr(HomSymbol, name)))
    for (metric, weight), depth in (
        (random_instance(1000, kr=5, ky=4), 4),
        (random_instance(41, n=4, kr=4, ky=3), 2),
    ):
        results = [
            factorize_scalar(metric, weight, depth),
            factorize_gauge(metric, gauge_s(metric, weight), depth, weight=weight),
            factorize_gauge(metric, gauge_sigma(metric, weight), depth, weight=weight),
        ]
        assert all(verify_residual(res) is None for res in results)
    assert all(checked.values()), checked


def counted_jet_products(monkeypatch) -> list:
    """A one-entry list that counts the jet products the term loop forms:
    one per jet pair, of a Jet product or inside an XiPoly product."""
    calls = [0]
    term_loop = jets._sum_products

    def counted(space, kr, ky, den, pairs, prepared):
        calls[0] += len(pairs)
        return term_loop(space, kr, ky, den, pairs, prepared)

    monkeypatch.setattr(jets, "_sum_products", counted)
    return calls


def verified_dense_pair():
    """A verified scalar and gauge-s pair of random_instance(1000) at (5,4),
    depth 3."""
    metric, weight = random_instance(1000, kr=5, ky=4)
    results = [
        factorize_scalar(metric, weight, 3),
        factorize_gauge(metric, gauge_s(metric, weight), 3, weight=weight),
    ]
    assert all(verify_residual(res) is None for res in results)


def test_a_verified_factorisation_stays_within_its_jet_product_count(monkeypatch):
    # a work guard: products, jet scalings and derivatives pass their parts
    # over powers of q2 to one canonical form per grade, and the recursion
    # forms each K = 0 product s_m s_l, m != l, once, so a verified scalar
    # and gauge-s pair at (5,4), depth 3, costs 1950 jet products.  Putting
    # each product in canonical form before its grade sum cost 2334, forming
    # s_l s_m as well 2352, multiplying dA and dB by q2 in the quotient rule
    # and dividing it back out 2628, and forming q2 * B1 B2 in products as
    # well 3032
    calls = counted_jet_products(monkeypatch)
    verified_dense_pair()
    assert calls[0] <= 1950


def test_a_verified_factorisation_stays_within_its_q2_division_count(monkeypatch):
    # a work guard: a term that feeds a grade sum hands it its parts, so the
    # grade divides by q2 where the term alone would have, and the pair of
    # the jet product guard makes 105 divide_by_q2 calls.  Putting each
    # product and jet scaling in canonical form first made 205
    calls = [0]
    divide = SymbolContext.divide_by_q2

    def counted(self, poly):
        calls[0] += 1
        return divide(self, poly)

    monkeypatch.setattr(SymbolContext, "divide_by_q2", counted)
    verified_dense_pair()
    assert calls[0] <= 105


@pytest.mark.parametrize("instance", ["y-free", "y-dependent"])
def test_the_verifier_compositions_equal_the_long_hand_composition(instance):
    # compose forms no d_xi chain whose D_y partner is zero.  The zero it
    # puts in its place keeps the product's degree and budgets, so each
    # grade of b # b and of the gauge-s b # a_r has the form of the sum over
    # every chain, budgets included.  A grade's budgets are the least of its
    # terms', which may hide those of a zero term, so every term is compared
    # too, and so is the product with each jet D_y^K a_r the recursion uses
    if instance == "y-free":
        metric, weight = random_instance(41, n=4, kr=5, ky=4, tangentially_constant=True)
    else:
        metric, weight = y_dependent_n4_instance()
    depth, lo = 4, -1
    gauge = gauge_s(metric, weight)
    assert not gauge.a_r.is_zero
    b = factorize_gauge(metric, gauge, depth, weight=weight).symbol
    ar_sym = FormalSymbol.single(HomSymbol.from_jet(metric.ctx, gauge.a_r))
    zeros = 0
    for f, g in ((b, b), (b, ar_sym)):
        out = compose(f, g, lowest=lo)
        assert (out.hi, out.lo) == (f.hi + g.hi, lo)
        for j in out.grades():
            assert_same_form(out.grade(j), long_hand_compose(f, g, j))
            for j1, j2, key, term in long_hand_terms(f, g, j):
                right = g.grade(j2).dy_derivative(key)
                zeros += bool(key) and right.is_zero
                assert_same_form(xi_derivative_times(f.grade(j1), key, right).normalized(), term)
    for j in b.grades():
        for key in ((0,), (1,), (2,), (0, 0), (1, 2)):
            right = gauge.a_r
            for a in key:
                right = right.partial(a + 1)
            zeros += right.is_zero
            right = HomSymbol.from_jet(metric.ctx, right)
            term = b.grade(j).xi_derivative(key) * right
            assert_same_form(xi_derivative_times(b.grade(j), key, right).normalized(), term)
    assert zeros > 0


@pytest.mark.parametrize("n", [3, 4])
def test_the_recursion_multiplies_by_the_d_y_of_the_a_r_symbol(n):
    # the recursion takes D_y^K a_r by hand, on a memoised chain of jets and
    # phases, and hands the product its degree-0 symbol: for every |K| <= 3
    # that symbol is D_y^K of the a_r symbol, budgets included.  A zero
    # carries no phase, so the phases are compared where the value is not
    # zero; both instances have zero and nonzero derivatives
    if n == 3:
        metric, weight = random_instance(3)
    else:
        metric, weight = y_dependent_n4_instance()
    ctx = metric.ctx
    gauge = gauge_s(metric, weight)
    q = compute_q_symbols(metric, weight, gauge)
    recursion = _Recursion(ctx, *q, radial_drift(metric), gauge.a_r)
    a_r = HomSymbol.from_jet(ctx, gauge.a_r)
    zeros = set()
    for k in range(4):
        for key in combinations_with_replacement(range(ctx.nxi), k):
            got, ref = recursion.ar_deriv(key)[2], a_r.dy_derivative(key)
            assert got == ref
            assert (got.degree, got.p, got.kr, got.ky) == (ref.degree, ref.p, ref.kr, ref.ky)
            assert got.a.imag == ref.a.imag or ref.is_zero
            zeros.add(ref.is_zero)
    assert zeros == {True, False}


def test_a_y_free_factorisation_forms_no_xi_derivative(monkeypatch):
    # a work guard: on a tangentially constant collar every D_y^K with
    # |K| >= 1 is zero, so neither the recursion nor the verifier forms a
    # d_xi chain, and a verified scalar and gauge-s pair of this n = 4
    # instance at (5,4), depth 4, costs 2294 jet products.  Forming the
    # chains and multiplying them by zero cost 62 xi-derivatives and 4679
    # jet products
    metric, weight = random_instance(41, n=4, kr=5, ky=4, tangentially_constant=True)
    xi_calls = [0]
    xi_partial = HomSymbol.xi_partial

    def counted_xi(self, a):
        xi_calls[0] += 1
        return xi_partial(self, a)

    monkeypatch.setattr(HomSymbol, "xi_partial", counted_xi)
    jet_calls = counted_jet_products(monkeypatch)
    results = [
        factorize_scalar(metric, weight, 4),
        factorize_gauge(metric, gauge_s(metric, weight), 4, weight=weight),
    ]
    assert all(verify_residual(res) is None for res in results)
    assert xi_calls[0] == 0
    assert jet_calls[0] <= 2294
