import random
from itertools import product

import pytest

from dncalc.errors import DepthError, IncompatibleJetsError
from dncalc.jets import JetSpace
from dncalc.randomgen import random_instance
from fractions import Fraction as mpq
from dncalc.symbols import (
    FormalSymbol,
    HomSymbol,
    SymbolContext,
    XiPoly,
    compose,
    xi_derivative_times,
)
from helpers import (
    assert_same_form,
    eval_pair,
    least_budgets,
    long_hand_div_2b1,
    long_hand_product,
    long_hand_quotient_rule,
    long_hand_sum,
    with_budgets,
)


def euclidean_ctx(n=3, kr=4, ky=3):
    sp = JetSpace(n)
    gu = [
        [sp.one(kr, ky) if a == b else sp.zero(kr, ky) for b in range(n - 1)]
        for a in range(n - 1)
    ]
    return SymbolContext(gu)


def radial_ctx(n=3, kr=4, ky=3):
    """g^{ab} = delta^{ab} (1 + r): the simplest r-dependent fibre metric."""
    sp = JetSpace(n)
    one_r = sp.one(kr, ky) + sp.coordinate(0, kr, ky)
    gu = [
        [one_r if a == b else sp.zero(kr, ky) for b in range(n - 1)]
        for a in range(n - 1)
    ]
    return SymbolContext(gu)


def random_ctx(rng, n=3, kr=4, ky=3):
    sp = JetSpace(n)
    nxi = n - 1
    gu = [[None] * nxi for _ in range(nxi)]
    for a in range(nxi):
        for b in range(a, nxi):
            coeffs = {}
            for _ in range(4):
                m = rng.randint(0, 2)
                rest = [0] * nxi
                if rng.random() < 0.7:
                    rest[rng.randrange(nxi)] += rng.randint(0, 1)
                coeffs[(m, *rest)] = mpq(rng.randint(-1, 1), rng.randint(2, 4))
            base = mpq(1) if a == b else mpq(0)
            coeffs[(0,) * n] = base + mpq(rng.randint(-1, 1), 8)
            gu[a][b] = sp.jet(coeffs, kr, ky)
            gu[b][a] = gu[a][b]
    return SymbolContext(gu)


def random_symbol(rng, ctx, degree, p=1, terms=3, kind=None):
    """A random symbol of type ``kind`` (drawn when not given): a coefficient
    of a degree-d part is real exactly when d + kind is even, as for every
    symbol of a real operator."""
    sp = ctx.space
    nxi = ctx.nxi
    if kind is None:
        kind = rng.randint(0, 1)

    def rand_jet():
        coeffs = {}
        for _ in range(2):
            m = rng.randint(0, 2)
            rest = [0] * nxi
            rest[rng.randrange(nxi)] = rng.randint(0, 1)
            coeffs[(m, *rest)] = mpq(rng.randint(-2, 2), rng.randint(1, 2))
        return sp.jet(coeffs, ctx.kr, ctx.ky)

    def rand_poly(deg):
        imag = (deg + kind) % 2 == 1
        if deg < 0:
            return XiPoly(nxi, deg, {}, imag)
        coeffs = {}
        for _ in range(terms):
            e = [0] * nxi
            for _ in range(deg):
                e[rng.randrange(nxi)] += 1
            coeffs[tuple(e)] = rand_jet()
        return XiPoly(nxi, deg, coeffs, imag)

    return least_budgets(ctx, degree, rand_poly(degree + 2 * p), rand_poly(degree + 2 * p - 1), p).normalized()


def rand_xi(rng, nxi):
    return tuple(mpq(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(nxi))


def eval_state(sym, xi):
    # degree-0 polynomials compare their phases too
    return eval_pair(sym, xi)


def test_normalize_cancels_q2():
    ctx = euclidean_ctx()
    raw = least_budgets(ctx, 0, ctx.q2, XiPoly(ctx.nxi, 1, {}), 1)
    norm = raw.normalized()
    assert norm.p == 0
    assert norm == HomSymbol.from_jet(ctx, ctx.space.one(ctx.kr, ctx.ky))


def test_w_squared_is_q2():
    ctx = radial_ctx()
    w = HomSymbol.xi_norm(ctx)
    assert w * w == HomSymbol.q2_symbol(ctx)
    assert (-w) * (-w) == HomSymbol.q2_symbol(ctx)


def test_equality_iff_evaluations_agree():
    rng = random.Random(11)
    ctx = random_ctx(rng)
    for _ in range(6):
        kind = rng.randint(0, 1)  # a difference needs one type
        a = random_symbol(rng, ctx, degree=rng.choice([0, 1, -1]), kind=kind)
        b = random_symbol(rng, ctx, degree=a.degree, kind=kind)
        samples = [rand_xi(rng, ctx.nxi) for _ in range(20)]
        agree = all(eval_state(a, xi) == eval_state(b, xi) for xi in samples)
        assert agree == ((a - b).is_zero)
        assert a == a
        assert all(eval_state(a, xi) == eval_state(a.normalized(), xi) for xi in samples[:5])


def test_mul_matches_pointwise_evaluation():
    rng = random.Random(12)
    ctx = random_ctx(rng)
    for _ in range(6):
        a = random_symbol(rng, ctx, degree=1, p=1)
        b = random_symbol(rng, ctx, degree=0, p=1)
        prod = a * b
        for _ in range(4):
            xi = rand_xi(rng, ctx.nxi)
            ae, ao = eval_pair(a, xi)
            be, bo = eval_pair(b, xi)
            pe, po = eval_pair(prod, xi)
            q2 = XiPoly(ctx.nxi, 0, {(0,) * ctx.nxi: ctx.q2_value(xi)})
            # (ae + ao w)(be + bo w) = ae be + ao bo q2 + (ae bo + ao be) w
            assert pe == ae * be + (ao * bo) * q2
            assert po == ae * bo + ao * be


def test_xi_partial_of_norm_euclidean():
    ctx = euclidean_ctx()
    w = HomSymbol.xi_norm(ctx)
    d = (-w).xi_partial(0)
    # -xi_1/||xi'||: odd part -xi_1, denominator power 1
    e1 = [0] * ctx.nxi
    e1[0] = 1
    expected = least_budgets(
        ctx,
        0,
        XiPoly(ctx.nxi, 2, {}),
        XiPoly(ctx.nxi, 1, {tuple(e1): -ctx.space.one(ctx.kr, ctx.ky)}),
        1,
    )
    assert d == expected


def test_xi_partial_of_q2():
    rng = random.Random(13)
    ctx = random_ctx(rng)
    q2 = HomSymbol.q2_symbol(ctx)
    for a in range(ctx.nxi):
        d = q2.xi_partial(a)
        # 2 g^{ab} xi_b
        coeffs = []
        for b in range(ctx.nxi):
            coeffs.append(ctx.g_upper[a][b].scale(2))
        assert d == HomSymbol.linear_form(ctx, coeffs)


def test_euler_homogeneity_identity():
    rng = random.Random(14)
    ctx = random_ctx(rng)
    for degree in (1, 0, -1):
        s = random_symbol(rng, ctx, degree)
        acc = HomSymbol.zero(ctx, degree)
        for a in range(ctx.nxi):
            xi_a = [ctx.space.zero(ctx.kr, ctx.ky)] * ctx.nxi
            xi_a[a] = ctx.space.one(ctx.kr, ctx.ky)
            acc = acc + HomSymbol.linear_form(ctx, xi_a) * s.xi_partial(a)
        assert acc == s.scale(degree)


def test_base_partial_radial_metric():
    ctx = radial_ctx()
    w = HomSymbol.xi_norm(ctx)
    d = (-w).base_partial(0)
    # -(delta^{ab} xi_a xi_b) / (2w) for g^{ab} = delta^{ab}(1+r)
    nxi = ctx.nxi
    coeffs = {}
    for a in range(nxi):
        e = [0] * nxi
        e[a] = 2
        coeffs[tuple(e)] = ctx.space.constant(mpq(-1, 2), ctx.kr, ctx.ky)
    expected = least_budgets(ctx, 1, XiPoly(nxi, 3, {}), XiPoly(nxi, 2, coeffs), 1)
    assert d == expected


def test_base_partial_tangential_constant_metric():
    ctx = euclidean_ctx()
    w = HomSymbol.xi_norm(ctx)
    assert w.scale(5).base_partial(1).is_zero


def test_leibniz_rule():
    rng = random.Random(15)
    ctx = random_ctx(rng)
    for direction in (0, 1):
        a = random_symbol(rng, ctx, 1)
        b = random_symbol(rng, ctx, 0)
        lhs = (a * b).base_partial(direction)
        rhs = a.base_partial(direction) * b + a * b.base_partial(direction)
        assert lhs == rhs
    a = random_symbol(rng, ctx, 1)
    b = random_symbol(rng, ctx, 0)
    for alpha in range(ctx.nxi):
        lhs = (a * b).xi_partial(alpha)
        rhs = a.xi_partial(alpha) * b + a * b.xi_partial(alpha)
        assert lhs == rhs


def test_homogeneity_under_scaling():
    rng = random.Random(16)
    ctx = random_ctx(rng)
    lam = mpq(3, 2)
    for degree in (1, 0, -2):
        s = random_symbol(rng, ctx, degree)
        for _ in range(3):
            xi = rand_xi(rng, ctx.nxi)
            lxi = tuple(lam * x for x in xi)
            ev, od = eval_pair(s, xi)
            lev, lod = eval_pair(s, lxi)
            # value scales by lam^j; w(l xi) = lam w(xi) so odd parts pick up
            # an extra lam^{-1} relative to lam^j
            assert lev == ev.scale(lam**degree)
            assert lod == od.scale(lam ** (degree - 1))


def test_div_2b1_inverts_multiplication():
    rng = random.Random(17)
    ctx = random_ctx(rng)
    w = HomSymbol.xi_norm(ctx)
    b1 = -w
    for degree in (0, -1):
        s = random_symbol(rng, ctx, degree)
        assert (s * b1.scale(2)).div_2b1() == s
        assert s.div_2b1() * b1.scale(2) == s


def test_degree_mismatch_raises():
    ctx = euclidean_ctx()
    with pytest.raises(IncompatibleJetsError):
        HomSymbol.xi_norm(ctx) + HomSymbol.q2_symbol(ctx)


def test_a_zero_term_keeps_its_budgets_in_a_sum():
    # a truncated term that cancels to zero still bounds the precision of
    # the sum, as it does in a + b
    rng = random.Random(19)
    ctx = euclidean_ctx()
    a = random_symbol(rng, ctx, 0)
    low = HomSymbol.from_jet(ctx, ctx.space.one(2, 1))
    zero = low - low
    assert zero.is_zero and (zero.kr, zero.ky) == (2, 1)
    assert (a.kr, a.ky) == (4, 3)
    total = HomSymbol.sum([a, zero], ctx, 0)
    assert (total.kr, total.ky) == ((a + zero).kr, (a + zero).ky) == (2, 1)
    assert total == a + zero
    only_zero = HomSymbol.sum([zero], ctx, 0)
    assert only_zero.is_zero and (only_zero.kr, only_zero.ky) == (2, 1)


def test_no_symbol_is_exact_beyond_its_context():
    # no symbol is exact beyond the metric it is built over: its budgets are
    # cut to the context's when it is built, a jet deeper than the context
    # and a symbol without budgets of its own included
    metric, _ = random_instance(5, kr=3, ky=2)
    ctx = metric.ctx
    sp = ctx.space
    assert (ctx.kr, ctx.ky) == (3, 2)
    deep = sp.jet({(0, 0, 0): mpq(1), (2, 1, 0): mpq(3), (5, 0, 0): mpq(2), (0, 0, 4): mpq(7)}, 6, 5)
    jet_sym = HomSymbol.from_jet(ctx, deep)
    symbols = [
        HomSymbol.zero(ctx, 0),
        HomSymbol.zero(ctx, -2),
        jet_sym,
        HomSymbol.linear_form(ctx, [deep, deep * deep]),
        HomSymbol.sum([], ctx, 0),
        FormalSymbol(ctx, {}, 1, -1).grade(0),
        FormalSymbol.single(jet_sym).grade(-1),
        FormalSymbol.single(jet_sym).grade(2),
        jet_sym.xi_partial(0),
    ]
    for sym in symbols:
        assert (sym.kr, sym.ky) == (ctx.kr, ctx.ky)
    (coeff,) = jet_sym.a.c.values()
    assert (coeff.kr, coeff.ky) == (ctx.kr, ctx.ky)
    assert coeff == sp.jet({(0, 0, 0): mpq(1), (2, 1, 0): mpq(3)}, 3, 2)
    bctx = metric.restricted_to_boundary().ctx
    edge = HomSymbol.zero(ctx, 0).restricted_to_boundary(bctx)
    assert edge.is_zero and (edge.kr, edge.ky) == (0, bctx.ky) == (0, 2)


def test_compose_with_identity():
    rng = random.Random(18)
    ctx = random_ctx(rng)
    one = FormalSymbol.single(HomSymbol.from_jet(ctx, ctx.space.one(ctx.kr, ctx.ky)))
    comps = {j: random_symbol(rng, ctx, j) for j in (1, 0, -1)}
    s = FormalSymbol(ctx, comps, 1, -1)
    left = compose(s, one, lowest=-1)
    right = compose(one, s, lowest=-1)
    for j in (1, 0, -1):
        assert left.grade(j) == s.grade(j)
        assert right.grade(j) == s.grade(j)


def test_compose_constant_coefficients_is_pointwise_product():
    # flat metric, coefficients without base dependence: all D^K terms vanish
    ctx = euclidean_ctx()
    sp = ctx.space
    nxi = ctx.nxi
    w = HomSymbol.xi_norm(ctx)
    c1 = -w
    c0 = HomSymbol.from_jet(ctx, sp.constant(mpq(1, 2), ctx.kr, ctx.ky))
    f = FormalSymbol(ctx, {1: c1, 0: c0}, 1, 0)
    prod = compose(f, f, lowest=1)
    for j in prod.grades():
        direct = HomSymbol.zero(ctx, j)
        for j1 in (1, 0):
            j2 = j - j1
            if j2 in (1, 0):
                direct = direct + f.grade(j1) * f.grade(j2)
        assert prod.grade(j) == direct


def test_a_composition_of_two_exact_symbols_claims_no_exact_tail():
    # lowest cuts the grades below it off, and they need not be zero: grade 0
    # of (V xi_1 + V^2 xi_2) # V is d_xi of the first times D_y V
    metric, v = random_instance(3)
    ctx = metric.ctx
    f = FormalSymbol.single(HomSymbol.linear_form(ctx, [v, v * v]))
    g = FormalSymbol.single(HomSymbol.from_jet(ctx, v))
    assert not compose(f, g, lowest=-1).grade(0).is_zero
    with pytest.raises(DepthError):
        compose(f, g, lowest=1).grade(0)


def test_compose_associativity_to_depth():
    rng = random.Random(19)
    ctx = random_ctx(rng)
    fs = []
    for _ in range(3):
        kind = rng.randint(0, 1)  # one type for all grades, as a real operator has
        comps = {j: random_symbol(rng, ctx, j, p=1, terms=2, kind=kind) for j in (1, 0)}
        fs.append(FormalSymbol(ctx, comps, 1, 0))
    f, g, h = fs
    lhs = compose(compose(f, g, lowest=1), h, lowest=2)
    rhs = compose(f, compose(g, h, lowest=1), lowest=2)
    lo = max(lhs.lo, rhs.lo)
    for j in range(lo, min(lhs.hi, rhs.hi) + 1):
        assert lhs.grade(j) == rhs.grade(j)


def test_q2_factor_above_the_base_order_still_normalises():
    # every coefficient of r * q2 * X vanishes at the base point, so the early
    # test of the q2 division reads the order-1 terms, q2(0) times those of r X
    rng = random.Random(23)
    ctx = random_ctx(rng)
    r = ctx.space.coordinate(0, ctx.kr, ctx.ky)
    for _ in range(4):
        x = random_symbol(rng, ctx, degree=rng.choice([0, 1, -1]))
        rx = x * HomSymbol.from_jet(ctx, r)
        raw = least_budgets(ctx, x.degree, ctx.q2 * rx.a, ctx.q2 * rx.b, rx.p + 1)
        assert all(not v.constant_term() for v in raw.a.c.values())
        norm = raw.normalized()
        assert norm.p == raw.p - 1
        assert norm == rx


def test_divisible_base_point_part_with_indivisible_order_one_part_keeps_p():
    ctx = random_ctx(random.Random(29))
    nxi, one = ctx.nxi, ctx.space.one(ctx.kr, ctx.ky)
    r = ctx.space.coordinate(0, ctx.kr, ctx.ky)
    x = XiPoly(nxi, 2, {(2, 0): one})
    y = XiPoly(nxi, 1, {(0, 1): one})
    # q2 * x passes the early test at order 0, and r * xi_2^4 is no multiple
    # of q2(0) at order 1, so only the long division refuses the division
    raw = least_budgets(ctx, 2, ctx.q2 * x + XiPoly(nxi, 4, {(0, 4): r}), ctx.q2 * y, 1)
    assert ctx._lowest_order_divisible(raw.a)
    assert ctx.divide_by_q2(raw.a) is None
    assert raw.normalized().p == 1
    # the same remainder at order 0 is refused by the early test itself
    assert not ctx._lowest_order_divisible(ctx.q2 * x + XiPoly(nxi, 4, {(0, 4): one}))
    assert ctx.divide_by_q2(ctx.q2 * y) == y


def test_sum_of_unlike_phases_raises():
    ctx = random_ctx(random.Random(31))
    nxi, one = ctx.nxi, ctx.space.one(ctx.kr, ctx.ky)
    real = XiPoly(nxi, 1, {(1, 0): one})
    imag = XiPoly(nxi, 1, {(0, 1): one}, imag=True)
    with pytest.raises(IncompatibleJetsError):
        real + imag
    with pytest.raises(IncompatibleJetsError):
        imag - real
    # zero takes either phase, and unlike phases never compare equal
    assert real + XiPoly(nxi, 1, {}, imag=True) == real
    assert real != real.times_i()
    w = HomSymbol.xi_norm(ctx)
    with pytest.raises(IncompatibleJetsError):
        w + w.times_i()
    assert w != w.times_i()


def test_i_times_i_negates():
    ctx = random_ctx(random.Random(32))
    x = random_symbol(random.Random(33), ctx, 0).a
    ix = x.times_i()
    assert ix.imag != x.imag
    assert ix * ix == -(x * x) and (ix * ix).imag == (x * x).imag
    assert ix.times_i() == -x and ix.times_minus_i() == x
    w = HomSymbol.xi_norm(ctx)
    assert w.times_i() * w.times_i() == -HomSymbol.q2_symbol(ctx)
    assert w.times_i() * w.times_minus_i() == HomSymbol.q2_symbol(ctx)
    # D_y flips the phase: the drift of q1 is i times a real linear form
    s = random_symbol(random.Random(34), ctx, 1, kind=0)
    assert s.d_y(0).a.imag != s.a.imag or s.d_y(0).a.is_zero


def test_terms_beyond_the_common_orders_do_not_block_a_q2_division():
    # R's only term, r^(kr+1), lies beyond q2's orders, so Q * q2 + R is Q * q2
    # in the jets truncated at the common orders; R's monomial xi_2 xi_3^2 is
    # no monomial of Q * q2, so the long division never touches it
    ctx = euclidean_ctx(n=4, kr=2, ky=2)
    sp, nxi, kr, ky = ctx.space, ctx.nxi, ctx.kr, ctx.ky
    q = XiPoly(nxi, 1, {(1, 0, 0): sp.one(kr, ky), (0, 0, 1): sp.coordinate(1, kr, ky)})
    r = XiPoly(nxi, 3, {(0, 1, 2): sp.jet({(kr + 1, 0, 0, 0): 1}, kr + 1, ky)})
    assert ctx.divide_by_q2(q * ctx.q2 + r) == q
    # the same through normalisation, with budgets above q2's orders
    raw = HomSymbol(ctx, 1, q * ctx.q2 + r, XiPoly(nxi, 2, {}), 1, kr + 1, ky)
    assert raw.normalized().p == 0


def rebuilt(sym):
    """A new symbol from the same parts and budgets, so its memo is empty."""
    return HomSymbol(sym.ctx, sym.degree, sym.a, sym.b, sym.p, sym.kr, sym.ky)


def test_memoised_derivative_chains_equal_fresh_ones():
    # every chain of length <= 3, in every order of its directions, walks the
    # memo of each symbol on the way; the reference rebuilds the symbol before
    # each step, so it never reads a memo
    rng = random.Random(43)
    ctx = random_ctx(rng, n=4)
    keys = [key for k in (1, 2, 3) for key in product(range(ctx.nxi), repeat=k)]
    for kind, p in ((0, 1), (1, 1), (0, 2), (1, 2)):
        sym = random_symbol(rng, ctx, degree=rng.choice([0, -1]), p=p, kind=kind)
        assert sym.p >= 1
        for chain, step in (("xi_derivative", "xi_partial"), ("dy_derivative", "d_y")):
            for key in keys:
                got = getattr(sym, chain)(key)
                ref = sym
                for a in key:
                    ref = getattr(rebuilt(ref), step)(a)
                assert (got.p, got.kr, got.ky) == (ref.p, ref.kr, ref.ky)
                assert got.a == ref.a and got.b == ref.b
                assert getattr(sym, chain)(key) is got
        assert sym.d_r() is sym.d_r()
        assert sym.d_r().a == rebuilt(sym).base_partial(0).a
        assert sym.d_r().b == rebuilt(sym).base_partial(0).b


SHAPES = ("A", "B", "AB")


def shaped(sym, shape):
    """``sym`` with only the parts that ``shape`` names: A, B or both."""
    nxi = sym.ctx.nxi
    a = sym.a if "A" in shape else XiPoly(nxi, sym.a.deg, {}, sym.a.imag)
    b = sym.b if "B" in shape else XiPoly(nxi, sym.b.deg, {}, sym.b.imag)
    return HomSymbol(sym.ctx, sym.degree, a, b, sym.p, sym.kr, sym.ky)


def part_factors(rng, ctx):
    """Factors of every part shape, keyed by (shape, kind of factor): "p1"
    over q2, "p0" a polynomial, and "q2" a polynomial whose numerator holds
    q2, so that a product with a "p1" factor drops its first power."""
    q2 = HomSymbol.q2_symbol(ctx)
    out = {}
    for shape in SHAPES:
        kind = rng.randint(0, 1)
        over = random_symbol(rng, ctx, rng.choice([0, -1]), p=1, kind=kind)
        poly = random_symbol(rng, ctx, rng.choice([0, 1]), p=0, kind=kind)
        assert over.p == 1
        out[shape, "p1"] = shaped(over, shape)
        out[shape, "p0"] = shaped(poly, shape)
        out[shape, "q2"] = long_hand_product(q2, shaped(poly, shape))
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_a_product_and_div_2b1_equal_the_long_hand_formula(n):
    rng = random.Random(47 + n)
    ctx = random_ctx(rng, n=n)
    factors = part_factors(rng, ctx)
    sp = ctx.space
    deep = sp.jet({(0,) * n: 2, (ctx.kr + 1,) + (0,) * (n - 1): 3}, ctx.kr + 1, ctx.ky + 1)
    extra = [HomSymbol.q2_symbol(ctx), HomSymbol.from_jet(ctx, deep)]
    lowered = set()
    for (s1, k1), f in factors.items():
        for (s2, k2), g in factors.items():
            if k1 == "q2" and k2 == "q2":
                continue
            ref = long_hand_product(f, g)
            assert_same_form(f * g, ref)
            if ref.p < f.p + g.p:
                lowered.add((s1, k1, s2, k2))
        for g in extra:
            assert_same_form(f * g, long_hand_product(f, g))
            assert_same_form(g * f, long_hand_product(g, f))
        assert_same_form(f.div_2b1(), long_hand_div_2b1(f))
    for g in extra:
        assert_same_form(g.div_2b1(), long_hand_div_2b1(g))
    # first drops with B1 B2 nonzero: w^2 / q2 alone, and over q2 times q2
    assert {("B", "p1", "B", "p0"), ("B", "p1", "AB", "q2"), ("AB", "q2", "AB", "p1")} <= lowered
    # div_2b1 drops a power when q2 divides A, and keeps it when not
    assert factors["A", "q2"].div_2b1().p == 0
    assert factors["A", "p0"].div_2b1().p == 1


def test_a_refused_first_drop_divides_by_q2_at_most_twice(monkeypatch):
    # B1 = 0 and B2 holds q2, so A1 B2 divides and A1 A2 does not.  The
    # derivative of the canonical f and its sum with a polynomial divide
    # their zero odd part and are refused on the even one
    rng = random.Random(53)
    ctx = random_ctx(rng)
    f = shaped(random_symbol(rng, ctx, 0, p=1, kind=0), "A")
    g = random_symbol(rng, ctx, 3, p=0, kind=0)
    y = XiPoly(ctx.nxi, 0, {(0,) * ctx.nxi: ctx.space.coordinate(0, ctx.kr, ctx.ky)}, g.b.imag)
    g = least_budgets(ctx, 3, g.a, ctx.q2 * y, 0)
    h = random_symbol(rng, ctx, 0, p=0, kind=0)
    assert f.p == 1 and ctx.divide_by_q2(f.a * g.b) is not None
    cases = [
        (lambda: f * g, long_hand_product(f, g)),
        (lambda: f.xi_partial(0), long_hand_quotient_rule(f, "xi_partial", 0)),
        (lambda: HomSymbol.sum([f, h], ctx, 0), long_hand_sum([f, h], ctx, 0)),
    ]
    assert [ref.p for _, ref in cases] == [1, 2, 1]
    calls = [0]
    divide = SymbolContext.divide_by_q2

    def counted(self, poly):
        calls[0] += 1
        return divide(self, poly)

    monkeypatch.setattr(SymbolContext, "divide_by_q2", counted)
    for op, ref in cases:
        calls[0] = 0
        got = op()
        assert calls[0] <= 2
        assert_same_form(got, ref)


def test_a_first_drop_divides_at_the_orders_of_the_whole_even_part():
    # f = (A1 + B1 w) / q2 and g = xi_1 + i w, whose parts' coefficients
    # stop at different radial orders: the even part AA + BB q2 of f * g
    # divides at its least orders, which BB sets in the first product and
    # AA in the second
    ctx = random_ctx(random.Random(59))
    sp, nxi, kr, ky = ctx.space, ctx.nxi, ctx.kr, ctx.ky
    one, r = sp.one(kr, ky), sp.coordinate(0, kr, ky)
    low = sp.one(kr - 1, ky)
    x = XiPoly(nxi, 1, {(1, 0): one, (0, 1): r})
    g = least_budgets(ctx, 1, XiPoly(nxi, 1, {(1, 0): one}), XiPoly(nxi, 0, {(0, 0): one}, True), 0)
    # A1 = q2 x + r^kr xi_2^3 is a multiple of q2 only below radial order kr
    rk = sp.jet({(kr, 0, 0): 1}, kr, ky)
    a1 = ctx.q2 * x + XiPoly(nxi, 3, {(0, 3): rk})
    b1 = ctx.q2 * XiPoly(nxi, 0, {(0, 0): low}, True)
    f = HomSymbol(ctx, 1, a1, b1, 1, kr, ky)
    got, ref = f * g, long_hand_product(f, g)
    assert ref.p == 0
    assert_same_form(got, ref)
    # A1 stops at radial order kr - 1 and B1 at kr
    a1 = (ctx.q2 * x).truncated(kr - 1, ky)
    b1 = ctx.q2 * XiPoly(nxi, 0, {(0, 0): one + r}, True)
    f = HomSymbol(ctx, 1, a1, b1, 1, kr, ky)
    got, ref = f * g, long_hand_product(f, g)
    assert ref.p == 0
    assert_same_form(got, ref)
    # div_2b1 of q2 x + B w, where B's coefficients stop at both orders
    b = XiPoly(nxi, 2, {(2, 0): low, (0, 2): one + r}, True)
    h = HomSymbol(ctx, 3, ctx.q2 * x, b, 0, kr, ky)
    got, ref = h.div_2b1(), long_hand_div_2b1(h)
    assert ref.p == 0
    assert_same_form(got, ref)


def over_q2(sym):
    """``sym`` over one more power of q2, with q2 times its numerators, so
    that the top numerators of its derivatives divide."""
    ctx = sym.ctx
    return HomSymbol(ctx, sym.degree, ctx.q2 * sym.a, ctx.q2 * sym.b, sym.p + 1, sym.kr, sym.ky)


def assert_derivatives_equal_the_long_hand_formula(sym):
    for a in range(sym.ctx.nxi):
        assert_same_form(sym.xi_partial(a), long_hand_quotient_rule(sym, "xi_partial", a))
    for d in range(sym.ctx.space.n):
        assert_same_form(sym.base_partial(d), long_hand_quotient_rule(sym, "base_partial", d))


@pytest.mark.parametrize("n", [3, 4])
def test_a_derivative_and_a_sum_equal_the_long_hand_formula(n):
    rng = random.Random(61 + n)
    # radial_ctx depends on r alone, so d q2 / dy = 0
    for ctx in (random_ctx(rng, n=n), radial_ctx(n)):
        sp, nxi, kr, ky = ctx.space, ctx.nxi, ctx.kr, ctx.ky
        zero = (0,) * n
        deep = sp.jet({zero: 2, (1,) + zero[1:]: 3, (kr + 1,) + zero[1:]: 1}, kr + 1, ky + 1)
        syms = [HomSymbol.from_jet(ctx, deep)]
        for p in (0, 1, 2):
            for shape in SHAPES:
                sym = shaped(random_symbol(rng, ctx, rng.choice([0, -1]), p=p), shape)
                assert sym.p == p
                syms += [sym, over_q2(sym)]
        # coefficients that stop at different orders: the quotient of the
        # top numerator joins dA at the least of them
        low, one = sp.one(kr - 1, ky) + sp.coordinate(1, kr - 1, ky), sp.one(kr, ky)
        e1, e2 = (1,) + (0,) * (nxi - 1), (0,) * (nxi - 1) + (1,)
        x = XiPoly(nxi, 1, {e1: low, e2: one + sp.coordinate(0, kr, ky)})
        y = XiPoly(nxi, 0, {(0,) * nxi: one - sp.coordinate(n - 1, kr, ky)}, True)
        syms.append(HomSymbol(ctx, -1, ctx.q2 * x, ctx.q2 * y, 2, kr, ky))
        for sym in syms:
            assert_derivatives_equal_the_long_hand_formula(sym)
        # the one departure from the long hand: the parts divide at the
        # orders of all their coefficients, the long hand at those of the
        # coefficients its sum keeps.  d/d xi_n-1 of (q2 x)/q2 cancels the
        # low-order term of x in value; where no other term shares its
        # monomials (radial_ctx), the long hand drops those orders, and the
        # parts keep them
        sym = HomSymbol(ctx, 1, ctx.q2 * x, ctx.q2 * y, 1, kr, ky)
        got = sym.xi_partial(nxi - 1)
        ref = long_hand_quotient_rule(sym, "xi_partial", nxi - 1)
        assert got == ref and (got.p, got.kr, got.ky) == (ref.p, ref.kr, ref.ky)
        assert {(v.kr, v.ky) for v in got.a.c.values()} == {(kr - 1, ky)}

        def check_sum(terms):
            got = HomSymbol.sum(terms, ctx, -1)
            assert_same_form(got, long_hand_sum(terms, ctx, -1))
            return got

        t0, t1, t2 = (random_symbol(rng, ctx, -1, p=p, kind=1) for p in (0, 1, 2))
        f = random_symbol(rng, ctx, -1, p=1, kind=1)
        # q2 f.a - t2.a over q2^2: the top numerators of t2 + u cancel to q2 f
        u = least_budgets(ctx, -1, ctx.q2 * f.a - t2.a, ctx.q2 * f.b - t2.b, 2)
        assert check_sum([t2, u]).p < 2
        assert check_sum([t2, u, t1, t0]).p < 2
        for terms in ([t0, t2], [t1, t0], [t2, t1, t0], [t0, t1, t2, -t1]):
            check_sum(terms)
        # the top divides at the low orders of x and the power-1 term joins
        # at them
        hi = HomSymbol(ctx, -1, ctx.q2 * x, ctx.q2 * y, 2, kr, ky)
        assert check_sum([hi, t1]).p < 2
        # the term r^kr xi_(n-1)^3 blocks the division of the even part at
        # radial order kr; a zero term's budgets truncate the sum below it
        rk = sp.jet({(kr,) + zero[1:]: 1}, kr, ky)
        xk = x.truncated(kr - 1, ky).map_coeffs(lambda c: with_budgets(c, kr, ky))
        even = ctx.q2 * xk + XiPoly(nxi, 3, {(0,) * (nxi - 1) + (3,): rk})
        v = least_budgets(ctx, -1, even, ctx.q2 * y, 2)
        assert HomSymbol.sum([v], ctx, -1).p == 2
        assert check_sum([HomSymbol.zero(ctx, -1, kr - 1, ky), v]).p < 2


@pytest.mark.parametrize("n", [3, 4])
def test_a_product_with_a_zero_d_y_factor_keeps_the_long_hand_budgets(n):
    # xi_derivative_times forms no d_xi chain whose D_y partner is zero, and
    # returns the zero the product would be.  Factors whose budgets lie
    # above the context's, and a y-free jet multiplier whose d_y is a zero
    # of those budgets, pin each of the three budgets it takes the least of
    rng = random.Random(71 + n)
    for ctx in (random_ctx(rng, n=n), radial_ctx(n)):
        sp, kr, ky = ctx.space, ctx.kr, ctx.ky
        zero = (0,) * n
        deep = sp.jet({zero: 2, (1,) + zero[1:]: 3, (kr + 1,) + zero[1:]: 1}, kr + 1, ky + 4)
        y_dep = deep + sp.coordinate(n - 1, kr + 1, ky + 4)
        fs = [HomSymbol.from_jet(ctx, deep), random_symbol(rng, ctx, 0), HomSymbol.xi_norm(ctx)]
        # at K = 0 only a zero factor gives a zero product
        gs = fs + [HomSymbol.from_jet(ctx, y_dep), HomSymbol.zero(ctx, 0)]
        zeros = 0
        for key in ((), (0,), (n - 2,), (0, n - 2), (0, 0, n - 2)):
            for f in fs:
                for g in gs:
                    right = g.dy_derivative(key)
                    zeros += right.is_zero
                    ref = f.xi_derivative(key) * right
                    assert_same_form(xi_derivative_times(f, key, right).normalized(), ref)
                for jet in (deep, y_dep):
                    for a in key:
                        jet = jet.partial(a + 1)
                    zeros += jet.is_zero
                    right = HomSymbol.from_jet(ctx, jet)
                    ref = f.xi_derivative(key) * right
                    assert_same_form(xi_derivative_times(f, key, right).normalized(), ref)
        assert zeros > 0
