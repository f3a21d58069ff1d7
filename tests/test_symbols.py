import random
from itertools import product

import pytest

from dncalc.errors import IncompatibleJetsError
from dncalc.jets import JetSpace
from dncalc.scalars import mpq
from dncalc.symbols import FormalSymbol, HomSymbol, SymbolContext, XiPoly, compose
from helpers import eval_pair


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

    return HomSymbol(ctx, degree, rand_poly(degree + 2 * p), rand_poly(degree + 2 * p - 1), p).normalized()


def rand_xi(rng, nxi):
    return tuple(mpq(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(nxi))


def eval_state(sym, xi):
    # degree-0 polynomials compare their phases too
    return eval_pair(sym, xi)


def test_normalize_cancels_q2():
    ctx = euclidean_ctx()
    raw = HomSymbol(ctx, 0, ctx.q2, XiPoly(ctx.nxi, 1, {}), 1)
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
            q2 = ctx.q2_value(xi)
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
    expected = HomSymbol(
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
    expected = HomSymbol(ctx, 1, XiPoly(nxi, 3, {}), XiPoly(nxi, 2, coeffs), 1)
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


def test_compose_with_identity():
    rng = random.Random(18)
    ctx = random_ctx(rng)
    one = FormalSymbol.single(HomSymbol.from_jet(ctx, ctx.space.one(ctx.kr, ctx.ky)))
    comps = {j: random_symbol(rng, ctx, j) for j in (1, 0, -1)}
    s = FormalSymbol(ctx, comps, 1, -1)
    left = compose(s, one)
    right = compose(one, s)
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
    prod = compose(f, f)
    for j in prod.grades():
        direct = HomSymbol.zero(ctx, j)
        for j1 in (1, 0):
            j2 = j - j1
            if j2 in (1, 0):
                direct = direct + f.grade(j1) * f.grade(j2)
        assert prod.grade(j) == direct


def test_compose_associativity_to_depth():
    rng = random.Random(19)
    ctx = random_ctx(rng)
    fs = []
    for _ in range(3):
        kind = rng.randint(0, 1)  # one type for all grades, as a real operator has
        comps = {j: random_symbol(rng, ctx, j, p=1, terms=2, kind=kind) for j in (1, 0)}
        fs.append(FormalSymbol(ctx, comps, 1, 0))
    f, g, h = fs
    lhs = compose(compose(f, g), h)
    rhs = compose(f, compose(g, h))
    lo = max(lhs.lo, rhs.lo)
    for j in range(lo, min(lhs.hi, rhs.hi) + 1):
        assert lhs.grade(j) == rhs.grade(j)


def test_formal_symbol_add_respects_exact_tails():
    ctx = euclidean_ctx()
    q = FormalSymbol.single(HomSymbol.q2_symbol(ctx))
    b = FormalSymbol(
        ctx, {1: -HomSymbol.xi_norm(ctx), 0: HomSymbol.zero(ctx, 0)}, 1, 0
    )
    s = q + b
    assert s.lo == 0 and s.hi == 2
    assert s.grade(2) == HomSymbol.q2_symbol(ctx)


def test_q2_factor_above_the_base_order_still_normalises():
    # every coefficient of r * q2 * X vanishes at the base point, so the early
    # test of the q2 division reads the order-1 terms, q2(0) times those of r X
    rng = random.Random(23)
    ctx = random_ctx(rng)
    r = ctx.space.coordinate(0, ctx.kr, ctx.ky)
    for _ in range(4):
        x = random_symbol(rng, ctx, degree=rng.choice([0, 1, -1]))
        rx = x.scale(r)
        raw = HomSymbol(ctx, x.degree, ctx.q2 * rx.a, ctx.q2 * rx.b, rx.p + 1)
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
    raw = HomSymbol(ctx, 2, ctx.q2 * x + XiPoly(nxi, 4, {(0, 4): r}), ctx.q2 * y, 1)
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
