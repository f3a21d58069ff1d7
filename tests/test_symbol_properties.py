"""Property tests of exact division by q2 in the symbol layer.

``SymbolContext.divide_by_q2`` refuses a division early when the lowest
(r, y) order of the polynomial is not divisible by q2 at the base point.
Refusing a true multiple of q2 would silently leave a symbol with a higher
denominator power, so these tests divide products Q * q2 on random
positive-definite fibre metrics, including quotients that vanish at the
base point and quotients with zero-divisor coefficients such as r^kr.  The
hypothesis settings come from the ``dncalc`` profile that ``conftest.py``
loads.
"""

import itertools
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from dncalc.jets import JetSpace
from dncalc.symbols import CJet, SymbolContext, XiPoly

SPACES = {n: JetSpace(n) for n in (2, 3, 4)}

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=6)
NONZERO = SMALL.filter(bool)


def slots(n, kr, ky):
    return [
        i for i in itertools.product(range(kr + 1), *[range(ky + 1)] * (n - 1)) if sum(i[1:]) <= ky
    ]


@st.composite
def contexts(draw, dimensions=(2, 3, 4), min_order=0):
    """A fibre metric g^{ab} positive definite at the base point: diagonal
    constants in [1, 2] and off-diagonal ones in [-1/4, 1/4] (diagonally
    dominant for n - 1 <= 3), plus random terms of positive order."""
    n = draw(st.sampled_from(dimensions))
    kr, ky = draw(st.integers(min_order, 3)), draw(st.integers(min_order, 2))
    sp, nxi = SPACES[n], n - 1
    higher = [i for i in slots(n, kr, ky) if any(i)]
    rows = [[None] * nxi for _ in range(nxi)]
    for a in range(nxi):
        for b in range(a, nxi):
            lo, hi = (1, 2) if a == b else (-0.25, 0.25)
            coeffs = {(0,) * n: draw(st.fractions(min_value=lo, max_value=hi, max_denominator=8))}
            if higher:
                coeffs.update(draw(st.dictionaries(st.sampled_from(higher), SMALL, max_size=3)))
            rows[a][b] = rows[b][a] = sp.jet(coeffs, kr, ky)
    return SymbolContext(rows)


#: which terms a quotient's coefficients may have: any, only those of total
#: order >= 1 or >= 2 (vanishing at the base point), or only multiples of
#: r^kr or of y-monomials of degree ky (zero divisors in the truncated jets)
SHAPES = {
    "any": lambda i, kr, ky: True,
    "order1": lambda i, kr, ky: sum(i) >= 1,
    "order2": lambda i, kr, ky: sum(i) >= 2,
    "r^kr": lambda i, kr, ky: i[0] == kr,
    "y^ky": lambda i, kr, ky: sum(i[1:]) == ky,
}


@st.composite
def cjets(draw, ctx, shape, where=lambda i: True):
    n, kr, ky = ctx.space.n, ctx.kr, ctx.ky
    allowed = [i for i in slots(n, kr, ky) if SHAPES[shape](i, kr, ky) and where(i)]
    if not allowed:
        allowed = slots(n, kr, ky)
    indices = st.sampled_from(allowed)
    re = draw(st.dictionaries(indices, NONZERO, min_size=1, max_size=4))
    im = draw(st.dictionaries(indices, NONZERO, max_size=2))
    return CJet(ctx.space.jet(re, kr, ky), ctx.space.jet(im, kr, ky))


def monomials(nxi, deg):
    return [e for e in itertools.product(range(deg + 1), repeat=nxi) if sum(e) == deg]


@st.composite
def polys(draw, ctx, deg, shape, where=lambda e: True, terms=lambda i: True):
    exps = [e for e in monomials(ctx.nxi, deg) if where(e)]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))
    return XiPoly(ctx.nxi, deg, {e: draw(cjets(ctx, shape, terms)) for e in chosen})


@given(st.data())
def test_products_with_q2_divide_back(data):
    ctx = data.draw(contexts())
    shape = data.draw(st.sampled_from(sorted(SHAPES)))
    q = data.draw(polys(ctx, data.draw(st.integers(0, 3)), shape))
    p = q * ctx.q2
    assert ctx._lowest_order_divisible(p)
    quotient = ctx.divide_by_q2(p)
    assert quotient is not None and quotient.deg == q.deg and quotient == q


@given(st.data())
def test_a_nonzero_remainder_is_refused(data):
    # R has xi_1-degree below 2, so it is the remainder of Q * q2 + R; with
    # one fibre variable (n = 2) no such R of degree >= 2 exists
    ctx = data.draw(contexts(dimensions=(3, 4)))
    deg = data.draw(st.integers(0, 3))
    q = data.draw(polys(ctx, deg, data.draw(st.sampled_from(sorted(SHAPES)))))
    r = data.draw(polys(ctx, deg + 2, data.draw(st.sampled_from(sorted(SHAPES))), lambda e: e[0] < 2))
    assert ctx.divide_by_q2(q * ctx.q2 + r) is None


@given(st.data())
def test_coefficients_beyond_the_common_orders_change_no_outcome(data):
    # the long division truncates what it touches to the lowest orders among
    # q2 and the coefficients; the early refusal must accept every division
    # that the long division alone completes
    hi = data.draw(contexts(min_order=1))
    kr, ky = data.draw(st.integers(0, hi.kr - 1)), data.draw(st.integers(0, hi.ky))

    def truncated(v):
        return CJet(v.re.truncated(kr, ky), v.im.truncated(kr, ky))

    deg = data.draw(st.integers(0, 3))
    q = data.draw(polys(hi, deg, data.draw(st.sampled_from(sorted(SHAPES)))))
    beyond = data.draw(polys(hi, deg + 2, "any", terms=lambda i: i[0] > kr or sum(i[1:]) > ky))
    p = q * hi.q2 + beyond
    if data.draw(st.booleans()):  # lower orders on q2
        ctx = SymbolContext([[g.truncated(kr, ky) for g in row] for row in hi.g_upper])
    else:  # lower orders on some coefficients
        ctx = hi
        low = data.draw(st.sets(st.sampled_from(sorted(p.c)), min_size=1))
        p = XiPoly(p.nxi, p.deg, {e: truncated(v) if e in low else v for e, v in p.c.items()})
    with mock.patch.object(SymbolContext, "_lowest_order_divisible", lambda self, poly: True):
        unchecked = ctx.divide_by_q2(p)
    checked = ctx.divide_by_q2(p)
    assert (checked is None) == (unchecked is None)
    assert checked is None or checked == unchecked
