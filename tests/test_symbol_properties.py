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
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dncalc.jets import JetSpace
from dncalc.symbols import SymbolContext, XiPoly
from helpers import least_budgets

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
def jets(draw, ctx, shape, where=lambda i: True):
    n, kr, ky = ctx.space.n, ctx.kr, ctx.ky
    allowed = [i for i in slots(n, kr, ky) if SHAPES[shape](i, kr, ky) and where(i)]
    if not allowed:
        allowed = slots(n, kr, ky)
    coeffs = draw(st.dictionaries(st.sampled_from(allowed), NONZERO, min_size=1, max_size=4))
    return ctx.space.jet(coeffs, kr, ky)


def monomials(nxi, deg):
    return [e for e in itertools.product(range(deg + 1), repeat=nxi) if sum(e) == deg]


@st.composite
def polys(draw, ctx, deg, shape, where=lambda e: True, terms=lambda i: True, imag=None):
    """A polynomial of one phase: real, or i times real coefficients; the
    phase is drawn unless given."""
    exps = [e for e in monomials(ctx.nxi, deg) if where(e)]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))
    if imag is None:
        imag = draw(st.booleans())
    return XiPoly(ctx.nxi, deg, {e: draw(jets(ctx, shape, terms)) for e in chosen}, imag)


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
    shape = data.draw(st.sampled_from(sorted(SHAPES)))
    r = data.draw(polys(ctx, deg + 2, shape, lambda e: e[0] < 2, imag=q.imag))
    assert ctx.divide_by_q2(q * ctx.q2 + r) is None


@given(st.data())
def test_coefficients_beyond_the_common_orders_change_no_outcome(data):
    # the division truncates every coefficient to the lowest orders among q2
    # and the coefficients; the early refusal must accept every division
    # that the long division alone completes
    hi = data.draw(contexts(min_order=1))
    kr, ky = data.draw(st.integers(0, hi.kr - 1)), data.draw(st.integers(0, hi.ky))

    deg = data.draw(st.integers(0, 3))
    q = data.draw(polys(hi, deg, data.draw(st.sampled_from(sorted(SHAPES)))))
    beyond = data.draw(
        polys(hi, deg + 2, "any", terms=lambda i: i[0] > kr or sum(i[1:]) > ky, imag=q.imag)
    )
    p = q * hi.q2 + beyond
    if data.draw(st.booleans()):  # lower orders on q2
        ctx = SymbolContext([[g.truncated(kr, ky) for g in row] for row in hi.g_upper])
    else:  # lower orders on some coefficients
        ctx = hi
        low = data.draw(st.sets(st.sampled_from(sorted(p.c)), min_size=1))
        p = XiPoly(
            p.nxi,
            p.deg,
            {e: v.truncated(kr, ky) if e in low else v for e, v in p.c.items()},
            p.imag,
        )
    with mock.patch.object(SymbolContext, "_lowest_order_divisible", lambda self, poly: True):
        unchecked = ctx.divide_by_q2(p)
    checked = ctx.divide_by_q2(p)
    assert (checked is None) == (unchecked is None)
    assert checked is None or checked == unchecked


# ---------------------------------------------------------------------------
# symbol operations against an independent evaluation at the base point
#
# A symbol's value at r = 0, y = 0 and a rational fibre point xi is
# even + odd * w with w = sqrt(q2(0, xi)).  The reference below reads the
# coefficient jets' constant terms (and, for D_y, their linear y terms) as
# Fractions, and carries the phases as exact Gaussian rationals (re, im);
# it shares no code with the symbol arithmetic.


def g_add(*zs):
    return (sum(z[0] for z in zs), sum(z[1] for z in zs))


def g_mul(z, u):
    return (z[0] * u[0] - z[1] * u[1], z[0] * u[1] + z[1] * u[0])


def g_scale(z, q):
    return (z[0] * q, z[1] * q)


def read(jet, idx):
    return jet.c.get(idx, Fraction(0))


def poly_value(poly, xi, idx, partial=None):
    """The polynomial (or its d/d xi_partial) at xi, from the coefficients'
    terms at the multi-index idx."""
    total = Fraction(0)
    for e, jet in poly.c.items():
        mono = Fraction(read(jet, idx))
        for a, (x, k) in enumerate(zip(xi, e)):
            if a == partial:
                mono *= k * x ** (k - 1) if k else 0
            else:
                mono *= x**k
        total += mono
    return (Fraction(0), total) if poly.imag else (total, Fraction(0))


def q2_value(ctx, xi, idx, partial=None):
    """q2 = g^{ab} xi_a xi_b (or its d/d xi_partial) from the metric's terms
    at idx, without the context's own q2 polynomial."""
    total = Fraction(0)
    for a in range(ctx.nxi):
        for b in range(ctx.nxi):
            g = read(ctx.g_upper[a][b], idx)
            if partial is None:
                total += g * xi[a] * xi[b]
            else:
                total += g * ((a == partial) * xi[b] + (b == partial) * xi[a])
    return total


def value(sym, xi):
    """(even, odd) at the base point."""
    zero = (0,) * sym.ctx.space.n
    den = q2_value(sym.ctx, xi, zero) ** sym.p
    return tuple(g_scale(poly_value(part, xi, zero), 1 / den) for part in (sym.a, sym.b))


def derivative_value(sym, xi, idx=None, xi_partial=None):
    """(even, odd) of a first derivative of sym at the base point: by the
    base variable whose unit multi-index is idx, or by xi_{xi_partial}.
    From (A + B w) / q2^p and dw = dq2 / (2 w):
    even' = A' / q2^p - p A dq2 / q2^(p+1) and
    odd' = B' / q2^p + (1/2 - p) B dq2 / q2^(p+1)."""
    ctx, p = sym.ctx, sym.p
    zero = (0,) * ctx.space.n
    q2 = q2_value(ctx, xi, zero)
    if xi_partial is None:
        da, db = (poly_value(part, xi, idx) for part in (sym.a, sym.b))
        dq2 = q2_value(ctx, xi, idx)
    else:
        da, db = (poly_value(part, xi, zero, xi_partial) for part in (sym.a, sym.b))
        dq2 = q2_value(ctx, xi, zero, xi_partial)
    a, b = (poly_value(part, xi, zero) for part in (sym.a, sym.b))
    even = g_add(g_scale(da, 1 / q2**p), g_scale(a, -p * dq2 / q2 ** (p + 1)))
    odd = g_add(g_scale(db, 1 / q2**p), g_scale(b, (Fraction(1, 2) - p) * dq2 / q2 ** (p + 1)))
    return even, odd


@st.composite
def symbols(draw, ctx, kind=None):
    """A homogeneous symbol of type ``kind`` (drawn when not given): a
    coefficient of a degree-d part is real exactly when d + kind is even."""
    if kind is None:
        kind = draw(st.integers(0, 1))
    degree, p = draw(st.integers(-2, 1)), draw(st.integers(0, 2))

    def part(deg):
        imag = (deg + kind) % 2 == 1
        if deg < 0:
            return XiPoly(ctx.nxi, deg, {}, imag)
        return draw(polys(ctx, deg, "any", imag=imag))

    return least_budgets(ctx, degree, part(degree + 2 * p), part(degree + 2 * p - 1), p)


FIBRE = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def fibre_point(data, ctx):
    return tuple(data.draw(st.lists(FIBRE, min_size=ctx.nxi, max_size=ctx.nxi)))


@settings(max_examples=60)
@given(st.data())
def test_products_and_derivatives_match_the_evaluation(data):
    ctx = data.draw(contexts(min_order=1))
    s, t = data.draw(symbols(ctx)), data.draw(symbols(ctx))
    xi = fibre_point(data, ctx)
    q2 = q2_value(ctx, xi, (0,) * ctx.space.n)
    assume(q2)
    (se, so), (te, to) = value(s, xi), value(t, xi)
    # (se + so w)(te + to w) = se te + so to q2 + (se to + so te) w
    expected = (g_add(g_mul(se, te), g_scale(g_mul(so, to), q2)), g_add(g_mul(se, to), g_mul(so, te)))
    assert value(s * t, xi) == expected
    # times -w / (2 q2): (se + so w)(-w / (2 q2)) = -so / 2 - se / (2 q2) w
    assert value(s.div_2b1(), xi) == (g_scale(so, Fraction(-1, 2)), g_scale(se, -1 / (2 * q2)))
    for a in range(ctx.nxi):
        assert value(s.xi_partial(a), xi) == derivative_value(s, xi, xi_partial=a)
        # D_y = -i d_y, with d_y read from the linear y-terms
        idx = tuple(int(i == a + 1) for i in range(ctx.space.n))
        even, odd = derivative_value(s, xi, idx=idx)
        assert value(s.d_y(a), xi) == (g_mul(even, (0, -1)), g_mul(odd, (0, -1)))
