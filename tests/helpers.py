"""Representation helpers that only tests need.

Each builds an equivalent representation of a value the package computes,
so that a test can check that an answer does not depend on the choice.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add

from dncalc.symbols import UNRESTRICTED, HomSymbol, XiPoly, inv_factorial


def with_budgets(jet, kr, ky):
    """The jet with re-declared truncation orders, which the jet constructor
    validates.  Lower orders truncate; raising one asserts that the dropped
    tail is genuinely zero."""
    kept = jet.truncated(min(kr, jet.kr), min(ky, jet.ky))
    return jet.space.jet(kept.c, kr, ky)


def least_budgets(ctx, degree, a, b, p):
    """The symbol (a + b w) / q2^p whose budgets are the least truncation
    orders of its coefficients, UNRESTRICTED when both parts are zero."""
    kr = min([v.kr for poly in (a, b) for v in poly.c.values()], default=UNRESTRICTED)
    ky = min([v.ky for poly in (a, b) for v in poly.c.values()], default=UNRESTRICTED)
    return HomSymbol(ctx, degree, a, b, p, kr, ky)


def eval_pair(sym, xi):
    """(even, odd) parts of a HomSymbol at a rational fibre point as degree-0
    polynomials, which carry the phase: the symbol value is
    even + odd * w(xi)."""
    ev, od = sym.eval_jets(xi)
    nxi = sym.ctx.nxi
    e0 = (0,) * nxi
    return XiPoly(nxi, 0, {e0: ev}, sym.a.imag), XiPoly(nxi, 0, {e0: od}, sym.b.imag)


def rescaled(dn, unit):
    """The equivalent representation (s * t, density^2 / t^2) of DN data for
    a positive unit jet t; the observable s * sqrt(density^2) is unchanged."""
    assert unit.constant_term() > 0
    t = unit.restricted_to_boundary()
    factor = HomSymbol.from_jet(dn.ctx, t)
    sym = dn.symbol.map_components(lambda s: s * factor)
    dsq = dn.density_sq * (t * t).reciprocal()
    return replace(dn, symbol=sym, density_sq=dsq)


def long_hand_products(pairs, sign):
    """sign times the sum of a * b over the jet pairs (a, b), by the
    Fraction convolution of their ``Jet.c`` views, at the least orders of
    all the pairs' products."""
    kr = min(min(a.kr, b.kr) for a, b in pairs)
    ky = min(min(a.ky, b.ky) for a, b in pairs)
    out = {}
    for a, b in pairs:
        for i1, v1 in a.c.items():
            for i2, v2 in b.c.items():
                idx = tuple(map(add, i1, i2))
                if idx[0] <= kr and sum(idx[1:]) <= ky:
                    out[idx] = out.get(idx, 0) + sign * v1 * v2
    return pairs[0][0].space.jet(out, kr, ky)


def long_hand_xi_product(p, q):
    """The coefficients of the XiPoly product p * q: each the
    ``long_hand_products`` of the coefficient pairs whose monomials multiply
    to it, negated when both are imaginary (i * i = -1), zero sums left
    out."""
    groups = {}
    for e1, v1 in p.c.items():
        for e2, v2 in q.c.items():
            groups.setdefault(tuple(map(add, e1, e2)), []).append((v1, v2))
    sign = -1 if p.imag and q.imag else 1
    coeffs = {e: long_hand_products(pairs, sign) for e, pairs in groups.items()}
    return {e: v for e, v in coeffs.items() if not v.is_zero}


def long_hand_product(s, t):
    """s * t by the defining formula: w * w rewritten to q2 in the even part,
    then every common q2 factor divided back out by normalisation."""
    ctx = s.ctx
    deg = s.degree + t.degree
    kr, ky = min(s.kr, t.kr), min(s.ky, t.ky)
    if s.is_zero or t.is_zero:
        return HomSymbol.zero(ctx, deg, kr, ky)
    a = s.a * t.a + (s.b * t.b) * ctx.q2
    b = s.a * t.b + s.b * t.a
    return HomSymbol(ctx, deg, a, b, s.p + t.p, kr, ky).normalized()


def long_hand_quotient_rule(s, name, direction):
    """``getattr(s, name)(direction)`` for ``xi_partial`` or ``base_partial``
    by the quotient rule on (A + B w)/q2^p: (dA q2 - p A dq2,
    dB q2 + (1 - 2p)/2 B dq2) over q2^(p+1), then normalised."""
    ctx, p = s.ctx, s.p
    kr, ky = min(s.kr, ctx.kr), min(s.ky, ctx.ky)
    if name == "xi_partial":
        degree, dq2 = s.degree - 1, ctx.q2_xi[direction]
    else:
        degree, dq2 = s.degree, ctx.q2_base_partial(direction)
        kr, ky = (kr - 1, ky) if direction == 0 else (kr, ky - 1)
    da, db = getattr(s.a, name)(direction), getattr(s.b, name)(direction)
    na = da * ctx.q2
    nb = db * ctx.q2 + (s.b * dq2).scale(Fraction(1 - 2 * p, 2))
    if p:
        na = na - (s.a * dq2).scale(p)
    return HomSymbol(ctx, degree, na, nb, p + 1, kr, ky).normalized()


def long_hand_sum(terms, ctx, degree):
    """HomSymbol.sum by the defining formula: every nonzero term raised to
    the top power by products with q2, the numerators added, then
    normalised.  The budgets are the least of every term's."""
    kr = min([t.kr for t in terms], default=UNRESTRICTED)
    ky = min([t.ky for t in terms], default=UNRESTRICTED)
    nonzero = [t for t in terms if not t.is_zero]
    if not nonzero:
        return HomSymbol.zero(ctx, degree, kr, ky)
    top = max(t.p for t in nonzero)
    acc_a = acc_b = None
    for t in nonzero:
        a, b = t.a, t.b
        for _ in range(top - t.p):
            a, b = a * ctx.q2, b * ctx.q2
        acc_a = a if acc_a is None else acc_a + a
        acc_b = b if acc_b is None else acc_b + b
    return HomSymbol(ctx, degree, acc_a, acc_b, top, kr, ky).normalized()


def long_hand_div_2b1(s):
    """s times -w / (2 q2) by the defining formula, then normalised."""
    ctx = s.ctx
    a = (s.b * ctx.q2).scale(Fraction(-1, 2))
    b = s.a.scale(Fraction(-1, 2))
    kr, ky = min(s.kr, ctx.kr), min(s.ky, ctx.ky)
    return HomSymbol(ctx, s.degree - 1, a, b, s.p + 1, kr, ky).normalized()


def long_hand_terms(f, g, grade):
    """The products (j1, j2, K, d^K_xi f_j1 D^K_y g_j2) that grade ``grade``
    of f # g sums, each chain d^K_xi f_j1 formed, also where D^K_y g_j2 is
    zero."""
    for j1 in f.grades():
        for j2 in g.grades():
            k = j1 + j2 - grade
            if k < 0:
                continue
            for key in combinations_with_replacement(range(f.ctx.nxi), k):
                yield j1, j2, key, f.comps[j1].xi_derivative(key) * g.comps[j2].dy_derivative(key)


def long_hand_compose(f, g, grade):
    """Grade ``grade`` of sum_K 1/K! d^K_xi f D^K_y g over every product of
    ``long_hand_terms``."""
    terms = [
        term.scale(inv_factorial(key)) if key else term
        for _, _, key, term in long_hand_terms(f, g, grade)
    ]
    return HomSymbol.sum(terms, f.ctx, grade)


def assert_same_form(got, ref):
    """Equal values, the same power and budgets, and the same coefficient
    jets term by term, truncation orders included."""
    assert got == ref
    assert (got.degree, got.p, got.kr, got.ky) == (ref.degree, ref.p, ref.kr, ref.ky)
    for g, r in ((got.a, ref.a), (got.b, ref.b)):
        assert g.c.keys() == r.c.keys()
        for e, v in g.c.items():
            assert (v.kr, v.ky, v.den, v.num) == (r.c[e].kr, r.c[e].ky, r.c[e].den, r.c[e].num)
