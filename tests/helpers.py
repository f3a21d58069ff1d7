"""Representation helpers that only tests need.

Each builds an equivalent representation of a value the package computes,
so that a test can check that an answer does not depend on the choice.
"""

from dataclasses import replace
from fractions import Fraction

from dncalc.symbols import HomSymbol, XiPoly


def with_budgets(jet, kr, ky):
    """The jet with re-declared truncation orders, which the jet constructor
    validates.  Lower orders truncate; raising one asserts that the dropped
    tail is genuinely zero."""
    kept = jet.truncated(min(kr, jet.kr), min(ky, jet.ky))
    return jet.space.jet(kept.c, kr, ky)


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
    sym = dn.symbol.map_components(lambda s: s.scale(t))
    dsq = dn.density_sq * (t * t).reciprocal()
    return replace(dn, symbol=sym, density_sq=dsq)


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


def long_hand_div_2b1(s):
    """s times -w / (2 q2) by the defining formula, then normalised."""
    ctx = s.ctx
    a = (s.b * ctx.q2).scale(Fraction(-1, 2))
    b = s.a.scale(Fraction(-1, 2))
    kr, ky = min(s.kr, ctx.kr), min(s.ky, ctx.ky)
    return HomSymbol(ctx, s.degree - 1, a, b, s.p + 1, kr, ky).normalized()
