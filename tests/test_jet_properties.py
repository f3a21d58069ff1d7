"""Property tests of the jet arithmetic against plain Fraction-dict references.

Each reference works on {multi-index tuple: Fraction} dicts with no shared
code with ``dncalc.jets``: it is the textbook definition of the operation,
followed by truncation to the result's orders.  The hypothesis settings
come from the ``dncalc`` profile that ``conftest.py`` loads.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dncalc.jets import JetSpace
from helpers import with_budgets

SPACES = {n: JetSpace(n) for n in (2, 3, 4)}


def inside(idx, kr, ky):
    return idx[0] <= kr and sum(idx[1:]) <= ky


def ref_truncate(d, kr, ky):
    return {i: v for i, v in d.items() if v and inside(i, kr, ky)}


def ref_add(d1, d2, kr, ky, sign=1):
    out = dict(ref_truncate(d1, kr, ky))
    for i, v in ref_truncate(d2, kr, ky).items():
        out[i] = out.get(i, Fraction(0)) + sign * v
    return ref_truncate(out, kr, ky)


def ref_mul(d1, d2, kr, ky):
    out = {}
    for i1, v1 in d1.items():
        for i2, v2 in d2.items():
            i = tuple(a + b for a, b in zip(i1, i2))
            out[i] = out.get(i, Fraction(0)) + v1 * v2
    return ref_truncate(out, kr, ky)


def ref_partial(d, direction):
    out = {}
    for i, v in d.items():
        if i[direction]:
            j = list(i)
            j[direction] -= 1
            out[tuple(j)] = v * i[direction]
    return out


def ref_radial_coefficient(d, m):
    return {(0,) + i[1:]: v for i, v in d.items() if i[0] == m}


def canonical(jet):
    """The stored form is the unique one: den > 0, lowest terms, no zeros."""
    return (
        jet.den > 0
        and math.gcd(jet.den, *jet.num.values()) == 1
        and all(jet.num.values())
        and (jet.num or jet.den == 1)
    )


def agrees(jet, d, kr, ky):
    return (jet.kr, jet.ky) == (kr, ky) and dict(jet.c) == ref_truncate(d, kr, ky) and canonical(jet)


@st.composite
def jets(draw, n, kr_range=(0, 4), ky_range=(0, 3), min_terms=0, max_terms=12):
    kr = draw(st.integers(*kr_range))
    ky = draw(st.integers(*ky_range))
    slots = [
        i for i in itertools.product(range(kr + 1), *[range(ky + 1)] * (n - 1)) if inside(i, kr, ky)
    ]
    indices = st.sampled_from(slots)
    values = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    coeffs = draw(st.dictionaries(indices, values, min_size=min_terms, max_size=max_terms))
    return SPACES[n].jet(coeffs, kr, ky), coeffs, kr, ky


@st.composite
def pairs(draw, dimensions=(2, 3, 4), **sizes):
    n = draw(st.sampled_from(dimensions))
    return draw(jets(n, **sizes)), draw(jets(n, **sizes))


@st.composite
def singles(draw):
    return draw(jets(draw(st.sampled_from((2, 3, 4)))))


@given(pairs())
def test_add_sub_mul_match_fraction_references(pair):
    (a, da, akr, aky), (b, db, bkr, bky) = pair
    kr, ky = min(akr, bkr), min(aky, bky)
    assert agrees(a, da, akr, aky) and agrees(b, db, bkr, bky)
    assert agrees(a + b, ref_add(da, db, kr, ky), kr, ky)
    assert agrees(a - b, ref_add(da, db, kr, ky, -1), kr, ky)
    assert agrees(a * b, ref_mul(da, db, kr, ky), kr, ky)
    assert agrees(-a, {i: -v for i, v in da.items()}, akr, aky)


@settings(max_examples=40)
@given(pairs((3, 4), kr_range=(4, 5), ky_range=(3, 4), min_terms=30, max_terms=45))
def test_large_products_match_fraction_reference(pair):
    # dense enough that products take the bucketed path
    (a, da, akr, aky), (b, db, bkr, bky) = pair
    kr, ky = min(akr, bkr), min(aky, bky)
    assert agrees(a * b, ref_mul(da, db, kr, ky), kr, ky)


@given(pairs())
def test_inputs_that_cancel_give_the_canonical_zero(pair):
    (a, da, akr, aky), (b, db, bkr, bky) = pair
    kr, ky = min(akr, bkr), min(aky, bky)
    for zero in (a - a, a + (-a), (a + b) - a - b, a * b - b * a, a.scale(0)):
        assert zero.is_zero and zero.den == 1 and canonical(zero)
    # partial cancellation: the sum keeps only b's terms, over b's own denominator
    assert agrees((a + b) - a, ref_truncate(db, kr, ky), kr, ky)


@given(singles(), st.fractions(min_value=-6, max_value=6, max_denominator=9))
def test_scale_matches_fraction_reference(single, q):
    a, da, kr, ky = single
    assert agrees(a.scale(q), {i: v * q for i, v in da.items()}, kr, ky)
    assert agrees(a * q, {i: v * q for i, v in da.items()}, kr, ky)


@given(singles(), st.data())
def test_calculus_matches_fraction_references(single, data):
    a, da, kr, ky = single
    n = a.space.n
    for direction in range(n):
        budget = kr if direction == 0 else ky
        if budget:
            okr, oky = (kr - 1, ky) if direction == 0 else (kr, ky - 1)
            assert agrees(a.partial(direction), ref_partial(da, direction), okr, oky)
    m = data.draw(st.integers(0, kr))
    assert agrees(a.radial_coefficient(m), ref_radial_coefficient(da, m), 0, ky)
    assert agrees(a.restricted_to_boundary(), ref_radial_coefficient(da, 0), 0, ky)
    tkr, tky = data.draw(st.integers(0, kr)), data.draw(st.integers(0, ky))
    assert agrees(a.truncated(tkr, tky), da, tkr, tky)


@given(pairs(), st.data())
def test_equal_jets_from_different_routes_hash_equal(pair, data):
    (a, _, akr, aky), (b, _, bkr, bky) = pair
    sp = a.space
    c = data.draw(jets(sp.n))[0]
    routes = [
        ((a + b) * c, a * c + b * c),
        (a * b, b * a),
        (a + a, a.scale(2)),
        (a, with_budgets(a, akr + 1, aky + 2)),
        (a.truncated(0, 0), sp.constant(a.constant_term(), 3, 1)),
        (sp.one(akr, aky) * a, a),
        ((a - b) + b, a.truncated(bkr, bky)),
    ]
    for x, y in routes:
        assert x == y and y == x
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


@settings(max_examples=60)
@given(singles(), st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
def test_series_functions_invert_each_other(single, c):
    # a jet u vanishing at the base point, and a = c + u with constant term c
    a0, _, kr, ky = single
    u = a0 - a0.constant_term()
    a = u + c
    assert a * a.reciprocal() == 1 and a.reciprocal().reciprocal() == a
    assert (a * a).sqrt() == (a if c > 0 else -a)
    if c > 0:
        assert (a * a * a).nth_root(3) == a
    assert u.exp().log() == u
    one_u = u + 1
    assert one_u.log().exp() == one_u
    assert (u.scale(2)).exp() == u.exp() * u.exp()
    assert (one_u * one_u).log() == one_u.log().scale(2)
    assert all(x.kr == kr and x.ky == ky for x in (a.reciprocal(), u.exp(), one_u.log()))
