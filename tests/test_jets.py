import itertools
import math
import random

import pytest

from dncalc.errors import (
    BackendError,
    BudgetExhaustedError,
    IncompatibleJetsError,
    NotInvertibleError,
)
from dncalc.jets import (
    _DIRECT_PAIRS,
    MAX_ORDER,
    Jet,
    JetSpace,
    collar_from_radial_orders,
    sums_of_products,
)
from dncalc.symbols import XiPoly
from fractions import Fraction as mpq
from helpers import long_hand_products, long_hand_xi_product, with_budgets


def rational_space(n=3):
    return JetSpace(n)


def random_jet(rng, space, kr, ky, terms=8, unit=False, zero_constant=False):
    coeffs = {}
    for _ in range(terms):
        m = rng.randint(0, kr)
        rest = [0] * (space.n - 1)
        budget = rng.randint(0, min(ky, 2))
        for _ in range(budget):
            rest[rng.randrange(space.n - 1)] += 1
        coeffs[(m, *rest)] = mpq(rng.randint(-3, 3), rng.randint(1, 3))
    if unit:
        coeffs[(0,) * space.n] = mpq(rng.randint(1, 3), 1)
    if zero_constant:
        coeffs.pop((0,) * space.n, None)
    return space.jet(coeffs, kr, ky)


def dense_product_oracle(a, b):
    """Independent convolution over all coefficient pairs, truncated afterwards.

    Deliberately ignores every shortcut the fast path takes: it works on the
    ``Fraction`` view with tuple indices.
    """
    kr, ky = min(a.kr, b.kr), min(a.ky, b.ky)
    out = {}
    for i1, v1 in a.c.items():
        for i2, v2 in b.c.items():
            idx = tuple(x + y for x, y in zip(i1, i2))
            out[idx] = out.get(idx, 0) + v1 * v2
    out = {idx: v for idx, v in out.items() if idx[0] <= kr and sum(idx[1:]) <= ky}
    return a.space.jet(out, kr, ky)


def test_mul_difference_of_squares():
    sp = rational_space()
    r = sp.coordinate(0, 3, 2)
    one = sp.one(3, 2)
    assert (one + r) * (one - r) == one - r * r


def test_mul_identity():
    rng = random.Random(1)
    sp = rational_space()
    a = random_jet(rng, sp, 4, 3)
    assert a * sp.one(4, 3) == a


def test_mul_matches_dense_convolution_oracle():
    rng = random.Random(2)
    sp = rational_space()
    for _ in range(40):
        a = random_jet(rng, sp, rng.randint(1, 5), rng.randint(1, 4))
        b = random_jet(rng, sp, rng.randint(1, 5), rng.randint(1, 4))
        assert a * b == dense_product_oracle(a, b)


def dense_jet(rng, space, kr, ky, den):
    """A jet with a numerator in -4..4, over ``den``, at every monomial
    inside orders (kr, ky)."""
    coeffs = {}
    for m in range(kr + 1):
        for mu in itertools.product(range(ky + 1), repeat=space.n - 1):
            if sum(mu) <= ky:
                coeffs[(m, *mu)] = mpq(rng.randint(-4, 4), den)
    return space.jet(coeffs, kr, ky)


def assert_same_jet(got, ref):
    assert (got.den, got.num, got.kr, got.ky) == (ref.den, ref.num, ref.kr, ref.ky)


@pytest.mark.parametrize("n", [3, 4])
def test_the_term_loop_equals_the_long_hand_convolution(n):
    # Jet products and the sums of products of an XiPoly coefficient run
    # one term loop, which tests each pair below _DIRECT_PAIRS candidate
    # pairs and buckets the right-hand jet above.  Every result must be the
    # Fraction convolution's, orders and lowest terms included: factors of
    # different orders and denominators, zero factors, and sums whose
    # partial sum cancels, which keep the least orders of every product
    rng = random.Random(5 + n)
    sp = JetSpace(n)
    small = [random_jet(rng, sp, kr, ky) for kr, ky in ((2, 1), (3, 2), (4, 3))]
    large = [dense_jet(rng, sp, kr, ky, den) for kr, ky, den in ((4, 3, 6), (5, 3, 35), (3, 4, 1))]
    zeros = [sp.zero(2, 2), sp.zero(5, 4)]
    sizes = set()
    for a in small + large + zeros:
        for b in small + large + zeros:
            sizes.add(len(a.num) * len(b.num) > _DIRECT_PAIRS)
            assert_same_jet(a * b, long_hand_products([(a, b)], 1))
    assert sizes == {False, True}
    x, y = large[0], large[1]
    # at orders (3, 2), below those of x * y
    cancelling = [(small[1], small[2]), (-small[1], small[2])]
    groups = {
        "one": [(x, y)],
        "cancels": cancelling,
        "cancels first": cancelling + [(x, y)],
        "zero factor": [(zeros[0], y), (small[2], x)],
        "shared right": [(small[0], y), (small[1], y), (large[2], y)],
    }
    for sign in (1, -1):
        got = sums_of_products(groups, sign)
        assert "cancels" not in got
        for key, pairs in groups.items():
            if key != "cancels":
                assert_same_jet(got[key], long_hand_products(pairs, sign))
    assert (got["cancels first"].kr, got["cancels first"].ky) == (3, 2)


def test_an_xipoly_product_equals_the_long_hand_products():
    # each coefficient of an XiPoly product is one sum over the term loop:
    # coefficients of different orders and denominators share right-hand
    # jets across monomials, one monomial's partial sum cancels before a
    # product of higher orders joins it, and i * i negates
    rng = random.Random(17)
    sp = JetSpace(3)
    lo = dense_jet(rng, sp, 2, 2, 3)
    hi = dense_jet(rng, sp, 4, 3, 10)
    left = {(2, 0): lo, (1, 1): -lo, (0, 2): hi}
    right = {(0, 2): lo, (1, 1): lo, (2, 0): hi}
    for imag in itertools.product((False, True), repeat=2):
        p = XiPoly(2, 2, left, imag[0])
        q = XiPoly(2, 2, right, imag[1])
        got = p * q
        ref = long_hand_xi_product(p, q)
        assert got.imag == (imag[0] != imag[1])
        assert got.c.keys() == ref.keys()
        for e, v in got.c.items():
            assert_same_jet(v, ref[e])
        # (2,0)(0,2) and (1,1)(1,1) cancel, and (0,2)(2,0) carries (4,3)
        assert (got.c[2, 2].kr, got.c[2, 2].ky) == (2, 2)
        # an empty operand: no products, the summed degree and the phase
        for pair in ((p, XiPoly(2, 1, {}, imag[1])), (XiPoly(2, 1, {}, imag[0]), q)):
            got = pair[0] * pair[1]
            assert long_hand_xi_product(*pair) == got.c == {}
            assert (got.deg, got.imag) == (3, imag[0] != imag[1])


def test_ring_axioms_on_random_jets():
    rng = random.Random(3)
    sp = rational_space()
    for _ in range(20):
        a = random_jet(rng, sp, 4, 3)
        b = random_jet(rng, sp, 4, 3)
        c = random_jet(rng, sp, 4, 3)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_space_mismatch_raises():
    a = JetSpace(3).one(2, 2)
    b = JetSpace(4).one(2, 2)
    with pytest.raises(IncompatibleJetsError):
        a * b
    c = JetSpace(3, base_point="q").one(2, 2)
    with pytest.raises(IncompatibleJetsError):
        a + c


def test_reciprocal_trivial_and_geometric():
    sp = rational_space()
    one = sp.one(4, 2)
    assert one.reciprocal() == one
    r = sp.coordinate(0, 4, 2)
    expected = sp.jet({(m, 0, 0): 1 for m in range(5)}, 4, 2)
    assert (one - r).reciprocal() == expected


def test_reciprocal_round_trip_random():
    rng = random.Random(4)
    sp = rational_space()
    for _ in range(15):
        a = random_jet(rng, sp, 4, 3, unit=True)
        assert a * a.reciprocal() == sp.one(4, 3)


def test_reciprocal_requires_unit():
    sp = rational_space()
    with pytest.raises(NotInvertibleError):
        sp.coordinate(0, 3, 1).reciprocal()


def test_sqrt_trivial_and_perfect_square():
    sp = rational_space()
    one = sp.one(4, 2)
    assert one.sqrt() == one
    r = sp.coordinate(0, 4, 2)
    sq = one + r.scale(2) + r * r
    assert sq.sqrt() == one + r


def test_sqrt_round_trip_random():
    rng = random.Random(5)
    sp = rational_space()
    for _ in range(15):
        a = random_jet(rng, sp, 4, 3, zero_constant=True)
        a = a + 1  # positive perfect-square-free unit; square it first
        s = (a * a).sqrt()
        assert s * s == a * a
        assert s.constant_term() > 0


def test_sqrt_rejects_bad_constant_terms():
    sp = rational_space()
    with pytest.raises(NotInvertibleError):
        (sp.one(2, 2) - sp.one(2, 2) * 2).sqrt()
    with pytest.raises(BackendError):
        sp.constant(2, 2, 2).sqrt()  # irrational in the exact backend


def test_partial_basics():
    sp = rational_space()
    r = sp.coordinate(0, 3, 2)
    y1 = sp.coordinate(1, 3, 2)
    f = r * r * y1
    assert f.partial(0) == r.truncated(2, 2) * y1.truncated(2, 2) * 2
    assert (r * r).partial(1).is_zero


def test_partial_commutes():
    rng = random.Random(6)
    sp = rational_space()
    for _ in range(15):
        a = random_jet(rng, sp, 4, 3)
        assert a.partial(0).partial(1) == a.partial(1).partial(0)


def test_partial_budget_errors():
    sp = rational_space()
    flatjet = sp.one(0, 0)
    with pytest.raises(BudgetExhaustedError):
        flatjet.partial(0)
    with pytest.raises(BudgetExhaustedError):
        flatjet.partial(1)


def test_exp_series_and_inverse_identity():
    sp = rational_space()
    assert sp.zero(3, 2).exp() == sp.one(3, 2)
    r = sp.coordinate(0, 4, 0)
    expected = sp.jet({(m, 0, 0): mpq(1, math.factorial(m)) for m in range(5)}, 4, 0)
    assert r.exp() == expected
    rng = random.Random(7)
    for _ in range(10):
        a = random_jet(rng, sp, 4, 3, zero_constant=True)
        assert a.exp() * (-a).exp() == sp.one(4, 3)


def test_exp_rational_backend_requires_zero_constant():
    sp = rational_space()
    with pytest.raises(BackendError):
        sp.one(2, 2).exp()


def test_log_inverts_exp():
    rng = random.Random(8)
    sp = rational_space()
    for _ in range(10):
        a = random_jet(rng, sp, 4, 3, zero_constant=True)
        assert a.exp().log() == a


def test_nth_root():
    sp = rational_space()
    one = sp.one(4, 2)
    r = sp.coordinate(0, 4, 2)
    cube = (one + r) * (one + r) * (one + r)
    assert cube.nth_root(3) == one + r


def test_truncation_alignment():
    sp = rational_space()
    a = sp.jet({(3, 0, 0): 1, (0, 2, 0): 1}, 3, 2)
    b = sp.one(2, 1)
    c = a + b
    assert c.kr == 2 and c.ky == 1
    assert (3, 0, 0) not in c.c and (0, 2, 0) not in c.c


def test_radial_coefficient_helpers():
    sp = rational_space()
    r = sp.coordinate(0, 3, 2)
    y1 = sp.coordinate(1, 3, 2)
    f = r * r * y1.scale(mpq(1, 2))
    d2 = f.radial_derivative_at_zero(2)
    assert d2 == sp.jet({(0, 1, 0): 1}, 0, 2)
    rebuilt = collar_from_radial_orders(
        sp, [sp.zero(0, 2), sp.zero(0, 2), d2], 3, 2
    )
    assert rebuilt == f


def test_restricted_to_boundary():
    sp = rational_space()
    r = sp.coordinate(0, 3, 2)
    y1 = sp.coordinate(1, 3, 2)
    f = (r + y1) * (r + y1)
    g = f.restricted_to_boundary()
    assert g.kr == 0
    assert g == sp.jet({(0, 2, 0): 1}, 0, 2)


def test_equal_jets_hash_equal_across_truncation_orders():
    sp = rational_space()
    assert sp.one(3, 2) == sp.one(4, 2)
    assert hash(sp.one(3, 2)) == hash(sp.one(4, 2))
    assert len({sp.one(3, 2), sp.one(4, 2)}) == 1
    r = sp.coordinate(0, 3, 2)
    assert r + 1 == with_budgets(r + 1, 5, 4)
    assert len({r + 1, with_budgets(r + 1, 5, 4), (r + 1).truncated(0, 0)}) == 1
    # a jet equal to a scalar hashes like that scalar
    assert sp.constant(mpq(3, 4), 2, 2) == mpq(3, 4)
    assert hash(sp.constant(mpq(3, 4), 2, 2)) == hash(mpq(3, 4))


def test_orders_beyond_a_key_field_are_rejected():
    sp = rational_space()
    big = MAX_ORDER + 1
    builders = [
        lambda kr, ky: sp.zero(kr, ky),
        lambda kr, ky: sp.one(kr, ky),
        lambda kr, ky: sp.constant(2, kr, ky),
        lambda kr, ky: sp.coordinate(1, kr, ky),
        lambda kr, ky: sp.jet({(0, 0, 0): 1}, kr, ky),
        lambda kr, ky: with_budgets(sp.one(0, 0), kr, ky),
        lambda kr, ky: collar_from_radial_orders(sp, [sp.one(0, 0)], kr, ky),
    ]
    for build in builders:
        for kr, ky, name in ((big, 0, "radial"), (0, big, "tangential"), (-1, 0, "radial")):
            with pytest.raises(IncompatibleJetsError) as info:
                build(kr, ky)
            message = str(info.value)
            assert name in message and str(kr if name == "radial" else ky) in message
            assert str(MAX_ORDER) in message
        assert build(MAX_ORDER, MAX_ORDER).kr == MAX_ORDER
