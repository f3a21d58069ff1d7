"""Classical homogeneous symbols on the boundary cotangent fibre.

A homogeneous symbol of degree j is stored in the canonical form

    (A(x, xi') + B(x, xi') * w) / q2^p

where q2 = g^{ab} xi_a xi_b is the principal quadratic form of the tangential
part of the operator, w = sqrt(q2) = ||xi'|| is its square root, A and B are
polynomials in the fibre variable xi' with jet coefficients, A is
xi'-homogeneous of degree j + 2p and B of degree j + 2p - 1.  The form is
closed under the operations the factorisation recursions need: products
(w^2 rewrites to q2), xi'-derivatives (d w/d xi_a = g^{ab} xi_b w / q2),
base derivatives (which hit both the jet coefficients and the metric inside
w and q2), and division by the principal factor -w.

Normalisation divides out common q2 factors of A and B, so two symbols are
equal exactly when their components coincide; w is not a rational function
of xi', hence (A, B, p) with minimal p is a faithful representation.  Most
attempts to lower p fail, so a cheap necessary condition refuses most of
them before the jet long division: if P = q2 * Q, then Q vanishes at the
base point to the same (r, y) order k as P does (q2's leading coefficient is
a unit), and the order-k part of P is q2(0) times that of Q.  So the rational
xi-polynomial at each order-k monomial of P must be a multiple of q2(0).

One rule lowers p.  Each operation states its result as parts (A_k, B_k, k)
over q2^k: a product is (A1 A2, A1 B2 + B1 A2, p) plus (B1 B2, 0, p - 1), as
w^2 = q2; a derivative is (dA, dB, p) plus (-p A dq2, (1 - 2p)/2 B dq2,
p + 1); a sum is its terms.  ``HomSymbol._from_parts`` alone divides by q2.
A real jet multiplies a symbol only as its degree-0 symbol
``HomSymbol.from_jet``, so that product rule is the only one.  A term that
only feeds a sum is not put in canonical form on its own: a product hands
its parts (``HomSymbol.times``, a ``Parts``) to the sum, and ``*`` is the
canonical form of the same parts, so the recursion and the verifier
normalise each grade once.  As q2 divides N + q2 L exactly when it divides
N, only the numerator at the top power is divided, the next power's parts
join the quotient, and at a refused drop the lower parts are multiplied up
to the current power.  The parts are first truncated to the budgets, and
each parity divides at the least orders of q2 and its parts, those of its
whole numerator, so the form is the long-hand formula's.  Only where the
long hand's least-order coefficients all cancel does it divide at higher
orders; the parts keep the cancelled orders, as a zero term keeps its
budgets in a sum.

Reality.  The weighted Laplacian and its DN maps send real functions to real
functions, so every symbol here satisfies s(x, -xi) = conj s(x, xi)
(Hoermander, The Analysis of Linear Partial Differential Operators III,
section 18.1).  With w and q2 even in xi and A, B homogeneous, each
coefficient of A (or of B) is a real jet times one common power of i, fixed
by the degree: every symbol has a type bit t such that a coefficient of a
degree-d part is real exactly when d + t is even.  So an XiPoly holds real
Jet coefficients and one flag, ``imag``, meaning the polynomial is i times
its coefficients.  Products XOR the flags, i * i negates, D_y = -i d_y flips
the flag, and a sum of two nonzero polynomials with unlike flags raises
IncompatibleJetsError: the operators' reality is a checked invariant.

Derivatives.  Symbols are immutable, so each HomSymbol memoises its first
derivatives d_xi_a, D_y^a and d_r, keyed by operation and direction, and
``xi_derivative``/``dy_derivative`` walk a multi-index one memoised step at
a time.  A chain the factorisation recursion formed is a string of lookups
when the verifier's ``compose`` asks for it again; the public ``xi_partial``
and ``base_partial`` always compute.  The verifier shares only these values:
every product, the K-sum with its 1/K! factors, the grade sums and the
normalisation it still forms itself.  Both take each term d^K_xi f D^K_y g
from ``xi_derivative_times`` as the parts of the product, which looks at
the D_y factor first: a xi-chain whose D_y partner is zero is never formed,
so on a tangentially constant collar no xi-derivative is taken at all.  The
zero term it returns in its place keeps the budgets the product would have
had.

A FormalSymbol is a graded family of homogeneous symbols on a contiguous
range of degrees; the asymptotic composition

    (h # g)(x, xi') = sum_K 1/K! d^K_xi h(x, xi') D^K_y g(x, xi')

is truncated exactly at the grades that remain reliable given the retained
ranges of the factors (truncation replaces the smoothing-remainder calculus).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add

from .errors import BudgetExhaustedError, DepthError, IncompatibleJetsError
from .jets import Jet, JetSpace, rational, sums_of_products


class XiPoly:
    """Homogeneous polynomial in xi' with real Jet coefficients, times i
    when ``imag`` is set."""

    __slots__ = ("nxi", "deg", "c", "imag")

    def __init__(self, nxi: int, deg: int, coeffs: dict | None = None, imag: bool = False):
        self.nxi = nxi
        self.deg = deg
        self.imag = imag
        self.c = {}
        if coeffs:
            for e, v in coeffs.items():
                if sum(e) != deg:
                    raise IncompatibleJetsError(
                        "monomial %r is not homogeneous of degree %d" % (e, deg)
                    )
                if not v.is_zero:
                    self.c[e] = v

    @classmethod
    def _make(cls, nxi, deg, coeffs, imag):
        self = object.__new__(cls)
        self.nxi = nxi
        self.deg = deg
        self.c = coeffs
        self.imag = imag
        return self

    @property
    def is_zero(self):
        return not self.c

    def _phase_clash(self, other: "XiPoly") -> bool:
        """True when both are nonzero and one is real, the other imaginary."""
        return self.imag != other.imag and bool(self.c) and bool(other.c)

    def __add__(self, other: "XiPoly") -> "XiPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.deg != other.deg:
            raise IncompatibleJetsError(
                "cannot add polynomials of degrees %d and %d" % (self.deg, other.deg)
            )
        if self.imag != other.imag:
            raise IncompatibleJetsError("cannot add a real and an imaginary polynomial")
        out = dict(self.c)
        for e, v in other.c.items():
            s = out.get(e)
            s = v if s is None else s + v
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return XiPoly._make(self.nxi, self.deg, out, self.imag)

    def __neg__(self):
        return XiPoly._make(self.nxi, self.deg, {e: -v for e, v in self.c.items()}, self.imag)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "XiPoly") -> "XiPoly":
        deg = self.deg + other.deg
        imag = self.imag != other.imag
        # each output coefficient is one sum of jet products
        groups: dict = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                groups.setdefault(tuple(map(add, e1, e2)), []).append((v1, v2))
        sign = -1 if self.imag and other.imag else 1  # i * i = -1
        return XiPoly._make(self.nxi, deg, sums_of_products(groups, sign), imag)

    def scale(self, factor) -> "XiPoly":
        """Multiply every coefficient by a rational."""
        out = {e: v.scale(factor) for e, v in self.c.items()}
        return XiPoly._make(
            self.nxi, self.deg, {e: v for e, v in out.items() if not v.is_zero}, self.imag
        )

    def times_i(self) -> "XiPoly":
        c = {e: -v for e, v in self.c.items()} if self.imag else self.c
        return XiPoly._make(self.nxi, self.deg, c, not self.imag)

    def times_minus_i(self) -> "XiPoly":
        c = self.c if self.imag else {e: -v for e, v in self.c.items()}
        return XiPoly._make(self.nxi, self.deg, c, not self.imag)

    def truncated(self, kr: int, ky: int) -> "XiPoly":
        """Every coefficient truncated to at most orders (kr, ky)."""
        if all(v.kr <= kr and v.ky <= ky for v in self.c.values()):
            return self
        return self.map_coeffs(lambda v: v.truncated(kr, ky))

    def map_coeffs(self, fn) -> "XiPoly":
        """Apply a real-linear map to every coefficient, keeping the phase."""
        out = {}
        for e, v in self.c.items():
            w = fn(v)
            if not w.is_zero:
                out[e] = w
        return XiPoly._make(self.nxi, self.deg, out, self.imag)

    def xi_partial(self, a: int) -> "XiPoly":
        out = {}
        for e, v in self.c.items():
            k = e[a]
            if k == 0:
                continue
            ne = e[:a] + (k - 1,) + e[a + 1 :]
            w = v.scale(k)
            s = out.get(ne)
            out[ne] = w if s is None else s + w
        return XiPoly._make(self.nxi, self.deg - 1, out, self.imag)

    def base_partial(self, direction: int) -> "XiPoly":
        return self.map_coeffs(lambda v: v.partial(direction))

    def evaluate(self, xi, space: JetSpace, kr: int, ky: int) -> Jet:
        """The real coefficients summed at a rational fibre point: the
        polynomial's value there, divided by i when ``imag`` is set."""
        acc = space.zero(kr, ky)
        for e, v in self.c.items():
            s = Fraction(1)
            for val, k in zip(xi, e):
                if k:
                    s = s * rational(val) ** k
            acc = acc + v.scale(s)
        return acc

    def __eq__(self, other):
        if not isinstance(other, XiPoly):
            return NotImplemented
        return not self._phase_clash(other) and (self - other).is_zero

    def __repr__(self):
        if not self.c:
            return "XiPoly(0; deg=%d)" % self.deg
        terms = []
        for e in sorted(self.c):
            mono = "*".join(
                "xi%d%s" % (i + 1, "" if k == 1 else "^%d" % k)
                for i, k in enumerate(e)
                if k
            )
            terms.append("(%r)%s" % (self.c[e], "*" + mono if mono else ""))
        return "XiPoly(%s%s)" % ("i*" if self.imag else "", " + ".join(terms))


class SymbolContext:
    """Fibre-metric data every homogeneous symbol refers to.

    Built from the inverse tangential metric g^{ab} (a symmetric matrix of
    real jets); caches the quadratic form q2 as a polynomial, its xi- and
    base-derivatives, the reciprocal of its leading coefficient, which
    drives exact division during normalisation, and its values and their
    reciprocals at the fibre points symbols are evaluated at.
    """

    __slots__ = (
        "space",
        "nxi",
        "g_upper",
        "kr",
        "ky",
        "q2",
        "q2_xi",
        "_q2_base",
        "_lead_inv",
        "_q2_values",
        "_q2_inverses",
        "_q2_base_point",
    )

    def __init__(self, g_upper):
        self.g_upper = tuple(tuple(row) for row in g_upper)
        first = self.g_upper[0][0]
        self.space = first.space
        self.nxi = self.space.n - 1
        if len(self.g_upper) != self.nxi:
            raise IncompatibleJetsError("inverse metric size does not match dimension")
        self.kr = min(j.kr for row in self.g_upper for j in row)
        self.ky = min(j.ky for row in self.g_upper for j in row)
        coeffs = {}
        for a in range(self.nxi):
            for b in range(a, self.nxi):
                e = [0] * self.nxi
                e[a] += 1
                e[b] += 1
                val = self.g_upper[a][b]
                if a != b:
                    val = val.scale(2)
                coeffs[tuple(e)] = val
        self.q2 = XiPoly(self.nxi, 2, coeffs)
        self.q2_xi = tuple(self.q2.xi_partial(a) for a in range(self.nxi))
        self._q2_base = {}
        self._lead_inv = None
        self._q2_values = {}
        self._q2_inverses = {}
        self._q2_base_point = None

    def q2_base_partial(self, direction: int) -> XiPoly:
        poly = self._q2_base.get(direction)
        if poly is None:
            poly = self.q2.base_partial(direction)
            self._q2_base[direction] = poly
        return poly

    @property
    def lead_inv(self) -> Jet:
        if self._lead_inv is None:
            self._lead_inv = self.g_upper[0][0].reciprocal()
        return self._lead_inv

    def q2_value(self, xi) -> Jet:
        """q2 evaluated at a rational fibre point, as a real jet."""
        key = tuple(xi)
        val = self._q2_values.get(key)
        if val is None:
            val = self.q2.evaluate(xi, self.space, self.kr, self.ky)
            self._q2_values[key] = val
        return val

    def q2_inverse(self, xi) -> Jet:
        """1 / q2 at a rational fibre point, as a real jet."""
        key = tuple(xi)
        val = self._q2_inverses.get(key)
        if val is None:
            val = self._q2_inverses[key] = self.q2_value(xi).reciprocal()
        return val

    def same_structure(self, other: "SymbolContext") -> bool:
        if self is other:
            return True
        if self.nxi != other.nxi or self.space != other.space:
            return False
        return all(
            self.g_upper[a][b] == other.g_upper[a][b]
            for a in range(self.nxi)
            for b in range(self.nxi)
        )

    # exact polynomial division by q2 (or None if not divisible) -----------

    def common_orders(self, *polys: XiPoly) -> tuple[int, int]:
        """The least truncation orders among q2's and the coefficients of
        ``polys``, at which ``divide_by_q2`` divides any one of them."""
        kr, ky = self.kr, self.ky
        for poly in polys:
            for v in poly.c.values():
                kr = min(kr, v.kr)
                ky = min(ky, v.ky)
        return kr, ky

    def divide_by_q2(self, poly: XiPoly) -> XiPoly | None:
        """The quotient Q with poly = q2 * Q, or None if there is none.

        The jet long division runs only after two cheap necessary
        conditions.  The first reads the extreme monomials of a product
        with q2.  The second is ``_lowest_order_divisible``: if poly = q2*Q,
        the order-k part of poly, for k its lowest (r, y) order, is q2(0)
        times the order-k part of Q, so each of its (r, y) monomials holds
        a rational xi-polynomial divisible by q2 at the base point.

        The division holds in the jets truncated at the common orders of q2
        and poly's coefficients, so every coefficient is truncated to them
        first: one the division never touches must not keep terms beyond.
        """
        poly = poly.truncated(*self.common_orders(poly))
        if poly.is_zero:
            return XiPoly._make(poly.nxi, poly.deg - 2, {}, poly.imag)
        if poly.deg < 2:
            return None
        # necessary conditions from the extreme monomials of a product with
        # q2, whose lex-max is xi_1^2 and lex-min is xi_{n-1}^2
        if max(poly.c)[0] < 2 or min(poly.c)[-1] < 2:
            return None
        if not self._lowest_order_divisible(poly):
            return None
        lead_inv = self.lead_inv
        q2items = list(self.q2.c.items())
        rem = dict(poly.c)
        quot: dict = {}
        while rem:
            e = max(rem)
            if e[0] < 2:
                return None
            c = rem.pop(e) * lead_inv
            t = (e[0] - 2,) + e[1:]
            s = quot.get(t)
            quot[t] = c if s is None else s + c
            for qe, qv in q2items:
                te = tuple(a + b for a, b in zip(t, qe))
                if te == e:
                    continue
                v = c * qv
                s = rem.get(te)
                s = -v if s is None else s - v
                if s.is_zero:
                    rem.pop(te, None)
                else:
                    rem[te] = s
        quot = {e: v for e, v in quot.items() if not v.is_zero}
        return XiPoly._make(poly.nxi, poly.deg - 2, quot, poly.imag)

    def _lowest_order_divisible(self, poly: XiPoly) -> bool:
        """Necessary condition for q2 | poly, read at the lowest (r, y) order.

        Let K be the smallest truncation orders among poly's coefficients
        and q2's, and k the lowest total order m + |mu| of a term r^m y^mu
        of poly inside K.  The long division only adds, multiplies and
        truncates, so if it succeeds, poly = q2 * Q holds in the jets
        truncated at K.  There Q is unique, because q2's leading coefficient
        g^{11} is a unit, and the division builds Q's coefficients from
        poly's by ring operations, so they vanish to order k too.  Hence the
        order-k part of poly is q2(0) times the order-k part of Q, monomial
        by monomial: for each (r, y) monomial of order k, the rational
        xi-polynomial of its coefficients (all of one phase) is a multiple
        of q2(0).  Each is tested by long division over the integers: with
        the polynomial scaled to integers and q2(0) to coprime integers,
        Gauss's lemma makes the quotient of an exact division integral, so
        a leading coefficient that q2(0)'s own does not divide refuses too.
        """
        kr, ky = self.common_orders(poly)
        low = None
        # monomial key -> {xi exponent: (numerator, den)}
        parts: dict = {}
        for e, v in poly.c.items():
            order, terms = v.lowest_order_terms(kr, ky)
            if order is None or (low is not None and order > low):
                continue
            if low is None or order < low:
                low, parts = order, {}
            for key, c in terms.items():
                parts.setdefault(key, {})[e] = (c, v.den)
        lead, rest = self._q2_at_base()
        for values in parts.values():
            den = math.lcm(*(d for _, d in values.values()))
            rem = {e: c * (den // d) for e, (c, d) in values.items()}
            while rem:
                e = max(rem)
                c, r = divmod(rem.pop(e), lead)
                if r or e[0] < 2:
                    return False
                t = (e[0] - 2,) + e[1:]
                for qe, qv in rest:
                    te = tuple(map(add, t, qe))
                    x = rem.get(te, 0) - c * qv
                    if x:
                        rem[te] = x
                    else:
                        rem.pop(te, None)
        return True

    def _q2_at_base(self) -> tuple[int, list]:
        """q2(0) scaled to coprime integers, as the coefficient of xi_1^2
        and the (exponent, coefficient) pairs of its other nonzero terms.

        q2(0) / g^{11}(0) has xi_1^2 coefficient 1 and is scaled by the lcm
        of its denominators.  Each prime power in that lcm is the full
        denominator power of some coefficient, whose integer then lacks the
        prime, so the integers are coprime."""
        if self._q2_base_point is None:
            lead0 = self.lead_inv.constant_term()  # 1 / g^{11}(0)
            values = {e: v.constant_term() * lead0 for e, v in self.q2.c.items()}
            den = math.lcm(*(x.denominator for x in values.values()))
            lead = (2,) + (0,) * (self.nxi - 1)
            rest = [(e, int(x * den)) for e, x in values.items() if x and e != lead]
            self._q2_base_point = (den, rest)
        return self._q2_base_point


def _base_value(jet: Jet, imag: bool) -> complex:
    v = float(jet.constant_term())
    return complex(0.0, v) if imag else complex(v, 0.0)


#: budget value meaning "no truncation restriction" (exact zero tails)
UNRESTRICTED = 1 << 30


class HomSymbol:
    """Homogeneous symbol (A + B*w)/q2^p of a fixed degree.

    Every symbol carries uniform truncation budgets (kr, ky) for its jet
    coefficients.  The budgets are tracked on the symbol, not recovered from
    the surviving coefficients: a truncated coefficient that cancels to the
    zero jet would otherwise take its validity restriction with it when
    pruned, silently overstating the precision of later sums.
    """

    __slots__ = ("ctx", "degree", "p", "a", "b", "kr", "ky", "_derivs")

    def __init__(
        self,
        ctx: SymbolContext,
        degree: int,
        a: XiPoly,
        b: XiPoly,
        p: int,
        kr: int,
        ky: int,
    ):
        if p < 0:
            raise IncompatibleJetsError("denominator power must be nonnegative")
        if not a.is_zero and a.deg != degree + 2 * p:
            raise IncompatibleJetsError(
                "even part has degree %d, expected %d" % (a.deg, degree + 2 * p)
            )
        if not b.is_zero and b.deg != degree + 2 * p - 1:
            raise IncompatibleJetsError(
                "odd part has degree %d, expected %d" % (b.deg, degree + 2 * p - 1)
            )
        if any(v.kr > kr or v.ky > ky for poly in (a, b) for v in poly.c.values()):
            trunc = lambda v: v.truncated(kr, ky)
            a = a.map_coeffs(trunc)
            b = b.map_coeffs(trunc)
        self.ctx = ctx
        self.degree = degree
        self.p = p
        self.a = a
        self.b = b
        self.kr = kr
        self.ky = ky
        self._derivs = {}

    def _like(self, a: XiPoly, b: XiPoly) -> "HomSymbol":
        """This symbol's degree, power and budgets with parts that already
        fit them (a sign or phase change of its own)."""
        out = object.__new__(HomSymbol)
        out.ctx, out.degree, out.p, out.a, out.b = self.ctx, self.degree, self.p, a, b
        out.kr, out.ky, out._derivs = self.kr, self.ky, {}
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(
        cls, ctx: SymbolContext, degree: int, kr: int = UNRESTRICTED, ky: int = UNRESTRICTED
    ) -> "HomSymbol":
        nxi = ctx.nxi
        return cls(ctx, degree, XiPoly(nxi, degree, {}), XiPoly(nxi, degree - 1, {}), 0, kr, ky)

    @classmethod
    def from_jet(cls, ctx: SymbolContext, value: Jet) -> "HomSymbol":
        """Degree-0 symbol given by a real Jet multiplier."""
        nxi = ctx.nxi
        a = XiPoly(nxi, 0, {(0,) * nxi: value})
        return cls(ctx, 0, a, XiPoly(nxi, -1, {}), 0, value.kr, value.ky)

    @classmethod
    def xi_norm(cls, ctx: SymbolContext) -> "HomSymbol":
        """w = ||xi'|| as a symbol of degree 1."""
        nxi = ctx.nxi
        b = XiPoly(nxi, 0, {(0,) * nxi: ctx.space.one(ctx.kr, ctx.ky)})
        return cls(ctx, 1, XiPoly(nxi, 1, {}), b, 0, ctx.kr, ctx.ky)

    @classmethod
    def q2_symbol(cls, ctx: SymbolContext) -> "HomSymbol":
        return cls(ctx, 2, ctx.q2, XiPoly(ctx.nxi, 1, {}), 0, ctx.kr, ctx.ky)

    @classmethod
    def linear_form(cls, ctx: SymbolContext, coefficients) -> "HomSymbol":
        """Degree-1 symbol sum_a c_a xi_a from real Jet coefficients."""
        nxi = ctx.nxi
        coeffs = {}
        kr = ky = UNRESTRICTED
        for a, v in enumerate(coefficients):
            e = [0] * nxi
            e[a] = 1
            coeffs[tuple(e)] = v
            kr = min(kr, v.kr)
            ky = min(ky, v.ky)
        return cls(ctx, 1, XiPoly(nxi, 1, coeffs), XiPoly(nxi, 0, {}), 0, kr, ky)

    # -- canonical form -------------------------------------------------------

    @property
    def is_zero(self):
        return self.a.is_zero and self.b.is_zero

    @staticmethod
    def _from_parts(ctx: SymbolContext, degree: int, parts, kr: int, ky: int) -> "HomSymbol":
        """The canonical form of sum_k (A_k + B_k w) / q2^k over the parts
        (A_k, B_k, k), k >= -1, with budgets (kr, ky), by the rule of the
        module docstring.  The odd part is divided first."""
        powers: dict = {}
        for a, b, k in parts:
            a, b = a.truncated(kr, ky), b.truncated(kr, ky)
            if k in powers:
                a, b = powers[k][0] + a, powers[k][1] + b
            powers[k] = (a, b)
        if not powers:
            return HomSymbol.zero(ctx, degree, kr, ky)
        ka = ctx.common_orders(*(a for a, _ in powers.values()))
        kb = ctx.common_orders(*(b for _, b in powers.values()))
        p = max(powers)
        a, b = powers.pop(p)
        while p > 0:
            qb = ctx.divide_by_q2(b.truncated(*kb))
            if qb is None:
                break
            qa = ctx.divide_by_q2(a.truncated(*ka))
            if qa is None:
                break
            p -= 1
            powers = {k: (pa.truncated(*ka), pb.truncated(*kb)) for k, (pa, pb) in powers.items()}
            a, b = qa, qb
            if p in powers:
                pa, pb = powers.pop(p)
                a, b = a + pa, b + pb
        for k, (pa, pb) in powers.items():
            for _ in range(p - k):
                pa, pb = pa * ctx.q2, pb * ctx.q2
            a, b = a + pa, b + pb
        if a.is_zero and b.is_zero:
            return HomSymbol.zero(ctx, degree, kr, ky)
        return HomSymbol(ctx, degree, a, b, p, kr, ky)

    def normalized(self) -> "HomSymbol":
        """The canonical form: the least denominator power."""
        parts = [(self.a, self.b, self.p)]
        return HomSymbol._from_parts(self.ctx, self.degree, parts, self.kr, self.ky)

    def _check(self, other: "HomSymbol"):
        if self.ctx is not other.ctx and not self.ctx.same_structure(other.ctx):
            raise IncompatibleJetsError("symbols refer to different fibre metrics")

    @property
    def parts(self) -> list:
        """The one part (A, B, p) of the form, none for a zero symbol."""
        return [] if self.is_zero else [(self.a, self.b, self.p)]

    @staticmethod
    def sum(terms, ctx: SymbolContext, degree: int) -> "HomSymbol":
        """Sum of same-degree symbols or ``Parts`` in one canonical form.
        Its budgets are the least of every term's, a zero term's included
        (see the class docstring)."""
        kr = ky = UNRESTRICTED
        parts = []
        for t in terms:
            if t.degree != degree:
                raise IncompatibleJetsError(
                    "sum mixes degrees %d and %d" % (t.degree, degree)
                )
            kr, ky = min(kr, t.kr), min(ky, t.ky)
            parts += t.parts
        return HomSymbol._from_parts(ctx, degree, parts, kr, ky)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "HomSymbol") -> "HomSymbol":
        self._check(other)
        return HomSymbol.sum((self, other), self.ctx, self.degree)

    def __neg__(self):
        return self._like(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def times(self, factor: "HomSymbol") -> "Parts":
        """The product with a symbol, as parts: (A1 A2, A1 B2 + B1 A2,
        p1 + p2) and (B1 B2, 0, p1 + p2 - 1), as w * w = q2.  ``*`` is their
        canonical form."""
        self._check(factor)
        ctx = self.ctx
        deg = self.degree + factor.degree
        kr, ky = min(self.kr, factor.kr), min(self.ky, factor.ky)
        if self.is_zero or factor.is_zero:
            return Parts(ctx, deg, [], kr, ky)
        # w * w = q2 puts B1 B2 one power lower
        bb = self.b * factor.b
        p = self.p + factor.p
        parts = [
            (self.a * factor.a, self.a * factor.b + self.b * factor.a, p),
            (bb, XiPoly(ctx.nxi, bb.deg - 1), p - 1),
        ]
        return Parts(ctx, deg, parts, kr, ky)

    def __mul__(self, other: "HomSymbol") -> "HomSymbol":
        return self.times(other).normalized()

    def scale(self, factor) -> "HomSymbol":
        """The symbol times a rational."""
        if not factor:
            return HomSymbol.zero(self.ctx, self.degree, self.kr, self.ky)
        # a nonzero rational creates or removes no q2 factor
        return self._like(self.a.scale(factor), self.b.scale(factor))

    def times_i(self) -> "HomSymbol":
        return self._like(self.a.times_i(), self.b.times_i())

    def times_minus_i(self) -> "HomSymbol":
        return self._like(self.a.times_minus_i(), self.b.times_minus_i())

    # -- calculus -----------------------------------------------------------------

    def _quotient_rule(self, degree: int, da: XiPoly, db: XiPoly, dq2: XiPoly,
                       kr: int, ky: int) -> "HomSymbol":
        """The derivative of (A + B w)/q2^p, given those of A, B and q2, as a
        symbol of ``degree`` with budgets (kr, ky)."""
        p = self.p
        # B w / q2^p: w gives B dq2 w / (2 q2), and q2^-p gives -p B dq2 w / q2
        ea = (self.a * dq2).scale(-p) if p else XiPoly(self.ctx.nxi, da.deg + 2)
        eb = (self.b * dq2).scale(Fraction(1 - 2 * p, 2))
        return HomSymbol._from_parts(self.ctx, degree, [(da, db, p), (ea, eb, p + 1)], kr, ky)

    def xi_partial(self, a: int) -> "HomSymbol":
        """d/d xi_a; the degree drops by one."""
        ctx = self.ctx
        return self._quotient_rule(
            self.degree - 1, self.a.xi_partial(a), self.b.xi_partial(a), ctx.q2_xi[a],
            min(self.kr, ctx.kr), min(self.ky, ctx.ky),
        )

    def base_partial(self, direction: int) -> "HomSymbol":
        """d/dr or d/dy; hits jet coefficients and the metric inside w, q2."""
        ctx = self.ctx
        if direction == 0:
            if min(self.kr, ctx.kr) == 0:
                raise BudgetExhaustedError("radial symbol budget exhausted")
            kr, ky = min(self.kr, ctx.kr) - 1, min(self.ky, ctx.ky)
        else:
            if min(self.ky, ctx.ky) == 0:
                raise BudgetExhaustedError("tangential symbol budget exhausted")
            kr, ky = min(self.kr, ctx.kr), min(self.ky, ctx.ky) - 1
        return self._quotient_rule(
            self.degree, self.a.base_partial(direction), self.b.base_partial(direction),
            ctx.q2_base_partial(direction), kr, ky,
        )

    def d_y(self, a: int) -> "HomSymbol":
        """D_{y^a} = -i d/dy^a (tangential direction a is jet direction a+1)."""
        return self.base_partial(a + 1).times_minus_i()

    def _derivative(self, name: str, direction: int) -> "HomSymbol":
        """The first derivative ``getattr(self, name)(direction)``,
        computed once per symbol."""
        sym = self._derivs.get((name, direction))
        if sym is None:
            sym = self._derivs[name, direction] = getattr(self, name)(direction)
        return sym

    def xi_derivative(self, key) -> "HomSymbol":
        """d_xi^K for the directions in ``key``, one memoised step each."""
        sym = self
        for a in key:
            sym = sym._derivative("xi_partial", a)
        return sym

    def dy_derivative(self, key) -> "HomSymbol":
        """D_y^K for the directions in ``key``, one memoised step each."""
        sym = self
        for a in key:
            sym = sym._derivative("d_y", a)
        return sym

    def d_r(self) -> "HomSymbol":
        """d/dr, memoised like xi_derivative."""
        return self._derivative("base_partial", 0)

    def div_2b1(self) -> "HomSymbol":
        """Division by twice the principal factor b1 = -w, i.e. the product
        with the symbol -w/(2 q2)."""
        w = HomSymbol.xi_norm(self.ctx)
        return self * HomSymbol(self.ctx, -1, w.a, w.b.scale(Fraction(-1, 2)), 1, w.kr, w.ky)

    def restricted_to_boundary(self, bctx: SymbolContext) -> "HomSymbol":
        kr = 0 if self.kr < UNRESTRICTED else UNRESTRICTED
        return HomSymbol(
            bctx,
            self.degree,
            self.a.map_coeffs(lambda v: v.restricted_to_boundary()),
            self.b.map_coeffs(lambda v: v.restricted_to_boundary()),
            self.p,
            kr,
            self.ky,
        ).normalized()

    # -- evaluation ------------------------------------------------------------

    def eval_jets(self, xi) -> tuple[Jet, Jet]:
        """Real jets (E, O) at a rational fibre point: the symbol value is
        E + O * w(xi), where E is times i when ``a.imag`` is set and O when
        ``b.imag`` is."""
        ctx = self.ctx
        kr, ky = min(self.kr, ctx.kr), min(self.ky, ctx.ky)
        av = self.a.evaluate(xi, ctx.space, kr, ky)
        bv = self.b.evaluate(xi, ctx.space, kr, ky)
        if self.p:
            inv = ctx.q2_inverse(xi)
            for _ in range(self.p):
                av = av * inv
                bv = bv * inv
        return av.truncated(kr, ky), bv.truncated(kr, ky)

    def eval_at_base(self, xi) -> complex:
        """Numeric value at the base point (r=0, y=0) of the fibre point xi."""
        ev, od = self.eval_jets(xi)
        w = math.sqrt(float(self.ctx.q2_value(xi).constant_term()))
        return _base_value(ev, self.a.imag) + _base_value(od, self.b.imag) * w

    def __eq__(self, other):
        if not isinstance(other, HomSymbol):
            return NotImplemented
        self._check(other)
        if self.degree != other.degree:
            return False
        if self.a._phase_clash(other.a) or self.b._phase_clash(other.b):
            return False
        return (self - other).is_zero

    def __repr__(self):
        return "HomSymbol(deg=%d, p=%d, even=%r, odd=%r)" % (
            self.degree,
            self.p,
            self.a,
            self.b,
        )


class Parts:
    """A term of a grade sum, sum_k (A_k + B_k w) / q2^k over its parts
    (A_k, B_k, k), of one degree and with budgets (kr, ky), not put in
    canonical form on its own: ``HomSymbol.sum`` takes the parts of all
    its terms, and ``normalized`` is the term's own canonical form."""

    __slots__ = ("ctx", "degree", "parts", "kr", "ky")

    def __init__(self, ctx: SymbolContext, degree: int, parts: list, kr: int, ky: int):
        self.ctx = ctx
        self.degree = degree
        self.parts = parts
        self.kr = kr
        self.ky = ky

    def _map(self, fn) -> "Parts":
        parts = [(fn(a), fn(b), k) for a, b, k in self.parts]
        return Parts(self.ctx, self.degree, parts, self.kr, self.ky)

    def __neg__(self):
        return self._map(XiPoly.__neg__)

    def scale(self, factor) -> "Parts":
        """The term times a nonzero rational."""
        return self._map(lambda poly: poly.scale(factor))

    def normalized(self) -> HomSymbol:
        return HomSymbol._from_parts(self.ctx, self.degree, self.parts, self.kr, self.ky)


class FormalSymbol:
    """Graded family of homogeneous symbols on a contiguous degree range.
    It has no arithmetic of its own: each of its grades is formed by one
    ``HomSymbol.sum``.

    ``tail_exact`` records whether degrees below ``lo`` are genuinely zero
    (finite symbols such as q2 + q1 + q0) rather than unknown truncation.
    """

    __slots__ = ("ctx", "comps", "hi", "lo", "tail_exact")

    def __init__(self, ctx: SymbolContext, comps: dict, hi: int, lo: int, tail_exact=False):
        if hi < lo:
            raise DepthError("empty grade range [%d, %d]" % (lo, hi))
        self.ctx = ctx
        self.hi = hi
        self.lo = lo
        self.tail_exact = tail_exact
        self.comps = {}
        for j in range(lo, hi + 1):
            s = comps.get(j)
            self.comps[j] = s if s is not None else HomSymbol.zero(ctx, j)

    @classmethod
    def single(cls, sym: HomSymbol) -> "FormalSymbol":
        """The one homogeneous symbol ``sym``, every other grade exactly zero."""
        return cls(sym.ctx, {sym.degree: sym}, sym.degree, sym.degree, True)

    def grade(self, j: int) -> HomSymbol:
        if j > self.hi:
            return HomSymbol.zero(self.ctx, j)
        if j < self.lo:
            if self.tail_exact:
                return HomSymbol.zero(self.ctx, j)
            raise DepthError("grade %d below retained range (lo=%d)" % (j, self.lo))
        return self.comps[j]

    def grades(self):
        return range(self.hi, self.lo - 1, -1)

    def map_components(self, fn) -> "FormalSymbol":
        out = {j: fn(s) for j, s in self.comps.items()}
        return FormalSymbol(self.ctx, out, self.hi, self.lo, self.tail_exact)

    def restricted_to_boundary(self, bctx: SymbolContext) -> "FormalSymbol":
        return self.map_components(lambda s: s.restricted_to_boundary(bctx))

    def __repr__(self):
        return "FormalSymbol(grades %d..%d%s)" % (
            self.hi,
            self.lo,
            ", exact tail" if self.tail_exact else "",
        )


def inv_factorial(key) -> Fraction:
    """1/K! for the multi-index K that lists its directions in ``key``."""
    mult = 1
    for a in set(key):
        mult *= math.factorial(key.count(a))
    return Fraction(1, mult)


def xi_derivative_times(f: HomSymbol, key, right: HomSymbol) -> Parts:
    """d^K_xi f times ``right``, as the parts of ``HomSymbol.times``, for K
    the directions in ``key`` and ``right`` the factor D^K_y g of a symbol g
    (a real multiplier g enters as its ``HomSymbol.from_jet``).

    For |K| >= 1 the D_y factor is looked at first: if it is zero, so is the
    product, and the chain d^K_xi f is never formed.  In its place stands
    the zero with the chain's degree and budgets (every xi-step takes the
    least of the symbol's and the context's), so the product keeps the
    degree and budgets it would have had (a zero term keeps its budgets in
    a sum)."""
    if key and right.is_zero:
        ctx = f.ctx
        left = HomSymbol.zero(ctx, f.degree - len(key), min(f.kr, ctx.kr), min(f.ky, ctx.ky))
    else:
        left = f.xi_derivative(key)
    return left.times(right)


def compose(f: FormalSymbol, g: FormalSymbol, lowest: int | None = None) -> FormalSymbol:
    """Asymptotic composition sum_K 1/K! d^K_xi f D^K_y g.

    The output grades are those unaffected by the factors' dropped tails:
    a missing component of f below f.lo would first contribute at grade
    f.lo - 1 + g.hi, and symmetrically for g.  Exact tails impose no bound.
    The K-sum is finite on every retained grade because |K| lowers the grade.
    """
    if f.ctx is not g.ctx and not f.ctx.same_structure(g.ctx):
        raise IncompatibleJetsError("composition of symbols over different metrics")
    ctx = f.ctx
    bounds = []
    if not f.tail_exact:
        bounds.append(f.lo + g.hi)
    if not g.tail_exact:
        bounds.append(g.lo + f.hi)
    if lowest is not None:
        bounds.append(lowest)
    if not bounds:
        raise DepthError("composition of two exact symbols needs an explicit depth")
    lo = max(bounds)
    hi = f.hi + g.hi
    if hi < lo:
        raise DepthError("no reliable grades in composition (hi=%d < lo=%d)" % (hi, lo))
    out = {j: [] for j in range(lo, hi + 1)}

    nxi = ctx.nxi
    for j1 in f.grades():
        s1 = f.comps[j1]
        for j2 in g.grades():
            s2 = g.comps[j2]
            kmax = j1 + j2 - lo
            for k in range(0, kmax + 1):
                grade = j1 + j2 - k
                if grade > hi:
                    continue
                for key in combinations_with_replacement(range(nxi), k):
                    term = xi_derivative_times(s1, key, s2.dy_derivative(key))
                    if k:
                        term = term.scale(inv_factorial(key))
                    out[grade].append(term)
    comps = {j: HomSymbol.sum(terms, ctx, j) for j, terms in out.items()}
    # the grades below lo are cut off, not zero, so the tail is never exact
    return FormalSymbol(ctx, comps, hi, lo)
