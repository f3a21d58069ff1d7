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
normalisation it still forms itself.

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
from .jets import Jet, JetSpace
from .scalars import rational


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
        if not isinstance(other, XiPoly):
            return self.scale(other)
        deg = self.deg + other.deg
        imag = self.imag != other.imag
        c1, c2 = self.c, other.c
        if not c1 or not c2:
            return XiPoly._make(self.nxi, deg, {}, imag)
        if self.imag and other.imag:  # i * i = -1: negate the shorter factor
            if len(c2) < len(c1):
                c2 = {e: -v for e, v in c2.items()}
            else:
                c1 = {e: -v for e, v in c1.items()}
        out: dict = {}
        for e1, v1 in c1.items():
            for e2, v2 in c2.items():
                e = tuple(map(add, e1, e2))
                p = v1 * v2
                s = out.get(e)
                s = p if s is None else s + p
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return XiPoly._make(self.nxi, deg, out, imag)

    def scale(self, factor) -> "XiPoly":
        """Multiply every coefficient by a real Jet or scalar."""
        if isinstance(factor, Jet):
            out = {e: v * factor for e, v in self.c.items()}
        else:
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
    base-derivatives, and the reciprocal of its leading coefficient, which
    drives exact division during normalisation.
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
        kr, ky = self.kr, self.ky
        for v in poly.c.values():
            kr = min(kr, v.kr)
            ky = min(ky, v.ky)
        if any(v.kr != kr or v.ky != ky for v in poly.c.values()):
            poly = poly.map_coeffs(lambda v: v.truncated(kr, ky))
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
        kr, ky = self.kr, self.ky
        for v in poly.c.values():
            kr = min(kr, v.kr)
            ky = min(ky, v.ky)
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
        kr: int | None = None,
        ky: int | None = None,
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
        if kr is None:
            kr = min(
                [v.kr for poly in (a, b) for v in poly.c.values()],
                default=UNRESTRICTED,
            )
        if ky is None:
            ky = min(
                [v.ky for poly in (a, b) for v in poly.c.values()],
                default=UNRESTRICTED,
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

    def _budgets_with(self, other: "HomSymbol"):
        return min(self.kr, other.kr), min(self.ky, other.ky)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: SymbolContext, degree: int) -> "HomSymbol":
        nxi = ctx.nxi
        return cls(ctx, degree, XiPoly(nxi, degree, {}), XiPoly(nxi, degree - 1, {}), 0)

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

    def normalized(self) -> "HomSymbol":
        """Minimal denominator power; prunes zero terms (w^2 -> q2 is
        structural through the even/odd split)."""
        a, b, p = self.a, self.b, self.p
        while p > 0 and not (a.is_zero and b.is_zero):
            qb = self.ctx.divide_by_q2(b)
            if qb is None:
                break
            qa = self.ctx.divide_by_q2(a)
            if qa is None:
                break
            a, b, p = qa, qb, p - 1
        if a.is_zero and b.is_zero:
            p = 0
            a = XiPoly(self.ctx.nxi, self.degree, {})
            b = XiPoly(self.ctx.nxi, self.degree - 1, {})
        if p == self.p and a is self.a and b is self.b:
            return self
        return HomSymbol(self.ctx, self.degree, a, b, p, self.kr, self.ky)

    def _check(self, other: "HomSymbol"):
        if self.ctx is not other.ctx and not self.ctx.same_structure(other.ctx):
            raise IncompatibleJetsError("symbols refer to different fibre metrics")

    @staticmethod
    def sum(terms, ctx: SymbolContext, degree: int) -> "HomSymbol":
        """Sum of same-degree symbols with one final normalisation instead of
        one per pairwise addition.  Its budgets are the least of every
        term's, a zero term's included (see the class docstring)."""
        kr = ky = UNRESTRICTED
        nonzero = []
        for t in terms:
            if t.degree != degree:
                raise IncompatibleJetsError(
                    "sum mixes degrees %d and %d" % (t.degree, degree)
                )
            kr, ky = min(kr, t.kr), min(ky, t.ky)
            if not t.is_zero:
                nonzero.append(t)
        if not nonzero:
            zero = XiPoly(ctx.nxi, degree, {}), XiPoly(ctx.nxi, degree - 1, {})
            return HomSymbol(ctx, degree, *zero, 0, kr, ky)
        p = max(t.p for t in nonzero)
        acc_a = None
        acc_b = None
        for t in nonzero:
            r = t._raise_p(p)
            acc_a = r.a if acc_a is None else acc_a + r.a
            acc_b = r.b if acc_b is None else acc_b + r.b
        return HomSymbol(ctx, degree, acc_a, acc_b, p, kr, ky).normalized()

    def _raise_p(self, p: int) -> "HomSymbol":
        if p == self.p:
            return self
        a, b = self.a, self.b
        for _ in range(p - self.p):
            a = a * self.ctx.q2
            b = b * self.ctx.q2
        return HomSymbol(self.ctx, self.degree, a, b, p, self.kr, self.ky)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "HomSymbol") -> "HomSymbol":
        self._check(other)
        return HomSymbol.sum((self, other), self.ctx, self.degree)

    def __neg__(self):
        return self._like(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "HomSymbol") -> "HomSymbol":
        self._check(other)
        deg = self.degree + other.degree
        a = self.a * other.a + (self.b * other.b) * self.ctx.q2
        b = self.a * other.b + self.b * other.a
        kr, ky = self._budgets_with(other)
        return HomSymbol(self.ctx, deg, a, b, self.p + other.p, kr, ky).normalized()

    def scale(self, factor) -> "HomSymbol":
        kr, ky = self.kr, self.ky
        if isinstance(factor, Jet):
            kr, ky = min(kr, factor.kr), min(ky, factor.ky)
        out = HomSymbol(
            self.ctx, self.degree, self.a.scale(factor), self.b.scale(factor), self.p, kr, ky
        )
        # a nonzero rational creates or removes no q2 factor
        if isinstance(factor, Jet) or not factor:
            return out.normalized()
        return out

    def times_i(self) -> "HomSymbol":
        return self._like(self.a.times_i(), self.b.times_i())

    def times_minus_i(self) -> "HomSymbol":
        return self._like(self.a.times_minus_i(), self.b.times_minus_i())

    # -- calculus -----------------------------------------------------------------

    def _quotient_rule(self, degree: int, da: XiPoly, db: XiPoly, dq2: XiPoly,
                       kr: int, ky: int) -> "HomSymbol":
        """The derivative of (A + B w)/q2^p, given those of A, B and q2, as a
        symbol of ``degree`` over q2^(p+1) with budgets (kr, ky)."""
        ctx = self.ctx
        # B w / q2^p: w gives B dq2 w / (2 q2), and q2^-p gives -p B dq2 w / q2
        na = da * ctx.q2
        nb = db * ctx.q2 + (self.b * dq2).scale(Fraction(1 - 2 * self.p, 2))
        if self.p:
            na = na - (self.a * dq2).scale(self.p)
        return HomSymbol(ctx, degree, na, nb, self.p + 1, kr, ky).normalized()

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
        """Division by twice the principal factor b1 = -w, i.e. multiplication
        by -w/(2 q2)."""
        na = (self.b * self.ctx.q2).scale(Fraction(-1, 2))
        nb = self.a.scale(Fraction(-1, 2))
        kr, ky = min(self.kr, self.ctx.kr), min(self.ky, self.ctx.ky)
        return HomSymbol(self.ctx, self.degree - 1, na, nb, self.p + 1, kr, ky).normalized()

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
            inv = ctx.q2_value(xi).reciprocal()
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


class FormalSymbol:
    """Graded family of homogeneous symbols on a contiguous degree range.

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

    @property
    def depth(self) -> int:
        return self.hi - self.lo + 1

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

    def d_r(self) -> "FormalSymbol":
        return self.map_components(HomSymbol.d_r)

    def scale_jet(self, jet) -> "FormalSymbol":
        return self.map_components(lambda s: s.scale(jet))

    def __neg__(self):
        return self.map_components(lambda s: -s)

    def __add__(self, other: "FormalSymbol") -> "FormalSymbol":
        bounds = []
        if not self.tail_exact:
            bounds.append(self.lo)
        if not other.tail_exact:
            bounds.append(other.lo)
        hi = max(self.hi, other.hi)
        lo = max(bounds) if bounds else min(self.lo, other.lo)
        out = {}
        for j in range(lo, hi + 1):
            out[j] = self.grade(j) + other.grade(j)
        return FormalSymbol(self.ctx, out, hi, lo, self.tail_exact and other.tail_exact)

    def __sub__(self, other):
        return self + (-other)

    def truncated_below(self, lo: int) -> "FormalSymbol":
        if lo <= self.lo:
            return self
        return FormalSymbol(
            self.ctx,
            {j: self.comps[j] for j in range(lo, self.hi + 1)},
            self.hi,
            lo,
            False,
        )

    def restricted_to_boundary(self, bctx: SymbolContext) -> "FormalSymbol":
        return self.map_components(lambda s: s.restricted_to_boundary(bctx))

    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.comps.values())

    def __eq__(self, other):
        if not isinstance(other, FormalSymbol):
            return NotImplemented
        if self.hi != other.hi or self.lo != other.lo:
            return False
        return all(self.comps[j] == other.comps[j] for j in self.comps)

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
    tail_exact = f.tail_exact and g.tail_exact and lowest is not None

    nxi = ctx.nxi
    for j1 in f.grades():
        s1 = f.comps[j1]
        if s1.is_zero:
            continue
        for j2 in g.grades():
            s2 = g.comps[j2]
            if s2.is_zero:
                continue
            kmax = j1 + j2 - lo
            for k in range(0, kmax + 1):
                grade = j1 + j2 - k
                if grade > hi:
                    continue
                for key in combinations_with_replacement(range(nxi), k):
                    left = s1.xi_derivative(key)
                    if left.is_zero:
                        continue
                    right = s2.dy_derivative(key)
                    if right.is_zero:
                        continue
                    term = left * right
                    if k:
                        term = term.scale(inv_factorial(key))
                    out[grade].append(term)
    comps = {j: HomSymbol.sum(terms, ctx, j) for j, terms in out.items()}
    return FormalSymbol(ctx, comps, hi, lo, tail_exact)
