"""Exact truncated power series (jets) on a boundary collar.

A jet truncates a smooth function of the collar coordinates (r, y^1..y^{n-1})
around a boundary base point: r is the inward distance to the boundary and
the y's are tangential.  The coefficient of r^m y^mu is addressed by the
multi-index (m, mu_1, ..., mu_{n-1}); m is bounded by the jet's radial order
and t = sum(mu) by its tangential order.

Storage is one positive integer denominator ``den`` shared by all terms and
a dict ``num`` of nonzero integer numerators, always in lowest terms:
gcd(den, *num.values()) == 1.  So each jet has exactly one representation,
and arithmetic runs on Python ints, normalising once per result jet rather
than once per coefficient.  ``num`` is keyed by a packed monomial: fields of
``KEY_BITS`` bits holding, from the top, m, t and mu_1..mu_{n-1}.  The key
of a product monomial is the sum of the factors' keys, and its truncation
test reads the m and t fields of that sum.  ``Jet.c`` is a read-only view
of the same coefficients as multi-index tuple -> ``Fraction``.

Products run one term loop, ``_sum_products``, which sums products of jet
pairs as integers over one denominator and reduces the sum once.  A Jet
product is the sum of one pair.  ``sums_of_products`` forms every
coefficient of a product of xi-polynomials as one such sum, at the least
orders of all its products, and prepares each right-hand jet for the loop
once.

Radial and tangential truncation orders act as derivative budgets: taking a
radial derivative returns a jet whose radial order is one lower, and
combining jets of different orders truncates to the common (minimum) orders.
Jets from different spaces (dimension or base point) never combine.

Every coefficient is an exact rational, which is what makes the residual
and round-trip checks zero-tolerance.  So a value that would leave the
rational field is refused rather than approximated: a float input, the
root of a constant term that is not a rational power, exp at a nonzero
constant term and log at a constant term other than 1.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    BackendError,
    BudgetExhaustedError,
    IncompatibleJetsError,
    NotInvertibleError,
)

#: width of one field of a packed monomial key
KEY_BITS = 8
_FIELD = (1 << KEY_BITS) - 1
_GUARD = 1 << (KEY_BITS - 1)
#: largest truncation order a key field holds; the sum of two in-range
#: fields plus the truncation offset must stay below 2**KEY_BITS
MAX_ORDER = _GUARD - 1
#: products with at most this many candidate term pairs test each pair;
#: larger ones pay for bucketing to skip the pairs that fall out of range.
#: Bucketing every product slows the many small products of deep jets, and
#: testing every pair slows the large products of dense ones; any value
#: from 64 to 4096 times about the same
_DIRECT_PAIRS = 256


def rational(value) -> Fraction:
    """Coerce ints, 'p/q' strings and rational-like values to ``Fraction``."""
    if isinstance(value, float):
        raise BackendError("float value %r not allowed in the rational backend" % value)
    return Fraction(value)


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact integer k-th root of n >= 0, or None if n is not a k-th power."""
    if n in (0, 1) or k == 1:
        return n
    # Newton iteration on integers.
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == n else None


class JetSpace:
    """Ambient data shared by compatible jets: dimension and base point, plus
    the monomial key layout for that dimension."""

    __slots__ = ("n", "base_point", "_tshift", "_mshift", "_guard", "_keys", "_indices")

    def __init__(self, n: int, base_point: str = "p0"):
        if n < 2:
            raise IncompatibleJetsError("ambient dimension must be at least 2")
        self.n = n
        self.base_point = base_point
        self._tshift = KEY_BITS * (n - 1)
        self._mshift = self._tshift + KEY_BITS
        self._guard = (_GUARD << self._mshift) | (_GUARD << self._tshift)
        self._keys = {}  # multi-index tuple -> packed key
        self._indices = {}  # packed key -> multi-index tuple

    def __eq__(self, other):
        return (
            isinstance(other, JetSpace)
            and self.n == other.n
            and self.base_point == other.base_point
        )

    def __hash__(self):
        return hash((self.n, self.base_point))

    def __repr__(self):
        return "JetSpace(n=%d, base_point=%r)" % (self.n, self.base_point)

    # -- monomial keys ------------------------------------------------------

    def _key(self, idx: tuple) -> int:
        key = self._keys.get(idx)
        if key is None:
            key = idx[0] << KEY_BITS | sum(idx[1:])
            for mu in idx[1:]:
                key = key << KEY_BITS | mu
            self._keys[idx] = key
            self._indices[key] = idx
        return key

    def _index(self, key: int) -> tuple:
        idx = self._indices.get(key)
        if idx is None:
            mus = [(key >> (KEY_BITS * s)) & _FIELD for s in range(self.n - 2, -1, -1)]
            idx = (key >> self._mshift, *mus)
            self._keys[idx] = key
            self._indices[key] = idx
        return idx

    def _offset(self, kr: int, ky: int) -> int:
        """Added to a key, sets a guard bit iff m > kr or t > ky."""
        return ((MAX_ORDER - kr) << self._mshift) | ((MAX_ORDER - ky) << self._tshift)

    # -- constructors -----------------------------------------------------

    def zero(self, kr: int, ky: int) -> "Jet":
        _check_orders(kr, ky)
        return Jet._make(self, kr, ky, 1, {})

    def one(self, kr: int, ky: int) -> "Jet":
        return self.constant(1, kr, ky)

    def constant(self, value, kr: int, ky: int) -> "Jet":
        _check_orders(kr, ky)
        v = rational(value)
        if not v:
            return Jet._make(self, kr, ky, 1, {})
        return Jet._make(self, kr, ky, v.denominator, {0: v.numerator})

    def coordinate(self, direction: int, kr: int, ky: int) -> "Jet":
        """The coordinate function r (direction 0) or y^direction."""
        _check_orders(kr, ky)
        idx = [0] * self.n
        idx[direction] = 1
        return Jet._make(self, kr, ky, 1, {self._key(tuple(idx)): 1})

    def jet(self, coeffs: Mapping[tuple, object], kr: int, ky: int) -> "Jet":
        """Build a jet from an index->value mapping, validating the indices."""
        _check_orders(kr, ky)
        values = {}
        for idx, val in coeffs.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.n or any(i < 0 for i in idx):
                raise IncompatibleJetsError("bad multi-index %r for n=%d" % (idx, self.n))
            if idx[0] > kr or sum(idx[1:]) > ky:
                raise IncompatibleJetsError(
                    "index %r exceeds truncation orders (%d, %d)" % (idx, kr, ky)
                )
            v = rational(val)
            if v:
                values[self._key(idx)] = v
        # over the lcm of the reduced denominators the numerators are coprime
        den = math.lcm(*(v.denominator for v in values.values()))
        num = {k: v.numerator * (den // v.denominator) for k, v in values.items()}
        return Jet._make(self, kr, ky, den, num)


def _check_orders(kr: int, ky: int):
    if 0 <= kr <= MAX_ORDER and 0 <= ky <= MAX_ORDER:
        return
    name, order = ("radial", kr) if not 0 <= kr <= MAX_ORDER else ("tangential", ky)
    raise IncompatibleJetsError(
        "%s order %d outside 0..%d, the range of a packed monomial key field"
        % (name, order, MAX_ORDER)
    )


def _reduced(space: JetSpace, kr: int, ky: int, den: int, num: dict) -> "Jet":
    """Jet from integer sums over ``den``: drops zeros, then divides out the
    common factor with one gcd call."""
    if not num:
        return Jet._make(space, kr, ky, 1, num)
    g = math.gcd(den, *num.values())  # g == den when every sum cancelled
    if g != 1:
        den //= g
        num = {k: v // g for k, v in num.items() if v}
    elif 0 in num.values():
        num = {k: v for k, v in num.items() if v}
    return Jet._make(space, kr, ky, den, num)


class Jet:
    __slots__ = ("space", "kr", "ky", "den", "num", "_view")

    def __init__(self, *args, **kwargs):
        raise TypeError("use JetSpace constructors or Jet arithmetic to build jets")

    @classmethod
    def _make(cls, space: JetSpace, kr: int, ky: int, den: int, num: dict) -> "Jet":
        """Wrap a representation already in lowest terms without zero entries."""
        self = object.__new__(cls)
        self.space = space
        self.kr = kr
        self.ky = ky
        self.den = den
        self.num = num
        self._view = None
        return self

    @property
    def c(self) -> Mapping[tuple, Fraction]:
        """Read-only multi-index -> Fraction view, built on first use."""
        if self._view is None:
            index, den = self.space._index, self.den
            self._view = MappingProxyType(
                {index(k): Fraction(v, den) for k, v in self.num.items()}
            )
        return self._view

    # -- bookkeeping -------------------------------------------------------

    def _check_space(self, other: "Jet"):
        if self.space is not other.space and self.space != other.space:
            raise IncompatibleJetsError(
                "jets from %r and %r cannot combine" % (self.space, other.space)
            )

    def truncated(self, kr: int, ky: int) -> "Jet":
        """Restriction to lower truncation orders (drops excess indices)."""
        if kr >= self.kr and ky >= self.ky:
            return self
        kr = kr if kr < self.kr else self.kr
        ky = ky if ky < self.ky else self.ky
        space = self.space
        off, guard = space._offset(kr, ky), space._guard
        num = {k: v for k, v in self.num.items() if not (k + off) & guard}
        if len(num) == len(self.num):
            return Jet._make(space, kr, ky, self.den, self.num)
        return _reduced(space, kr, ky, self.den, num)

    def _aligned(self, other: "Jet"):
        self._check_space(other)
        kr, ky = self.kr, self.ky
        if kr == other.kr and ky == other.ky:
            return self, other, kr, ky
        kr = kr if kr < other.kr else other.kr
        ky = ky if ky < other.ky else other.ky
        return self.truncated(kr, ky), other.truncated(kr, ky), kr, ky

    @property
    def is_zero(self) -> bool:
        return not self.num

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get(0, 0), self.den)

    def lowest_order_terms(self, kr: int, ky: int) -> tuple[int | None, dict]:
        """The terms of lowest total order m + sum(mu) among those inside
        orders (kr, ky), as (order, {monomial key: numerator over den}).
        The keys identify monomials and are opaque; (None, {}) if no term
        lies inside the orders."""
        if 0 in self.num:  # the constant term, inside any orders
            return 0, {0: self.num[0]}
        space = self.space
        off, guard, tshift = space._offset(kr, ky), space._guard, space._tshift
        low, out = None, {}
        for key, c in self.num.items():
            if (key + off) & guard:
                continue
            h = key >> tshift  # the m and t fields
            order = (h >> KEY_BITS) + (h & _FIELD)
            if low is None or order < low:
                low, out = order, {}
            if order == low:
                out[key] = c
        return low, out

    def __eq__(self, other):
        if isinstance(other, (int, str, Fraction)):
            other = self.space.constant(other, self.kr, self.ky)
        if not isinstance(other, Jet):
            return NotImplemented
        a, b, _, _ = self._aligned(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # equality aligns truncation orders, so only the constant term is
        # common to all jets equal to this one
        return hash(self.constant_term())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = self.space.constant(other, self.kr, self.ky)
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Jet._make(
            self.space, self.kr, self.ky, self.den, {k: -v for k, v in self.num.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = self.space.constant(other, self.kr, self.ky)
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _combine(self, other: "Jet", sign: int) -> "Jet":
        """self + sign * other over a common denominator."""
        a, b, kr, ky = self._aligned(other)
        if not b.num:
            return a
        if not a.num:
            return b if sign == 1 else -b
        da, db = a.den, b.den
        if da == db:
            den = da
            out = dict(a.num)
        else:
            g = math.gcd(da, db)
            fa = db // g
            sign *= da // g
            den = da * fa
            out = {k: v * fa for k, v in a.num.items()}
        get = out.get
        for k, v in b.num.items():
            out[k] = get(k, 0) + v * sign
        return _reduced(self.space, kr, ky, den, out)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        self._check_space(other)
        kr = self.kr if self.kr < other.kr else other.kr
        ky = self.ky if self.ky < other.ky else other.ky
        # the longer factor is the one the term loop may bucket
        a, b = (self, other) if len(self.num) <= len(other.num) else (other, self)
        return _sum_products(self.space, kr, ky, a.den * b.den, [(a, b, 1)], {})

    __rmul__ = __mul__

    def scale(self, value) -> "Jet":
        v = rational(value)
        p, q = v.numerator, v.denominator
        if not p or not self.num:
            return Jet._make(self.space, self.kr, self.ky, 1, {})
        # lowest terms from two gcds: den with p, and q with the numerators
        g1 = math.gcd(self.den, p)
        g2 = math.gcd(q, *self.num.values())
        f = p // g1
        den = (self.den // g1) * (q // g2)
        num = {k: (c // g2) * f for k, c in self.num.items()}
        return Jet._make(self.space, self.kr, self.ky, den, num)

    # -- calculus ------------------------------------------------------------

    def partial(self, direction: int) -> "Jet":
        """Formal partial derivative; spends one unit of the matching budget."""
        space = self.space
        n = space.n
        if not 0 <= direction < n:
            raise IncompatibleJetsError("direction %d out of range" % direction)
        if direction == 0:
            if self.kr == 0:
                raise BudgetExhaustedError("radial derivative budget exhausted")
            kr, ky = self.kr - 1, self.ky
            shift = space._mshift
            step = 1 << shift
        else:
            if self.ky == 0:
                raise BudgetExhaustedError("tangential derivative budget exhausted")
            kr, ky = self.kr, self.ky - 1
            shift = KEY_BITS * (n - 1 - direction)
            step = (1 << shift) + (1 << space._tshift)
        out = {}
        for k, v in self.num.items():
            e = (k >> shift) & _FIELD
            if e:
                out[k - step] = v * e
        return _reduced(space, kr, ky, self.den, out)

    def restricted_to_boundary(self) -> "Jet":
        """The y-jet at r = 0 (keeps only radially constant coefficients)."""
        return self.radial_coefficient(0)

    def radial_coefficient(self, m: int) -> "Jet":
        """The y-jet multiplying r^m (a Taylor coefficient, not a derivative)."""
        shift = self.space._mshift
        lo = m << shift
        out = {k - lo: v for k, v in self.num.items() if k >> shift == m}
        return _reduced(self.space, 0, self.ky, self.den, out)

    def radial_derivative_at_zero(self, m: int) -> "Jet":
        """The y-jet of the m-th radial derivative at r = 0."""
        return self.radial_coefficient(m).scale(math.factorial(m))

    # -- series functions ------------------------------------------------------

    def _series(self, coefficients: Iterable) -> "Jet":
        """Sum coeff[k] * (self - self(0))^k; the deviation has positive order
        so the sum terminates at total order kr + ky."""
        c0 = self.constant_term()
        u = self - c0
        acc = self.space.zero(self.kr, self.ky)
        power = self.space.one(self.kr, self.ky)
        for k, coeff in enumerate(coefficients):
            if k > 0:
                power = power * u
                if power.is_zero:
                    break
            acc = acc + power.scale(coeff)
        return acc

    def _series_order(self) -> int:
        return self.kr + self.ky + 1

    def reciprocal(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.constant_term()
        if not c0:
            raise NotInvertibleError("reciprocal of a jet with zero constant term")
        inv0 = 1 / c0
        coeffs = []
        acc = inv0
        for _ in range(self._series_order()):
            coeffs.append(acc)
            acc = -acc * inv0
        return self._series(coeffs)

    def sqrt(self) -> "Jet":
        """Square root; the constant term must be a positive rational square."""
        return self.nth_root(2)

    def nth_root(self, k: int) -> "Jet":
        """k-th root; the constant term must be a positive rational k-th power."""
        c0 = self.constant_term()
        if c0 <= 0:
            raise NotInvertibleError("root of a jet with non-positive constant term")
        num = _int_nth_root(c0.numerator, k)
        den = _int_nth_root(c0.denominator, k)
        if num is None or den is None:
            power = "square" if k == 2 else "%d-th power" % k
            raise BackendError("%s is not a perfect rational %s" % (c0, power))
        # (c0 + u)^(1/k) = s0 * sum C(1/k, j) (u/c0)^j
        s0 = Fraction(num, den)
        alpha = Fraction(1, k)
        inv0 = 1 / c0
        coeffs = []
        binom = Fraction(1)
        for j in range(self._series_order()):
            coeffs.append(s0 * binom * inv0**j)
            binom = binom * (alpha - j) / (j + 1)
        return self._series(coeffs)

    def exp(self) -> "Jet":
        """Truncated exponential; needs a zero constant term so the result
        stays in the rational field."""
        c0 = self.constant_term()
        if c0:
            raise BackendError("exp of nonzero constant term %s leaves the rational field" % c0)
        acc = Fraction(1)
        coeffs = []
        for j in range(self._series_order()):
            coeffs.append(acc)
            acc = acc / (j + 1)
        return self._series(coeffs)

    def log(self) -> "Jet":
        """Truncated logarithm; needs constant term 1, where the series
        coefficients are (-1)^(j+1)/j."""
        c0 = self.constant_term()
        if not c0:
            raise NotInvertibleError("log of a jet with non-positive constant term")
        if c0 != 1:
            raise BackendError("log of constant term %s != 1 leaves the rational field" % c0)
        coeffs = [0] + [Fraction((-1) ** (j + 1), j) for j in range(1, self._series_order())]
        return self._series(coeffs)

    # -- display ---------------------------------------------------------------

    def _monomial_str(self, idx) -> str:
        parts = []
        names = ["r"] + ["y%d" % a for a in range(1, self.space.n)]
        for name, e in zip(names, idx):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)

    def __repr__(self):
        if not self.num:
            return "Jet(0)"
        terms = []
        for idx, v in sorted(self.c.items()):
            mono = self._monomial_str(idx)
            val = str(v)
            terms.append(val if not mono else "%s*%s" % (val, mono))
        return "Jet(%s)" % " + ".join(terms)


def _sum_products(space: JetSpace, kr: int, ky: int, den: int, pairs, prepared: dict) -> "Jet":
    """The jet at orders (kr, ky) of the sum of f * a * b over the (a, b, f)
    in ``pairs``, each integer f putting the numerators of a * b over
    ``den``: the package's one term loop.  The sum is reduced once.

    A key k is inside the orders iff (k + off) & guard == 0, and keys of
    in-range factors add without carrying between fields.  ``prepared``
    holds each right-hand jet's in-range terms at an offset, and its buckets
    once a product is large, so that pairs sharing a right-hand jet build
    them once."""
    off, guard = space._offset(kr, ky), space._guard
    out: dict = {}
    get = out.get
    for a, b, f in pairs:
        prep = prepared.get((id(b), off))
        if prep is None:
            bitems = [(k, v) for k, v in b.num.items() if not (k + off) & guard]
            prep = prepared[id(b), off] = [bitems, None, {}]
        bitems = prep[0]
        if len(a.num) * len(bitems) <= _DIRECT_PAIRS:
            for k1, v1 in a.num.items():
                if (k1 + off) & guard:
                    continue
                v1 *= f
                for k2, v2 in bitems:
                    k = k1 + k2
                    if (k + off) & guard:
                        continue
                    out[k] = get(k, 0) + v1 * v2
            continue
        # large products: bucket b by its (m, t) fields, and give each (m, t)
        # of a the concatenated buckets whose products stay in range, so
        # that the inner loop visits in-range pairs only
        tshift = space._tshift
        offh, guardh = off >> tshift, guard >> tshift
        rows, partners = prep[1], prep[2]
        if rows is None:
            rows = {}
            for item in bitems:
                rows.setdefault(item[0] >> tshift, []).append(item)
            rows = prep[1] = list(rows.items())
        for k1, v1 in a.num.items():
            if (k1 + off) & guard:
                continue
            h1 = k1 >> tshift
            plist = partners.get(h1)
            if plist is None:
                plist = partners[h1] = [
                    item for h2, row in rows if not (h1 + h2 + offh) & guardh for item in row
                ]
            v1 *= f
            for k2, v2 in plist:
                k = k1 + k2
                out[k] = get(k, 0) + v1 * v2
    return _reduced(space, kr, ky, den, out)


def sums_of_products(groups: dict, sign: int) -> dict:
    """{key: sign * sum of a * b over the jet pairs (a, b) of groups[key]},
    without the sums that are zero.  Each sum takes the least orders of
    all its products, those that cancel included, and adds them as
    integers over one denominator, the lcm of theirs; a right-hand jet
    that several pairs share is prepared for the term loop once."""
    out = {}
    prepared: dict = {}
    for key, pairs in groups.items():
        a, b = pairs[0]
        space, kr, ky = a.space, a.kr, a.ky
        for a, b in pairs:
            a._check_space(b)
            kr = min(kr, a.kr, b.kr)
            ky = min(ky, a.ky, b.ky)
        den = math.lcm(*(a.den * b.den for a, b in pairs))
        terms = [(a, b, sign * (den // (a.den * b.den))) for a, b in pairs]
        jet = _sum_products(space, kr, ky, den, terms, prepared)
        if jet.num:
            out[key] = jet
    return out


def collar_from_radial_orders(
    space: JetSpace, orders: list, kr: int, ky: int
) -> Jet:
    """Assemble sum_m r^m/m! * orders[m](y) from boundary y-jets.

    The orders are m-th radial derivatives at r = 0; tangential content beyond
    each y-jet's own truncation is asserted to be zero.
    """
    _check_orders(kr, ky)
    coeffs: dict = {}
    for m, yjet in enumerate(orders):
        if yjet is None:
            continue
        if m > kr:
            raise BudgetExhaustedError("radial order %d exceeds budget %d" % (m, kr))
        fact = math.factorial(m)
        for idx, v in yjet.c.items():
            if sum(idx[1:]) > ky:
                continue
            coeffs[(m,) + idx[1:]] = v / fact
    return space.jet(coeffs, kr, ky)
