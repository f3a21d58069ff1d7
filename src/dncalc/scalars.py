"""The exact scalar backend for jet coefficients.

There is one backend: exact rationals, ``mpq`` being ``fractions.Fraction``.
Jets hold their coefficients as integers over a common denominator (see
``jets``), so this module supplies the scalar constants, coercions and
exact roots the other layers need, not the per-term arithmetic.  Exactness
is what makes all the residual and round-trip checks zero-tolerance, so
operations that would leave the rational field (square roots of non-squares,
exp of a nonzero rational) raise instead of approximating.
"""

from __future__ import annotations

from fractions import Fraction as mpq

from .errors import BackendError, NotInvertibleError


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact integer k-th root of n >= 0, or None if n is not a k-th power."""
    if n < 0:
        return None
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


def rational(value) -> "mpq":
    """Coerce ints, 'p/q' strings and rational-like values to the exact type."""
    if isinstance(value, float):
        raise BackendError("float value %r not allowed in the rational backend" % value)
    return mpq(value)


class RationalBackend:
    name = "rational"

    @staticmethod
    def coerce(value):
        return rational(value)

    @staticmethod
    def zero():
        return mpq(0)

    @staticmethod
    def one():
        return mpq(1)

    @staticmethod
    def sqrt(c):
        if c < 0:
            raise NotInvertibleError("square root of negative rational %s" % c)
        num = _int_nth_root(int(c.numerator), 2)
        den = _int_nth_root(int(c.denominator), 2)
        if num is None or den is None:
            raise BackendError("%s is not a perfect rational square" % c)
        return mpq(num, den)

    @staticmethod
    def nth_root(c, k):
        if c <= 0:
            raise NotInvertibleError("%d-th root of non-positive rational %s" % (k, c))
        num = _int_nth_root(int(c.numerator), k)
        den = _int_nth_root(int(c.denominator), k)
        if num is None or den is None:
            raise BackendError("%s is not a perfect rational %d-th power" % (c, k))
        return mpq(num, den)

    @staticmethod
    def exp(c):
        if c != 0:
            raise BackendError(
                "exp of nonzero constant term %s leaves the rational field" % c
            )
        return mpq(1)

    @staticmethod
    def log(c):
        if c != 1:
            raise BackendError(
                "log of constant term %s != 1 leaves the rational field" % c
            )
        return mpq(0)

    @staticmethod
    def to_float(c):
        return float(c)

    @staticmethod
    def to_str(c):
        return str(c)

    @staticmethod
    def from_str(s: str):
        return mpq(s)


RATIONAL = RationalBackend()


def get_backend(name: str):
    if name != RATIONAL.name:
        raise BackendError("unknown scalar backend %r" % name)
    return RATIONAL
