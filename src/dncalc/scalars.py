"""Exact rational scalars for jet coefficients.

Every scalar is an exact rational, ``mpq`` being ``fractions.Fraction``.
Jets hold their coefficients as integers over a common denominator (see
``jets``), so this module supplies the coercion and the exact roots and
series constants the other layers need, not the per-term arithmetic.
Exactness is what makes all the residual and round-trip checks
zero-tolerance, so operations that would leave the rational field (square
roots of non-squares, exp of a nonzero rational) raise instead of
approximating.
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


def rational(value) -> mpq:
    """Coerce ints, 'p/q' strings and rational-like values to the exact type."""
    if isinstance(value, float):
        raise BackendError("float value %r not allowed in the rational backend" % value)
    return mpq(value)


def sqrt(c: mpq) -> mpq:
    if c < 0:
        raise NotInvertibleError("square root of negative rational %s" % c)
    num = _int_nth_root(c.numerator, 2)
    den = _int_nth_root(c.denominator, 2)
    if num is None or den is None:
        raise BackendError("%s is not a perfect rational square" % c)
    return mpq(num, den)


def nth_root(c: mpq, k: int) -> mpq:
    if c <= 0:
        raise NotInvertibleError("%d-th root of non-positive rational %s" % (k, c))
    num = _int_nth_root(c.numerator, k)
    den = _int_nth_root(c.denominator, k)
    if num is None or den is None:
        raise BackendError("%s is not a perfect rational %d-th power" % (c, k))
    return mpq(num, den)


def exp(c: mpq) -> mpq:
    if c != 0:
        raise BackendError("exp of nonzero constant term %s leaves the rational field" % c)
    return mpq(1)


def log(c: mpq) -> mpq:
    if c != 1:
        raise BackendError("log of constant term %s != 1 leaves the rational field" % c)
    return mpq(0)
