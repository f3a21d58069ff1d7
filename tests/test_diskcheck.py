import math

import pytest

from dncalc.diskcheck import (
    RadialProblem,
    asymptotic_compare,
    disk_factorization,
    solve_mode,
    symbol_partial_sum,
)
from dncalc.errors import DataError
from fractions import Fraction as mpq


def test_harmonic_modes_reproduce_minus_k():
    problem = RadialProblem(rho_coeffs=())
    for k in (1, 2, 5, 13, 32):
        ratio = solve_mode(problem, k)
        assert abs(ratio + k) <= 1e-8 * k


def test_flat_disk_symbol_is_exactly_minus_k():
    # the curvature contributions cancel identically on the disk: every
    # subprincipal grade vanishes for the trivial weight
    problem = RadialProblem(rho_coeffs=())
    fact = disk_factorization(problem, 3)
    for j in range(0, -3, -1):
        assert fact.symbol.grade(j).is_zero
    assert symbol_partial_sum(fact, 3, 7) == -7.0


def test_quadratic_weight_symbol_values():
    # V(rho) = (1 - rho)^2 / 2 = r^2/2: the first correction is 1/(4k)
    problem = RadialProblem(rho_coeffs=(mpq(1, 2), mpq(-1), mpq(1, 2)))
    fact = disk_factorization(problem, 2)
    bctx = fact.metric.restricted_to_boundary().ctx
    assert fact.symbol.grade(0).restricted_to_boundary(bctx).is_zero
    k = 8
    partial1 = symbol_partial_sum(fact, 1, k)
    partial2 = symbol_partial_sum(fact, 2, k)
    assert partial1 == -float(k)
    assert partial2 == pytest.approx(-k + 1 / (4 * k))


def test_cubic_weight_modes_are_pinned_bit_for_bit():
    # V' has a rho^2 term here, which the default quadratic weight never
    # reaches; the values are those of an evaluation on numpy scalars, and
    # any change in the order of the float operations moves them
    problem = RadialProblem(rho_coeffs=("1/3", "-1/2", "1/4", "-1/5"))
    assert solve_mode(problem, 3) == -2.7816903270196423
    assert solve_mode(problem, 8) == -7.738694920698451
    assert solve_mode(problem, 21) == -20.71639049700287


def test_numeric_matches_depth_two_expansion():
    problem = RadialProblem(rho_coeffs=(mpq(1, 2), mpq(-1), mpq(1, 2)))
    k = 32
    numeric = solve_mode(problem, k)
    partial = symbol_partial_sum(disk_factorization(problem, 2), 2, k)
    # error should be O(k^-2), comfortably below 1/k
    assert abs(numeric - partial) < 1.0 / (k * k)


def test_asymptotic_compare_trivial_weight_skips_fit():
    problem = RadialProblem(rho_coeffs=(), modes=(8, 16, 32))
    comp = asymptotic_compare(problem, 2)
    assert comp.skipped and comp.passed


def test_asymptotic_compare_quadratic_weight_depths():
    problem = RadialProblem(rho_coeffs=(mpq(1, 2), mpq(-1), mpq(1, 2)))
    for depth in (2, 3):
        comp = asymptotic_compare(problem, depth)
        assert not comp.skipped
        assert comp.slope is not None
        assert comp.passed, "slope %r vs bound %r" % (comp.slope, comp.slope_bound)


def test_insufficient_modes_rejected():
    problem = RadialProblem(rho_coeffs=(0, 1), modes=(8, 9))
    with pytest.raises(DataError):
        asymptotic_compare(problem, 2)
