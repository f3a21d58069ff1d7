import pytest
from scipy.integrate import solve_ivp

from dncalc.diskcheck import (
    RadialProblem,
    asymptotic_compare,
    disk_factorization,
    mode_ladder,
    solve_mode,
    symbol_partial_sum,
)
from dncalc.errors import DataError
from fractions import Fraction as mpq

QUADRATIC = RadialProblem(rho_coeffs=(mpq(1, 2), mpq(-1), mpq(1, 2)))
CUBIC = RadialProblem(rho_coeffs=("1/3", "-1/2", "1/4", "-1/5"))


def ode_mode(problem, k):
    """Independent reference for ``solve_mode``: the Riccati form u = phi'/phi
    of the mode's equation, u' = k^2/rho^2 - u^2 - u/rho + V'(rho) u,
    integrated in floats by DOP853 from the regular data u(eps) = k/eps, and
    -u(1).  The spurious mode decays like (eps/rho)^(2k), at most 1e-12 for
    eps = 0.01 and k >= 3, below the solver's tolerance."""
    eps = 0.01
    terms = [(i - 1, i * float(c)) for i, c in enumerate(problem.rho_coeffs) if i]

    def rhs(rho, y):
        u = y[0]
        weight_prime = sum(a * rho ** p for p, a in terms)
        return [k * k / (rho * rho) - u * u - u / rho + weight_prime * u]

    sol = solve_ivp(rhs, (eps, 1.0), [k / eps], method="DOP853", rtol=1e-12, atol=1e-10)
    assert sol.success, sol.message
    return -float(sol.y[0][-1])


@pytest.mark.parametrize(
    "problem, modes",
    [(QUADRATIC, mode_ladder(8, 64)), (CUBIC, (3, 8, 21))],
    ids=["quadratic", "cubic"],
)
def test_the_series_agrees_with_an_ode_solve_from_near_the_centre(problem, modes):
    for k in modes:
        assert abs(solve_mode(problem, k) - ode_mode(problem, k)) <= 1e-9, k


def test_harmonic_modes_reproduce_minus_k():
    problem = RadialProblem(rho_coeffs=())
    for k in (1, 2, 5, 13, 32):
        assert solve_mode(problem, k) == -k


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
    # reaches; each value is the float of an exact rational summed past the
    # tail rule, so only a change to the series or its rule moves it
    assert solve_mode(CUBIC, 3) == -2.7816802016510382
    assert solve_mode(CUBIC, 8) == -7.738694920687147
    assert solve_mode(CUBIC, 21) == -20.716390497002813


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
