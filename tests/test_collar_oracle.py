"""Numeric oracle for the scalar DN symbol in dimensions 3 and 4.

On the collar T^(n-1) x [0, L] with the y-independent metric
dr^2 + g_ab(r) dy^a dy^b and weight V(r), each Fourier mode e^{i k.y}
separates.  The weighted harmonic equation becomes
phi'' + (log(delta)'/2 - V') phi' - q2(r, k) phi = 0, with delta = det g and
q2(r, k) = g^{ab}(r) k_a k_b, so w = phi'/phi solves the Riccati equation

    w' = q2(r, k) - w^2 - (log(delta)'/2 - V') w.

Integrated backwards from r = L, where w(L) = -sqrt(q2(L, k)) picks the
branch decaying into the collar, w(0) is the DN ratio of mode k up to an
error of order e^(-2|k|L), and it must agree with the boundary symbol of
the scalar map at xi' = k.  After subtracting the partial sum of grades
1 down to 1 - J, the error must decay like |k|^(-J).  The metric has
off-diagonal terms and the directions of k vary, so that the anisotropic
parts of q2 enter.  The ODE is solved by ``scipy`` and the symbol by exact
jet arithmetic, so the two sides share no code.

The gauge map in the flat trivialisation sigma has no connection form and
the Schroedinger potential U = -(V'' + log(delta)' V'/2)/2 + V'^2/4, so its
ratio solves

    w' = q2(r, k) + U - w^2 - log(delta)' w / 2

with the same branch at r = L, and it must agree with the boundary symbol
of Lambda1 in gauge sigma in the same way.
"""

from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from scipy.integrate import solve_ivp

from dncalc.dn import dn_symbol_gauge, dn_symbol_scalar
from dncalc.geometry import BoundaryMetricJet
from dncalc.jets import JetSpace

L = 1.0
MODES = (8, 11, 16, 23, 32)

#: g_ab(r) as coefficient lists in r (upper triangle), and V(r), per dimension
METRICS = {
    3: {
        (0, 0): ("1", "1/2", "-1/4"),
        (0, 1): ("1/4", "-1/3"),
        (1, 1): ("3/2", "1/5", "1/3"),
    },
    4: {
        (0, 0): ("1", "-1/3", "1/4"),
        (0, 1): ("1/5", "1/4"),
        (0, 2): ("-1/6",),
        (1, 1): ("4/3", "1/2"),
        (1, 2): ("1/4", "-1/5", "1/6"),
        (2, 2): ("1", "1/3", "-1/5"),
    },
}
WEIGHT = ("0", "1/2", "-1/3", "1/4")
DIRECTIONS = {3: ((1, 0), (1, 1), (1, -2)), 4: ((1, 0, 0), (1, 1, 1), (2, -1, 1))}


def coefficients(n):
    """g_ab(r) as an array (power of r, a, b) of floats."""
    nt = n - 1
    out = np.zeros((max(map(len, METRICS[n].values())), nt, nt))
    for (a, b), coeffs in METRICS[n].items():
        for m, c in enumerate(coeffs):
            out[m, a, b] = out[m, b, a] = float(Fraction(c))
    return out


def dn_ratio(n, k, gauge):
    """w(0) for the Fourier mode k, from the Riccati equation of the scalar
    map, or with gauge of the gauge map in trivialisation sigma."""
    k = np.array(k, dtype=float)
    g_coeffs = coefficients(n)
    dg_coeffs = P.polyder(g_coeffs)
    dv_coeffs = P.polyder([float(Fraction(c)) for c in WEIGHT])
    d2v_coeffs = P.polyder(dv_coeffs)

    def q2(r):
        return k @ np.linalg.solve(P.polyval(r, g_coeffs), k)

    def rhs(r, w):
        g, dg = P.polyval(r, g_coeffs), P.polyval(r, dg_coeffs)
        dlog_delta = np.trace(np.linalg.solve(g, dg))
        dv = P.polyval(r, dv_coeffs)
        if gauge:
            u = -(P.polyval(r, d2v_coeffs) + dlog_delta * dv / 2) / 2 + dv**2 / 4
            drift = 0.5 * dlog_delta
        else:
            u, drift = 0.0, 0.5 * dlog_delta - dv
        return [q2(r) + u - w[0] ** 2 - drift * w[0]]

    sol = solve_ivp(rhs, (L, 0.0), [-np.sqrt(q2(L))], method="DOP853", rtol=1e-12, atol=1e-10)
    assert sol.success, sol.message
    return sol.y[0][-1]


def boundary_symbol(n, depth, dn_map):
    kr, ky = depth + 1, depth
    sp = JetSpace(n)

    def radial(coeffs):
        return sp.jet({(m,) + (0,) * (n - 1): c for m, c in enumerate(coeffs)}, kr, ky)

    rows = [[None] * (n - 1) for _ in range(n - 1)]
    for (a, b), coeffs in METRICS[n].items():
        rows[a][b] = rows[b][a] = radial(coeffs)
    metric = BoundaryMetricJet(rows)
    return dn_map(metric, radial(WEIGHT), depth).symbol


def assert_symbol_matches_the_separated_collar(n, dn_map, gauge):
    J = 3
    symbol = boundary_symbol(n, J + 1, dn_map)  # grades 1 down to 1 - J
    for direction in DIRECTIONS[n]:
        errors = []
        for t in MODES:
            k = tuple(t * d for d in direction)
            terms = [symbol.grade(j).eval_at_base(k) for j in range(1, -J, -1)]
            partial = sum(terms)
            assert abs(partial.imag) < 1e-12 * abs(partial)
            ratio = dn_ratio(n, k, gauge)
            errors.append(abs(ratio - partial.real))
        slope = np.polyfit(np.log(MODES), np.log(errors), 1)[0]
        assert slope <= -(J - 0.3), (direction, slope, errors)
        # without grade 1 - J the error is of order |k|^(1 - J), so the
        # comparison resolves the last grade
        assert abs(ratio - (partial - terms[-1]).real) > 10 * errors[-1]


@pytest.mark.parametrize("n", (3, 4))
def test_scalar_symbol_matches_the_separated_collar(n):
    assert_symbol_matches_the_separated_collar(n, dn_symbol_scalar, False)


@pytest.mark.parametrize("n", (3, 4))
def test_gauge_sigma_symbol_matches_the_separated_collar(n):
    def sigma(metric, weight, depth):
        return dn_symbol_gauge(metric, weight, depth, "sigma")

    assert_symbol_matches_the_separated_collar(n, sigma, True)
