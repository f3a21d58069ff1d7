"""Linear covariance: an oracle for y-dependent symbols in n = 3 and 4.

For a rational invertible A, the data g_A(y) = A^T g(A y) A and
V_A(y) = V(A y) are (g, V) in the coordinates y' = A y.  A symbol of the
operator transforms under a linear change of coordinates with no
lower-order terms (Hoermander, ALPDO III, Section 18.1), so every grade of
every factorisation, and of the DN data, satisfies

    s^A_j(r, y, A^T eta) = s_j(r, A y, eta)

exactly, and the squared densities differ by (det A)^2.  Both sides come
from the package, but with an A that mixes directions a fault in the
K-sums, their 1/K! weights or a D_y chain breaks the identity unless it
commutes with every A.  The jets are compared at rational fibre points
eta, after substituting y -> A y in the right-hand side.
"""

from fractions import Fraction

import pytest

from dncalc.dn import dn_symbol_gauge, dn_symbol_scalar, shared_forward_runs
from dncalc.factorization import factorize_gauge, factorize_scalar
from dncalc.geometry import BoundaryMetricJet, det, gauge_s, gauge_sigma
from dncalc.randomgen import random_instance

from helpers import substituted

F = Fraction

#: n -> (random_instance arguments, A, fibre points eta); each A mixes
#: every tangential direction
CASES = {
    3: (
        dict(seed=11, n=3, kr=4, ky=3),
        [[F(2), F(1)], [F(-1), F(1, 2)]],
        [(F(1), F(0)), (F(1), F(2)), (F(-3), F(1, 2))],
    ),
    4: (
        dict(seed=42, n=4, kr=4, ky=3),
        [[F(1), F(1, 2), F(0)], [F(0), F(1), F(-1)], [F(1, 3), F(0), F(2)]],
        [(F(1), F(0), F(0)), (F(1), F(-2), F(1, 3))],
    ),
}
DEPTH = 3


def transformed(metric, weight, matrix):
    """(g_A, V_A) with g_A(y) = A^T g(A y) A and V_A(y) = V(A y)."""
    nt = len(matrix)
    g = [[substituted(entry, matrix) for entry in row] for row in metric.g_lower]
    rows = []
    for a in range(nt):
        row = []
        for b in range(nt):
            acc = metric.space.zero(metric.kr, metric.ky)
            for c in range(nt):
                for d in range(nt):
                    acc = acc + g[c][d].scale(matrix[c][a] * matrix[d][b])
            row.append(acc)
        rows.append(row)
    return BoundaryMetricJet(rows), substituted(weight, matrix)


def exact(jet):
    return jet.kr, jet.ky, dict(jet.c)


def assert_covariant(got, want, matrix, etas):
    """Every grade of the FormalSymbol ``got`` (of the transformed data) at
    A^T eta equals that of ``want`` at eta with y -> A y."""
    assert list(got.grades()) == list(want.grades())
    nt = len(matrix)
    for j in want.grades():
        s_a, s = got.grade(j), want.grade(j)
        assert (s_a.a.imag, s_a.b.imag) == (s.a.imag, s.b.imag) or s.is_zero
        for eta in etas:
            xi = [sum(matrix[c][a] * eta[c] for c in range(nt)) for a in range(nt)]
            lhs = [exact(part) for part in s_a.eval_jets(xi)]
            rhs = [exact(substituted(part, matrix)) for part in s.eval_jets(eta)]
            assert lhs == rhs, (j, eta)


def factorisations(metric, weight):
    return {
        "scalar": factorize_scalar(metric, weight, DEPTH).symbol,
        "s": factorize_gauge(metric, gauge_s(metric, weight), DEPTH, weight=weight).symbol,
        "sigma": factorize_gauge(
            metric, gauge_sigma(metric, weight), DEPTH, weight=weight
        ).symbol,
    }


def dn_data(metric, weight):
    with shared_forward_runs():
        return {
            "lambda0": dn_symbol_scalar(metric, weight, DEPTH),
            "s": dn_symbol_gauge(metric, weight, DEPTH, "s"),
            "sigma": dn_symbol_gauge(metric, weight, DEPTH, "sigma"),
        }


@pytest.mark.parametrize("n", sorted(CASES))
def test_every_factorisation_is_linearly_covariant(n):
    args, matrix, etas = CASES[n]
    metric, weight = random_instance(**args)
    want = factorisations(metric, weight)
    got = factorisations(*transformed(metric, weight, matrix))
    for kind in want:
        assert_covariant(got[kind], want[kind], matrix, etas)


@pytest.mark.parametrize("n", sorted(CASES))
def test_the_dn_data_are_linearly_covariant(n):
    args, matrix, etas = CASES[n]
    metric, weight = random_instance(**args)
    want = dn_data(metric, weight)
    got = dn_data(*transformed(metric, weight, matrix))
    det_sq = det(matrix) ** 2
    for kind in want:
        assert_covariant(got[kind].symbol, want[kind].symbol, matrix, etas)
        density = substituted(want[kind].density_sq, matrix).scale(det_sq)
        assert exact(got[kind].density_sq) == exact(density)
