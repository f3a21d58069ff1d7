"""Numeric DN data on the Euclidean unit disk versus the symbol expansion.

For a radial weight V(rho) on the unit disk, separation of variables turns
the weighted harmonic equation into one radial ODE per Fourier mode k, and
the boundary ratio d_r u / u (r the inward distance 1 - rho) is the k-th DN
eigenvalue.  The same quantity expands asymptotically as the boundary symbol
evaluated at xi' = k, computed here exactly through the scalar factorisation
of the disk geometry g_{theta theta} = (1 - r)^2.

Two locked conventions are validated: the inward orientation of r (for V = 0
the exact eigenvalue is -k, matching the negative principal symbol), and the
depth bookkeeping (after subtracting the partial sum through grade 1 - J the
error must decay like k^{-J}).

The ODE is integrated in Riccati form u = phi'/phi, which stays O(k) on the
whole interval instead of spanning hundreds of orders of magnitude, with the
regular-solution data u(eps) = k/eps imposed near the coordinate centre; the
spurious mode decays like (eps/rho)^{2k}, far below solver tolerance.

numpy and scipy load on the first numeric solve, not at import: the exact
forward and inverse paths never use them, and importing ``scipy.integrate``
costs most of a cold start.  The ODE's right-hand side works on Python
floats, with V' evaluated from coefficients converted once per problem, in
the same order of float operations as an evaluation on numpy scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DataError
from .factorization import factorize_scalar
from .geometry import BoundaryMetricJet
from .jets import JetSpace


def mode_ladder(lo: int, hi: int) -> list:
    """Modes from lo to hi, both included, in steps of about sqrt 2."""
    modes = []
    k = lo
    while k < hi:
        modes.append(k)
        k = max(k + 1, int(round(k * 2 ** 0.5)))
    modes.append(hi)
    return modes


@dataclass
class RadialProblem:
    """Radial weight V(rho) = sum_i rho_coeffs[i] rho^i and its Fourier modes."""

    rho_coeffs: tuple = ()
    modes: tuple = tuple(mode_ladder(8, 64))
    #: V'(rho) = sum of a * rho ** p over these (p, a), in float
    weight_prime_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rho_coeffs = tuple(Fraction(c) for c in self.rho_coeffs)
        self.weight_prime_terms = tuple(
            (i - 1, i * float(c)) for i, c in enumerate(self.rho_coeffs) if i
        )

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.rho_coeffs[1:])


def solve_mode(problem: RadialProblem, k: int) -> float:
    """Inward conormal ratio d_r u / u at the boundary for Fourier mode k.

    Solves u' = k^2/rho^2 - u^2 - u/rho + V'(rho) u for u = phi'/phi from the
    inner cutoff to rho = 1 and returns -u(1); for V = 0 the answer is -k.
    """
    if k < 1:
        raise DataError("mode number must be a positive integer")
    from scipy.integrate import solve_ivp

    eps = 0.25
    kk = k * k
    terms = problem.weight_prime_terms

    def rhs(rho, y):
        rho = float(rho)
        u = float(y[0])
        weight_prime = 0.0
        for p, a in terms:
            weight_prime += a * rho ** p
        return [kk / (rho * rho) - u * u - u / rho + weight_prime * u]

    sol = solve_ivp(
        rhs,
        (eps, 1.0),
        [k / eps],
        method="DOP853",
        rtol=1e-12,
        atol=1e-10,
        dense_output=False,
    )
    if not sol.success:
        raise DataError("radial solver failed for mode %d: %s" % (k, sol.message))
    u_boundary = sol.y[0][-1]
    if not math.isfinite(u_boundary):
        raise DataError("degenerate mode %d: boundary value of phi vanished" % k)
    return -u_boundary


def disk_geometry(depth: int):
    """Rational collar data of the unit disk: one tangential direction with
    g_{theta theta} = (1 - r)^2, at the truncation orders a factorisation to
    depth + 1 needs."""
    kr, ky = depth + 2, depth + 1
    sp = JetSpace(2)
    one = sp.one(kr, ky)
    r = sp.coordinate(0, kr, ky)
    g = (one - r) * (one - r)
    return BoundaryMetricJet([[g]])


def disk_weight_jet(problem: RadialProblem, metric: BoundaryMetricJet):
    """V as a collar jet: substitute rho = 1 - r and drop the constant term
    (an additive constant never enters the scalar factorisation)."""
    sp = metric.space
    kr, ky = metric.kr, metric.ky
    one = sp.one(kr, ky)
    rho = one - sp.coordinate(0, kr, ky)
    acc = sp.zero(kr, ky)
    power = one
    for i, c in enumerate(problem.rho_coeffs):
        if i:
            power = power * rho
            acc = acc + power.scale(c)
    return acc


def symbol_partial_sum(factorization, depth: int, k: int) -> float:
    """Sum of the boundary symbol components of a disk factorisation, grades
    1 down to 1 - depth, at the fibre point xi' = k."""
    total = 0.0 + 0.0j
    for j in range(1, -depth, -1):
        sym = factorization.symbol.grade(j)
        total += sym.eval_at_base((k,))
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise DataError("radial data produced a non-real symbol value")
    return total.real


def disk_factorization(problem: RadialProblem, depth: int):
    """Scalar factorisation of the disk operator retaining grades down to
    1 - depth (one grade deeper than `depth` alone would suggest, because the
    comparison subtracts the full partial sum through grade 1 - depth)."""
    metric = disk_geometry(depth)
    weight = disk_weight_jet(problem, metric)
    return factorize_scalar(metric, weight, depth + 1)


@dataclass
class ModeComparison:
    mode: int
    numeric: float
    partial_sum: float

    @property
    def error(self) -> float:
        return self.numeric - self.partial_sum


@dataclass
class DiskComparison:
    depth: int
    rows: list = field(default_factory=list)
    slope: float | None = None
    slope_bound: float | None = None
    passed: bool = False
    skipped: bool = False
    note: str = ""


def asymptotic_compare(problem: RadialProblem, depth: int) -> DiskComparison:
    """Numeric DN ratios against the depth-`depth` symbol partial sums.

    Fits the log-log decay of the error over the modes and passes when the
    slope is at most -(depth - 0.3).  A trivial weight leaves errors at the
    discretisation floor, where a slope fit means nothing; that case reports
    success with the fit skipped.
    """
    import numpy as np

    modes = sorted(set(problem.modes))
    if len(modes) < 2 or modes[-1] < 2 * modes[0]:
        raise DataError("mode list must span at least one octave")
    fact = disk_factorization(problem, depth)
    out = DiskComparison(depth=depth, slope_bound=-(depth - 0.3))
    for k in modes:
        numeric = solve_mode(problem, k)
        partial = symbol_partial_sum(fact, depth, k)
        out.rows.append(ModeComparison(k, numeric, partial))
    errors = np.array([abs(row.error) for row in out.rows], dtype=float)
    ks = np.array(modes, dtype=float)
    floor = 1e-8 * ks
    if problem.is_trivial or np.all(errors <= floor):
        out.skipped = True
        out.passed = bool(np.all(errors <= floor))
        out.note = "errors at the solver floor; decay fit skipped"
        return out
    if np.any(errors == 0.0):
        nonzero = errors > 0
        ks, errors = ks[nonzero], errors[nonzero]
    slope = float(np.polyfit(np.log(ks), np.log(errors), 1)[0])
    out.slope = slope
    out.passed = slope <= out.slope_bound
    if not out.passed:
        out.note = "fitted slope %.3f exceeds bound %.3f" % (slope, out.slope_bound)
    return out
