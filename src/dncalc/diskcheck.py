"""Exact DN data on the Euclidean unit disk versus the symbol expansion.

For a radial weight V(rho) on the unit disk, separation of variables turns
the weighted harmonic equation into one radial equation per Fourier mode k,
and the boundary ratio d_r u / u (r the inward distance 1 - rho) is the k-th
DN eigenvalue.  The same quantity expands asymptotically as the boundary
symbol evaluated at xi' = k, computed here exactly through the scalar
factorisation of the disk geometry g_{theta theta} = (1 - r)^2.

Two locked conventions are validated: the inward orientation of r (for V = 0
the exact eigenvalue is -k, matching the negative principal symbol), and the
depth bookkeeping (after subtracting the partial sum through grade 1 - J the
error must decay like k^{-J}).

The eigenvalue comes from the regular solution of the mode's equation
phi'' + phi'/rho - k^2 phi/rho^2 = V' phi', summed as its Frobenius series
in exact rationals on the whole disk, with no inner cutoff.  For
V'(rho) = sum_p a_p rho^p,

    phi = rho^k sum_n c_n rho^n,   c_0 = 1,
    n (2k + n) c_n = sum_p a_p (k + n - p - 1) c_{n-p-1},

an entire series, and the eigenvalue is -phi'(1)/phi(1), with
phi(1) = sum_n c_n and phi'(1) = sum_n (k + n) c_n.  Both are positive for
every real weight: (rho e^{-V} phi')' = k^2 e^{-V} phi / rho keeps phi
increasing from phi ~ rho^k.

The tail rule.  Let B = sum_p |a_p| and W = p_max + 1.  The recurrence gives
|c_n| <= B (k + n) / (n (2k + n)) times the largest of the W terms before
c_n, and that factor falls with n.  So once B (k + n) <= n (2k + n) / 2, each
later term is at most half the largest of the W before it.  With M the
largest of the last W terms summed, the next blocks of W terms are at most
M/2, M/4, ..., so the rest of phi(1) is at most W M and the rest of phi'(1)
at most W M (k + n + 2W).  The sum stops once that bound is at most
``TAIL`` times the partial sum of phi(1).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DataError
from .factorization import factorize_scalar
from .geometry import BoundaryMetricJet
from .jets import JetSpace

#: the bound on the series' rest, relative to phi(1), at which it stops
TAIL = Fraction(1, 10 ** 40)


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

    def __post_init__(self):
        self.rho_coeffs = tuple(Fraction(c) for c in self.rho_coeffs)

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.rho_coeffs[1:])


def solve_mode(problem: RadialProblem, k: int) -> float:
    """Inward conormal ratio d_r u / u at the boundary for Fourier mode k:
    -phi'(1)/phi(1) of the Frobenius series, summed by the tail rule of the
    module docstring.  For V = 0 the answer is -k exactly."""
    if k < 1:
        raise DataError("mode number must be a positive integer")
    # a[p] = (p + 1) rho_coeffs[p + 1], the coefficient of rho^p in V'
    a = [i * c for i, c in enumerate(problem.rho_coeffs) if i]
    width = max(len(a), 1)
    bound = sum(abs(x) for x in a)
    c = [Fraction(1)]
    phi, dphi = Fraction(1), Fraction(k)
    n = 0
    while True:
        n += 1
        acc = sum(a[p] * (k + n - p - 1) * c[n - p - 1] for p in range(min(len(a), n)))
        c.append(Fraction(acc, n * (2 * k + n)))
        phi += c[n]
        dphi += (k + n) * c[n]
        if 2 * bound * (k + n + 1) <= (n + 1) * (2 * k + n + 1):
            rest = width * max(abs(x) for x in c[-width:]) * (k + n + 2 * width)
            if rest <= TAIL * phi:
                break
    if phi == 0:
        raise DataError("degenerate mode %d: boundary value of phi vanished" % k)
    return -float(dphi / phi)


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
    """DN eigenvalues against the depth-`depth` symbol partial sums.

    Fits the log-log decay of the error over the modes by least squares and
    passes when the slope is at most -(depth - 0.3).  A trivial weight
    leaves errors at the floating-point floor of the partial sums, where a
    slope fit means nothing; that case reports success with the fit skipped.
    """
    modes = sorted(set(problem.modes))
    if len(modes) < 2 or modes[-1] < 2 * modes[0]:
        raise DataError("mode list must span at least one octave")
    fact = disk_factorization(problem, depth)
    out = DiskComparison(depth=depth, slope_bound=-(depth - 0.3))
    for k in modes:
        numeric = solve_mode(problem, k)
        partial = symbol_partial_sum(fact, depth, k)
        out.rows.append(ModeComparison(k, numeric, partial))
    errors = [abs(row.error) for row in out.rows]
    at_floor = all(e <= 1e-8 * k for e, k in zip(errors, modes))
    if problem.is_trivial or at_floor:
        out.skipped = True
        out.passed = at_floor
        out.note = "errors at the floating-point floor; decay fit skipped"
        return out
    fit = [(math.log(k), math.log(e)) for k, e in zip(modes, errors) if e > 0]
    slope = statistics.linear_regression(*zip(*fit)).slope
    out.slope = slope
    out.passed = slope <= out.slope_bound
    if not out.passed:
        out.note = "fitted slope %.3f exceeds bound %.3f" % (slope, out.slope_bound)
    return out
