"""Geometric data on a boundary collar in normal coordinates.

The metric has the block form dr^2 + g_{ab}(r,y) dy^a dy^b, so only the
tangential block is stored.  Everything the factorisations consume is
derived here: the inverse metric, the determinant delta and its logarithmic
derivatives, the first-order drift coefficients, the zeroth-order potential
of the Schroedinger form, and the gauge potentials of the two distinguished
trivialisations.

Square roots of delta never appear explicitly: the recursions only need
logarithmic derivatives of delta, and boundary densities are carried as
their squares, which keeps every quantity in the rational field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MetricError
from .jets import Jet, JetSpace
from .symbols import HomSymbol, SymbolContext

HALF = Fraction(1, 2)


def det(mat):
    """Determinant by cofactor expansion along the first row; the entries
    may be jets or rationals."""
    if len(mat) == 1:
        return mat[0][0]
    acc = None
    for j, x in enumerate(mat[0]):
        term = x * det([row[:j] + row[j + 1 :] for row in mat[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _inverse(mat):
    """(det, 1/det, inverse) of a square matrix of jets, the inverse being
    the adjugate over the determinant, which is expanded along the first
    row of cofactors."""
    n = len(mat)
    if n == 1:
        inv = mat[0][0].reciprocal()
        return mat[0][0], inv, ((inv,),)
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = det([row[:j] + row[j + 1 :] for k, row in enumerate(mat) if k != i])
            cof[i][j] = -c if (i + j) % 2 else c
    d = mat[0][0] * cof[0][0]
    for j in range(1, n):
        d = d + mat[0][j] * cof[0][j]
    inv = d.reciprocal()
    return d, inv, tuple(tuple(cof[j][i] * inv for j in range(n)) for i in range(n))


class BoundaryMetricJet:
    """Tangential metric block and its derived data on the collar."""

    __slots__ = (
        "space",
        "n",
        "g_lower",
        "g_upper",
        "delta",
        "delta_inv",
        "kr",
        "ky",
        "ctx",
        "_dlog_delta",
        "_boundary",
    )

    def __init__(self, g_lower):
        rows = tuple(tuple(row) for row in g_lower)
        self._check(rows)
        delta, delta_inv, g_upper = _inverse(rows)
        self._set(rows, g_upper, delta, delta_inv)

    def _set(self, g_lower, g_upper, delta, delta_inv):
        self.space = delta.space
        self.n = self.space.n
        self.g_lower, self.g_upper = g_lower, g_upper
        self.delta, self.delta_inv = delta, delta_inv
        self.kr = min(j.kr for row in g_lower for j in row)
        self.ky = min(j.ky for row in g_lower for j in row)
        self.ctx = SymbolContext(g_upper)
        self._dlog_delta = {}
        self._boundary = None

    @classmethod
    def flat(cls, space: JetSpace, kr: int, ky: int) -> "BoundaryMetricJet":
        """The identity block at truncation orders (kr, ky)."""
        nt = space.n - 1
        return cls(
            [
                [space.one(kr, ky) if a == b else space.zero(kr, ky) for b in range(nt)]
                for a in range(nt)
            ]
        )

    @classmethod
    def from_upper(cls, g_upper) -> "BoundaryMetricJet":
        """Build from the inverse block (used when reconstructions recover
        g^{ab} rather than g_{ab}), kept at the common orders of its
        entries; delta is the reciprocal of its determinant."""
        kr = min(j.kr for row in g_upper for j in row)
        ky = min(j.ky for row in g_upper for j in row)
        rows = tuple(tuple(j.truncated(kr, ky) for j in row) for row in g_upper)
        delta_inv, delta, g_lower = _inverse(rows)
        cls._check(rows)
        metric = cls.__new__(cls)
        metric._set(g_lower, rows, delta, delta_inv)
        return metric

    def _mapped(self, fn) -> "BoundaryMetricJet":
        """fn applied to every entry of both blocks and to both determinants.
        fn is a jet truncation, a ring homomorphism that keeps constant
        terms, so the result needs no inversion and no checks."""
        g_lower, g_upper = (
            tuple(tuple(map(fn, row)) for row in b) for b in (self.g_lower, self.g_upper)
        )
        metric = BoundaryMetricJet.__new__(BoundaryMetricJet)
        metric._set(g_lower, g_upper, fn(self.delta), fn(self.delta_inv))
        return metric

    @staticmethod
    def _check(rows):
        """Refuse a block that is not (n-1) x (n-1), not symmetric, or whose
        constant term has a leading minor <= 0."""
        nt = rows[0][0].space.n - 1
        if len(rows) != nt or any(len(r) != nt for r in rows):
            raise MetricError("tangential block must be (n-1) x (n-1)")
        for a in range(nt):
            for b in range(a + 1, nt):
                if rows[a][b] != rows[b][a]:
                    raise MetricError("metric block is not symmetric")
        const = [[j.constant_term() for j in row] for row in rows]
        for k in range(1, nt + 1):
            if det([row[:k] for row in const[:k]]) <= 0:
                raise MetricError(
                    "constant term of the metric block is not positive definite"
                )

    # -- derived scalars -----------------------------------------------------

    def dlog_delta(self, direction: int) -> Jet:
        """d_direction log(delta) = (d_direction delta) / delta."""
        jet = self._dlog_delta.get(direction)
        if jet is None:
            jet = self.delta.partial(direction) * self.delta_inv
            self._dlog_delta[direction] = jet
        return jet

    def restricted_to_boundary(self) -> "BoundaryMetricJet":
        if self._boundary is None:
            self._boundary = self._mapped(Jet.restricted_to_boundary)
        return self._boundary

    def truncated(self, kr: int, ky: int) -> "BoundaryMetricJet":
        if kr >= self.kr and ky >= self.ky:
            return self
        return self._mapped(lambda j: j.truncated(kr, ky))

    def raised(self, covector) -> list:
        """The vector field g^{ab} w_a, component b for each b, of a
        tangential covector field w given by its components w_a."""
        out = []
        for column in zip(*self.g_upper):
            acc = None
            for g, w in zip(column, covector):
                term = g * w
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def divergence(self, vec) -> Jet:
        """delta^{-1/2} d_a (delta^{1/2} X^a) = d_a X^a + X^a d_a log(delta)/2
        of a tangential vector field X given by its components X^a."""
        acc = None
        for a, x in enumerate(vec):
            term = x.partial(a + 1) + (x * self.dlog_delta(a + 1)).scale(HALF)
            acc = term if acc is None else acc + term
        return acc


def radial_drift(metric: BoundaryMetricJet, weight: Jet | None = None) -> Jet:
    """First-order radial drift of the factorisation.

    Without a weight this is -d_r log(delta)/2; with a weight the scalar-mode
    variant -d_r log(delta)/2 + d_r V.
    """
    e = metric.dlog_delta(0).scale(-HALF)
    if weight is not None:
        e = e + weight.partial(0)
    return e


def laplace_beltrami(metric: BoundaryMetricJet, f: Jet) -> Jet:
    """Laplace-Beltrami operator of dr^2 + g applied to a collar jet: the
    divergence of its gradient, radial part first."""
    fr = f.partial(0)
    grad = metric.raised([f.partial(a + 1) for a in range(metric.n - 1)])
    return fr.partial(0) + (metric.dlog_delta(0) * fr).scale(HALF) + metric.divergence(grad)


def gradient_square(metric: BoundaryMetricJet, f: Jet) -> Jet:
    """g(df, df) in normal coordinates."""
    df = [f.partial(a + 1) for a in range(metric.n - 1)]
    acc = f.partial(0) * f.partial(0)
    for x, w in zip(metric.raised(df), df):
        acc = acc + x * w
    return acc


def schroedinger_potential(metric: BoundaryMetricJet, weight: Jet) -> Jet:
    """Zeroth-order potential of the flat-gauge Schroedinger form:
    -Lap(V)/2 + g(dV,dV)/4."""
    return laplace_beltrami(metric, weight).scale(-HALF) + gradient_square(
        metric, weight
    ).scale(Fraction(1, 4))


@dataclass(frozen=True)
class GaugeData:
    """Connection potential and zeroth-order potential of a trivialisation."""

    a_r: Jet
    a_tan: tuple
    potential: Jet


def gauge_s(metric: BoundaryMetricJet, weight: Jet) -> GaugeData:
    """Trivialisation in which the operator keeps its weighted-Laplacian form:
    potential components A_i = d_i V / 2."""
    a_r = weight.partial(0).scale(HALF)
    a_tan = tuple(weight.partial(a + 1).scale(HALF) for a in range(metric.n - 1))
    return GaugeData(a_r, a_tan, schroedinger_potential(metric, weight))


def gauge_sigma(metric: BoundaryMetricJet, weight: Jet) -> GaugeData:
    """Flat trivialisation: vanishing connection form."""
    zero = metric.space.zero(metric.kr, metric.ky)
    u = schroedinger_potential(metric, weight)
    return GaugeData(zero, tuple(zero for _ in range(metric.n - 1)), u)


def compute_q_symbols(metric: BoundaryMetricJet, weight: Jet, gauge: GaugeData | None = None):
    """Full symbol (q2, q1, q0) of the tangential operator.

    In a gauge with tangential potential components A_a:
    q2 = g^{ab} xi_a xi_b,
    q1 = i(-delta^{-1/2} d_a(g^{ab} delta^{1/2}) + 2 A^b) xi_b,
    q0 = U + delta^{-1/2} d_a(delta^{1/2} A^a) - A_a A^a.

    Without a gauge (scalar mode) the weight lives in the drift: q1 is that of
    the weight gauge, A = dV/2, and q0 = 0.
    """
    ctx = metric.ctx
    q2 = HomSymbol.q2_symbol(ctx)
    if gauge is None:
        a_tan = [weight.partial(a + 1).scale(HALF) for a in range(metric.n - 1)]
    else:
        a_tan = gauge.a_tan
    a_up = metric.raised(a_tan)
    columns = zip(*metric.g_upper)
    drift = [-metric.divergence(column) + x.scale(2) for column, x in zip(columns, a_up)]
    q1 = HomSymbol.linear_form(ctx, drift).times_i()
    if gauge is None:
        return q2, q1, HomSymbol.zero(ctx, 0)

    q0_jet = gauge.potential + metric.divergence(a_up)
    for w, x in zip(a_tan, a_up):
        q0_jet = q0_jet - w * x
    return q2, q1, HomSymbol.from_jet(ctx, q0_jet)
