"""Geometric data on a boundary collar in normal coordinates.

The metric has the block form dr^2 + g_{ab}(r,y) dy^a dy^b, so only the
tangential block is stored.  Everything the factorisations consume is
derived here: the inverse metric, the determinant delta and its logarithmic
derivatives, the first-order drift coefficients, the zeroth-order potential
of the Schroedinger form, the gauge potentials of the two distinguished
trivialisations, and the shape quantities built from d_r g^{ab}.

Square roots of delta never appear explicitly: the recursions only need
logarithmic derivatives of delta, and boundary densities are carried as
their squares, which keeps the exact rational backend closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MetricError
from .jets import Jet, JetSpace
from .symbols import CJet, HomSymbol, SymbolContext, XiPoly


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _adjugate(mat):
    n = len(mat)
    if n == 1:
        one = mat[0][0].space.one(mat[0][0].kr, mat[0][0].ky)
        return [[one]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof = _det(minor)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof
    return adj


def _inverse(mat):
    """Inverse of a matrix of jets through its adjugate and determinant."""
    inv = _det(mat).reciprocal()
    return [[x * inv for x in row] for row in _adjugate(mat)]


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
        "_sqrt_delta",
        "_boundary",
    )

    def __init__(self, g_lower):
        rows = tuple(tuple(row) for row in g_lower)
        first = rows[0][0]
        self.space: JetSpace = first.space
        self.n = self.space.n
        nt = self.n - 1
        if len(rows) != nt or any(len(r) != nt for r in rows):
            raise MetricError("tangential block must be (n-1) x (n-1)")
        for a in range(nt):
            for b in range(a + 1, nt):
                if rows[a][b] != rows[b][a]:
                    raise MetricError("metric block is not symmetric")
        self._check_spd(rows)
        self.g_lower = rows
        self.kr = min(j.kr for row in rows for j in row)
        self.ky = min(j.ky for row in rows for j in row)
        delta = _det([list(r) for r in rows])
        self.delta = delta
        self.delta_inv = delta.reciprocal()
        adj = _adjugate([list(r) for r in rows])
        self.g_upper = tuple(
            tuple(adj[a][b] * self.delta_inv for b in range(nt)) for a in range(nt)
        )
        self.ctx = SymbolContext(self.g_upper)
        self._dlog_delta = {}
        self._sqrt_delta = None
        self._boundary = None

    @classmethod
    def from_upper(cls, g_upper) -> "BoundaryMetricJet":
        """Build from the inverse block (used when reconstructions recover
        g^{ab} rather than g_{ab})."""
        return cls(_inverse([list(r) for r in g_upper]))

    @staticmethod
    def _check_spd(rows):
        const = [[j.constant_term() for j in row] for row in rows]
        n = len(const)
        for k in range(1, n + 1):
            minor = [[const[i][j] for j in range(k)] for i in range(k)]
            if _det(minor) <= 0:
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

    @property
    def sqrt_delta(self) -> Jet:
        """Square root of the determinant; in the rational backend this exists
        only when the constant term is a perfect square (densities are stored
        squared elsewhere for that reason)."""
        if self._sqrt_delta is None:
            self._sqrt_delta = self.delta.sqrt()
        return self._sqrt_delta

    def restricted_to_boundary(self) -> "BoundaryMetricJet":
        if self._boundary is None:
            self._boundary = BoundaryMetricJet(
                tuple(
                    tuple(j.restricted_to_boundary() for j in row)
                    for row in self.g_lower
                )
            )
        return self._boundary

    def truncated(self, kr: int, ky: int) -> "BoundaryMetricJet":
        if kr >= self.kr and ky >= self.ky:
            return self
        return BoundaryMetricJet(
            tuple(tuple(j.truncated(kr, ky) for j in row) for row in self.g_lower)
        )

    def trace_upper(self, m_upper) -> Jet:
        """g_{ab} M^{ab} for a symmetric matrix of jets."""
        nt = self.n - 1
        acc = self.space.zero(self.kr, self.ky)
        for a in range(nt):
            for b in range(nt):
                acc = acc + self.g_lower[a][b] * m_upper[a][b]
        return acc

    def divergence_upper(self) -> list:
        """delta^{-1/2} d_a (delta^{1/2} g^{ab}) = d_a g^{ab} + g^{ab} d_a log(delta)/2
        for each b (tangential sums; a drift coefficient of the tangential
        operator)."""
        nt = self.n - 1
        out = []
        for b in range(nt):
            acc = None
            for a in range(nt):
                term = self.g_upper[a][b].partial(a + 1) + (
                    self.g_upper[a][b] * self.dlog_delta(a + 1)
                ).scale(_half(self.space))
                acc = term if acc is None else acc + term
            out.append(acc)
        return out


def _half(space: JetSpace):
    backend = space.backend
    return backend.one() / backend.coerce(2)


def _quarter(space: JetSpace):
    backend = space.backend
    return backend.one() / backend.coerce(4)


def radial_drift(metric: BoundaryMetricJet, weight: Jet | None = None) -> Jet:
    """First-order radial drift of the factorisation.

    Without a weight this is -d_r log(delta)/2; with a weight the scalar-mode
    variant -d_r log(delta)/2 + d_r V.
    """
    e = metric.dlog_delta(0).scale(-_half(metric.space))
    if weight is not None:
        e = e + weight.partial(0)
    return e


def laplace_beltrami(metric: BoundaryMetricJet, f: Jet) -> Jet:
    """Laplace-Beltrami operator of dr^2 + g applied to a collar jet."""
    sp = metric.space
    half = _half(sp)
    acc = f.partial(0).partial(0) + (metric.dlog_delta(0) * f.partial(0)).scale(half)
    nt = metric.n - 1
    div = metric.divergence_upper()
    for b in range(nt):
        fb = f.partial(b + 1)
        acc = acc + div[b] * fb
        for a in range(nt):
            acc = acc + metric.g_upper[a][b] * f.partial(a + 1).partial(b + 1)
    return acc


def gradient_square(metric: BoundaryMetricJet, f: Jet) -> Jet:
    """g(df, df) in normal coordinates."""
    acc = f.partial(0) * f.partial(0)
    nt = metric.n - 1
    for a in range(nt):
        for b in range(nt):
            acc = acc + metric.g_upper[a][b] * f.partial(a + 1) * f.partial(b + 1)
    return acc


def schroedinger_potential(metric: BoundaryMetricJet, weight: Jet) -> Jet:
    """Zeroth-order potential of the flat-gauge Schroedinger form:
    -Lap(V)/2 + g(dV,dV)/4."""
    sp = metric.space
    return laplace_beltrami(metric, weight).scale(-_half(sp)) + gradient_square(
        metric, weight
    ).scale(_quarter(sp))


@dataclass(frozen=True)
class GaugeData:
    """Connection potential, zeroth-order potential and boundary density of a
    trivialisation.  ``density_sq`` is the square of the factor multiplying
    the conormal derivative in the DN map."""

    tag: str
    a_r: Jet
    a_tan: tuple
    potential: Jet
    density_sq: Jet

    @property
    def is_weight_gauge(self) -> bool:
        return self.tag == "s"


def gauge_s(metric: BoundaryMetricJet, weight: Jet) -> GaugeData:
    """Trivialisation in which the operator keeps its weighted-Laplacian form:
    potential components A_i = d_i V / 2, density e^{-V} sqrt(delta)."""
    sp = metric.space
    half = _half(sp)
    a_r = weight.partial(0).scale(half)
    a_tan = tuple(weight.partial(a + 1).scale(half) for a in range(metric.n - 1))
    u = schroedinger_potential(metric, weight)
    density_sq = (weight.scale(-2)).exp() * metric.delta
    return GaugeData("s", a_r, a_tan, u, density_sq)


def gauge_sigma(metric: BoundaryMetricJet, weight: Jet) -> GaugeData:
    """Flat trivialisation: vanishing connection form, density sqrt(delta)."""
    sp = metric.space
    kr, ky = metric.kr, metric.ky
    zero = sp.zero(kr, ky)
    u = schroedinger_potential(metric, weight)
    return GaugeData("sigma", zero, tuple(zero for _ in range(metric.n - 1)), u, metric.delta)


def custom_gauge(
    metric: BoundaryMetricJet,
    a_r: Jet,
    a_tan,
    potential: Jet,
    density_sq: Jet | None = None,
) -> GaugeData:
    """Arbitrary potential, used to exercise the general recursion."""
    if density_sq is None:
        density_sq = metric.delta
    return GaugeData("custom", a_r, tuple(a_tan), potential, density_sq)


def compute_q_symbols(
    metric: BoundaryMetricJet, weight: Jet | None = None, gauge: GaugeData | None = None
):
    """Full symbol (q2, q1, q0) of the tangential operator.

    With a gauge: q2 = g^{ab} xi_a xi_b,
    q1 = i(-delta^{-1/2} d_a(g^{ab} delta^{1/2}) + 2 A^b) xi_b,
    q0 = U + delta^{-1/2} d_a(delta^{1/2} A^a) - A_a A^a.

    Without a gauge (scalar mode): the drift picks up the weight,
    q1 = i(-delta^{-1/2} d_a(g^{ab} delta^{1/2}) + g^{ab} d_a V) xi_b, q0 = 0.
    """
    ctx = metric.ctx
    sp = metric.space
    nt = metric.n - 1
    half = _half(sp)
    q2 = HomSymbol.q2_symbol(ctx)
    div = metric.divergence_upper()

    if gauge is None:
        if weight is None:
            raise MetricError("scalar-mode symbols need the weight")
        drift = []
        for b in range(nt):
            acc = -div[b]
            for a in range(nt):
                acc = acc + metric.g_upper[a][b] * weight.partial(a + 1)
            drift.append(CJet(sp.zero(metric.kr, metric.ky), acc))
        q1 = HomSymbol.linear_form(ctx, drift)
        q0 = HomSymbol.zero(ctx, 0)
        return q2, q1, q0

    a_up = []
    for b in range(nt):
        acc = None
        for a in range(nt):
            term = metric.g_upper[a][b] * gauge.a_tan[a]
            acc = term if acc is None else acc + term
        a_up.append(acc)
    drift = []
    for b in range(nt):
        val = -div[b] + a_up[b].scale(2)
        drift.append(CJet(sp.zero(metric.kr, metric.ky), val))
    q1 = HomSymbol.linear_form(ctx, drift)

    q0_jet = gauge.potential
    for a in range(nt):
        q0_jet = q0_jet + a_up[a].partial(a + 1) + (
            a_up[a] * metric.dlog_delta(a + 1)
        ).scale(half)
        q0_jet = q0_jet - gauge.a_tan[a] * a_up[a]
    q0 = HomSymbol.from_jet(ctx, q0_jet)
    return q2, q1, q0


@dataclass(frozen=True)
class ShapeData:
    """First radial derivative of the inverse metric and its trace-adjusted
    combinations: h^{ab} = d_r g^{ab}, h = g_{ab} h^{ab}, k^{ab} = h^{ab} - h g^{ab},
    and the weighted variant k~^{ab} = h^{ab} - (h + 2 d_r V) g^{ab}."""

    h_upper: tuple
    h_trace: Jet
    k_upper: tuple
    k_tilde_upper: tuple


def compute_shape(metric: BoundaryMetricJet, weight: Jet) -> ShapeData:
    nt = metric.n - 1
    h_upper = tuple(
        tuple(metric.g_upper[a][b].partial(0) for b in range(nt)) for a in range(nt)
    )
    h = metric.trace_upper(h_upper)
    two_dv = weight.partial(0).scale(2)
    k = tuple(
        tuple(h_upper[a][b] - h * metric.g_upper[a][b] for b in range(nt))
        for a in range(nt)
    )
    kt = tuple(
        tuple(h_upper[a][b] - (h + two_dv) * metric.g_upper[a][b] for b in range(nt))
        for a in range(nt)
    )
    return ShapeData(h_upper, h, k, kt)
