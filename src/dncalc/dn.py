"""Observable boundary data: full DN symbols at r = 0 with their densities.

The boundary operator sends Dirichlet data to weighted conormal data; modulo
smoothing contributions (modelled by the finite retained depth) its full
symbol is the boundary restriction of the factorisation symbol multiplied by
a positive density:

  * scalar version: density e^{-V} sqrt(delta),
  * gauge version along the weight gauge: density e^{-V} sqrt(delta)
    (the conormal operator is d_r - d_r V / 2; the shift is internal to the
    factorisation, whose radial potential is a_r = d_r V / 2),
  * gauge version along the flat gauge: density sqrt(delta).

Densities are stored squared so the exact backend never needs sqrt(delta);
the square is what every reconstruction formula consumes anyway.  A data
object (symbol, density_sq) represents the observable symbol *
sqrt(density_sq); the factorisation is not canonical, so honest consumers
only use rescale-invariant combinations: squares of components times
density_sq, and ratios of components.

The three kinds are one operator seen three ways.  The weight gauge s is the
flat gauge sigma twisted by e^{V/2} (its connection is d(V/2)), and the
scalar conormal derivative d_r exceeds the gauge one by d_r V / 2, so at
r = 0, exactly and grade by grade:

    Lambda1 s = e^{V/2} o Lambda1 sigma o e^{-V/2}
    Lambda0   = Lambda1 s + d_r V / 2          (grade 0 only)
    density_sq(Lambda0) = density_sq(Lambda1 s) = e^{-2V} density_sq(Lambda1 sigma)

So only sigma is factorised, and the other two kinds are derived from its
run by two compositions with the multipliers e^{+-V/2} at r = 0 (and the
shift).  Sigma is the kind to run because it exists for every rational
weight: its density has no exponential of V.  The derived kinds check the
truncation budgets and form their common density e^{-2V} delta before the
sigma run, so where V(0) != 0 takes e^{-2V} out of the rational field, both
fail on it.

Inside a ``shared_forward_runs`` block, data whose kind and exact inputs
(depth, and the representation of the weight and of every metric entry)
repeat earlier data of the same block are the earlier DNSymbolData: one
sigma run per distinct input, and one derivation per kind on it.  The
runner opens one block per scenario run, so every task of a scenario reads
one DN data set of each kind, and probe runs that two recoveries have in
common run once.  That holds across methods and data kinds too: the
unit-direction runs of a solve use a frozen model that only the boundary
metric and the order fix, so every recovery shares its sigma runs, whatever
kind of data it reads.  Outside any block every call factorises.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from .errors import DataError, DepthError
from .factorization import check_budgets, factorize_gauge
from .geometry import HALF, BoundaryMetricJet, gauge_sigma
from .jets import Jet
from .symbols import FormalSymbol, HomSymbol, SymbolContext, compose


@dataclass(frozen=True)
class DNSymbolData:
    map_kind: str  # "lambda0" | "lambda1"
    gauge_tag: str | None  # "s" | "sigma" for lambda1, None for lambda0
    symbol: FormalSymbol  # restricted to r = 0
    density_sq: Jet  # restricted to r = 0, constant term > 0
    boundary_metric: BoundaryMetricJet
    n: int
    depth: int

    def __post_init__(self):
        if self.density_sq.constant_term() <= 0:
            raise DataError("squared density must have a positive constant term")
        principal = self.symbol.grade(1)
        if not principal.a.is_zero or principal.p != 0:
            raise DataError("principal symbol must be an odd multiple of ||xi'||")
        # the phases are fixed by the grade j: the even part A is imaginary
        # exactly when j is odd, the odd part B exactly when j is even
        for j in self.symbol.grades():
            sym = self.symbol.grade(j)
            for part, imag in ((sym.a, j % 2 == 1), (sym.b, j % 2 == 0)):
                if part.imag != imag and not part.is_zero:
                    raise DataError("grade %d of the symbol has the wrong phase" % j)

    @property
    def ctx(self) -> SymbolContext:
        return self.symbol.ctx

    # -- honest accessors ---------------------------------------------------

    def _principal_odd(self, xi) -> Jet:
        """The real odd part of s_1 at a fibre point."""
        return self.symbol.grade(1).eval_jets(xi)[1]

    def principal_square_eval(self, xi) -> Jet:
        """Square of the principal observable at a fibre point: a real y-jet
        equal to q2(xi) * delta * (gauge density factors)."""
        odd = self._principal_odd(xi)
        q2v = self.ctx.q2_value(xi)
        return odd * odd * q2v * self.density_sq

    def grade_ratio_eval(self, j: int, xi) -> tuple[Jet, Jet]:
        """(even, odd) parts of s_j / s_1 at a fibre point as real jets: the
        even part is times i when j is even, the odd part when j is odd.
        Density-free and invariant under the representation rescaling."""
        if j > 1 or j < self.symbol.lo:
            raise DepthError("grade %d not retained (lo=%d)" % (j, self.symbol.lo))
        ev_j, od_j = self.symbol.grade(j).eval_jets(xi)
        inv1 = self._principal_odd(xi).reciprocal()
        return od_j * inv1, ev_j * inv1 * self.ctx.q2_value(xi).reciprocal()

    def density_ratio_sq(self, other: "DNSymbolData", xi) -> Jet:
        """(O_1 / O_1')^2 for two data sets over the same boundary metric:
        the squared ratio of principal observables, a rescale-invariant
        positive y-jet."""
        if not self.ctx.same_structure(other.ctx):
            raise DataError("density ratio requires a shared boundary metric")
        num = self.principal_square_eval(xi)
        den = other.principal_square_eval(xi)
        return num * den.reciprocal()

    def agrees_with(self, other: "DNSymbolData") -> bool:
        """Exact equality of the stored representation, grade by grade."""
        if (
            self.map_kind != other.map_kind
            or self.gauge_tag != other.gauge_tag
            or self.depth != other.depth
        ):
            return False
        if not self.ctx.same_structure(other.ctx):
            return False
        if self.density_sq != other.density_sq:
            return False
        return all(
            self.symbol.grade(j) == other.symbol.grade(j) for j in self.symbol.grades()
        )


#: forward runs of the innermost open shared_forward_runs block, keyed on
#: their exact inputs; None outside every block
_shared_runs = None


@contextlib.contextmanager
def shared_forward_runs():
    """Share forward runs on equal exact inputs while the block is open.  The
    block starts with no runs and restores the enclosing block's on exit, so
    nothing it holds outlives it."""
    global _shared_runs
    outer, _shared_runs = _shared_runs, {}
    try:
        yield
    finally:
        _shared_runs = outer


def _exact(jet: Jet) -> tuple:
    # not the Jet itself: equality aligns truncation orders, so a jet equals
    # its truncation, and the hash is the constant term only
    return jet.space, jet.kr, jet.ky, jet.den, frozenset(jet.num.items())


def _shared(kind: str, metric: BoundaryMetricJet, weight: Jet, depth: int):
    """The DN data of ``kind`` ("lambda0", "s" or "sigma"), or inside a
    shared_forward_runs block the block's earlier data of that kind on the
    same exact inputs."""
    if _shared_runs is None:
        return _dn_data(kind, metric, weight, depth)
    key = (
        kind,
        depth,
        _exact(weight),
        tuple(_exact(entry) for row in metric.g_lower for entry in row),
    )
    data = _shared_runs.get(key)
    if data is None:
        data = _shared_runs[key] = _dn_data(kind, metric, weight, depth)
    return data


def _dn_data(kind: str, metric: BoundaryMetricJet, weight: Jet, depth: int):
    """The sigma run, or the data of another kind derived from it."""
    if kind != "sigma":
        return _dn_from_sigma(metric, weight, depth, kind)
    gauge = gauge_sigma(metric, weight)
    result = factorize_gauge(metric, gauge, depth, weight=weight)
    bmetric = metric.restricted_to_boundary()
    sym = result.symbol.restricted_to_boundary(bmetric.ctx)
    density_sq = gauge.density_sq.restricted_to_boundary()
    return DNSymbolData("lambda1", "sigma", sym, density_sq, bmetric, metric.n, depth)


def dn_symbol(metric: BoundaryMetricJet, weight: Jet, depth: int, kind: str) -> DNSymbolData:
    """The DN data of ``kind``: "lambda0", or the gauge tag of lambda1."""
    if kind == "lambda0":
        return dn_symbol_scalar(metric, weight, depth)
    return dn_symbol_gauge(metric, weight, depth, kind)


def dn_symbol_scalar(metric: BoundaryMetricJet, weight: Jet, depth: int) -> DNSymbolData:
    """Boundary symbol of the scalar DN map with density e^{-V} sqrt(delta)."""
    return _shared("lambda0", metric, weight, depth)


def dn_symbol_gauge(
    metric: BoundaryMetricJet, weight: Jet, depth: int, gauge_tag: str
) -> DNSymbolData:
    """Boundary symbol of the gauge DN map in one of the two distinguished
    trivialisations."""
    if gauge_tag not in ("s", "sigma"):
        raise DataError("gauge tag must be 's' or 'sigma', got %r" % gauge_tag)
    return _shared(gauge_tag, metric, weight, depth)


def _dn_from_sigma(
    metric: BoundaryMetricJet, weight: Jet, depth: int, kind: str
) -> DNSymbolData:
    """Lambda0 (kind "lambda0") or Lambda1 s (kind "s") from the sigma run on
    the same inputs, by the identities of the module docstring."""
    check_budgets(metric, weight, depth)
    density_sq = weight.scale(-2).exp() * metric.delta
    sigma = dn_symbol_gauge(metric, weight, depth, "sigma")
    bctx, lo = sigma.ctx, sigma.symbol.lo
    v0 = weight.restricted_to_boundary()
    twist = FormalSymbol.single(HomSymbol.from_jet(bctx, v0.scale(HALF).exp()))
    untwist = FormalSymbol.single(HomSymbol.from_jet(bctx, v0.scale(-HALF).exp()))
    symbol = compose(compose(twist, sigma.symbol, lowest=lo), untwist, lowest=lo)
    map_kind, gauge_tag = "lambda1", "s"
    if kind == "lambda0":
        shift = weight.partial(0).restricted_to_boundary().scale(HALF)
        symbol = symbol + FormalSymbol.single(HomSymbol.from_jet(bctx, shift))
        map_kind, gauge_tag = "lambda0", None
    density_sq = density_sq.restricted_to_boundary()
    return DNSymbolData(
        map_kind, gauge_tag, symbol, density_sq, sigma.boundary_metric, metric.n, depth
    )
