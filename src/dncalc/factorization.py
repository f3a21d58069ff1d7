"""Symbol recursions factorising the collar operator, and their verifier.

Both factorisations split the operator into first-order radial factors whose
tangential part is a pseudo-differential family with a classical symbol
sum_{j<=1} s_j.  Writing the defining identity

    -q - e*s + d_r s + sum_{|K|>=1} 1/K! d^K_xi s D^K_y a_r
            + sum_K 1/K! d^K_xi s D^K_y s  ~  0

(with e the first-order drift and a_r the radial gauge potential, both absent
or adapted in the scalar mode), the grade-(j+1) homogeneous component of the
identity determines s_j: the only terms containing s_j there are the two
K = 0 products s_1 s_j, and division by 2 s_1 = -2 ||xi'|| stays inside the
symbol ring.  The solver below extracts each grade of the identity directly,
which keeps every multi-index bound and combinatorial factor tied to one
place; the verifier recombines the identity through the full asymptotic
composition, with its own products and one sum per grade (the components'
derivatives are memoised on them, so it shares those), and demands that
every reliable grade vanish.  Neither normalises its products one by one:
each hands its parts to the grade sum, which is put in canonical form once.
The drift, a_r and each D^K_y a_r enter those products as their degree-0
symbols (``HomSymbol.from_jet``), so one product rule serves every term.
Neither forms a xi-chain d^K_xi s whose D_y partner (D^K_y s or D^K_y a_r)
is zero: both take the term from ``xi_derivative_times``, which returns the
zero with the product's budgets.

Residual grades are labelled by the component they determine (label = grade
of the identity minus one), so a corrupted s_j trips the verifier at label j.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

from .errors import BudgetExhaustedError, DepthError
from .geometry import BoundaryMetricJet, GaugeData, compute_q_symbols, radial_drift
from .jets import Jet
from .symbols import (
    FormalSymbol,
    HomSymbol,
    SymbolContext,
    XiPoly,
    compose,
    inv_factorial,
    xi_derivative_times,
)


@dataclass(frozen=True)
class FactorizationResult:
    mode: str  # "gauge" | "scalar"
    symbol: FormalSymbol
    metric: BoundaryMetricJet
    gauge: GaugeData | None
    depth: int
    q: tuple  # (q2, q1, q0), the full symbol of the tangential operator
    drift: Jet  # the first-order radial drift


class _Recursion:
    def __init__(self, ctx: SymbolContext, q2, q1, q0, drift: Jet, a_r: Jet | None):
        self.ctx = ctx
        self.q = {2: q2, 1: q1, 0: q0}
        self.drift = HomSymbol.from_jet(ctx, drift)
        self.a_r = a_r
        self.comps: dict[int, HomSymbol] = {}
        self._ar_dy: dict = {}

    def ar_deriv(self, key: tuple) -> tuple[Jet, bool, HomSymbol]:
        """D_y^K a_r as a real jet, whether it is times i, and the degree-0
        symbol of the two, which the products take."""
        val = self._ar_dy.get(key)
        if val is None:
            if not key:
                jet, imag = self.a_r, False
            else:
                jet, imag, _ = self.ar_deriv(key[:-1])
                jet = jet.partial(key[-1] + 1)
                # D_y = -i d_y: -i * (i * jet) = jet and -i * jet = i * (-jet)
                jet, imag = (jet, False) if imag else (-jet, True)
            sym = HomSymbol.from_jet(self.ctx, jet)
            val = self._ar_dy[key] = (jet, imag, sym.times_i() if imag else sym)
        return val

    def known_grade(self, gamma: int) -> HomSymbol:
        """Grade-gamma component of the defining identity over the components
        computed so far (the yet-unknown component never enters because it is
        not in ``comps``)."""
        ctx = self.ctx
        nxi = ctx.nxi
        terms = []
        q = self.q.get(gamma)
        if q is not None:
            terms.append(-q)
        bg = self.comps.get(gamma)
        if bg is not None:
            terms.append(-bg.times(self.drift))
            terms.append(bg.d_r())
        if self.a_r is not None:
            for k in range(1, 1 - gamma + 1):
                left = self.comps[gamma + k]
                for key in combinations_with_replacement(range(nxi), k):
                    term = xi_derivative_times(left, key, self.ar_deriv(key)[2])
                    terms.append(term.scale(inv_factorial(key)))
        for m, left in self.comps.items():
            for l, right in self.comps.items():
                k = m + l - gamma
                if k < 0 or (k == 0 and l < m):
                    continue
                if k == 0:
                    # s_l s_m = s_m s_l: one product, added once per order
                    term = left.times(right)
                    terms += [term] if l == m else [term, term]
                    continue
                for key in combinations_with_replacement(range(nxi), k):
                    term = xi_derivative_times(left, key, right.dy_derivative(key))
                    terms.append(term.scale(inv_factorial(key)))
        return HomSymbol.sum(terms, ctx, gamma)

    def solve(self, depth: int) -> FormalSymbol:
        ctx = self.ctx
        self.comps[1] = -HomSymbol.xi_norm(ctx)
        for j in range(0, 1 - depth, -1):
            rhs = self.known_grade(j + 1)
            self.comps[j] = (-rhs).div_2b1()
        return FormalSymbol(ctx, dict(self.comps), 1, 2 - depth)


def check_budgets(metric: BoundaryMetricJet, weight: Jet, depth: int):
    if depth < 1:
        raise DepthError("depth must be at least 1, got %d" % depth)
    if metric.kr < depth + 1 or metric.ky < depth:
        raise BudgetExhaustedError(
            "metric truncation orders (%d, %d) cannot support depth %d "
            "(need radial >= %d, tangential >= %d)"
            % (metric.kr, metric.ky, depth, depth + 1, depth)
        )
    if weight.kr < depth + 1 or weight.ky < depth:
        raise BudgetExhaustedError(
            "weight truncation orders (%d, %d) cannot support depth %d"
            % (weight.kr, weight.ky, depth)
        )


def factorize_gauge(
    metric: BoundaryMetricJet, gauge: GaugeData, depth: int, weight: Jet
) -> FactorizationResult:
    """Solve the gauge-mode recursion to the requested depth.

    ``weight`` is the one the gauge was built from, and like the metric it
    must be truncated deep enough for the depth.  The retained grades run
    from 1 down to 2 - depth; the principal component is always -||xi'||.
    """
    check_budgets(metric, weight, depth)
    q = compute_q_symbols(metric, weight, gauge)
    drift = radial_drift(metric)
    sym = _Recursion(metric.ctx, *q, drift, gauge.a_r).solve(depth)
    return FactorizationResult("gauge", sym, metric, gauge, depth, q, drift)


def factorize_scalar(
    metric: BoundaryMetricJet, weight: Jet, depth: int
) -> FactorizationResult:
    """Solve the scalar-mode recursion (the weight lives in the drift)."""
    check_budgets(metric, weight, depth)
    q = compute_q_symbols(metric, weight, None)
    drift = radial_drift(metric, weight)
    sym = _Recursion(metric.ctx, *q, drift, None).solve(depth)
    return FactorizationResult("scalar", sym, metric, None, depth, q, drift)


def _defining_expression(result: FactorizationResult) -> dict[int, HomSymbol]:
    """The identity recombined with the full asymptotic composition, over the
    q symbols and the drift the recursion consumed: its reliable grades
    2, ..., 3 - depth, each the one sum of that grade's terms."""
    ctx = result.metric.ctx
    b = result.symbol
    lo = 3 - result.depth
    q = dict(zip((2, 1, 0), result.q))
    square = compose(b, b, lowest=lo)
    drift = HomSymbol.from_jet(ctx, result.drift)
    a_r = result.gauge.a_r if result.gauge is not None else None
    coupled = None
    # b # a_r has no grade above b.hi, so at depth 1 none is reliable
    if a_r is not None and not a_r.is_zero and b.hi >= lo:
        ar_sym = HomSymbol.from_jet(ctx, a_r)
        coupled = compose(b, FormalSymbol.single(ar_sym), lowest=lo)
    expr = {}
    for gamma in range(2, lo - 1, -1):
        terms = [square.grade(gamma)]
        if gamma in q:
            terms.append(-q[gamma])
        if gamma <= b.hi:
            bg = b.grade(gamma)
            terms += [bg.d_r(), -bg.times(drift)]
            if coupled is not None:
                terms += [coupled.grade(gamma), -bg.times(ar_sym)]
        expr[gamma] = HomSymbol.sum(terms, ctx, gamma)
    return expr


def verify_residual(result: FactorizationResult) -> int | None:
    """Recheck the defining identity on every reliable grade.

    Returns None when all grades vanish identically, otherwise the highest
    violated label, where a grade-gamma identity component is labelled
    gamma - 1 (the index of the symbol component it determines).
    """
    for gamma, residual in _defining_expression(result).items():
        if not residual.is_zero:
            return gamma - 1
    return None


def perturb_component(result: FactorizationResult, grade: int) -> FactorizationResult:
    """Copy of the result with a unit homogeneous bump added at one grade;
    used to demonstrate that the verifier localises corrupted coefficients."""
    ctx = result.metric.ctx
    nxi = ctx.nxi
    if grade > 0:
        raise DepthError("only determined components (grade <= 0) can be perturbed")
    if grade == 0:
        bump = HomSymbol.from_jet(ctx, ctx.space.one(ctx.kr, ctx.ky))
    else:
        p = -grade
        e = [0] * nxi
        e[0] = p - 1
        # solved components have type 0: a degree-d coefficient is real
        # exactly when d is even, so the bump takes that phase
        imag = (p - 1) % 2 == 1
        odd = XiPoly(nxi, p - 1, {tuple(e): ctx.space.one(ctx.kr, ctx.ky)}, imag)
        bump = HomSymbol(ctx, grade, XiPoly(nxi, 2 * p + grade, {}), odd, p, ctx.kr, ctx.ky)
    comps = dict(result.symbol.comps)
    comps[grade] = comps[grade] + bump
    sym = FormalSymbol(ctx, comps, result.symbol.hi, result.symbol.lo)
    return replace(result, symbol=sym)
