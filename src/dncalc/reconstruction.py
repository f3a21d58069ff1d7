"""Inversion of DN symbol data into boundary Taylor coefficients.

Every recovery below consumes only rescale-invariant functions of the data
(squares of principal observables, ratios of symbol components) and works
order by order in the radial direction.  A method's boundary stage reads
order 0 off the principal form and the density.  Then one driver,
``_drive``, takes every order m >= 1: the data grade 1 - m is affine in the
order-m unknowns (the symmetric entries of d_r^m g^{ab}, the scalar
d_r^m V, or both), plus one affine row for det(g^{ab}) delta = 1 when the
volume is known.  The driver solves it by forward probes (run the forward
model at unit parameter settings and difference) rather than hand-derived
remainder formulas, so a transcription slip in a remainder cannot silently
corrupt an inversion; exact arithmetic makes the probes lossless.  A failed
solve names the method, order and grade.

Only the base of each solve runs on the full candidate, which carries the
recovered lower orders.  The unit directions run on a frozen model: the
candidate's g^{ab}|0 constant in r, every lower order of the metric and the
weight zero.  That loses nothing, because at grade 1 - m the order-m unknown
enters only through its top-order term, the m-fold d_r chain over the
principal symbol at r = 0 (Lee and Uhlmann, "Determining anisotropic
real-analytic conductivities by boundary measurements", CPAM 42, 1989), so
the linear part of the solve depends on g^{ab}|0 alone.  A frozen run is
also cheap, and it depends on neither the method nor the lower orders, so
the recoveries of one scenario on one data kind share it.

The one non-affine step: in the gauge-theoretic problem, the first and
second radial derivatives of the weight enter the grade -1 data only through

    theta = (d_r V)^2 / 4 + E0 d_r V / 2 - d_r^2 V / 2   (E0 the boundary drift)

So the driver reads theta off the affine order-2 solve with d_r V = 0, and
one closed form, shared by both gauge methods, turns theta and the
prescription into the start of each branch: a prescribed d_r V fixes
d_r^2 V, and a prescribed d_r^2 V leaves (d_r V + E0)^2 = E0^2 + 4 theta +
2 d_r^2 V, which may have two real roots.  Both are returned, and the driver
extends each to a full branch.  Every recovery ends by re-synthesising the
consumed grades.

The linear algebra is Gauss elimination over the local ring of jets: pivots
must be unit jets (nonzero constant term), which the triangular structure of
the recursions guarantees for well-posed data; degeneracies raise instead of
returning noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dn import DNSymbolData, dn_symbol, dn_symbol_gauge
from .errors import DataError, DepthError, ReconstructionError
from .geometry import HALF, BoundaryMetricJet, det
from .jets import Jet, collar_from_radial_orders


# ---------------------------------------------------------------------------
# linear algebra over the jet ring


def solve_linear_jets(rows, nunknowns: int):
    """Solve an (over-determined, exactly consistent) linear system whose
    coefficients and right-hand sides are jets.  Raises when no unit pivot
    exists for some unknown or when elimination leaves a nonzero residue,
    whose largest coefficient the error carries as ``residual``."""
    rows = [(list(coeffs), rhs) for coeffs, rhs in rows]
    # Gauss-Jordan in place: rows[:col] are the pivot rows found so far
    for col in range(nunknowns):
        units = (i for i in range(col, len(rows)) if rows[i][0][col].constant_term())
        pick = next(units, None)
        if pick is None:
            raise ReconstructionError(
                "no unit pivot for unknown %d of %d" % (col, nunknowns), unknown=col
            )
        coeffs, rhs = rows.pop(pick)
        inv = coeffs[col].reciprocal()
        coeffs = [c * inv for c in coeffs]
        rhs = rhs * inv
        rows.insert(col, (coeffs, rhs))
        for i, (ocs, orhs) in enumerate(rows):
            f = ocs[col]
            if i != col and not f.is_zero:
                rows[i] = ([a - f * b for a, b in zip(ocs, coeffs)], orhs - f * rhs)
    leftover = [j for coeffs, rhs in rows[nunknowns:] for j in coeffs + [rhs]]
    if any(not j.is_zero for j in leftover):
        raise ReconstructionError(
            "inconsistent linear system for jet unknowns", residual=_magnitude(leftover)
        )
    return [rhs for _, rhs in rows[:nunknowns]]


# ---------------------------------------------------------------------------
# shared plumbing


def _sym_entries(nxi: int):
    return [(a, b) for a in range(nxi) for b in range(a, nxi)]


def _sample_entries(nxi: int):
    """Entries of a symmetric form, diagonal first: the order of _samples."""
    return sorted(_sym_entries(nxi), key=lambda e: e[0] != e[1])


def _samples(nxi: int):
    """Fibre points e_a, then e_a + e_b for a < b: enough to fit a form."""
    return [tuple(int(i in e) for i in range(nxi)) for e in _sample_entries(nxi)]


def _fit_quadratic_form(values, nxi: int):
    """Symmetric matrix M with M^{ab} xi_a xi_b matching the jet values
    sampled at the ``_samples`` points, in that order."""
    mat = [[None] * nxi for _ in range(nxi)]
    for (a, b), v in zip(_sample_entries(nxi), values):
        mat[a][b] = mat[b][a] = v if a == b else (v - mat[a][a] - mat[b][b]).scale(HALF)
    return mat


def _ratio_vector(dn: DNSymbolData, grade: int, samples) -> list:
    return [part for xi in samples for part in dn.grade_ratio_eval(grade, xi)]


def _magnitude(jets) -> float:
    return max((abs(float(v)) for j in jets for v in j.c.values()), default=0.0)


def _matrix_from_entries(entries, values, nxi):
    mat = [[None] * nxi for _ in range(nxi)]
    for (a, b), v in zip(entries, values):
        mat[a][b] = v
        mat[b][a] = v
    return mat


def _collar_matrix(space, order_mats, kr: int, ky: int):
    """Matrix of collar jets sum_m r^m/m! * order_mats[m] entry by entry."""
    nxi = space.n - 1
    return [
        [
            collar_from_radial_orders(space, [mat[a][b] for mat in order_mats], kr, ky)
            for b in range(nxi)
        ]
        for a in range(nxi)
    ]


def _check_depth(dn: DNSymbolData, order: int):
    if order > dn.depth - 1:
        raise DepthError(
            "order %d needs depth %d data, got %d" % (order, order + 1, dn.depth)
        )


def _prescribed(prescription: tuple, dn: DNSymbolData):
    """The prescribed radial derivative ("d1V" or "d2V") as a y-jet."""
    kind, value = prescription
    if kind not in ("d1V", "d2V"):
        raise DataError("prescription must fix d1V or d2V, got %r" % kind)
    if isinstance(value, Jet):
        return kind, value.restricted_to_boundary()
    return kind, dn.ctx.space.constant(value, 0, dn.boundary_metric.ky)


@dataclass
class Branch:
    """One consistent continuation of the weight in a two-root recovery."""

    root: Jet
    weight_orders: list
    residuals: dict = field(default_factory=dict)


@dataclass
class ReconstructionReport:
    method: str
    metric_orders: list | None = None  # d_r^m g^{ab}|0 as matrices of y-jets
    weight_orders: list | None = None  # d_r^m V|0 as y-jets
    weight_normalization: str | None = None  # "absolute" | "modulo_constant"
    branches: list | None = None
    residuals: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# candidate geometry, the order-by-order driver and re-synthesis


def _forward(dn: DNSymbolData, metric, weight, depth: int) -> DNSymbolData:
    """Data of dn's kind at the given depth from a candidate at radial order
    kr = depth + 1: a known BoundaryMetricJet or weight Jet is truncated to
    kr, and a list of recovered radial orders (matrices of y-jets, or
    y-jets) is embedded as a collar."""
    space, ky, kr = dn.ctx.space, dn.boundary_metric.ky, depth + 1
    if isinstance(metric, list):
        metric = BoundaryMetricJet.from_upper(_collar_matrix(space, metric, kr, ky))
    if isinstance(weight, list):
        weight = collar_from_radial_orders(space, weight, kr, ky)
    metric, weight = metric.truncated(kr, ky), weight.truncated(kr, ky)
    return dn_symbol(metric, weight, depth, dn.gauge_tag or dn.map_kind)


def _probe(fn, nparams: int):
    """Value at 0 and unit-direction differences of a map affine in nparams
    parameters and returning a list of jets."""
    base = fn([0] * nparams)
    dirs = []
    for i in range(nparams):
        value = fn([int(j == i) for j in range(nparams)])
        dirs.append([a - b for a, b in zip(value, base)])
    return base, dirs


def _det_constraint_row(space, ky, order_mats, m, entries, delta_known, nweight):
    """Row expressing that det(g^{ab}) * delta has vanishing r^m coefficient.

    Affine in the order-m matrix (a weight unknown gets coefficient zero);
    appended to probe systems to pin the trace direction that the symbol
    data cannot see once the volume is known.
    """
    nxi = space.n - 1
    dtrunc = delta_known.truncated(m, ky)

    def phi(setting):
        trial = [space.constant(x, 0, ky) for x in setting]
        mats = order_mats + [_matrix_from_entries(entries, trial, nxi)]
        upper = det(_collar_matrix(space, mats, m, ky))
        return [(upper * dtrunc).radial_coefficient(m)]

    base, dirs = _probe(phi, len(entries))
    return [d[0] for d in dirs] + [space.zero(0, ky)] * nweight, -base[0]


def _frozen_directions(dn: DNSymbolData, metric, m: int, entries, nweight: int,
                       samples) -> list:
    """Unit-direction differences of the grade 1 - m data in the order-m
    unknowns (the metric entries, then the weight), taken on the frozen
    model: the candidate's g^{ab}|0 constant in r, every lower order of the
    metric and the weight zero, and one unit entry at order m, at radial
    order m + 2 and depth m + 1.  They equal the full candidate's, for the
    reason the module docstring gives."""
    space, ky, nxi = dn.ctx.space, dn.boundary_metric.ky, dn.n - 1
    zero = space.zero(0, ky)
    zero_mat = [[zero] * nxi for _ in range(nxi)]
    if isinstance(metric, list):
        g0 = metric[0]
    else:
        g0 = metric.restricted_to_boundary().g_upper
    lower = [g0] + [zero_mat] * (m - 1)

    def build(setting):
        trial = [space.constant(x, 0, ky) for x in setting]
        top = _matrix_from_entries(entries, trial, nxi) if entries else zero_mat
        weight = [zero] * m + trial[len(entries):]
        return _ratio_vector(_forward(dn, lower + [top], weight, m + 1), 1 - m, samples)

    return _probe(build, len(entries) + nweight)[1]


def _drive(method: str, dn: DNSymbolData, metric, weight, start: int, order: int,
           delta_known=None):
    """Recover radial orders start..order of whichever of metric and weight
    is a list of recovered orders (the other is the known jet), appending
    each order to its list.  Order m is one affine solve at grade 1 - m: the
    base is the candidate (which carries the lower orders) at radial order
    m + 2 and depth m + 1, the directions come from ``_frozen_directions``,
    and the determinant constraint joins when delta_known is given."""
    space, ky = dn.ctx.space, dn.boundary_metric.ky
    nxi = dn.n - 1
    samples = _samples(nxi)
    entries = _sym_entries(nxi) if isinstance(metric, list) else []
    nweight = int(isinstance(weight, list))
    nparams = len(entries) + nweight
    for m in range(start, order + 1):
        grade = 1 - m
        base = _ratio_vector(_forward(dn, metric, weight, m + 1), grade, samples)
        dirs = _frozen_directions(dn, metric, m, entries, nweight, samples)
        data = _ratio_vector(dn, grade, samples)
        rows = [([d[t] for d in dirs], data[t] - base[t]) for t in range(len(base))]
        if delta_known is not None:
            rows.append(
                _det_constraint_row(space, ky, metric, m, entries, delta_known, nweight)
            )
        try:
            sol = solve_linear_jets(rows, nparams)
        except ReconstructionError as exc:
            raise ReconstructionError(
                "%s: order %d (grade %d): %s" % (method, m, grade, exc),
                method, m, grade, exc.unknown, exc.residual,
            ) from exc
        if entries:
            metric.append(_matrix_from_entries(entries, sol, nxi))
        if nweight:
            weight.append(sol[-1])


def _resynthesise(dn: DNSymbolData, metric, weight, order: int, residuals: dict,
                  suffix: str = "", principal_key=None):
    """Run the forward model on the recovered jets at depth order + 1 and
    record in ``residuals`` the largest coefficient of data minus
    re-synthesis for grades 1..1 - order (keys grade_<j><suffix>), and for
    the squared principal observable under principal_key if given.
    Returns the re-synthesised data."""
    samples = _samples(dn.n - 1)
    resn = _forward(dn, metric, weight, order + 1)
    for grade in range(1, -order, -1):
        diff = [
            a - b
            for a, b in zip(
                _ratio_vector(dn, grade, samples), _ratio_vector(resn, grade, samples)
            )
        ]
        residuals["grade_%d%s" % (grade, suffix)] = _magnitude(diff)
    if principal_key is not None:
        xi0 = samples[0]
        residuals[principal_key] = _magnitude(
            [dn.principal_square_eval(xi0) - resn.principal_square_eval(xi0)]
        )
    return resn


# ---------------------------------------------------------------------------
# boundary stages


def _principal_form(dn: DNSymbolData, factor=None):
    """The squared principal observable (times factor) as a quadratic form in
    xi, and its determinant, whose constant term must be positive."""
    vals = [dn.principal_square_eval(xi) for xi in _samples(dn.n - 1)]
    if factor is not None:
        vals = [v * factor for v in vals]
    form = _fit_quadratic_form(vals, dn.n - 1)
    det_form = det(form)
    if det_form.constant_term() <= 0:
        raise DataError("squared principal form has non-positive determinant")
    return form, det_form


def _divided(mat, jet):
    inv = jet.reciprocal()
    return [[x * inv for x in row] for row in mat]


def _boundary_metric(dn: DNSymbolData, factor=None):
    """g^{ab}|0 and delta|0 from a principal form delta g^{ab}: its
    determinant is delta^(n-2)."""
    form, det_form = _principal_form(dn, factor)
    delta0 = det_form.nth_root(dn.n - 2)
    return _divided(form, delta0), delta0


def _weight_from_density(density: Jet, modulo_constant: bool) -> Jet:
    """V|0 from the y-jet e^{-2V}, normalised to V(base) = 0 when the
    weight is only known modulo an additive constant."""
    c0 = density.constant_term()
    if c0 <= 0:
        raise DataError("density data is not positive")
    if modulo_constant:
        density = density.scale(1 / c0)
    return density.log().scale(-HALF)


def _density(dn: DNSymbolData, metric: BoundaryMetricJet) -> Jet:
    """e^{-2V} at the boundary from the squared principal observable."""
    bmetric = metric.restricted_to_boundary()
    xi0 = _samples(dn.n - 1)[0]
    psq = dn.principal_square_eval(xi0)
    return psq * (bmetric.ctx.q2_value(xi0) * bmetric.delta).reciprocal()


def _check_pair(dn_s: DNSymbolData, dn_sigma: DNSymbolData):
    if dn_s.map_kind != "lambda1" or dn_s.gauge_tag != "s":
        raise DataError("first data set must be the gauge DN symbol in gauge 's'")
    if dn_sigma.map_kind != "lambda1" or dn_sigma.gauge_tag != "sigma":
        raise DataError("second data set must be the gauge DN symbol in gauge 'sigma'")
    if dn_s.n != dn_sigma.n or dn_s.depth != dn_sigma.depth:
        raise DataError("gauge pair disagrees on dimension or depth")
    if dn_s.n < 3:
        raise DataError("boundary recovery needs ambient dimension >= 3")


def _boundary_stage(method: str, dn_s: DNSymbolData, dn_sigma: DNSymbolData):
    """Metric orders g^{ab}|0 and d_r g^{ab}|0, the weight modulo an additive
    constant, and delta|0, from the two gauge presentations."""
    _check_pair(dn_s, dn_sigma)
    _check_depth(dn_sigma, 1)
    # squared principal observable in the flat gauge is the form delta*g^{ab}
    g0, delta0 = _boundary_metric(dn_sigma)
    # weight modulo constant from the ratio of principal squares
    rho = dn_s.density_ratio_sq(dn_sigma, _samples(dn_s.n - 1)[0])
    v0 = _weight_from_density(rho, True)
    # order 1 from grade 0 of the flat-gauge data, which the weight does not
    # enter, so the probes run with a zero weight
    metric_orders = [g0]
    zero = dn_sigma.ctx.space.zero(dn_sigma.depth + 1, dn_sigma.boundary_metric.ky)
    _drive(method, dn_sigma, metric_orders, zero, 1, 1)
    return metric_orders, v0, delta0


# ---------------------------------------------------------------------------
# the recovery methods


def recover_first_order(
    dn_s: DNSymbolData, dn_sigma: DNSymbolData
) -> ReconstructionReport:
    """Boundary values g^{ab}|0, d_r g^{ab}|0 and the weight modulo an
    additive constant, from the two gauge presentations of the DN symbol."""
    metric_orders, v0, _delta0 = _boundary_stage("first_order", dn_s, dn_sigma)
    report = ReconstructionReport(
        method="first_order",
        metric_orders=metric_orders,
        weight_orders=[v0],
        weight_normalization="modulo_constant",
    )
    # re-synthesise the consumed grades from the recovered data; the
    # flat-gauge principal square carries no weight and must match as is
    res = report.residuals
    resn_s = _resynthesise(dn_s, metric_orders, [v0], 1, res, "_s")
    resn_sigma = _resynthesise(
        dn_sigma, metric_orders, [v0], 1, res, "_sigma", "principal_sigma"
    )
    # the density ratio between the gauges matches modulo the unrecoverable
    # additive constant of the weight, so compare it normalised
    xi0 = _samples(dn_s.n - 1)[0]

    def _normalised_ratio(a, b):
        ratio = a.density_ratio_sq(b, xi0)
        return ratio.scale(1 / ratio.constant_term())

    res["density_pair"] = _magnitude(
        [_normalised_ratio(dn_s, dn_sigma) - _normalised_ratio(resn_s, resn_sigma)]
    )
    return report


def recover_metric_known_weight(
    dn: DNSymbolData, weight: Jet, order: int
) -> ReconstructionReport:
    """Radial Taylor coefficients of the inverse metric when the weight is
    fully known; works on any of the three data kinds."""
    if dn.n < 3:
        raise DataError("metric recovery needs ambient dimension >= 3")
    _check_depth(dn, order)
    # order 0: from the squared principal observable, after removing the
    # weight factor where the density carries it
    factor = None
    if dn.map_kind == "lambda0" or dn.gauge_tag == "s":
        factor = weight.scale(2).exp().restricted_to_boundary()
    orders = [_boundary_metric(dn, factor)[0]]
    _drive("metric_known_weight", dn, orders, weight, 1, order)
    report = ReconstructionReport(method="metric_known_weight", metric_orders=orders)
    _resynthesise(dn, orders, weight, order, report.residuals)
    return report


def recover_weight_scalar(
    dn: DNSymbolData, metric: BoundaryMetricJet, order: int
) -> ReconstructionReport:
    """All radial Taylor coefficients of the weight from the scalar DN symbol
    with the metric known; the recovery is unique and the boundary value is
    absolute because the density determines it once delta is known."""
    if dn.map_kind != "lambda0":
        raise DataError("weight recovery from the scalar DN map needs lambda0 data")
    _check_depth(dn, order)
    orders = [_weight_from_density(_density(dn, metric), False)]
    _drive("weight_scalar", dn, metric, orders, 1, order)
    report = ReconstructionReport(
        method="weight_scalar",
        weight_orders=orders,
        weight_normalization="absolute",
    )
    _resynthesise(
        dn, metric, orders, order, report.residuals, principal_key="principal_sq"
    )
    return report


def _sorted_roots(center: Jet, disc: Jet) -> list:
    """Roots center -+ sqrt(disc) of a jet quadratic, ascending by constant
    term: two for a positive discriminant, one for a zero one, none for a
    negative one."""
    if disc.is_zero:
        return [center]
    c0 = disc.constant_term()
    if c0 == 0:
        raise ReconstructionError(
            "degenerate discriminant: vanishing constant term with nonzero jet"
        )
    if c0 < 0:
        return []
    s = disc.sqrt()
    return sorted([center - s, center + s], key=Jet.constant_term)


def _theta(method: str, dn: DNSymbolData, metric, v0: Jet, delta_known=None) -> Jet:
    """The combination theta of the module docstring, through which alone
    d_r V and d_r^2 V enter the gauge data: the driver solves order 2 of
    the weight with d_r V = 0, where theta = -d_r^2 V / 2.  A metric given
    as a list of recovered orders gains its order 2 in the same solve."""
    weight = [v0, dn.ctx.space.zero(0, dn.boundary_metric.ky)]
    _drive(method, dn, metric, weight, 2, 2, delta_known)
    return weight[2].scale(-HALF)


def _two_root_starts(report, prescription: tuple, v0: Jet, theta: Jet, delta: Jet):
    """The weight orders [V, d_r V, d_r^2 V] at r = 0 that start a branch,
    from theta, the prescribed y-jet and the volume density delta, whose
    boundary drift is E0 = -(d_r delta / delta)|0 / 2.  Prescribing d_r V
    gives d_r^2 V in closed form; prescribing d_r^2 V leaves
    (d_r V + E0)^2 = E0^2 + 4 theta + 2 d_r^2 V, one start per real root,
    and records the discriminant's constant term."""
    kind, value = prescription
    d0 = delta.restricted_to_boundary()
    e0 = (delta.partial(0).restricted_to_boundary() * d0.reciprocal()).scale(-HALF)
    if kind == "d1V":
        v2 = (value * value).scale(HALF) + e0 * value - theta.scale(2)
        return [[v0, value, v2]]
    disc = e0 * e0 + theta.scale(4) + value.scale(2)
    report.extras["discriminant_constant"] = float(disc.constant_term())
    return [[v0, r, value] for r in _sorted_roots(-e0, disc)]


def _extend_branches(report, dn, metric, starts, order, delta_known=None):
    """Continue each start of the weight orders (through d_r V, d_r^2 V) to a
    branch through ``order`` with the driver, and re-synthesise it.  When the
    metric orders are recovered too, every branch must give the same ones."""
    for worders in starts:
        morders = list(metric) if isinstance(metric, list) else metric
        _drive(report.method, dn, morders, worders, len(worders), order, delta_known)
        worders = worders[: order + 1]
        branch = Branch(worders[1], worders)
        _resynthesise(dn, morders, worders, order, branch.residuals)
        if isinstance(metric, list):
            if not report.branches:
                report.metric_orders = morders[: order + 1]
            elif morders != report.metric_orders:
                raise ReconstructionError(
                    "metric orders differ between weight branches"
                )
        report.branches.append(branch)
    if len(report.branches) == 1:
        report.weight_orders = report.branches[0].weight_orders


def recover_weight_gauge(
    dn: DNSymbolData,
    metric: BoundaryMetricJet,
    prescription: tuple,
    order: int,
) -> ReconstructionReport:
    """Weight recovery from the gauge DN symbol (weight gauge) with the
    metric known.

    ``prescription`` is ("d1V", jet_or_scalar) or ("d2V", jet_or_scalar).
    Prescribing d_r V makes every order a linear solve; prescribing d_r^2 V
    leaves a quadratic for d_r V whose real roots each generate a branch.
    The weight is recovered modulo an additive constant.
    """
    if dn.map_kind != "lambda1" or dn.gauge_tag != "s":
        raise DataError("gauge weight recovery needs lambda1 data in gauge 's'")
    _check_depth(dn, order)
    prescription = _prescribed(prescription, dn)
    if order < 2:
        raise DepthError("gauge weight recovery starts at order 2")
    # boundary value modulo a constant (normalised to zero constant term)
    v0 = _weight_from_density(_density(dn, metric), True)
    report = ReconstructionReport(
        method="weight_gauge", weight_normalization="modulo_constant", branches=[]
    )
    theta = _theta("weight_gauge", dn, metric, v0)
    starts = _two_root_starts(report, prescription, v0, theta, metric.delta)
    _extend_branches(report, dn, metric, starts, order)
    return report


@dataclass
class IndistinguishableWeight:
    """A second weight whose gauge DN data coincides with the reference one."""

    weight: Jet
    alternate_root: Jet
    dn_matches: bool


def construct_indistinguishable_weight(
    metric: BoundaryMetricJet, weight: Jet, depth: int
) -> IndistinguishableWeight:
    """Build a weight distinct from the given one with identical gauge DN
    data (weight gauge) through every retained grade.  Exists whenever the
    two-root quadratic for d_r V has a second real root."""
    dn_true = dn_symbol_gauge(metric, weight, depth, "s")
    v1_true = weight.radial_derivative_at_zero(1)
    v2_true = weight.radial_derivative_at_zero(2)
    rec = recover_weight_gauge(dn_true, metric, ("d2V", v2_true), depth - 1)
    if not rec.branches:
        raise ReconstructionError(
            "no real roots: discriminant %r" % rec.extras.get("discriminant_constant")
        )
    alt = next((b for b in rec.branches if b.root != v1_true), None)
    if alt is None:
        raise ReconstructionError("double root: the weight is rigid at this metric")
    weight_alt = collar_from_radial_orders(
        metric.space, alt.weight_orders, metric.kr, metric.ky
    )
    dn_alt = dn_symbol_gauge(metric, weight_alt, depth, "s")
    return IndistinguishableWeight(
        weight=weight_alt,
        alternate_root=alt.root,
        dn_matches=dn_alt.agrees_with(dn_true),
    )


# ---------------------------------------------------------------------------
# known-volume variants


def recover_with_known_volume_gauge(
    dn_s: DNSymbolData,
    dn_sigma: DNSymbolData,
    delta_known: Jet,
    prescription: tuple,
    order: int,
) -> ReconstructionReport:
    """Joint recovery from the gauge pair when the volume density is known
    near the boundary: every radial order of the inverse metric is unique,
    and the weight inherits the two-root dichotomy resolved by the
    prescription ("d1V" or "d2V", value)."""
    _check_pair(dn_s, dn_sigma)
    _check_depth(dn_s, order)
    if order < 2:
        raise DepthError("joint recovery starts at order 2")
    prescription = _prescribed(prescription, dn_sigma)

    metric_orders, v0, delta0_data = _boundary_stage("volume_gauge", dn_s, dn_sigma)
    if delta0_data != delta_known.restricted_to_boundary():
        raise DataError("known volume disagrees with the determinant in the data")
    # order 2: the metric's order 2 and theta in one flat-gauge solve
    theta = _theta("volume_gauge", dn_sigma, metric_orders, v0, delta_known)
    report = ReconstructionReport(
        method="volume_gauge",
        metric_orders=metric_orders,
        weight_normalization="modulo_constant",
        branches=[],
    )
    starts = _two_root_starts(report, prescription, v0, theta, delta_known)
    # deeper orders: per branch, solve (M_m, v_m) jointly in the flat gauge
    _extend_branches(report, dn_sigma, metric_orders, starts, order, delta_known)
    return report


def recover_with_known_volume_scalar(
    dn: DNSymbolData, delta_known: Jet, order: int
) -> ReconstructionReport:
    """Unique joint recovery of metric and weight from the scalar DN symbol
    when the volume density is known near the boundary."""
    if dn.map_kind != "lambda0":
        raise DataError("scalar joint recovery needs lambda0 data")
    n = dn.n
    if n < 3:
        raise DataError("joint recovery needs ambient dimension >= 3")
    _check_depth(dn, order)
    d0 = delta_known.restricted_to_boundary()

    # order 0: the squared principal form is delta e^{-2V} g^{ab}; its
    # determinant with delta known isolates the weight factor
    nform, det_form = _principal_form(dn)
    dpow = d0
    for _ in range(n - 3):
        dpow = dpow * d0
    e_weight = det_form * dpow.reciprocal()  # e^{-2(n-1)V}|0
    e_m2v = e_weight.nth_root(n - 1)
    metric_orders = [_divided(nform, d0 * e_m2v)]
    weight_orders = [_weight_from_density(e_m2v, False)]

    # every further order: joint linear solves with the determinant constraint
    _drive("volume_scalar", dn, metric_orders, weight_orders, 1, order, delta_known)
    report = ReconstructionReport(
        method="volume_scalar",
        metric_orders=metric_orders,
        weight_orders=weight_orders,
        weight_normalization="absolute",
    )
    _resynthesise(
        dn, metric_orders, weight_orders, order, report.residuals,
        principal_key="principal_sq",
    )
    return report
