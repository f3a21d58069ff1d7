"""Acceptance criteria for the whole toolkit, each one a callable check.

The checks are exact wherever the rational backend reaches (residuals and
round trips compare jets coefficient by coefficient with zero tolerance);
only the disk comparison against the numeric radial solver involves floating
point, with the tolerances stated inline.  Both the test suite and the CLI
``selftest`` subcommand run this list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .diskcheck import RadialProblem, asymptotic_compare, solve_mode
from .dn import dn_symbol_gauge, dn_symbol_scalar
from .factorization import (
    factorize_gauge,
    factorize_scalar,
    perturb_component,
    verify_residual,
)
from .geometry import BoundaryMetricJet, gauge_s, gauge_sigma
from .jets import JetSpace
from .randomgen import random_instance
from .reconstruction import (
    construct_indistinguishable_weight,
    recover_first_order,
    recover_weight_gauge,
    recover_weight_scalar,
    recover_with_known_volume_gauge,
    recover_with_known_volume_scalar,
)
from .runner import true_metric_order
from .scalars import mpq
from .symbols import HomSymbol


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_seconds: float


def _flat_metric(n=3, kr=5, ky=4):
    sp = JetSpace(n)
    nt = n - 1
    rows = [
        [sp.one(kr, ky) if a == b else sp.zero(kr, ky) for b in range(nt)]
        for a in range(nt)
    ]
    return BoundaryMetricJet(rows)


def criterion_1_exact_residuals() -> CriterionResult:
    """25 random rational instances (n=3, orders (5,4), depth 4): the defining
    identity of both factorisations vanishes on every reliable grade."""
    start = time.perf_counter()
    failures = []
    for i in range(25):
        metric, weight = random_instance(1000 + i)
        res_g = factorize_gauge(metric, gauge_s(metric, weight), 4, weight=weight)
        if verify_residual(res_g) is not None:
            failures.append((i, "gauge"))
        res_c = factorize_scalar(metric, weight, 4)
        if verify_residual(res_c) is not None:
            failures.append((i, "scalar"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    detail = "25 instances x 2 modes"
    if failures:
        detail += "; failures: %r" % failures
    if elapsed >= 300.0:
        detail += "; exceeded the 5 minute budget"
    return CriterionResult(1, "exact factorisation residuals", ok, detail, elapsed)


def criterion_2_flat_baseline() -> CriterionResult:
    """Flat metric with zero weight: every subprincipal component vanishes and
    the principal DN observable is -||xi'|| with unit density."""
    start = time.perf_counter()
    g = _flat_metric()
    v = g.space.zero(5, 4)
    ok = True
    notes = []
    for result in (
        factorize_gauge(g, gauge_s(g, v), 4, weight=v),
        factorize_gauge(g, gauge_sigma(g, v), 4, weight=v),
        factorize_scalar(g, v, 4),
    ):
        if result.symbol.grade(1) != -HomSymbol.xi_norm(g.ctx):
            ok = False
            notes.append("%s principal is not -||xi'||" % result.mode)
        if not all(result.symbol.grade(j).is_zero for j in (0, -1, -2)):
            ok = False
            notes.append("%s has nonzero lower grades" % result.mode)
    for dn in (
        dn_symbol_scalar(g, v, 4),
        dn_symbol_gauge(g, v, 4, "s"),
        dn_symbol_gauge(g, v, 4, "sigma"),
    ):
        if dn.symbol.grade(1) != -HomSymbol.xi_norm(dn.ctx):
            ok = False
            notes.append("%s principal observable wrong" % dn.map_kind)
        if dn.density_sq != g.space.one(0, 4):
            ok = False
            notes.append("%s density not one" % dn.map_kind)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        2, "flat baseline", ok, "; ".join(notes) if notes else "all exact", elapsed
    )


def criterion_3_first_order_roundtrip() -> CriterionResult:
    """10 random instances: boundary metric and first radial derivative exact,
    weight exact modulo its additive constant."""
    start = time.perf_counter()
    bad = []
    for i in range(10):
        metric, weight = random_instance(2000 + i)
        dn_s = dn_symbol_gauge(metric, weight, 4, "s")
        dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
        rep = recover_first_order(dn_s, dn_sig)
        if rep.metric_orders[0] != true_metric_order(metric, 0):
            bad.append((i, "g0"))
        if rep.metric_orders[1] != true_metric_order(metric, 1):
            bad.append((i, "dg"))
        if rep.weight_orders[0] != weight.restricted_to_boundary():
            bad.append((i, "V0"))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        3,
        "boundary data round trip",
        not bad,
        "10 instances%s" % ("; failures %r" % bad if bad else ""),
        elapsed,
    )


def criterion_4_weight_scalar_roundtrip() -> CriterionResult:
    """10 random instances at depth 5: with the metric known, the scalar DN
    symbol returns d_r^m V exactly for m = 0..4 (absolute boundary value)."""
    start = time.perf_counter()
    bad = []
    for i in range(10):
        metric, weight = random_instance(3000 + i, kr=6, ky=5)
        dn = dn_symbol_scalar(metric, weight, 5)
        rep = recover_weight_scalar(dn, metric, 4)
        for m in range(5):
            if rep.weight_orders[m] != weight.radial_derivative_at_zero(m):
                bad.append((i, m))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        4,
        "scalar weight round trip to order 4",
        not bad,
        "10 instances%s" % ("; failures %r" % bad if bad else ""),
        elapsed,
    )


def criterion_5_dichotomy_and_counterexample() -> CriterionResult:
    """Flat metric, radial weight with d_r V = 1: prescribing the true second
    derivative returns exactly the roots {1, -1}, and the alternate root
    produces a distinct weight with identical gauge DN data on all grades."""
    start = time.perf_counter()
    g = _flat_metric()
    sp = g.space
    r = sp.coordinate(0, 5, 4)
    v = r + (r * r * r).scale(mpq(1, 6))
    dn = dn_symbol_gauge(g, v, 4, "s")
    rep = recover_weight_gauge(dn, g, ("d2V", 0), 3)
    roots = [b.root_constant for b in rep.branches]
    ok = roots == [mpq(-1), mpq(1)]
    notes = ["roots %r" % [str(x) for x in roots]]
    try:
        ce = construct_indistinguishable_weight(g, v, 4)
        if not ce.dn_matches:
            ok = False
            notes.append("counterexample DN data does not match")
        if ce.weight == v:
            ok = False
            notes.append("counterexample weight equals the original")
        notes.append("alternate root %s" % ce.alternate_root.constant_term())
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        ok = False
        notes.append("counterexample failed: %s" % exc)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        5, "two-root dichotomy and counterexample", ok, "; ".join(notes), elapsed
    )


def criterion_6_known_volume_roundtrips() -> CriterionResult:
    """With the volume known: gauge-pair recovery returns the metric to order
    3 (10 instances, prescribed true d_r V), the scalar recovery returns both
    jets to order 4 (10 instances), and the weighted-shape trace formula gives
    d_r V = a on the flat example with V = a r."""
    start = time.perf_counter()
    bad = []
    for i in range(10):
        metric, weight = random_instance(4000 + i)
        dn_s = dn_symbol_gauge(metric, weight, 4, "s")
        dn_sig = dn_symbol_gauge(metric, weight, 4, "sigma")
        v1 = weight.radial_derivative_at_zero(1)
        rep = recover_with_known_volume_gauge(
            dn_s, dn_sig, metric.delta, ("d1V", v1), 3
        )
        for m in range(4):
            if rep.metric_orders[m] != true_metric_order(metric, m):
                bad.append(("gauge", i, "g", m))
        branch = rep.branches[0]
        for m in range(4):
            if branch.weight_orders[m] != weight.radial_derivative_at_zero(m):
                bad.append(("gauge", i, "V", m))
    for i in range(10):
        metric, weight = random_instance(5000 + i, kr=6, ky=5)
        dn = dn_symbol_scalar(metric, weight, 5)
        rep = recover_with_known_volume_scalar(dn, metric.delta, 4)
        for m in range(5):
            if rep.metric_orders[m] != true_metric_order(metric, m):
                bad.append(("scalar", i, "g", m))
            if rep.weight_orders[m] != weight.radial_derivative_at_zero(m):
                bad.append(("scalar", i, "V", m))
    # trace-formula hand example: flat metric, V = a r, n = 3
    g = _flat_metric()
    a = mpq(3, 4)
    v = g.space.coordinate(0, 5, 4).scale(a)
    dn = dn_symbol_scalar(g, v, 4)
    rep = recover_with_known_volume_scalar(dn, g.delta, 1)
    if rep.weight_orders[1].constant_term() != a:
        bad.append(("trace-formula", str(rep.weight_orders[1].constant_term())))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        6,
        "known-volume round trips",
        not bad,
        "20 instances + hand example%s" % ("; failures %r" % bad if bad else ""),
        elapsed,
    )


def criterion_7_disk_asymptotics() -> CriterionResult:
    """Euclidean disk with a radial quadratic weight: error after the depth-J
    partial sum decays with fitted slope <= -(J - 0.3) for J in {2, 3}; the
    trivial weight reproduces -k to 1e-8 relative.  Budget: one minute."""
    start = time.perf_counter()
    notes = []
    ok = True
    trivial = RadialProblem(rho_coeffs=())
    for k in (8, 16, 32, 64):
        ratio = solve_mode(trivial, k)
        if abs(ratio + k) > 1e-8 * k:
            ok = False
            notes.append("mode %d ratio %.12f" % (k, ratio))
    problem = RadialProblem(rho_coeffs=(mpq(1, 2), mpq(-1), mpq(1, 2)))
    for depth in (2, 3):
        comp = asymptotic_compare(problem, depth)
        notes.append("J=%d slope %.3f" % (depth, comp.slope))
        if not comp.passed:
            ok = False
            notes.append("J=%d failed: %s" % (depth, comp.note))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        ok = False
        notes.append("exceeded the 1 minute budget")
    return CriterionResult(7, "disk asymptotics", ok, "; ".join(notes), elapsed)


def criterion_8_fault_detection() -> CriterionResult:
    """Five injected faults, one per determined component across both modes:
    the residual verifier reports exactly the corrupted grade."""
    start = time.perf_counter()
    metric, weight = random_instance(6000)
    bad = []
    scalar = factorize_scalar(metric, weight, 4)
    gauge = factorize_gauge(metric, gauge_s(metric, weight), 4, weight=weight)
    sites = [
        (scalar, 0),
        (scalar, -1),
        (scalar, -2),
        (gauge, 0),
        (gauge, -2),
    ]
    for result, grade in sites:
        reported = verify_residual(perturb_component(result, grade))
        if reported != grade:
            bad.append((result.mode, grade, reported))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        8,
        "injected-fault detection",
        not bad,
        "5 sites%s" % ("; failures %r" % bad if bad else ", all localised"),
        elapsed,
    )


ALL_CRITERIA = (
    criterion_1_exact_residuals,
    criterion_2_flat_baseline,
    criterion_3_first_order_roundtrip,
    criterion_4_weight_scalar_roundtrip,
    criterion_5_dichotomy_and_counterexample,
    criterion_6_known_volume_roundtrips,
    criterion_7_disk_asymptotics,
    criterion_8_fault_detection,
)


def run_criteria(numbers=None, log=None):
    """Run the selected criteria (all by default), logging one line each
    with the verdict, the wall time and the detail."""
    results = []
    for fn in ALL_CRITERIA:
        result = None
        probe = fn.__name__.split("_")[1]
        if numbers is not None and int(probe) not in numbers:
            continue
        result = fn()
        results.append(result)
        if log is not None:
            log(
                "criterion %d [%s]: %s in %.1fs (%s)"
                % (
                    result.number,
                    result.name,
                    "PASS" if result.passed else "FAIL",
                    result.elapsed_seconds,
                    result.detail,
                )
            )
    return results
