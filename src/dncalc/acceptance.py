"""Acceptance criteria for the whole toolkit: rows of (name, check, budget),
numbered by position, that ``run_criteria`` alone times.

Each check picks its instances and returns ``(passed, detail)``, reading its
verdicts from ``runner.task_record`` wherever a task kind covers the claim.
The flat baseline, the exact roots of the dichotomy, the trivial-weight disk
modes and the fault injection are checked here: no task record carries them.
All checks are exact but the disk asymptotics, which fit a slope to the
float differences between the disk's DN eigenvalues and the symbol partial
sums.  Both the test suite and the CLI ``selftest`` subcommand run this list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from .diskcheck import RadialProblem, solve_mode
from .dn import dn_symbol_gauge, dn_symbol_scalar, shared_forward_runs
from .errors import DnCalcError
from .factorization import (
    factorize_gauge,
    factorize_scalar,
    perturb_component,
    verify_residual,
)
from .geometry import BoundaryMetricJet, gauge_s, gauge_sigma
from .jets import JetSpace
from .randomgen import random_instance
from .reconstruction import recover_weight_gauge
from .runner import task_record
from .serialize import jet_from_json, task_from_json
from .symbols import HomSymbol


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_seconds: float


def _seeds(first, count, kr=5, ky=4):
    """(seed, metric, weight) of ``random_instance(seed, kr=kr, ky=ky)`` for
    ``count`` seeds from ``first`` on."""
    for seed in range(first, first + count):
        yield (seed, *random_instance(seed, kr=kr, ky=ky))


def _failures(instances, depth, *tasks) -> list:
    """(label, what failed) for every runner record of ``tasks`` that does
    not pass on the (label, metric, weight) ``instances``, symbols to
    ``depth``.  Each task holds only the fields that differ from the
    scenario schema's defaults.  What failed is the list of failed checks,
    or the mode of a factorize record, which has none.  The tasks on one
    instance share their forward runs, as the tasks of a scenario run do."""
    tasks = [task_from_json(task, 0, depth) for task in tasks]
    bad = []
    for label, metric, weight in instances:
        with shared_forward_runs():
            for task in tasks:
                record = task_record(metric, weight, depth, task)
                if record["status"] != "pass":
                    failed = [k for k, ok in record.get("checks", {}).items() if not ok]
                    bad.append((label, failed or task["mode"]))
    return bad


def _verdict(text, bad):
    """(passed, detail): passed when ``bad`` is empty, which the detail lists."""
    return not bad, text + ("; failures %r" % bad if bad else "")


def _reconstruct(method, **fields):
    return {"kind": "reconstruct", "method": method, **fields}


def exact_residuals():
    """25 random rational instances (n=3, orders (5,4), depth 4): the defining
    identity of both factorisations vanishes on every reliable grade."""
    tasks = ({"kind": "factorize", "mode": "gauge"}, {"kind": "factorize"})
    return _verdict("25 instances x 2 modes", _failures(_seeds(1000, 25), 4, *tasks))


def flat_baseline():
    """Flat metric with zero weight: every subprincipal component vanishes and
    the principal DN observable is -||xi'|| with unit density."""
    g = BoundaryMetricJet.flat(JetSpace(3), 5, 4)
    v = g.space.zero(5, 4)
    notes = []
    for result in (
        factorize_gauge(g, gauge_s(g, v), 4, weight=v),
        factorize_gauge(g, gauge_sigma(g, v), 4, weight=v),
        factorize_scalar(g, v, 4),
    ):
        if result.symbol.grade(1) != -HomSymbol.xi_norm(g.ctx):
            notes.append("%s principal is not -||xi'||" % result.mode)
        if not all(result.symbol.grade(j).is_zero for j in (0, -1, -2)):
            notes.append("%s has nonzero lower grades" % result.mode)
    for dn in (
        dn_symbol_scalar(g, v, 4),
        dn_symbol_gauge(g, v, 4, "s"),
        dn_symbol_gauge(g, v, 4, "sigma"),
    ):
        if dn.symbol.grade(1) != -HomSymbol.xi_norm(dn.ctx):
            notes.append("%s principal observable wrong" % dn.map_kind)
        if dn.density_sq != g.space.one(0, 4):
            notes.append("%s density not one" % dn.map_kind)
    return not notes, "; ".join(notes) if notes else "all exact"


def first_order_roundtrip():
    """10 random instances: boundary metric and first radial derivative exact,
    weight exact modulo its additive constant."""
    bad = _failures(_seeds(2000, 10), 4, _reconstruct("first-order", order=1))
    return _verdict("10 instances", bad)


def weight_scalar_roundtrip():
    """10 random instances at depth 5: with the metric known, the scalar DN
    symbol returns d_r^m V exactly for m = 0..4 (absolute boundary value)."""
    bad = _failures(_seeds(3000, 10, 6, 5), 5, _reconstruct("weight-scalar", order=4))
    return _verdict("10 instances", bad)


def dichotomy_and_counterexample():
    """Flat metric, radial weight with d_r V = 1: prescribing the true second
    derivative returns exactly the roots {1, -1}, and the alternate root
    produces a distinct weight with identical gauge DN data on all grades."""
    g = BoundaryMetricJet.flat(JetSpace(3), 5, 4)
    sp = g.space
    r = sp.coordinate(0, 5, 4)
    v = r + (r * r * r).scale(Fraction(1, 6))
    dn = dn_symbol_gauge(g, v, 4, "s")
    rep = recover_weight_gauge(dn, g, ("d2V", 0), 3)
    roots = [b.root.constant_term() for b in rep.branches]
    notes = ["roots %r" % [str(x) for x in roots]]
    ce = task_record(g, v, 4, task_from_json({"kind": "counterexample"}, 0, 4))
    if ce["status"] != "pass":
        notes.append("counterexample dn_matches %(dn_matches)s, distinct %(distinct)s" % ce)
    root = jet_from_json(sp, ce["alternate_root"])
    notes.append("alternate root %s" % root.constant_term())
    return roots == [Fraction(-1), Fraction(1)] and ce["status"] == "pass", "; ".join(notes)


def known_volume_roundtrips():
    """With the volume known: gauge-pair recovery returns the metric to order
    3 and sound branches, one of them the true weight (10 instances,
    prescribed true d_r V), the scalar recovery returns both jets to order 4
    (10 instances), and on the flat example with V = a r it returns both
    jets to order 1, so d_r V = a."""
    gauge = _reconstruct("volume-gauge", prescribe={"d1V": "true"})
    bad = _failures(_seeds(4000, 10), 4, gauge)
    bad += _failures(_seeds(5000, 10, 6, 5), 5, _reconstruct("volume-scalar", order=4))
    # hand example: flat metric, V = a r with a = 3/4, n = 3
    g = BoundaryMetricJet.flat(JetSpace(3), 5, 4)
    v = g.space.coordinate(0, 5, 4).scale(Fraction(3, 4))
    bad += _failures([("flat-example", g, v)], 4, _reconstruct("volume-scalar", order=1))
    return _verdict("20 instances + hand example", bad)


def disk_asymptotics():
    """Euclidean disk with a radial quadratic weight: error after the depth-J
    partial sum decays with fitted slope <= -(J - 0.3) for J in {2, 3}; the
    trivial weight reproduces -k exactly."""
    notes = []
    ok = True
    trivial = RadialProblem(rho_coeffs=())
    for k in (8, 16, 32, 64):
        ratio = solve_mode(trivial, k)
        if ratio != -k:
            ok = False
            notes.append("mode %d ratio %.12f" % (k, ratio))
    for depth in (2, 3):
        task = task_from_json({"kind": "validate-disk", "depth": depth}, 0, depth)
        record = task_record(None, None, depth, task)
        notes.append("J=%d slope %.3f" % (depth, record["slope"]))
        if record["status"] != "pass":
            ok = False
            notes.append("J=%d failed: %s" % (depth, record["note"]))
    return ok, "; ".join(notes)


def fault_detection():
    """Five injected faults, one per determined component across both modes:
    the residual verifier reports exactly the corrupted grade."""
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
    return not bad, "5 sites%s" % ("; failures %r" % bad if bad else ", all localised")


#: (name, check, budget in seconds or None); criterion k is row k - 1
ALL_CRITERIA = (
    ("exact factorisation residuals", exact_residuals, 300),
    ("flat baseline", flat_baseline, None),
    ("boundary data round trip", first_order_roundtrip, None),
    ("scalar weight round trip to order 4", weight_scalar_roundtrip, None),
    ("two-root dichotomy and counterexample", dichotomy_and_counterexample, None),
    ("known-volume round trips", known_volume_roundtrips, None),
    ("disk asymptotics", disk_asymptotics, 60),
    ("injected-fault detection", fault_detection, None),
)


def run_criteria(numbers=None, log=None):
    """Run the selected criteria (all by default), logging one line each
    with the verdict, the wall time and the detail.  A criterion fails when
    its check raises a ``DnCalcError`` or runs for its budget or longer."""
    results = []
    for number, (name, check, budget) in enumerate(ALL_CRITERIA, 1):
        if numbers is not None and number not in numbers:
            continue
        start = perf_counter()
        try:
            passed, detail = check()
        except DnCalcError as exc:
            passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
        elapsed = perf_counter() - start
        if budget is not None and elapsed >= budget:
            passed = False
            detail += "; exceeded the %d minute budget" % (budget // 60)
        result = CriterionResult(number, name, passed, detail, elapsed)
        results.append(result)
        if log is not None:
            log(
                "criterion %d [%s]: %s in %.1fs (%s)"
                % (number, name, "PASS" if passed else "FAIL", elapsed, detail)
            )
    return results
