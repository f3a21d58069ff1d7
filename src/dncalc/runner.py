"""Task execution for scenario files: the engine behind the CLI.

Each task runs against the scenario's geometry and produces a JSON-ready
record with a status: "pass" (ran and every check held), "fail" (ran but a
check was violated) or "error" (could not run, e.g. a truncation budget too
small for the requested depth).  Reconstruction tasks are round trips: the
forward DN data is generated from the scenario's metric and weight, inverted,
and compared against the truth.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .diskcheck import RadialProblem, asymptotic_compare
from .dn import dn_symbol_gauge, dn_symbol_scalar
from .errors import DnCalcError, ScenarioError
from .factorization import factorize_gauge, factorize_scalar, verify_residual
from .geometry import gauge_s, gauge_sigma
from .reconstruction import (
    construct_indistinguishable_weight,
    recover_first_order,
    recover_metric_known_weight,
    recover_weight_gauge,
    recover_weight_scalar,
    recover_with_known_volume_gauge,
    recover_with_known_volume_scalar,
)
from .scalars import mpq
from .serialize import (
    SCHEMA_VERSION,
    Scenario,
    dn_to_json,
    homsymbol_to_json,
    jet_to_json,
)


def true_metric_order(metric, m):
    """d_r^m g^{ab}|0: what a metric recovery must return at order m."""
    nt = metric.n - 1
    return [
        [metric.g_upper[a][b].radial_derivative_at_zero(m) for b in range(nt)]
        for a in range(nt)
    ]


def _metric_orders_json(orders):
    return [
        [[jet_to_json(cell) for cell in row] for row in mat] for mat in orders
    ]


def _weight_orders_json(orders):
    return [jet_to_json(j) for j in orders]


def run_task(scenario: Scenario, task: dict, index: int) -> dict:
    record = {"index": index, "kind": task["kind"], "status": "error"}
    try:
        detail = _dispatch(scenario, task)
        record.update(detail)
    except DnCalcError as exc:
        record["status"] = "error"
        record["error"] = "%s: %s" % (type(exc).__name__, exc)
    return record


def _dispatch(scenario: Scenario, task: dict) -> dict:
    kind = task["kind"]
    if kind == "factorize":
        return _task_factorize(scenario, task)
    if kind == "dn":
        return _task_dn(scenario, task)
    if kind == "reconstruct":
        return _task_reconstruct(scenario, task)
    if kind == "counterexample":
        return _task_counterexample(scenario, task)
    if kind == "validate-disk":
        return _task_validate_disk(scenario, task)
    raise ScenarioError("unknown task kind %r" % kind)


def _task_factorize(scenario: Scenario, task: dict) -> dict:
    metric, weight = scenario.metric, scenario.weight
    if task["mode"] == "gauge":
        gauge = gauge_s(metric, weight) if task["gauge"] == "s" else gauge_sigma(metric, weight)
        result = factorize_gauge(metric, gauge, scenario.depth, weight=weight)
    else:
        result = factorize_scalar(metric, weight, scenario.depth)
    bctx = metric.restricted_to_boundary().ctx
    boundary = result.symbol.restricted_to_boundary(bctx)
    out = {
        "mode": result.mode,
        "gauge": task.get("gauge"),
        "depth": result.depth,
        "boundary_grades": {
            str(j): homsymbol_to_json(boundary.grade(j)) for j in boundary.grades()
        },
        "status": "pass",
    }
    if task.get("verify", True):
        violated = verify_residual(result)
        out["residual"] = "PASS" if violated is None else violated
        if violated is not None:
            out["status"] = "fail"
    return out


def _dn_data(scenario: Scenario, kind: str):
    """The scenario's DN data: "lambda0", or lambda1 in the gauge ``kind``."""
    metric, weight, depth = scenario.metric, scenario.weight, scenario.depth
    if kind == "lambda0":
        return dn_symbol_scalar(metric, weight, depth)
    return dn_symbol_gauge(metric, weight, depth, kind)


def _task_dn(scenario: Scenario, task: dict) -> dict:
    kind = "lambda0" if task["map"] == "lambda0" else task["gauge"]
    return {"status": "pass", "data": dn_to_json(_dn_data(scenario, kind))}


def _prescription(scenario: Scenario, task: dict):
    key, value = next(iter(task["prescribe"].items()))
    if value == "true":
        return key, scenario.weight.radial_derivative_at_zero(1 if key == "d1V" else 2)
    return key, scenario.space.constant(mpq(str(value)), 0, scenario.ky)


def _order_checks(name, orders, truth) -> dict:
    return {"%s_order_%d" % (name, m): got == truth(m) for m, got in enumerate(orders)}


def _is_true_weight(orders, weight) -> bool:
    return all(v == weight.radial_derivative_at_zero(m) for m, v in enumerate(orders))


#: task-record field -> its JSON form, from a ReconstructionReport
_FIELDS = {
    "recovered_metric": lambda rep: _metric_orders_json(rep.metric_orders),
    "recovered_weight": lambda rep: _weight_orders_json(rep.weight_orders),
    "residuals": lambda rep: rep.residuals,
    "normalization": lambda rep: rep.weight_normalization,
    "extras": lambda rep: rep.extras,
    "branches": lambda rep: [
        {
            "root": jet_to_json(b.root),
            "weight_orders": _weight_orders_json(b.weight_orders),
            "residuals": b.residuals,
        }
        for b in rep.branches
    ],
}

#: truth check -> {check name: passed}, from a report and its scenario
_CHECKS = {
    "metric_orders": lambda rep, sc: _order_checks(
        "metric", rep.metric_orders, lambda m: true_metric_order(sc.metric, m)
    ),
    "weight_orders": lambda rep, sc: _order_checks(
        "weight", rep.weight_orders, sc.weight.radial_derivative_at_zero
    ),
    "weight_mod_constant": lambda rep, sc: {
        "weight_mod_constant": (
            rep.weight_orders[0] == sc.weight.restricted_to_boundary()
        )
    },
    "branches": lambda rep, sc: {
        "has_branches": bool(rep.branches),
        "branches_sound": all(
            v == 0.0 for b in rep.branches for v in b.residuals.values()
        ),
    },
    "truth_among_branches": lambda rep, sc: {
        "truth_among_branches": any(
            _is_true_weight(b.weight_orders, sc.weight) for b in rep.branches
        )
    },
}


class _Method(NamedTuple):
    data: tuple  # DN data to generate: "lambda0", or the gauge tag of lambda1
    recover: Callable  # (data list, scenario, task, order) -> ReconstructionReport
    fields: tuple  # keys of _FIELDS
    checks: tuple  # keys of _CHECKS


#: every method of serialize.RECONSTRUCTION_METHODS.  The recover calls look
#: the recover_* functions up when they run, so a wrapper installed on this
#: module's names (as benchmark/tracing.py installs) sees every call.
RECONSTRUCT = {
    "first-order": _Method(
        ("s", "sigma"),
        lambda data, sc, task, order: recover_first_order(*data),
        ("recovered_metric", "recovered_weight", "residuals", "normalization"),
        ("metric_orders", "weight_mod_constant"),
    ),
    "metric-known-weight": _Method(
        ("sigma",),
        lambda data, sc, task, order: recover_metric_known_weight(
            data[0], sc.weight, order
        ),
        ("recovered_metric", "residuals"),
        ("metric_orders",),
    ),
    "weight-scalar": _Method(
        ("lambda0",),
        lambda data, sc, task, order: recover_weight_scalar(data[0], sc.metric, order),
        ("recovered_weight", "residuals", "normalization"),
        ("weight_orders",),
    ),
    "weight-gauge": _Method(
        ("s",),
        lambda data, sc, task, order: recover_weight_gauge(
            data[0], sc.metric, _prescription(sc, task), order
        ),
        ("branches", "extras"),
        ("branches", "truth_among_branches"),
    ),
    "volume-gauge": _Method(
        ("s", "sigma"),
        lambda data, sc, task, order: recover_with_known_volume_gauge(
            *data, sc.metric.delta, _prescription(sc, task), order
        ),
        ("recovered_metric", "branches"),
        ("metric_orders", "truth_among_branches"),
    ),
    "volume-scalar": _Method(
        ("lambda0",),
        lambda data, sc, task, order: recover_with_known_volume_scalar(
            data[0], sc.metric.delta, order
        ),
        ("recovered_metric", "recovered_weight", "residuals"),
        ("metric_orders", "weight_orders"),
    ),
}


def _task_reconstruct(scenario: Scenario, task: dict) -> dict:
    method = RECONSTRUCT.get(task["method"])
    if method is None:
        raise ScenarioError("unknown reconstruction method %r" % task["method"])
    data = [_dn_data(scenario, kind) for kind in method.data]
    order = int(task["order"])
    rep = method.recover(data, scenario, task, order)
    out = {"method": task["method"], "order": order}
    out.update((name, _FIELDS[name](rep)) for name in method.fields)
    out["checks"] = {}
    for name in method.checks:
        out["checks"].update(_CHECKS[name](rep, scenario))
    out["status"] = "pass" if all(out["checks"].values()) else "fail"
    return out


def _task_counterexample(scenario: Scenario, task: dict) -> dict:
    metric, weight = scenario.metric, scenario.weight
    result = construct_indistinguishable_weight(metric, weight, int(task["depth"]))
    distinct = result.weight != weight
    return {
        "status": "pass" if (result.dn_matches and distinct) else "fail",
        "alternate_root": jet_to_json(result.alternate_root),
        "alternate_weight": jet_to_json(result.weight),
        "dn_matches": result.dn_matches,
        "distinct": distinct,
    }


def _task_validate_disk(scenario: Scenario, task: dict) -> dict:
    problem = RadialProblem(
        rho_coeffs=tuple(mpq(str(c)) for c in task["weight_rho"]),
        modes=tuple(task["modes"]),
    )
    comp = asymptotic_compare(problem, int(task["depth"]))
    return {
        "status": "pass" if comp.passed else "fail",
        "depth": comp.depth,
        "slope": comp.slope,
        "slope_bound": comp.slope_bound,
        "skipped": comp.skipped,
        "note": comp.note,
        "table": [
            {
                "mode": row.mode,
                "numeric": row.numeric,
                "partial_sum": row.partial_sum,
                "error": row.error,
            }
            for row in comp.rows
        ],
    }


def _run_single(raw: dict, index: int) -> dict:
    scenario = Scenario(raw)
    return run_task(scenario, scenario.tasks[index], index)


def run_scenario(scenario: Scenario, digest: str, parallel: bool = False) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "input_sha256": digest,
            "tool_version": __version__,
            "backend": scenario.backend,
            "dimension": scenario.n,
            "depth": scenario.depth,
            "seed": scenario.seed,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    if parallel and len(scenario.tasks) > 1:
        with ProcessPoolExecutor() as pool:
            futures = [
                pool.submit(_run_single, scenario.raw, i)
                for i in range(len(scenario.tasks))
            ]
            tasks = [f.result() for f in futures]
    else:
        tasks = [run_task(scenario, task, i) for i, task in enumerate(scenario.tasks)]
    report["tasks"] = tasks
    report["status"] = (
        "pass" if all(t["status"] == "pass" for t in tasks) else "fail"
    )
    return report
