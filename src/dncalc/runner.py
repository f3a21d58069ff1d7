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
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .diskcheck import RadialProblem, asymptotic_compare
from .dn import dn_symbol_gauge, dn_symbol_scalar
from .errors import DnCalcError, ScenarioError
from .factorization import factorize_gauge, factorize_scalar, verify_residual
from .geometry import gauge_s, gauge_sigma
from .jets import Jet
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


def _jets_equal(a: Jet, b: Jet) -> bool:
    return a == b


def _matrix_equal(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _true_metric_orders(metric, upto):
    nt = metric.n - 1
    return [
        [
            [metric.g_upper[x][y].radial_derivative_at_zero(m) for y in range(nt)]
            for x in range(nt)
        ]
        for m in range(upto + 1)
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


def _task_dn(scenario: Scenario, task: dict) -> dict:
    metric, weight = scenario.metric, scenario.weight
    if task["map"] == "lambda0":
        dn = dn_symbol_scalar(metric, weight, scenario.depth)
    else:
        dn = dn_symbol_gauge(metric, weight, scenario.depth, task["gauge"])
    return {"status": "pass", "data": dn_to_json(dn)}


def _resolve_prescription(scenario: Scenario, presc: dict):
    key, value = next(iter(presc.items()))
    order = 1 if key == "d1V" else 2
    if value == "true":
        jet = scenario.weight.radial_derivative_at_zero(order)
    else:
        jet = scenario.space.constant(
            scenario.space.backend.from_str(str(value)), 0, scenario.ky
        )
    return key, jet


def _task_reconstruct(scenario: Scenario, task: dict) -> dict:
    metric, weight = scenario.metric, scenario.weight
    method = task["method"]
    order = int(task["order"])
    depth = scenario.depth
    out = {"method": method, "order": order, "status": "pass"}
    checks = {}

    if method == "first-order":
        dn_s = dn_symbol_gauge(metric, weight, depth, "s")
        dn_sig = dn_symbol_gauge(metric, weight, depth, "sigma")
        rep = recover_first_order(dn_s, dn_sig)
        truth = _true_metric_orders(metric, 1)
        checks["metric_order_0"] = _matrix_equal(rep.metric_orders[0], truth[0])
        checks["metric_order_1"] = _matrix_equal(rep.metric_orders[1], truth[1])
        checks["weight_mod_constant"] = _jets_equal(
            rep.weight_orders[0], weight.restricted_to_boundary()
        )
        out["recovered_metric"] = _metric_orders_json(rep.metric_orders)
        out["recovered_weight"] = _weight_orders_json(rep.weight_orders)
        out["residuals"] = rep.residuals
        out["normalization"] = rep.weight_normalization

    elif method == "metric-known-weight":
        dn = dn_symbol_gauge(metric, weight, depth, "sigma")
        rep = recover_metric_known_weight(dn, weight, order)
        truth = _true_metric_orders(metric, order)
        for m in range(order + 1):
            checks["metric_order_%d" % m] = _matrix_equal(rep.metric_orders[m], truth[m])
        out["recovered_metric"] = _metric_orders_json(rep.metric_orders)
        out["residuals"] = rep.residuals

    elif method == "weight-scalar":
        dn = dn_symbol_scalar(metric, weight, depth)
        rep = recover_weight_scalar(dn, metric, order)
        for m in range(order + 1):
            checks["weight_order_%d" % m] = _jets_equal(
                rep.weight_orders[m], weight.radial_derivative_at_zero(m)
            )
        out["recovered_weight"] = _weight_orders_json(rep.weight_orders)
        out["residuals"] = rep.residuals
        out["normalization"] = rep.weight_normalization

    elif method == "weight-gauge":
        dn = dn_symbol_gauge(metric, weight, depth, "s")
        key, jet = _resolve_prescription(scenario, task["prescribe"])
        rep = recover_weight_gauge(dn, metric, (key, jet), order)
        out["branches"] = [
            {
                "root": jet_to_json(b.root),
                "weight_orders": _weight_orders_json(b.weight_orders),
                "residuals": b.residuals,
            }
            for b in rep.branches
        ]
        out["extras"] = rep.extras
        checks["has_branches"] = bool(rep.branches)
        checks["branches_sound"] = all(
            v == 0.0 for b in rep.branches for v in b.residuals.values()
        )
        truth_found = any(
            all(
                _jets_equal(b.weight_orders[m], weight.radial_derivative_at_zero(m))
                for m in range(order + 1)
            )
            for b in rep.branches
        )
        checks["truth_among_branches"] = truth_found

    elif method == "volume-gauge":
        dn_s = dn_symbol_gauge(metric, weight, depth, "s")
        dn_sig = dn_symbol_gauge(metric, weight, depth, "sigma")
        key, jet = _resolve_prescription(scenario, task["prescribe"])
        rep = recover_with_known_volume_gauge(dn_s, dn_sig, metric.delta, (key, jet), order)
        truth = _true_metric_orders(metric, order)
        for m in range(order + 1):
            checks["metric_order_%d" % m] = _matrix_equal(rep.metric_orders[m], truth[m])
        checks["truth_among_branches"] = any(
            all(
                _jets_equal(b.weight_orders[m], weight.radial_derivative_at_zero(m))
                for m in range(order + 1)
            )
            for b in rep.branches
        )
        out["recovered_metric"] = _metric_orders_json(rep.metric_orders)
        out["branches"] = [
            {
                "root": jet_to_json(b.root),
                "weight_orders": _weight_orders_json(b.weight_orders),
                "residuals": b.residuals,
            }
            for b in rep.branches
        ]

    elif method == "volume-scalar":
        dn = dn_symbol_scalar(metric, weight, depth)
        rep = recover_with_known_volume_scalar(dn, metric.delta, order)
        truth = _true_metric_orders(metric, order)
        for m in range(order + 1):
            checks["metric_order_%d" % m] = _matrix_equal(rep.metric_orders[m], truth[m])
            checks["weight_order_%d" % m] = _jets_equal(
                rep.weight_orders[m], weight.radial_derivative_at_zero(m)
            )
        out["recovered_metric"] = _metric_orders_json(rep.metric_orders)
        out["recovered_weight"] = _weight_orders_json(rep.weight_orders)
        out["residuals"] = rep.residuals

    else:
        raise ScenarioError("unknown reconstruction method %r" % method)

    out["checks"] = checks
    if not all(checks.values()):
        out["status"] = "fail"
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
