"""Task execution for scenario files, and the one pass rule of each task kind.

``task_record(metric, weight, depth, task)`` looks the kind up in ``TASKS``
and returns a JSON-ready record whose status is "pass" or "fail": a
factorisation passes when its residual vanishes, a reconstruction when its
round trip returns the truth on every check, a counterexample when its
second weight is distinct with the same DN data, and a disk check when its
error slope meets the bound.  The acceptance criteria read these verdicts.
In ``run_task``, status "error" means the task could not run (e.g. a
truncation too small for the depth); a failed order-by-order solve names its
method, order, grade and, when either is why, the unknown without a unit
pivot or the residual of an inconsistent system, under "failure".  A
scenario run shares its forward runs (``dn.shared_forward_runs``).
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from . import __version__
from .diskcheck import RadialProblem, asymptotic_compare
from .dn import dn_symbol, shared_forward_runs
from .errors import DnCalcError, ReconstructionError
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
        record.update(task_record(scenario.metric, scenario.weight, scenario.depth, task))
    except DnCalcError as exc:
        record["status"] = "error"
        record["error"] = "%s: %s" % (type(exc).__name__, exc)
        if isinstance(exc, ReconstructionError) and exc.order is not None:
            record["failure"] = {
                "method": exc.method, "order": exc.order, "grade": exc.grade
            }
            for key in ("unknown", "residual"):
                if getattr(exc, key) is not None:
                    record["failure"][key] = getattr(exc, key)
    return record


def task_record(metric, weight, depth: int, task: dict) -> dict:
    """The record of ``task``, a task as ``Scenario`` stores it, on
    ``metric`` and ``weight`` with symbols to ``depth``."""
    return TASKS[task["kind"]](metric, weight, depth, task)


def _task_factorize(metric, weight, depth: int, task: dict) -> dict:
    if task["mode"] == "gauge":
        gauge = gauge_s(metric, weight) if task["gauge"] == "s" else gauge_sigma(metric, weight)
        result = factorize_gauge(metric, gauge, depth, weight=weight)
    else:
        result = factorize_scalar(metric, weight, depth)
    bctx = metric.restricted_to_boundary().ctx
    boundary = result.symbol.restricted_to_boundary(bctx)
    out = {
        "mode": result.mode,
        "gauge": task["gauge"],
        "depth": result.depth,
        "boundary_grades": {
            str(j): homsymbol_to_json(boundary.grade(j)) for j in boundary.grades()
        },
        "status": "pass",
    }
    if task["verify"]:
        violated = verify_residual(result)
        out["residual"] = "PASS" if violated is None else violated
        if violated is not None:
            out["status"] = "fail"
    return out


def _task_dn(metric, weight, depth: int, task: dict) -> dict:
    kind = "lambda0" if task["map"] == "lambda0" else task["gauge"]
    return {"status": "pass", "data": dn_to_json(dn_symbol(metric, weight, depth, kind))}


def _prescription(weight, task: dict):
    key, value = next(iter(task["prescribe"].items()))
    if value == "true":
        return key, weight.radial_derivative_at_zero(1 if key == "d1V" else 2)
    return key, weight.space.constant(value, 0, weight.ky)


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

#: truth check -> {check name: passed}, from a report, the metric and the weight
_CHECKS = {
    "metric_orders": lambda rep, metric, weight: _order_checks(
        "metric", rep.metric_orders, lambda m: true_metric_order(metric, m)
    ),
    "weight_orders": lambda rep, metric, weight: _order_checks(
        "weight", rep.weight_orders, weight.radial_derivative_at_zero
    ),
    "weight_mod_constant": lambda rep, metric, weight: {
        "weight_mod_constant": rep.weight_orders[0] == weight.restricted_to_boundary()
    },
    "branches": lambda rep, metric, weight: {
        "has_branches": bool(rep.branches),
        "branches_sound": all(
            v == 0.0 for b in rep.branches for v in b.residuals.values()
        ),
    },
    "truth_among_branches": lambda rep, metric, weight: {
        "truth_among_branches": any(
            _is_true_weight(b.weight_orders, weight) for b in rep.branches
        )
    },
}


class _Method(NamedTuple):
    data: tuple  # DN data to generate: "lambda0", or the gauge tag of lambda1
    recover: Callable  # (data list, metric, weight, task) -> ReconstructionReport
    fields: tuple  # keys of _FIELDS
    checks: tuple  # keys of _CHECKS


#: every method of serialize.RECONSTRUCTION_METHODS.  The recover calls look
#: the recover_* functions up when they run, so a wrapper installed on this
#: module's names (as benchmark/tracing.py installs) sees every call.
RECONSTRUCT = {
    "first-order": _Method(
        ("s", "sigma"),
        lambda data, metric, weight, task: recover_first_order(*data),
        ("recovered_metric", "recovered_weight", "residuals", "normalization"),
        ("metric_orders", "weight_mod_constant"),
    ),
    "metric-known-weight": _Method(
        ("sigma",),
        lambda data, metric, weight, task: recover_metric_known_weight(
            data[0], weight, task["order"]
        ),
        ("recovered_metric", "residuals"),
        ("metric_orders",),
    ),
    "weight-scalar": _Method(
        ("lambda0",),
        lambda data, metric, weight, task: recover_weight_scalar(
            data[0], metric, task["order"]
        ),
        ("recovered_weight", "residuals", "normalization"),
        ("weight_orders",),
    ),
    "weight-gauge": _Method(
        ("s",),
        lambda data, metric, weight, task: recover_weight_gauge(
            data[0], metric, _prescription(weight, task), task["order"]
        ),
        ("branches", "extras"),
        ("branches", "truth_among_branches"),
    ),
    "volume-gauge": _Method(
        ("s", "sigma"),
        lambda data, metric, weight, task: recover_with_known_volume_gauge(
            *data, metric.delta, _prescription(weight, task), task["order"]
        ),
        ("recovered_metric", "branches", "extras"),
        ("metric_orders", "branches", "truth_among_branches"),
    ),
    "volume-scalar": _Method(
        ("lambda0",),
        lambda data, metric, weight, task: recover_with_known_volume_scalar(
            data[0], metric.delta, task["order"]
        ),
        ("recovered_metric", "recovered_weight", "residuals"),
        ("metric_orders", "weight_orders"),
    ),
}


def _task_reconstruct(metric, weight, depth: int, task: dict) -> dict:
    """The DN data of ``metric`` and ``weight`` to ``depth``, inverted by
    the task's method to its order and checked against them."""
    method = RECONSTRUCT[task["method"]]
    data = [dn_symbol(metric, weight, depth, kind) for kind in method.data]
    rep = method.recover(data, metric, weight, task)
    out = {"method": task["method"], "order": task["order"]}
    out.update((name, _FIELDS[name](rep)) for name in method.fields)
    out["checks"] = {}
    for name in method.checks:
        out["checks"].update(_CHECKS[name](rep, metric, weight))
    out["status"] = "pass" if all(out["checks"].values()) else "fail"
    return out


def _task_counterexample(metric, weight, depth: int, task: dict) -> dict:
    result = construct_indistinguishable_weight(metric, weight, task["depth"])
    distinct = result.weight != weight
    return {
        "status": "pass" if (result.dn_matches and distinct) else "fail",
        "alternate_root": jet_to_json(result.alternate_root),
        "alternate_weight": jet_to_json(result.weight),
        "dn_matches": result.dn_matches,
        "distinct": distinct,
    }


def _task_validate_disk(metric, weight, depth: int, task: dict) -> dict:
    problem = RadialProblem(
        rho_coeffs=tuple(task["weight_rho"]), modes=tuple(task["modes"])
    )
    comp = asymptotic_compare(problem, task["depth"])
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


#: every task kind of serialize.VALID_TASK_KINDS -> its record
TASKS = {
    "factorize": _task_factorize,
    "dn": _task_dn,
    "reconstruct": _task_reconstruct,
    "counterexample": _task_counterexample,
    "validate-disk": _task_validate_disk,
}


def run_scenario(scenario: Scenario, digest: str) -> dict:
    """Run every task of the scenario into one report.  The tasks share
    forward runs inside one ``shared_forward_runs`` block, which ends with
    the call."""
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
    with shared_forward_runs():
        tasks = [run_task(scenario, task, i) for i, task in enumerate(scenario.tasks)]
    report["tasks"] = tasks
    report["status"] = (
        "pass" if all(t["status"] == "pass" for t in tasks) else "fail"
    )
    return report
