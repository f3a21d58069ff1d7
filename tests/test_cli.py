import json
import os

import pytest

from dncalc.cli import main
from dncalc.dn import dn_symbol_gauge, dn_symbol_scalar
from dncalc.randomgen import random_instance
from dncalc.runner import RECONSTRUCT
from dncalc.serialize import (
    RECONSTRUCTION_METHODS,
    Scenario,
    dn_from_json,
    dn_to_json,
    jet_from_json,
    jet_to_json,
)
from dncalc.errors import ScenarioError
from dncalc.jets import JetSpace


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def flat_scenario(tasks, depth=4, kr=5, ky=4, seed=0, metric="flat", weight="zero"):
    return {
        "schema_version": 1,
        "dimension": 3,
        "truncation": {"radial": kr, "tangential": ky},
        "depth": depth,
        "backend": "rational",
        "seed": seed,
        "metric": metric,
        "weight": weight,
        "tasks": tasks,
    }


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(report):
    report = json.loads(json.dumps(report))
    report["provenance"].pop("generated_at", None)
    return report


def test_jet_serialization_roundtrip():
    sp = JetSpace(3)
    metric, weight = random_instance(301)
    data = jet_to_json(weight)
    back = jet_from_json(sp, data)
    assert back == weight
    assert back.kr == weight.kr and back.ky == weight.ky


def test_dn_serialization_roundtrip():
    metric, weight = random_instance(302)
    for dn in (
        dn_symbol_scalar(metric, weight, 3),
        dn_symbol_gauge(metric, weight, 3, "s"),
    ):
        back = dn_from_json(dn_to_json(dn))
        assert back.agrees_with(dn)


def test_flat_verify_scenario_exits_zero(tmp_path, capsys):
    raw = flat_scenario([{"kind": "factorize", "mode": "scalar", "verify": True}])
    path = write_scenario(tmp_path, raw)
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out]) == 0
    report = read_report(out)
    assert report["status"] == "pass"
    assert report["tasks"][0]["residual"] == "PASS"


def test_budget_error_names_offending_task(tmp_path):
    raw = flat_scenario(
        [{"kind": "factorize", "mode": "scalar"}], depth=4, kr=2, ky=2
    )
    path = write_scenario(tmp_path, raw)
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out]) == 1
    report = read_report(out)
    task = report["tasks"][0]
    assert task["status"] == "error"
    assert "BudgetExhaustedError" in task["error"]
    assert task["index"] == 0


def test_parse_error_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["run", str(path)]) == 2


def test_schema_validation_messages():
    with pytest.raises(ScenarioError, match="schema_version"):
        Scenario({"dimension": 3})
    with pytest.raises(ScenarioError, match="tasks"):
        Scenario(
            {
                "schema_version": 1,
                "dimension": 3,
                "truncation": {"radial": 3, "tangential": 2},
                "depth": 2,
                "tasks": [],
            }
        )
    with pytest.raises(ScenarioError, match="prescribe"):
        Scenario(
            flat_scenario([{"kind": "reconstruct", "method": "weight-gauge"}])
        )


def test_roundtrip_scenario_report_deterministic(tmp_path):
    raw = flat_scenario(
        [
            {"kind": "factorize", "mode": "gauge", "gauge": "s"},
            {"kind": "reconstruct", "method": "weight-scalar", "order": 2},
            {
                "kind": "reconstruct",
                "method": "weight-gauge",
                "order": 2,
                "prescribe": {"d1V": "true"},
            },
        ],
        metric="random",
        weight="random",
        seed=11,
        depth=4,
    )
    path = write_scenario(tmp_path, raw)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["run", path, "-o", out1]) == 0
    assert main(["run", path, "-o", out2]) == 0
    r1 = strip_timestamp(read_report(out1))
    r2 = strip_timestamp(read_report(out2))
    assert r1 == r2
    for task in r1["tasks"]:
        assert task["status"] == "pass"
        if task["kind"] == "reconstruct":
            assert all(task["checks"].values())


def test_full_roundtrip_scenario_with_volume_tasks(tmp_path):
    raw = flat_scenario(
        [
            {
                "kind": "reconstruct",
                "method": "volume-scalar",
                "order": 3,
            },
            {"kind": "counterexample", "depth": 4},
        ],
        metric="random",
        weight="random",
        seed=5,
    )
    # random weights have d_r V != 0 by construction; with E0 = 0 at this
    # metric the two roots are distinct, so the counterexample exists
    path = write_scenario(tmp_path, raw)
    out = str(tmp_path / "report.json")
    code = main(["run", path, "-o", out])
    report = read_report(out)
    assert code == 0, report
    recon = report["tasks"][0]
    assert all(recon["checks"].values())
    ce = report["tasks"][1]
    assert ce["dn_matches"] and ce["distinct"]


def test_reconstruct_subcommand_two_branches(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(
        [
            "reconstruct",
            "--method",
            "weight-gauge",
            "--prescribe",
            "d2V=true",
            "--order",
            "2",
            "--metric",
            "flat",
            "--weight",
            "random",
            "--seed",
            "19",
            "-o",
            out,
        ]
    )
    report = read_report(out)
    task = report["tasks"][0]
    assert code == 0, report
    assert len(task["branches"]) == 2
    assert task["checks"]["truth_among_branches"]


def test_conflicting_prescriptions_rejected():
    code = main(
        [
            "reconstruct",
            "--method",
            "weight-gauge",
            "--prescribe",
            "d1V=true",
            "--prescribe2",
            "d2V=0",
        ]
    )
    assert code == 2


def test_validate_disk_subcommand(tmp_path):
    out = str(tmp_path / "disk.json")
    code = main(
        ["validate-disk", "--modes", "8:32", "--depth", "2", "-o", out]
    )
    assert code == 0
    report = read_report(out)
    task = report["tasks"][0]
    assert task["status"] == "pass"
    assert task["slope"] <= -1.7


def test_selftest_quick_criteria(capsys):
    code = main(["selftest", "--criteria", "2,8"])
    captured = capsys.readouterr()
    assert code == 0
    assert "criterion 2" in captured.out
    assert "criterion 8" in captured.out


def test_parallel_flag(tmp_path):
    raw = flat_scenario(
        [
            {"kind": "factorize", "mode": "scalar"},
            {"kind": "factorize", "mode": "gauge", "gauge": "sigma"},
        ]
    )
    path = write_scenario(tmp_path, raw)
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out, "--parallel"]) == 0
    report = read_report(out)
    assert [t["status"] for t in report["tasks"]] == ["pass", "pass"]


def test_float_backend_scenario_exits_two(tmp_path, capsys):
    raw = flat_scenario([{"kind": "factorize", "mode": "scalar"}])
    raw["backend"] = "float"
    path = write_scenario(tmp_path, raw)
    assert main(["run", path]) == 2
    assert "field 'backend'" in capsys.readouterr().err


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_reconstruct_report_matches_golden(tmp_path):
    """All six reconstruct methods, both prescriptions of the two gauge
    methods, and a counterexample, on a random (4,3) scenario at depth 3:
    the report must stay byte-identical apart from generated_at.  To renew
    the golden report after an intended change, run
    ``dncalc run tests/data/golden-reconstruct.json
    -o tests/data/golden-reconstruct.report.json`` and review the diff."""
    out = tmp_path / "report.json"
    assert main(["run", os.path.join(DATA, "golden-reconstruct.json"), "-o", str(out)]) == 0

    def lines(path):
        with open(path) as fh:
            return [line for line in fh if '"generated_at"' not in line]

    assert lines(out) == lines(os.path.join(DATA, "golden-reconstruct.report.json"))


def test_runner_table_covers_every_reconstruct_method():
    assert tuple(RECONSTRUCT) == RECONSTRUCTION_METHODS


def test_volume_gauge_without_real_roots_fails_its_task(tmp_path):
    # flat metric, zero weight, d2V = -1: the discriminant is -2, so no
    # branch exists; the record keeps the three metric orders it recovered
    raw = flat_scenario(
        [
            {
                "kind": "reconstruct",
                "method": "volume-gauge",
                "order": 3,
                "prescribe": {"d2V": "-1"},
            }
        ]
    )
    path = write_scenario(tmp_path, raw)
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out]) == 1
    task = read_report(out)["tasks"][0]
    assert task["status"] == "fail"
    assert task["branches"] == []
    assert task["checks"] == {
        "metric_order_0": True,
        "metric_order_1": True,
        "metric_order_2": True,
        "truth_among_branches": False,
    }


def test_reconstruct_checks_compare_against_the_truth(monkeypatch, tmp_path):
    # the method table calls the recovery through the runner's module name,
    # so a replaced one is the one that runs; its wrong order fails the check
    import dncalc.runner as runner

    recover = runner.recover_weight_scalar

    def off_at_order_one(dn, metric, order):
        rep = recover(dn, metric, order)
        rep.weight_orders[1] = rep.weight_orders[1] + dn.ctx.space.one(0, 3)
        return rep

    monkeypatch.setattr(runner, "recover_weight_scalar", off_at_order_one)
    raw = flat_scenario(
        [{"kind": "reconstruct", "method": "weight-scalar", "order": 2}],
        depth=3,
        kr=4,
        ky=3,
    )
    path = write_scenario(tmp_path, raw)
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out]) == 1
    task = read_report(out)["tasks"][0]
    assert task["status"] == "fail"
    assert task["checks"] == {
        "weight_order_0": True,
        "weight_order_1": False,
        "weight_order_2": True,
    }
