import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from dncalc.cli import build_parser, main
from dncalc.dn import dn_symbol_gauge, dn_symbol_scalar
from dncalc.randomgen import random_instance
from dncalc.geometry import BoundaryMetricJet
from dncalc.runner import RECONSTRUCT, TASKS, run_scenario
from dncalc.serialize import (
    RECONSTRUCTION_METHODS,
    TASK_FIELDS,
    VALID_TASK_KINDS,
    Scenario,
    dn_to_json,
    homsymbol_to_json,
    jet_from_json,
    jet_to_json,
)
from dncalc.dn import DNSymbolData
from dncalc.errors import DataError, ScenarioError
from dncalc.jets import JetSpace
from dncalc.symbols import FormalSymbol, HomSymbol, XiPoly


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


# ---------------------------------------------------------------------------
# a reader for the DN data records that reports carry; the package writes
# them and never reads them back


def coeff_from_json(space, data):
    """The real jet of a coefficient and whether it is imaginary; one part
    must vanish, since every symbol is real or imaginary coefficient by
    coefficient."""
    re = jet_from_json(space, data["re"])
    im = jet_from_json(space, data["im"]) if "im" in data else None
    if im is None or im.is_zero:
        return re, False
    if not re.is_zero:
        raise DataError("coefficient has nonzero real and imaginary parts")
    return im, True


def poly_from_json(space, nxi, data):
    coeffs, phases = {}, set()
    for term in data.get("terms", []):
        jet, imag = coeff_from_json(space, term["coeff"])
        if not jet.is_zero:
            coeffs[tuple(term["xi"])] = jet
            phases.add(imag)
    if len(phases) > 1:
        raise DataError("polynomial mixes real and imaginary coefficients")
    return XiPoly(nxi, int(data["degree"]), coeffs, True in phases)


def homsymbol_from_json(ctx, data):
    return HomSymbol(
        ctx,
        int(data["degree"]),
        poly_from_json(ctx.space, ctx.nxi, data["even"]),
        poly_from_json(ctx.space, ctx.nxi, data["odd"]),
        int(data["denominator_power"]),
    )


def dn_from_json(data):
    n = int(data["dimension"])
    space = JetSpace(n, data.get("base_point", "p0"))
    upper = [
        [jet_from_json(space, cell) for cell in row]
        for row in data["boundary_metric_upper"]
    ]
    bmetric = BoundaryMetricJet.from_upper(upper)
    depth = int(data["depth"])
    comps = {
        int(key): homsymbol_from_json(bmetric.ctx, rec)
        for key, rec in data["grades"].items()
    }
    symbol = FormalSymbol(bmetric.ctx, comps, 1, 2 - depth)
    density_sq = jet_from_json(space, data["density_sq"])
    return DNSymbolData(
        data["map"], data.get("gauge"), symbol, density_sq, bmetric, n, depth
    )


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


def test_imaginary_polynomial_serialization_roundtrip():
    metric, _ = random_instance(303)
    ctx = metric.ctx
    # i * g^{1b} xi_b over q2, whose even part is imaginary
    drift = HomSymbol.linear_form(ctx, metric.g_upper[0]).times_i()
    sym = HomSymbol(ctx, -1, drift.a, XiPoly(ctx.nxi, 0, {}), 1)
    data = homsymbol_to_json(sym)
    for term in data["even"]["terms"]:
        assert term["coeff"]["re"]["terms"] == [] and term["coeff"]["im"]["terms"]
    back = homsymbol_from_json(ctx, data)
    assert back.a.imag and back == sym


def test_coefficient_with_real_and_imaginary_parts_is_refused():
    metric, _ = random_instance(304)
    ctx = metric.ctx
    one = ctx.space.one(ctx.kr, ctx.ky)
    data = homsymbol_to_json(HomSymbol.linear_form(ctx, [one] * ctx.nxi))
    data["even"]["terms"][0]["coeff"]["im"] = jet_to_json(one)
    with pytest.raises(DataError):
        homsymbol_from_json(ctx, data)
    # one real and one imaginary coefficient in one polynomial
    data = homsymbol_to_json(HomSymbol.linear_form(ctx, [one] * ctx.nxi))
    coeff = data["even"]["terms"][0]["coeff"]
    coeff["re"], coeff["im"] = jet_to_json(ctx.space.zero(ctx.kr, ctx.ky)), coeff["re"]
    with pytest.raises(DataError):
        homsymbol_from_json(ctx, data)


def test_dn_data_with_a_wrong_phase_is_refused():
    # grade 0's even part is real; written as purely imaginary it is refused
    metric, weight = random_instance(305)
    data = dn_to_json(dn_symbol_scalar(metric, weight, 3))
    terms = data["grades"]["0"]["even"]["terms"]
    assert terms
    for term in terms:
        coeff = term["coeff"]
        coeff["re"], coeff["im"] = dict(coeff["re"], terms=[]), coeff["re"]
    with pytest.raises(DataError):
        dn_from_json(data)


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
    # malformed values name their field
    for task, field in (
        ({"kind": "reconstruct", "method": "weight-scalar", "order": "x"}, "order"),
        (
            {
                "kind": "reconstruct",
                "method": "weight-gauge",
                "prescribe": {"d1V": "abc"},
            },
            r"prescribe\.d1V",
        ),
        ({"kind": "validate-disk", "weight_rho": ["1/2", "x"]}, r"weight_rho\[1\]"),
        ({"kind": "validate-disk", "weight_rho": "1/2"}, "weight_rho"),
        ({"kind": "validate-disk", "depth": "two"}, "depth"),
        ({"kind": "counterexample", "depth": "deep"}, "depth"),
    ):
        with pytest.raises(ScenarioError, match=r"tasks\[0\]\." + field):
            Scenario(flat_scenario([task]))
    raw = flat_scenario([{"kind": "dn"}])
    raw["seed"] = "abc"
    with pytest.raises(ScenarioError, match="'seed' must be an integer"):
        Scenario(raw)
    # valid values are stored converted, so the runner reads them as they are
    scenario = Scenario(
        flat_scenario(
            [
                {
                    "kind": "reconstruct",
                    "method": "weight-gauge",
                    "order": "2",
                    "prescribe": {"d2V": "-1/3"},
                },
                {
                    "kind": "reconstruct",
                    "method": "volume-gauge",
                    "prescribe": {"d1V": "true"},
                },
                {"kind": "validate-disk"},
            ],
            seed="7",
        )
    )
    gauge, volume, disk = scenario.tasks
    assert (gauge["order"], gauge["prescribe"]) == (2, {"d2V": Fraction(-1, 3)})
    assert (volume["order"], volume["prescribe"]) == (3, {"d1V": "true"})
    assert disk["weight_rho"] == [Fraction(1, 2), Fraction(-1), Fraction(1, 2)]
    assert scenario.seed == 7


@pytest.mark.parametrize(
    "argv, field",
    [
        (["validate-disk", "--modes", "8,x"], "--modes"),
        (["validate-disk", "--weight-rho", "a,b"], r"weight_rho\[0\]"),
        (
            ["reconstruct", "--method", "weight-gauge", "--prescribe", "d1V=abc"],
            r"prescribe\.d1V",
        ),
        (["selftest", "--criteria", "9"], "--criteria"),
        (["selftest", "--criteria", "2,9"], "--criteria"),
        (["selftest", "--criteria", "x"], "--criteria"),
        (
            ["reconstruct", "--method", "weight-gauge", "--prescribe", "d1V"],
            r"prescribe\.d1V",
        ),
        # the schema refuses a gauge on the scalar map rather than run without it
        (["factorize", "--mode", "scalar", "--gauge", "sigma"], r"tasks\[0\]\.gauge only applies to gauge"),
        (["dn", "--gauge", "sigma"], r"tasks\[0\]\.gauge only applies to lambda1"),
    ],
)
def test_a_malformed_flag_value_exits_two_naming_the_field(argv, field, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert re.search(field, err)


def test_a_malformed_task_value_exits_two_and_names_the_field(tmp_path, capsys):
    raw = flat_scenario(
        [{"kind": "reconstruct", "method": "weight-scalar", "order": "x"}]
    )
    assert main(["run", write_scenario(tmp_path, raw)]) == 2
    assert "'tasks[0].order' must be an integer" in capsys.readouterr().err


GAUGE_D1V = {"prescribe": {"d1V": "true"}}


@pytest.mark.parametrize(
    "task, top, field",
    [
        ({"method": "weight-scalar", "order": 1.9}, {}, r"'tasks\[0\]\.order'"),
        ({"method": "weight-scalar", "order": True}, {}, r"'tasks\[0\]\.order'"),
        ({"method": "weight-scalar", "order": -1}, {}, r"'tasks\[0\]\.order'"),
        ({"method": "weight-gauge", "order": 1, **GAUGE_D1V}, {}, r"'tasks\[0\]\.order'"),
        ({"method": "volume-gauge", "order": 1, **GAUGE_D1V}, {}, r"'tasks\[0\]\.order'"),
        ({"kind": "counterexample", "depth": True}, {}, r"'tasks\[0\]\.depth'"),
        ({"kind": "dn"}, {"seed": 2.7}, "'seed'"),
        ({"kind": "dn"}, {"dimension": 3.5}, "'dimension'"),
        ({"kind": "dn"}, {"truncation": {"radial": True, "tangential": 4}}, "'truncation.radial'"),
    ],
)
def test_an_integer_field_refuses_bools_fractions_and_low_orders(tmp_path, capsys, task, top, field):
    raw = {**flat_scenario([{"kind": "reconstruct", **task}]), **top}
    assert main(["run", write_scenario(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert re.search(field, err)


@pytest.mark.parametrize(
    "task, message",
    [
        ({"kind": "counterexample", "depth": 0}, r"'tasks\[0\]\.depth' must be >= 3"),
        ({"kind": "counterexample", "depth": 2}, r"'tasks\[0\]\.depth' must be >= 3"),
        ({"kind": "validate-disk", "modes": [True, 3]}, r"tasks\[0\]\.modes must be"),
        ({"kind": "validate-disk", "modes": [0, 3]}, r"tasks\[0\]\.modes must be"),
        ({"kind": "validate-disk", "modes": [8, -16]}, r"tasks\[0\]\.modes must be"),
        ({"kind": "validate-disk", "depth": 0}, r"'tasks\[0\]\.depth' must be >= 1"),
        ({"kind": "validate-disk", "depth": -2}, r"'tasks\[0\]\.depth' must be >= 1"),
        ({"kind": "validate-disk", "modes": "8:12"}, r"tasks\[0\]\.modes must span at least one octave"),
        ({"kind": "validate-disk", "modes": [8, 8, 8]}, r"tasks\[0\]\.modes must span at least one octave"),
    ],
    ids=[
        "depth-0", "depth-2", "modes-true", "modes-0", "modes-negative",
        "disk-depth-0", "disk-depth-negative", "modes-under-an-octave", "modes-repeated",
    ],
)
def test_a_low_counterexample_depth_or_mode_exits_two_naming_the_field(
    tmp_path, capsys, task, message
):
    # the counterexample recovers to order depth - 1, which must be >= 2, and
    # the disk check compares factorisations of depth >= 1 and fits a decay
    # over modes spanning an octave
    assert main(["run", write_scenario(tmp_path, flat_scenario([task]))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert re.search(message, err)


@pytest.mark.parametrize(
    "task, message",
    [
        (
            {"kind": "reconstruct", "method": "weight-scalar", "ordr": 1},
            r"tasks\[0\]\.ordr is not a field of a reconstruct task",
        ),
        (
            {"kind": "factorize", "mode": "scalar", "gauge": "sigma"},
            r"tasks\[0\]\.gauge only applies to gauge mode",
        ),
        ({"kind": "dn", "map": "lambda0", "gauge": "s"}, r"tasks\[0\]\.gauge only applies to lambda1"),
        ({"kind": "factorize", "verify": "no"}, r"tasks\[0\]\.verify must be true or false"),
        ({"kind": "factorize", "verify": 0}, r"tasks\[0\]\.verify must be true or false"),
    ],
    ids=["unknown-field", "gauge-on-scalar-factorize", "gauge-on-lambda0", "verify-string", "verify-zero"],
)
def test_a_field_the_task_kind_does_not_read_exits_two_naming_it(tmp_path, capsys, task, message):
    # a misspelt or inapplicable field would otherwise be ignored, and the
    # task would run on defaults the scenario did not ask for
    assert main(["run", write_scenario(tmp_path, flat_scenario([task]))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert re.search(message, err)


def test_a_task_field_flag_has_no_default_of_its_own():
    # a flag left out leaves its field, and the metric, weight and seed of
    # the geometry, to the scenario schema's defaults
    parser = build_parser()
    required = {"dimension", "radial_order", "tangential_order", "symbol_depth"}
    for kind in VALID_TASK_KINDS:
        args = vars(parser.parse_args([kind, "--method", "first-order"] if kind == "reconstruct" else [kind]))
        fields = set(args) - required - {"command", "fn", "output", "method"}
        assert fields <= {*TASK_FIELDS[kind], "metric", "weight", "seed"}, kind
        assert {args[name] for name in fields} <= {None}, kind


def _jet(*terms):
    """A jet record at truncation (3, 2) with the (index, value) terms."""
    return {
        "radial_order": 3,
        "tangential_order": 2,
        "terms": [{"index": index, "value": value} for index, value in terms],
    }


@pytest.mark.parametrize(
    "geometry, message",
    [
        (
            {"weight": _jet(([0, 1], "1"))},
            r"weight: bad multi-index \(0, 1\) for n=3",
        ),
        (
            {"metric": {"1,1": _jet(([0, 0, 0], "1"), ([5, 0, 0], "1"))}},
            r"metric entry '1,1': index \(5, 0, 0\) exceeds truncation orders",
        ),
        (
            {"metric": {"1,1": _jet(([0, 0, 0], "-1"))}},
            r"metric: constant term of the metric block is not positive definite",
        ),
    ],
    ids=["weight-index", "metric-entry-order", "metric-not-positive"],
)
def test_a_malformed_jet_or_metric_table_exits_two_naming_the_field(
    tmp_path, capsys, geometry, message
):
    raw = {**flat_scenario([{"kind": "dn"}], kr=3, ky=2), **geometry}
    assert main(["run", write_scenario(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert re.search(message, err)


def test_a_weight_with_a_nonzero_constant_fails_where_its_density_is_formed(tmp_path):
    # e^{-2V} leaves the rational field when V(0) = 1, so Lambda0, Lambda1 s
    # and the recoveries from them fail on the density, while Lambda1 sigma,
    # whose density is sqrt(delta), passes
    weight = _jet(([0, 0, 0], "1"), ([1, 0, 0], "1/2"))
    tasks = [
        {"kind": "dn", "map": "lambda0"},
        {"kind": "dn", "map": "lambda1", "gauge": "s"},
        {"kind": "dn", "map": "lambda1", "gauge": "sigma"},
        {"kind": "reconstruct", "method": "weight-scalar"},
    ]
    raw = flat_scenario(tasks, depth=2, kr=3, ky=2, weight=weight)
    out = str(tmp_path / "report.json")
    assert main(["run", write_scenario(tmp_path, raw), "-o", out]) == 1
    records = read_report(out)["tasks"]
    density = "BackendError: exp of nonzero constant term -2 leaves the rational field"
    assert [r.get("error") for r in records] == [density, density, None, density]
    assert [r["status"] for r in records] == ["error", "error", "pass", "error"]


GEOMETRY = {
    "dimension": 3,
    "truncation": {"radial": 4, "tangential": 3},
    "depth": 3,
    "metric": "random",
    "weight": "random",
    "seed": 5,
}
GEOMETRY_FLAGS = [
    "--dimension", "3", "--radial-order", "4", "--tangential-order", "3",
    "--depth", "3", "--metric", "random", "--weight", "random", "--seed", "5",
]


@pytest.mark.parametrize(
    "argv, raw",
    [
        (
            ["factorize", "--mode", "gauge", "--gauge", "sigma", *GEOMETRY_FLAGS],
            {**GEOMETRY, "tasks": [{"kind": "factorize", "mode": "gauge", "gauge": "sigma"}]},
        ),
        (
            ["factorize", "--no-verify", *GEOMETRY_FLAGS],
            {**GEOMETRY, "tasks": [{"kind": "factorize", "verify": False}]},
        ),
        (
            ["dn", "--map", "lambda1", "--gauge", "sigma", *GEOMETRY_FLAGS],
            {**GEOMETRY, "tasks": [{"kind": "dn", "map": "lambda1", "gauge": "sigma"}]},
        ),
        (
            ["reconstruct", "--method", "weight-gauge", "--prescribe", "d1V=true", *GEOMETRY_FLAGS],
            {
                **GEOMETRY,
                "tasks": [
                    {"kind": "reconstruct", "method": "weight-gauge", "prescribe": {"d1V": "true"}}
                ],
            },
        ),
        (["counterexample", *GEOMETRY_FLAGS], {**GEOMETRY, "tasks": [{"kind": "counterexample"}]}),
        (
            ["validate-disk", "--modes", "8,16,32", "--depth", "2"],
            {
                "dimension": 2,
                "truncation": {"radial": 4, "tangential": 3},
                "depth": 2,
                "tasks": [{"kind": "validate-disk", "modes": [8, 16, 32], "depth": 2}],
            },
        ),
    ],
    ids=["factorize-sigma", "factorize-no-verify", "dn-sigma", "reconstruct", "counterexample", "validate-disk"],
)
def test_a_one_task_subcommand_reports_what_run_reports_on_its_scenario(tmp_path, argv, raw):
    # a subcommand is a one-task scenario written as flags; only the input
    # digest and the time of the report may differ
    sub, run = str(tmp_path / "sub.json"), str(tmp_path / "run.json")
    path = write_scenario(tmp_path, {"schema_version": 1, **raw})
    assert main([*argv, "-o", sub]) == main(["run", path, "-o", run])

    def stripped(path):
        report = strip_timestamp(read_report(path))
        del report["provenance"]["input_sha256"]
        return report

    assert stripped(sub) == stripped(run)
    assert stripped(sub)["tasks"][0]["status"] == "pass"


def test_reconstruct_order_defaults_to_the_scenario_schema(tmp_path):
    # no --order: the task gets min(3, depth - 1), here 1
    out = str(tmp_path / "report.json")
    argv = ["reconstruct", "--method", "weight-scalar", "--depth", "2",
            "--radial-order", "3", "--tangential-order", "2", "-o", out]
    assert main(argv) == 0
    assert read_report(out)["tasks"][0]["order"] == 1


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
    code = main(["selftest", "--criteria", "2,3,5,7,8"])
    captured = capsys.readouterr()
    assert code == 0
    for number in (2, 3, 5, 7, 8):
        assert "criterion %d" % number in captured.out
    assert "5/5 criteria passed" in captured.out


def test_float_backend_scenario_exits_two(tmp_path, capsys):
    raw = flat_scenario([{"kind": "factorize", "mode": "scalar"}])
    raw["backend"] = "float"
    path = write_scenario(tmp_path, raw)
    assert main(["run", path]) == 2
    assert "field 'backend'" in capsys.readouterr().err


DATA = os.path.join(os.path.dirname(__file__), "data")
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "scenarios")


def assert_report_matches(tmp_path, scenario, golden):
    """The report of ``dncalc run scenario`` equals the file ``golden`` line
    by line, apart from generated_at.  To renew a golden report after an
    intended change, run ``dncalc run <scenario> -o <golden>`` and review
    the diff."""
    out = tmp_path / "report.json"
    assert main(["run", scenario, "-o", str(out)]) == 0

    def lines(path):
        with open(path) as fh:
            return [line for line in fh if '"generated_at"' not in line]

    assert lines(out) == lines(golden)


def test_reconstruct_report_matches_golden(tmp_path):
    # all six reconstruct methods, both prescriptions of the two gauge
    # methods, and a counterexample, on a random (4,3) scenario at depth 3
    assert_report_matches(
        tmp_path,
        os.path.join(DATA, "golden-reconstruct.json"),
        os.path.join(DATA, "golden-reconstruct.report.json"),
    )


@pytest.mark.parametrize(
    "name",
    sorted(f[: -len(".json")] for f in os.listdir(SCENARIOS) if f.endswith(".json")),
)
def test_roundtrip_report_matches_golden(tmp_path, name):
    # every benchmark scenario: roundtrip runs factorize, dn, all six
    # reconstruct methods, counterexample and validate-disk tasks on an (4,3)
    # instance, and dense-* and deep-* the factorize tasks of the forward
    # workloads
    assert_report_matches(
        tmp_path,
        os.path.join(SCENARIOS, name + ".json"),
        os.path.join(DATA, name + ".report.json"),
    )


def test_a_scenario_run_factorises_each_distinct_forward_run_once(factorisations):
    # the golden report asks for DN data 90 times, on 42 distinct inputs,
    # all derived from 26 sigma runs; a second run starts with nothing
    # shared, and neither does a call after
    with open(os.path.join(DATA, "golden-reconstruct.json")) as fh:
        scenario = Scenario(json.load(fh))
    counts = []
    for _ in range(2):
        before = factorisations[0]
        run_scenario(scenario, "golden")
        counts.append(factorisations[0] - before)
    assert counts == [26, 26]
    dn_symbol_scalar(scenario.metric, scenario.weight, scenario.depth)
    assert factorisations[0] == 53


def test_runner_table_covers_every_reconstruct_method():
    assert tuple(RECONSTRUCT) == RECONSTRUCTION_METHODS


def test_runner_table_covers_every_task_kind():
    assert tuple(TASKS) == VALID_TASK_KINDS


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
        "has_branches": False,
        "branches_sound": True,
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


def test_failed_solve_is_named_in_the_task_record(monkeypatch, tmp_path):
    # the recovery runs against a metric wrong in its r^1 coefficient, so
    # the driver's solve at order 1 (grade 0) turns inconsistent, leaving a
    # coefficient of size 1/4 behind
    import dncalc.runner as runner

    recover = runner.recover_weight_scalar

    def off_metric(dn, metric, order):
        rows = [list(row) for row in metric.g_lower]
        rows[0][0] = rows[0][0] + metric.space.coordinate(0, metric.kr, metric.ky)
        return recover(dn, BoundaryMetricJet(rows), order)

    monkeypatch.setattr(runner, "recover_weight_scalar", off_metric)
    raw = flat_scenario(
        [
            {"kind": "reconstruct", "method": "weight-scalar", "order": 2},
            {"kind": "dn", "map": "lambda0"},
        ],
        depth=3,
        kr=4,
        ky=3,
    )
    path = write_scenario(tmp_path, raw)
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out]) == 1
    failed, passed = read_report(out)["tasks"]
    assert failed["status"] == "error"
    assert failed["error"].startswith(
        "ReconstructionError: weight_scalar: order 1 (grade 0): "
    )
    assert failed["failure"] == {
        "method": "weight_scalar", "order": 1, "grade": 0, "residual": 0.25
    }
    assert passed["status"] == "pass" and "failure" not in passed


def test_a_missing_unit_pivot_names_the_unknown_in_the_task_record(monkeypatch, tmp_path):
    # the probes of the metric recovery return a zero column for unknown 1,
    # the (0, 1) entry of the order-1 matrix, so the solve at order 1
    # (grade 0) finds no unit pivot for it
    import dncalc.reconstruction as reconstruction

    probe = reconstruction._probe

    def zero_column(fn, nparams):
        base, dirs = probe(fn, nparams)
        dirs[1] = [d.scale(0) for d in dirs[1]]
        return base, dirs

    monkeypatch.setattr(reconstruction, "_probe", zero_column)
    raw = flat_scenario(
        [{"kind": "reconstruct", "method": "metric-known-weight", "order": 2}],
        depth=3,
        kr=4,
        ky=3,
    )
    path = write_scenario(tmp_path, raw)
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out]) == 1
    (failed,) = read_report(out)["tasks"]
    assert failed["error"] == (
        "ReconstructionError: metric_known_weight: order 1 (grade 0): "
        "no unit pivot for unknown 1 of 3"
    )
    assert failed["failure"] == {
        "method": "metric_known_weight", "order": 1, "grade": 0, "unknown": 1
    }


def test_an_exact_command_starts_without_numpy_or_scipy(tmp_path):
    # only the numeric disk check needs them, and importing scipy.integrate
    # took most of a cold start when diskcheck loaded it at import
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import dncalc, dncalc.cli\n"
        "status = dncalc.cli.main(['factorize', '--depth', '2', '-o', sys.argv[2]])\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]\n"
        "print(status, sorted(loaded))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src, str(tmp_path / "report.json")],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.splitlines()[-1] == "0 []"
